"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The randomized fan suite is generated once from a fixed seed and shared by
the criteria that reference it.
"""

import functools
import math
import random
from fractions import Fraction
from pathlib import Path

from conftest import (_angle_cmp, closure_order, ehrhart_delta_reference,
                      fan_a1,
                      fan_p1, fan_p2, fan_p12, fan_p112, fan_p12323,
                      h_vector_reference, named_fans, random_admissible_lambda,
                      random_complete_rank2, random_complete_rank3,
                      random_convex_rank2, random_convex_rank3,
                      random_klt_divisor, random_stellar_chain, sector_betti,
                      transitive_reduction, weighted_projective)
from stackyfan.arcspace import (gamma_truncated_direct, orbit_poset,
                                zero_divisor)
from stackyfan.cli import parse_fan_document, render_document, run_command
from stackyfan.core import Fan, determinant_abs, validate_fan
from stackyfan.deltainv import (_oracle_points, bucket_series, check_symmetry,
                                delta_mu_series, ehrhart_delta, gamma,
                                hodge_polynomial_toric, orbifold_betti,
                                weighted_delta_closed, weighted_delta_series)
from stackyfan.qseries import (FracPoly, FracRational, expand_laurent,
                               expand_series, series_equal,
                               substitute_reciprocal)
from stackyfan.refine import check_invariance, stellar_subdivide
from stackyfan.stacky import (PiecewiseQLinear, age, box_all, box_elements,
                              group_order, iota, psi, zero_functional)

DATA = Path(__file__).parent / "data"


def criterion(num, name):
    """Run the wrapped check and print one pass/fail line for it, past
    pytest's output capture."""
    def deco(fn):
        def wrapper(capsys):
            verdict = "FAIL"
            try:
                fn()
                verdict = "PASS"
            finally:
                with capsys.disabled():
                    print(f"criterion {num} ({name}): {verdict}", flush=True)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def fan_suite():
    """50 randomized stacky fans of rank <= 3, complete and convex."""
    rng = random.Random(20240824)
    fans = [random_complete_rank2(rng) for _ in range(30)]
    fans += [random_convex_rank2(rng) for _ in range(10)]
    fans += [random_complete_rank3(rng) for _ in range(6)]
    fans += [random_convex_rank3(rng) for _ in range(4)]
    return tuple(fans)


def _suite_lambdas(rng, f):
    """Three admissible functionals per fan; values in (-1, 2] on the
    quarter grid, restricted to >= 0 in rank 3 to keep the series oracle's
    level bound small."""
    min_num = 0 if f.rank >= 3 else None
    return [random_admissible_lambda(rng, f, min_num=min_num)
            for _ in range(3)]


def _poly(terms):
    return FracRational(FracPoly({Fraction(k): Fraction(v)
                                  for k, v in terms.items()}))


@criterion(1, "named-fan exact values")
def test_criterion_1_named_fan_values():
    half = Fraction(1, 2)
    assert ehrhart_delta(fan_a1()) == _poly({0: 1})
    assert ehrhart_delta(fan_p1()) == _poly({0: 1, 1: 1})
    assert ehrhart_delta(fan_p2()) == _poly({0: 1, 1: 1, 2: 1})
    assert weighted_delta_closed(fan_p12(), zero_functional(fan_p12())) == \
        _poly({0: 1, half: 1, 1: 1})
    assert weighted_delta_closed(fan_p112(), zero_functional(fan_p112())) == \
        _poly({0: 1, 1: 2, 2: 1})
    expected_gamma = {"a1": {1: 1}, "p1": {1: 1, 0: 1},
                      "p2": {2: 1, 1: 1, 0: 1}, "p12": {1: 1, half: 1, 0: 1},
                      "p112": {2: 1, 1: 2, 0: 1}}
    for name, f in named_fans().items():
        assert gamma(f, zero_divisor(f)) == _poly(expected_gamma[name])


@criterion(2, "closed formula vs definitional series")
def test_criterion_2_oracle_equivalence():
    rng = random.Random(101)
    fans = fan_suite()
    assert len(fans) >= 50
    for f in fans:
        cutoff = Fraction(f.rank + 2)
        for lam in _suite_lambdas(rng, f):
            oracle = weighted_delta_series(f, lam, cutoff)
            closed = expand_series(weighted_delta_closed(f, lam), cutoff)
            assert series_equal(oracle, closed), \
                (f.fan.rays, f.weights, lam.values_on_b)


@criterion(3, "palindromy on complete fans")
def test_criterion_3_symmetry():
    rng = random.Random(103)
    complete = [f for f in fan_suite()
                if f.fan.support_kind == "complete"]
    complete += [f for f in named_fans().values()
                 if f.fan.support_kind == "complete"]
    for f in complete:
        lam = random_admissible_lambda(
            rng, f, min_num=0 if f.rank >= 3 else None)
        assert check_symmetry(f, lam), (f.fan.rays, f.weights,
                                        lam.values_on_b)
        # canonical-form equality, spelled out
        delta = weighted_delta_closed(f, lam)
        flipped = FracRational(FracPoly.t_power(f.rank)) * \
            substitute_reciprocal(delta)
        assert delta == flipped


@criterion(4, "box/group consistency and involution")
def test_criterion_4_box_group():
    fans = list(named_fans().values()) + list(fan_suite())
    for f in fans:
        for sigma in f.fan.maximal_cones:
            if sigma.dim != f.rank:
                continue
            total = sum(len(box_elements(f, tau)) for tau in sigma.faces())
            assert total == group_order(f, sigma)
        for tau in f.fan.sorted_cones:
            box = box_elements(f, tau)
            for e in box:
                assert iota(f, e) in box
        for e in box_all(f):
            back = iota(f, iota(f, e))
            assert back.point == e.point and back.q == e.q
            if not e.is_zero:
                assert age(f, e) + age(f, iota(f, e)) == e.cone.dim


@criterion(5, "motivic integral: direct vs closed")
def test_criterion_5_gamma_consistency():
    rng = random.Random(105)
    fans = list(named_fans().values()) + \
        [f for f in fan_suite() if f.rank == 2][:3]
    for f in fans:
        bound = Fraction(f.rank + 2)
        divisors = [zero_divisor(f)] + \
            [random_klt_divisor(rng, f) for _ in range(2)]
        for e in divisors:
            direct = gamma_truncated_direct(f, e, bound)
            closed = expand_laurent(substitute_reciprocal(gamma(f, e)),
                                    direct.cutoff)
            assert series_equal(direct, closed), \
                (f.fan.rays, f.weights, e.coefficients)


@criterion(6, "invariance under stellar subdivision chains")
def test_criterion_6_refinement_invariance():
    rng = random.Random(106)
    checked = 0
    while checked < 25:
        coarse = random_complete_rank2(rng)
        fine = coarse
        for _ in range(rng.randint(1, 3)):
            sigma = rng.choice(fine.fan.maximal_cones)
            i, j = sigma.ray_indices
            w = tuple(a + b for a, b in zip(fine.b(i), fine.b(j)))
            mult = math.gcd(abs(w[0]), abs(w[1]))
            fine = stellar_subdivide(fine, w, mult)
        if fine is coarse:
            continue
        lam = random_admissible_lambda(rng, coarse)
        assert check_invariance(coarse, lam, fine), \
            (coarse.fan.rays, fine.fan.rays, lam.values_on_b)
        checked += 1


def _ehrhart_polynomial(delta, d, x):
    """f(x) = sum_j delta_j C(x - j + d, d), as a polynomial in x."""
    total = Fraction(0)
    for j, c in delta.num.terms.items():
        total += c * math.prod(range(x - int(j) + 1, x - int(j) + d + 1))
    return total / math.factorial(d)


def _interior_count(sfan, m):
    """#{v in N cap |Sigma| : psi(v) < m}, from the oracle's points."""
    return sum(sum(n) < m * den
               for _, den, points in _oracle_points(sfan, m)
               for n in points.values())


@criterion(7, "Ehrhart structure")
def test_criterion_7_ehrhart_structure():
    rng = random.Random(107)
    fans = list(named_fans().values()) + \
        [f for f in fan_suite() if f.rank == 2][:5] + [fan_p12323()]
    for f in fans:
        # the closed form, bucketed, against the oracle's counts
        v = ehrhart_delta(f)
        assert v == ehrhart_delta_reference(f), (f.fan.rays, f.weights)
        assert v.is_polynomial()
        for c in v.num.terms.values():
            assert c.denominator == 1 and c >= 0
        vol = sum(v.num.terms.values())
        assert vol == sum(
            determinant_abs([f.b(i) for i in sigma.ray_indices])
            for sigma in f.fan.maximal_cones if sigma.dim == f.rank)
        # reciprocity on complete fans: f(-m) = (-1)^d #{v : psi(v) < m}
        if f.fan.support_kind == "complete":
            for m in (1, 2, 3):
                assert _ehrhart_polynomial(v, f.rank, -m) == \
                    (-1) ** f.rank * _interior_count(f, m), (f.fan.rays, m)
    # delta is palindromic exactly when every box element has integer age
    # (psi is integral on N), on a slice rich in such Gorenstein fans.  The
    # weighted delta-vector at lambda = 0 is palindromic, so delta read
    # backwards is its terms c t^e moved to t^floor(e); a floor in place of
    # the ceiling would pass the palindromy alone
    gorenstein = [*fans, *(random_stellar_chain(rng, rank, rng.randint(
        rank + 2, 10)) for rank in (2, 2, 3, 3))]
    gorenstein += [random_complete_rank2(rng, max_weight=1) for _ in range(8)]
    gorenstein += [random_complete_rank3(rng, max_weight=1) for _ in range(4)]
    seen = set()
    for f in gorenstein:
        if f.fan.support_kind != "complete":
            continue
        coeffs = [ehrhart_delta(f).num.terms.get(Fraction(j), 0)
                  for j in range(f.rank + 1)]
        closed = weighted_delta_closed(f, zero_functional(f)).num.terms
        assert coeffs[::-1] == [sum(c for e, c in closed.items()
                                    if math.floor(e) == j)
                                for j in range(f.rank + 1)]
        integral = all(age(f, e).denominator == 1 for e in box_all(f))
        assert (coeffs == coeffs[::-1]) == integral, (f.fan.rays, f.weights)
        seen.add(integral)
    assert seen == {True, False}
    # bucketing vs the mu-series needs lambda integer-valued on all lattice
    # points: any non-negative integer values on smooth fans, and the frozen
    # lattice-integral triples on the fans with nontrivial box elements
    cases = [(fan_p1(), [(1, 0), (2, 2)]), (fan_p2(), [(0, 1, 2), (3, 0, 1)]),
             (fan_p12(), [(1, 2), (0, 0), (2, 4)]),
             (fan_p112(), [(1, 0, 1), (2, 1, 0), (0, 3, 2)])]
    for f, lams in cases:
        for vals in lams:
            lam = PiecewiseQLinear(f, tuple(Fraction(v) for v in vals))
            cutoff = Fraction(f.rank + 2)
            assert series_equal(
                bucket_series(weighted_delta_series(f, lam, cutoff)),
                delta_mu_series(f, lam, cutoff))


@criterion(8, "orbit poset fixtures and axioms")
def test_criterion_8_orbit_poset():
    a1 = orbit_poset(fan_a1(), 2)
    assert sorted(l.w for l in a1.labels) == [(0,), (1,), (2,)]
    assert closure_order(fan_a1(), a1.labels) == {
        ((0,), (1,)), ((0,), (2,)), ((1,), (2,))}
    p12 = orbit_poset(fan_p12(), 2)
    assert closure_order(fan_p12(), p12.labels) == {
        ((-2,), (-4,)), ((-1,), (-3,)), ((0,), (-4,)), ((0,), (-2,)),
        ((0,), (1,)), ((0,), (2,)), ((1,), (2,))}
    for f, poset in [(fan_a1(), a1), (fan_p12(), p12)]:
        rel = closure_order(f, poset.labels)
        for a, b in rel:
            assert a != b
            assert (b, a) not in rel
            assert psi(f, a) < psi(f, b)
            for c, d in rel:
                if b == c:
                    assert (a, d) in rel
        assert poset.covers <= rel
        assert poset.covers == transitive_reduction(rel)


@criterion(9, "CLI golden outputs and round-trip")
def test_criterion_9_cli_golden():
    from test_cli import GOLDEN, GOLDEN_CASES, _with_paths
    for name, expected_code, argv in GOLDEN_CASES:
        code, out = run_command(_with_paths(argv))
        assert code == expected_code, name
        assert out == (GOLDEN / f"{name}.txt").read_text(), name
    for name in ("fan_a1", "fan_p1", "fan_p2", "fan_p12", "fan_p112"):
        text = (DATA / f"{name}.json").read_text()
        doc = parse_fan_document(text)
        assert parse_fan_document(render_document(doc)) == doc


@criterion(10, "weighted projective stacks against the sector sum")
def test_criterion_10_weighted_projective_stacks():
    # P(w) of ranks 1-8 with weights 3-9, so that every maximal cone, of
    # box-group order w_i, holds 3 or more box elements
    rng = random.Random(110)
    for rank in range(1, 9):
        for _ in range(4):
            weights = [0]
            while math.gcd(*weights) != 1:
                weights = [rng.randint(3, 9) for _ in range(rank + 1)]
            f = weighted_projective(weights)
            reference = sector_betti(weights)
            assert sum(reference.values()) == sum(weights)
            assert orbifold_betti(f) == reference, weights
            # the delta-vector at lambda = 0 is q^d Gamma(1/q), each term
            # bucketed to t^ceil(d - e)
            bucketed = {}
            for e, c in reference.items():
                k = math.ceil(rank - e)
                bucketed[k] = bucketed.get(k, 0) + c
            assert ehrhart_delta(f) == FracRational(FracPoly(bucketed)), \
                weights


@criterion(11, "McKay correspondence in rank 2")
def test_criterion_11_mckay_rank2():
    # a Gorenstein complete rank-2 fan X with weights 1 (every box element
    # of integer age) against its crepant resolution Y: X's rays plus the
    # junior (age-1) box points, which in a unit-weight Gorenstein 2-cone
    # are the lattice points inside the segment between its rays, found
    # here without the box enumerator; every cone of Y is unimodular, and
    # E(Y) = q^2 h(1/q) is read from its face counts alone, by
    # h_vector_reference, as well as from the assembly, by
    # hodge_polynomial_toric
    rng = random.Random(16)
    gorenstein = resolved = 0
    for _ in range(400):
        x = random_complete_rank2(rng, max_weight=1)
        if any(age(x, e).denominator != 1 for e in box_all(x)):
            continue
        rays = list(x.fan.rays)
        for sigma in x.fan.maximal_cones:
            u, v = (x.fan.rays[i] for i in sigma.ray_indices)
            g = math.gcd(v[0] - u[0], v[1] - u[1])
            rays += [(u[0] + k * (v[0] - u[0]) // g,
                      u[1] + k * (v[1] - u[1]) // g) for k in range(1, g)]
        rays.sort(key=functools.cmp_to_key(_angle_cmp))
        n = len(rays)
        y = Fan.from_maximal(2, rays, [(i, (i + 1) % n) for i in range(n)],
                             "complete")
        assert validate_fan(y).ok
        assert all(determinant_abs([y.rays[i] for i in c.ray_indices]) == 1
                   for c in y.maximal_cones)
        e_y = {2 - e: c for e, c in h_vector_reference(y).terms.items()}
        assert orbifold_betti(x) == hodge_polynomial_toric(y).terms == e_y, \
            rays
        gorenstein += 1
        resolved += n > len(x.fan.rays)
    # 26 Gorenstein fans, 20 of them not smooth
    assert (gorenstein, resolved) == (26, 20)

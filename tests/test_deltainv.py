import functools
import operator
import random
import re
from fractions import Fraction

import pytest

from conftest import (ehrhart_delta_reference, fan_a1, fan_p1, fan_p2,
                      fan_p12, fan_p112, fan_p12323, mk_sfan, named_fans,
                      product, random_admissible_lambda,
                      random_complete_rank2, random_complete_rank3,
                      random_convex_rank2, random_convex_rank3, random_rank1,
                      series_of)
from stackyfan.arcspace import StackDivisor, zero_divisor
from stackyfan.core import Cone, ZERO_CONE, determinant_abs, validate_fan
from stackyfan import core, deltainv, stacky
from stackyfan.deltainv import (_oracle_points, bucket_series,
                                check_symmetry, count_lattice_points,
                                delta_mu_series, ehrhart_counts,
                                ehrhart_delta, gamma, h_tau_lambda, h_vector,
                                hodge_polynomial_toric, orbifold_betti,
                                weighted_delta_closed, weighted_delta_series)
from stackyfan.errors import (BudgetExceeded, InvariantViolation,
                              LambdaNotKLT, NegativeMu, NotComplete, NotKLT)
from stackyfan.qseries import (FracPoly, FracRational, expand_series,
                               series_equal)
from stackyfan.stacky import (PiecewiseQLinear, StackyFan, age, box_elements,
                              zero_functional)


def P(terms):
    return FracPoly(terms)


def R(num, den=None):
    return FracRational(P(num), P(den) if den is not None else None)


# ---------------------------------------------------------------------------
# Lattice-point counting and the unweighted delta-vector


def test_count_lattice_points_examples():
    assert count_lattice_points(fan_a1(), 0) == 1
    assert count_lattice_points(fan_a1(), 2) == 3
    assert count_lattice_points(fan_p1(), 1) == 3
    assert count_lattice_points(fan_p2(), 1) == 4
    assert count_lattice_points(fan_p12(), 1) == 4


def test_ehrhart_counts_p2():
    assert ehrhart_counts(fan_p2(), 2) == (1, 4, 10)


def _forbid_the_walk(monkeypatch):
    """Make the walk over a cone's box raise: the oracle scan's first
    itertools.product, which comes after its admission and the origin."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle scan started")

    monkeypatch.setattr(deltainv.itertools, "product", forbidden)


def test_ehrhart_counts_over_budget_raise_before_scanning(monkeypatch):
    # the series oracles scanned with no budget: their time grew with the
    # square of the cutoff on a rank-2 fan
    rng = random.Random(41)
    fans = [fan_p2(), fan_p112(), random_complete_rank3(rng)]
    _forbid_the_walk(monkeypatch)
    for f in fans:
        zero = zero_functional(f)
        near_minus_one = PiecewiseQLinear(
            f, (Fraction(-999, 1000),) * len(f.fan.rays))
        for oracle in [lambda: ehrhart_counts(f, 10 ** 4),
                       lambda: weighted_delta_series(f, zero, 2000),
                       lambda: weighted_delta_series(f, near_minus_one, 10),
                       lambda: delta_mu_series(f, zero, 2000)]:
            with pytest.raises(BudgetExceeded):
                oracle()


def test_oracle_scan_over_budget_raises_before_its_first_point(monkeypatch):
    # only the oracles that called the scan admitted it, so a direct scan
    # of P2 up to 10^13 started with no limit; now not even the origin is
    # yielded
    _forbid_the_walk(monkeypatch)
    with pytest.raises(BudgetExceeded, match="the oracle scan up to "
                       "10000000000000 may walk"):
        next(_oracle_points(fan_p2(), 10 ** 13))


def _scan_at_budget(monkeypatch, budget, f, bound):
    """The points of _oracle_points(f, bound) under the given budget."""
    with monkeypatch.context() as m:
        m.setattr(deltainv, "EHRHART_SCAN_BUDGET", budget)
        return sum(len(points) for _, _, points in _oracle_points(f, bound))


def test_scan_size_bounds_the_points_scanned(monkeypatch):
    rng = random.Random(43)
    fans = [*named_fans().values(), random_complete_rank2(rng),
            random_convex_rank3(rng)]
    for f in fans:
        for m in range(4):
            # the admitted count, read from the refusal at a budget of 0
            with pytest.raises(BudgetExceeded) as refusal:
                _scan_at_budget(monkeypatch, 0, f, m)
            count = int(re.search(r"may walk (\d+) lattice points",
                                  str(refusal.value)).group(1))
            found = sum(len(points) for _, _, points in _oracle_points(f, m))
            assert found <= count - m - 1
            assert count <= deltainv.EHRHART_SCAN_BUDGET
            assert _scan_at_budget(monkeypatch, count, f, m) == found
            with pytest.raises(BudgetExceeded, match=f"may walk {count} "):
                _scan_at_budget(monkeypatch, count - 1, f, m)


def test_oracle_setup_eliminates_once_per_cone(monkeypatch):
    # each cone's coordinates were searched over every k-subset of the d
    # coordinates, one inversion each: 495 inversions on this one cone,
    # and C(24, 7) = 346,104 on a rank-24 cone with seven unit rays
    calls, invert = [], deltainv._invert

    def counting(vectors):
        calls.append(vectors)
        return invert(vectors)

    monkeypatch.setattr(deltainv, "_invert", counting)
    f = mk_sfan(12, [tuple(int(i == j) for j in range(12))
                     for i in range(8, 12)], (1,) * 4, [(0, 1, 2, 3)],
                "general")
    assert ehrhart_counts(f, 2) == (1, 5, 15)
    assert len(calls) == 1
    for f in [*named_fans().values(), mk_sfan(
            2, [(1, 0), (0, 1), (-2, -3)], (1, 1, 1), [(0, 1), (2,)],
            "general")]:
        calls.clear()
        list(_oracle_points(f, 1))
        assert len(calls) == sum(1 for sigma in f.fan.maximal_cones
                                 if sigma.ray_indices)
    # the search found no invertible minor of dependent rays: a TypeError
    with pytest.raises(InvariantViolation, match="linearly dependent"):
        invert([(1, 2, 0), (-2, -4, 0)])


def test_negative_bounds_admit_nothing_and_answer_empty():
    # the scan admitted its count before it returned, and the count of a
    # negative bound multiplied negative sides: P2 at -2000 was refused
    # with "may walk 19982004 lattice points"
    f = fan_p2()
    for series in [weighted_delta_series(f, zero_functional(f), -2000),
                   delta_mu_series(f, zero_functional(f), -2000)]:
        assert (series.coeffs, series.cutoff) == ({}, -2000)
    assert list(_oracle_points(f, -10 ** 20)) == []


def test_ehrhart_delta_fixtures():
    assert ehrhart_delta(fan_a1()) == R({0: 1})
    assert ehrhart_delta(fan_p1()) == R({0: 1, 1: 1})
    assert ehrhart_delta(fan_p2()) == R({0: 1, 1: 1, 2: 1})
    assert ehrhart_delta(fan_p12()) == R({0: 1, 1: 2})
    assert ehrhart_delta(fan_p112()) == R({0: 1, 1: 2, 2: 1})


@pytest.mark.parametrize("closed", [
    R({0: 1}, {0: 1, 1: -1}),
    R({0: 1, Fraction(5, 2): 1})])
def test_ehrhart_delta_rejects_what_the_bucketing_would_cut_off(
        monkeypatch, closed):
    # fan_p112 has rank 2: a pole or a term above t^2 would be lost in
    # the expansion up to t^2
    monkeypatch.setattr(deltainv, "weighted_delta_closed",
                        lambda sfan, lam: closed)
    with pytest.raises(InvariantViolation, match="degree at most 2"):
        ehrhart_delta(fan_p112())


def test_delta_coefficients_nonneg_integers_random():
    rng = random.Random(41)
    for _ in range(5):
        f = random_complete_rank2(rng)
        v = ehrhart_delta(f)
        assert v.is_polynomial()
        for c in v.num.terms.values():
            assert c.denominator == 1 and c >= 0


def test_normalized_volume_is_group_order_sum():
    for f in named_fans().values():
        v = ehrhart_delta(f)
        assert v.is_polynomial()
        vol = sum(v.num.terms.values())
        expected = sum(
            determinant_abs([f.b(i) for i in sigma.ray_indices])
            for sigma in f.fan.maximal_cones if sigma.dim == f.rank)
        assert vol == expected


# ---------------------------------------------------------------------------
# Weighted delta-vector: definitional series


def test_oracle_points_fixtures():
    # P(1,2): b = (1), (-2); each point once, with v = sum n_i b_i / D
    assert list(_oracle_points(fan_p12(), Fraction(3, 2))) == [
        ((), 1, {(0,): ()}), ((0,), 1, {(1,): (1,)}),
        ((1,), 2, {(-1,): (1,), (-2,): (2,), (-3,): (3,)})]
    # a lower-dimensional cone on b = (-2, -3): n = -v_1 must be even for
    # v_2 = 3 v_1 / 2 to be an integer
    f = mk_sfan(2, [(1, 0), (0, 1), (-2, -3)], (1, 1, 1), [(0, 1), (2,)],
                "general")
    origin, square, ray = _oracle_points(f, 2)
    assert origin == ((), 1, {(0, 0): ()})
    assert ray == ((2,), 2, {(-2, -3): (2,), (-4, -6): (4,)})
    assert sorted(square[2]) == sorted(
        (x, y) for x in range(3) for y in range(3) if 0 < x + y <= 2)
    assert list(_oracle_points(f, -1)) == []


def test_weighted_delta_series_rejects_bad_lambda():
    f = fan_p1()
    with pytest.raises(LambdaNotKLT):
        weighted_delta_series(f, PiecewiseQLinear(f, (-1, 0)), 2)


def test_weighted_delta_series_p12_zero():
    s = weighted_delta_series(fan_p12(), zero_functional(fan_p12()), 2)
    assert s.terms == {Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): 1}


def test_weighted_delta_series_p1_example():
    f = fan_p1()
    lam = PiecewiseQLinear(f, (Fraction(1), Fraction(0)))
    s = weighted_delta_series(f, lam, 4)
    assert s.terms == {Fraction(0): 1, Fraction(2): 1, Fraction(3): -1,
                       Fraction(4): 1}


def test_weighted_delta_series_zero_lambda_matches_ehrhart():
    for f in named_fans().values():
        s = weighted_delta_series(f, zero_functional(f), f.rank)
        bucketed = bucket_series(s)
        expected = ehrhart_delta(f)
        for j in range(f.rank + 1):
            assert bucketed.terms.get(Fraction(j), 0) == \
                expected.num.terms.get(Fraction(j), 0)


# ---------------------------------------------------------------------------
# Weighted h-vectors and the closed formula


def test_h_tau_zero_lambda_is_h_vector():
    for f in (fan_p1(), fan_p2(), fan_p112()):
        h = h_tau_lambda(f, ZERO_CONE, zero_functional(f))
        assert h == FracRational(h_vector(f.fan))


def test_h_tau_maximal_cone_is_one():
    f = fan_p2()
    for sigma in f.fan.maximal_cones:
        assert h_tau_lambda(f, sigma, zero_functional(f)) == R({0: 1})


def test_h_tau_p1_weighted():
    f = fan_p1()
    lam = PiecewiseQLinear(f, (Fraction(1), Fraction(0)))
    assert h_tau_lambda(f, ZERO_CONE, lam) == \
        R({0: 1, 1: 1, 2: 1}, {0: 1, 1: 1})


def test_closed_fixtures():
    assert weighted_delta_closed(fan_p12(), zero_functional(fan_p12())) == \
        R({0: 1, Fraction(1, 2): 1, 1: 1})
    assert weighted_delta_closed(fan_p112(), zero_functional(fan_p112())) == \
        R({0: 1, 1: 2, 2: 1})
    f = fan_p1()
    lam = PiecewiseQLinear(f, (Fraction(1), Fraction(0)))
    assert weighted_delta_closed(f, lam) == \
        R({0: 1, 1: 1, 2: 1}, {0: 1, 1: 1})


def test_closed_zero_lambda_matches_ehrhart_after_bucketing():
    # ehrhart_delta buckets the closed form; criterion 7 checks it against
    # the counts on the named fans, complete rank-2 fans and P(1,2,3,2,3),
    # and this test on the other makers' fans
    rng = random.Random(44)
    makers = [random_rank1, random_convex_rank2, random_complete_rank3,
              random_convex_rank3]
    for f in [m(rng) for m in makers * 3]:
        assert ehrhart_delta(f) == ehrhart_delta_reference(f), \
            (f.fan.rays, f.weights)


def naive_closed(sfan, lam):
    """Reference implementation: literal sum of h_tau^lambda times box
    contributions, with per-addition canonicalization."""
    total = FracRational(FracPoly.zero())
    for tau in sfan.fan.sorted_cones:
        boxes = box_elements(sfan, tau)
        if not boxes:
            continue
        box_sum = FracPoly.zero()
        for e in boxes:
            lam_v = sum((qi * lam.values_on_b[i]
                         for qi, i in zip(e.q, tau.ray_indices)), Fraction(0))
            box_sum = box_sum + FracPoly.t_power(age(sfan, e) + lam_v)
        factor = FracRational(box_sum)
        for i in tau.ray_indices:
            factor = factor * FracRational(
                FracPoly({0: 1, 1: -1}),
                FracPoly({0: 1, lam.values_on_b[i] + 1: -1}))
        total = total + h_tau_lambda(sfan, tau, lam) * factor
    return total


def test_closed_matches_naive_small_fans():
    rng = random.Random(7)
    for f in (fan_p1(), fan_p12(), fan_p112()):
        for _ in range(2):
            lam = random_admissible_lambda(rng, f)
            assert weighted_delta_closed(f, lam) == naive_closed(f, lam)


def test_closed_matches_series_random():
    rng = random.Random(2025)
    fans = [fan_p12(), fan_p112(), random_complete_rank2(rng),
            random_convex_rank2(rng), random_complete_rank3(rng)]
    for f in fans:
        for _ in range(2):
            lam = random_admissible_lambda(rng, f, min_num=0)
            cutoff = Fraction(f.rank) + Fraction(3, 2)
            oracle = weighted_delta_series(f, lam, cutoff)
            closed = expand_series(weighted_delta_closed(f, lam), cutoff)
            assert series_equal(oracle, closed)


def test_closed_matches_series_negative_lambda():
    rng = random.Random(99)
    for f in (fan_p12(), fan_p112(), random_complete_rank2(rng)):
        lam = random_admissible_lambda(rng, f)
        cutoff = Fraction(f.rank) + 1
        assert series_equal(weighted_delta_series(f, lam, cutoff),
                            expand_series(weighted_delta_closed(f, lam),
                                          cutoff))


# ---------------------------------------------------------------------------
# Palindromy


def test_check_symmetry_complete_fans():
    rng = random.Random(11)
    for name, f in named_fans().items():
        if f.fan.support_kind != "complete":
            continue
        assert check_symmetry(f, zero_functional(f))
        assert check_symmetry(f, random_admissible_lambda(rng, f))


def test_check_symmetry_requires_complete():
    with pytest.raises(NotComplete):
        check_symmetry(fan_a1(), zero_functional(fan_a1()))


# ---------------------------------------------------------------------------
# Bucketing


def test_bucket_series_example():
    s = series_of({Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): 1},
                  Fraction(1))
    assert bucket_series(s).terms == {Fraction(0): 1, Fraction(1): 2}


def test_delta_mu_rejects_negative():
    f = fan_p12()
    with pytest.raises(NegativeMu):
        delta_mu_series(f, PiecewiseQLinear(f, (1, -1)), 2)


def test_bucketing_matches_delta_mu_for_integral_lambda():
    # exponents shift by whole numbers only when lambda takes integer values
    # on all lattice points, so the bucketed weighted series collapses onto
    # the mu-series for mu = lambda
    cases = [(fan_p12(), [(1, 2), (0, 0), (2, 4)]),
             (fan_p112(), [(1, 0, 1), (2, 1, 0), (0, 3, 2)])]
    for f, lams in cases:
        for vals in lams:
            lam = PiecewiseQLinear(f, tuple(Fraction(v) for v in vals))
            cutoff = Fraction(f.rank + 2)
            bucketed = bucket_series(weighted_delta_series(f, lam, cutoff))
            mu_series = delta_mu_series(f, lam, cutoff)
            assert series_equal(bucketed, mu_series)


def test_series_oracles_enumerate_only_contributing_points(monkeypatch):
    # a point adds a term only when psi + lambda <= cutoff, and
    # psi + lambda >= psi (1 - L); for mu >= 0 only when psi <= cutoff
    bounds = []

    def recording(sfan, bound):
        bounds.append(bound)
        return _oracle_points(sfan, bound)

    monkeypatch.setattr(deltainv, "_oracle_points", recording)
    f = fan_p112()
    weighted_delta_series(
        f, PiecewiseQLinear(f, (Fraction(-1, 2), Fraction(1, 4), 0)), 2)
    delta_mu_series(f, PiecewiseQLinear(f, (1, 0, 2)), Fraction(5, 2))
    assert bounds == [4, Fraction(5, 2)]


def test_series_oracles_lose_no_term_to_the_bound(monkeypatch):
    # the same series from every point up to the old level bound
    # floor((cutoff + 1) / (1 - L)) + 1
    rng = random.Random(56)
    for f in named_fans().values():
        for cutoff in (1, 2, Fraction(5, 2)):
            lam = random_admissible_lambda(rng, f)
            mu = PiecewiseQLinear(f, tuple(Fraction(rng.randint(0, 8), 4)
                                           for _ in f.fan.rays))
            narrow = (weighted_delta_series(f, lam, cutoff),
                      delta_mu_series(f, mu, cutoff))
            slack = 1 + min([0, *lam.values_on_b])
            wide_bound = (cutoff + 1) // slack + 1
            with monkeypatch.context() as m:
                m.setattr(deltainv, "_oracle_points",
                          lambda sfan, bound: _oracle_points(sfan, wide_bound))
                wide = (weighted_delta_series(f, lam, cutoff),
                        delta_mu_series(f, mu, cutoff))
            assert [s.terms for s in narrow] == [s.terms for s in wide]


def test_oracles_use_no_stacky_or_core_enumerator(monkeypatch):
    mixed = mk_sfan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0),
                        (0, -2, -3)], (1, 2, 1, 2, 3),
                    [(0, 1, 2), (3, 4)], "general")
    fans = [*named_fans().values(), mixed]

    def oracles(f):
        lam = PiecewiseQLinear(f, (Fraction(1, 2),) * len(f.fan.rays))
        return (ehrhart_counts(f, 2), weighted_delta_series(f, lam, 2).terms,
                delta_mu_series(f, lam, 2).terms)

    expected = [oracles(f) for f in fans]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a stacky or core enumerator")

    monkeypatch.setattr(stacky, "enumerate_support_points", forbidden)
    monkeypatch.setattr(stacky, "_scan_parallelepiped", forbidden)
    monkeypatch.setattr(core.ConeSolver, "solve", forbidden)
    monkeypatch.setattr(core, "solve_rational_system", forbidden)
    assert [oracles(f) for f in fans] == expected


def test_oracles_above_rank_three():
    f = fan_p12323()
    assert ehrhart_counts(f, 4) == (1, 6, 24, 74, 186)
    for values in ((0,) * 5, (Fraction(1, 2), 0, Fraction(1, 4), 1, 0)):
        lam = PiecewiseQLinear(f, values)
        closed = weighted_delta_closed(f, lam)
        for cutoff in (2, 4):
            assert weighted_delta_series(f, lam, cutoff).terms == \
                expand_series(closed, cutoff).terms


# ---------------------------------------------------------------------------
# h-vectors, Hodge polynomials, Gamma, Betti numbers


def test_h_vector_fixtures():
    assert h_vector(fan_p1().fan) == P({0: 1, 1: 1})
    assert h_vector(fan_p2().fan) == P({0: 1, 1: 1, 2: 1})
    cone12 = mk_sfan(2, [(1, 0), (1, 2)], (1, 1), [(0, 1)], "convex")
    assert h_vector(cone12.fan) == P({0: 1})


def test_hodge_polynomial_fixtures():
    assert hodge_polynomial_toric(fan_p2().fan) == P({0: 1, 1: 1, 2: 1})
    assert hodge_polynomial_toric(fan_p1().fan) == P({0: 1, 1: 1})
    assert hodge_polynomial_toric(fan_a1().fan) == P({1: 1})


def test_smooth_fan_delta_equals_h_vector():
    for f in (fan_p1(), fan_p2()):
        assert weighted_delta_closed(f, zero_functional(f)) == \
            FracRational(h_vector(f.fan))


def test_gamma_fixtures():
    expected = {"a1": {1: 1}, "p1": {0: 1, 1: 1}, "p2": {0: 1, 1: 1, 2: 1},
                "p12": {0: 1, Fraction(1, 2): 1, 1: 1},
                "p112": {0: 1, 1: 2, 2: 1}}
    for name, f in named_fans().items():
        assert gamma(f, zero_divisor(f)) == R(expected[name])


def test_gamma_of_coarse_divisor_is_weight_independent():
    # with weights a and E_a = sum (1 - a_i) D_i, the change of variables
    # gives Gamma(X_a, E_a) = Gamma(X_1, 0), the stringy E-function of the
    # coarse variety
    rng = random.Random(61)
    fans = list(named_fans().values())
    fans += [make(rng) for make in (random_complete_rank2, random_convex_rank2,
                                    random_complete_rank3, random_convex_rank3)
             for _ in range(10)]
    for f in fans:
        rays = f.fan.rays
        unit = StackyFan(f.fan, (1,) * len(rays))
        coarse = gamma(unit, StackDivisor(unit, (0,) * len(rays)))
        for _ in range(3):
            weights = tuple(rng.randint(1, 4) for _ in rays)
            stack = StackyFan(f.fan, weights)
            e = StackDivisor(stack, tuple(1 - a for a in weights))
            assert gamma(stack, e) == coarse, (rays, weights)


def test_gamma_rejects_non_klt():
    f = fan_p1()
    with pytest.raises(NotKLT):
        gamma(f, StackDivisor(f, (1, 0)))


def test_orbifold_betti_fixtures():
    assert orbifold_betti(fan_p2()) == {0: 1, 1: 1, 2: 1}
    assert orbifold_betti(fan_p112()) == {0: 1, 1: 2, 2: 1}
    assert orbifold_betti(fan_p12()) == {0: 1, Fraction(1, 2): 1, 1: 1}


def test_orbifold_betti_palindromic():
    for f in named_fans().values():
        if f.fan.support_kind != "complete":
            continue
        b = orbifold_betti(f)
        for e, c in b.items():
            assert b[Fraction(f.rank) - e] == c


def test_orbifold_betti_lists_its_exponents_in_ascending_order():
    # the CLI renders the dict in this order and does not sort it again
    rng = random.Random(28)
    fans = [*named_fans().values(), _defect_fan(),
            *(random_complete_rank2(rng) for _ in range(5))]
    for f in fans:
        if f.fan.support_kind == "complete":
            exponents = list(orbifold_betti(f))
            assert exponents == sorted(exponents)


def _defect_fan():
    """Complete rank-2 fan on the exponent grid N = 462 whose Gamma(X, 0)
    has a dense length above 1200."""
    rays = [(3, 1), (-1, 2), (-2, 3), (-3, -1), (2, -3)]
    return mk_sfan(2, rays, (3, 1, 2, 3, 1),
                   [(i, (i + 1) % 5) for i in range(5)], "complete")


def test_orbifold_betti_large_grid():
    f = _defect_fan()
    b = orbifold_betti(f)
    assert all(isinstance(c, int) and c > 0 for c in b.values())
    assert sum(b.values()) == sum(
        determinant_abs([f.b(i) for i in s.ray_indices])
        for s in f.fan.maximal_cones)


def test_orbifold_betti_rejects_non_polynomial_gamma(monkeypatch):
    from stackyfan import deltainv
    from stackyfan.errors import InvariantViolation, StackyFanError
    assert issubclass(InvariantViolation, StackyFanError)
    monkeypatch.setattr(deltainv, "gamma", lambda sfan, e: R({0: 1}, {0: 1, 1: -1}))
    with pytest.raises(InvariantViolation):
        orbifold_betti(fan_p2())
    monkeypatch.setattr(deltainv, "gamma", lambda sfan, e: R({0: 1, 1: -2}))
    with pytest.raises(InvariantViolation):
        orbifold_betti(fan_p2())


def test_orbifold_betti_of_a_fan_that_is_not_complete():
    # Gamma(X, 0) of a stack that is not proper may have signed
    # coefficients, as the torus's 1 - 2q + q^2 does: that is no broken
    # invariant, but a fan outside what the Betti numbers answer
    torus = mk_sfan(2, [], (), [()], "general")
    ray = mk_sfan(2, [(1, 0)], (3,), [(0,)], "general")
    for f, message in [(torus, "coefficient -2 at 1 on"),
                       (ray, "coefficient -1 at 1/3 on")]:
        with pytest.raises(NotComplete, match=message):
            orbifold_betti(f)
    assert deltainv.gamma(torus, zero_divisor(torus)) == R({0: 1, 1: -2,
                                                           2: 1})
    assert orbifold_betti(fan_a1()) == {1: 1}


def _poly_product(p, q):
    """The product of two polynomials given as {exponent: coefficient}."""
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return out


@pytest.mark.parametrize("factor, power",
                         [(fan_a1, 14), (fan_p1, 8), (fan_p12, 6)],
                         ids=["A1^14", "P1^8", "P(1,2)^6"])
def test_wide_powers_are_the_powers_of_their_factor(factor, power):
    # exact references at ranks 6 to 14: A1^14 is the one cone of C^14,
    # whose 3^14 (cone, face) pairs took the assembly 20 s; only the 2^14
    # pairs on the zero cone's box add anything
    f = factor()
    fn, betti, delta = f, orbifold_betti(f), weighted_delta_closed(
        f, zero_functional(f))
    for _ in range(power - 1):
        fn = product(fn, f)
    assert weighted_delta_closed(fn, zero_functional(fn)) == \
        functools.reduce(operator.mul, [delta] * power)
    assert orbifold_betti(fn) == functools.reduce(_poly_product,
                                                  [betti] * power)


def test_products_multiply_the_weighted_delta_vector_and_betti_numbers():
    # F x G has the cones sigma x tau and the box elements (u, v), so
    # delta^{lam + mu}(F x G) = delta^lam(F) delta^mu(G), and on complete
    # fans the orbifold Betti numbers multiply; the elements on cones of 4
    # or 5 rays are read from no factor's fan, so these are exact
    # references above rank 3
    rng = random.Random(60)
    makers = [(random_complete_rank2, random_complete_rank2),
              (random_complete_rank2, random_complete_rank3),
              (random_complete_rank3, random_rank1),
              (random_convex_rank2, random_convex_rank2),
              (random_convex_rank3, random_rank1),
              (random_convex_rank2, random_complete_rank2)] * 3
    wide = 0
    for make_f, make_g in makers:
        f, g = make_f(rng), make_g(rng)
        fg = product(f, g)
        assert validate_fan(fg.fan).ok
        # lambda on the half grid keeps the product's assembly small
        lam, mu = (PiecewiseQLinear(x, [Fraction(rng.randint(-1, 2), 2)
                                        for _ in x.fan.rays]) for x in (f, g))
        joint = PiecewiseQLinear(fg, lam.values_on_b + mu.values_on_b)
        assert weighted_delta_closed(fg, joint) == \
            weighted_delta_closed(f, lam) * weighted_delta_closed(g, mu)
        if fg.fan.support_kind == "complete":
            assert orbifold_betti(fg) == _poly_product(orbifold_betti(f),
                                                       orbifold_betti(g))
        wide += any(found for t, found in fg.box_table.items() if len(t) >= 4)
    assert wide >= len(makers) * 3 // 4

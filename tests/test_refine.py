import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import (fan_a1, fan_p1, fan_p2, fan_p12, fan_p112, mk_sfan,
                      named_fans, random_admissible_lambda,
                      random_complete_rank2, random_complete_rank3,
                      random_convex_rank2, random_convex_rank3,
                      random_rank1)
from stackyfan import core, cyclotomic, deltainv, qseries, refine, stacky
from stackyfan.core import Cone, ValidationReport, validate_fan
from stackyfan.deltainv import (check_symmetry, weighted_delta_closed,
                                weighted_delta_equal)
from stackyfan.errors import (IntegralityFailure, InvariantViolation,
                              NotARefinement, NotInSupport, RankMismatch,
                              TransferNotKLT)
from stackyfan.qseries import FracPoly, FracRational, substitute_reciprocal
from stackyfan.refine import (check_invariance, is_stacky_refinement,
                              stellar_subdivide, transfer_lambda)
from stackyfan.stacky import PiecewiseQLinear, eval_pl, psi, zero_functional


def test_every_fan_refines_itself():
    for f in named_fans().values():
        w = is_stacky_refinement(f, f)
        assert w is not None
        maxima = f.fan.maximal_cones
        for tau, j in w.cone_map.items():
            assert tau == maxima[j]
        for i, cert in enumerate(w.integrality_certificates):
            assert cert == ((i, 1),)


def test_stellar_subdivide_p2():
    f = stellar_subdivide(fan_p2(), (1, 1))
    assert f.fan.rays == ((1, 0), (0, 1), (-1, -1), (1, 1))
    assert sorted(c.ray_indices for c in f.fan.maximal_cones) == \
        [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert f.weights == (1, 1, 1, 1)


def test_stellar_subdivide_existing_ray_is_identity():
    f = fan_a1()
    assert stellar_subdivide(f, (3,)) is f


def test_stellar_subdivide_outside_support():
    with pytest.raises(NotInSupport):
        stellar_subdivide(fan_a1(), (-1,))
    with pytest.raises(NotInSupport):
        stellar_subdivide(fan_p2(), (0, 0))


def test_stellar_subdivide_integrality_failure():
    # the ray through -1 carries b = -2; -1 itself is not an integer
    # multiple of it
    f = mk_sfan(2, [(1, 0), (0, 1)], (2, 1), [(0, 1)], "convex")
    with pytest.raises(IntegralityFailure):
        stellar_subdivide(f, (1, 1), 1)


def test_stellar_subdivide_rejects_a_weight_below_one():
    for multiplicity in (0, -1):
        with pytest.raises(ValueError):
            stellar_subdivide(fan_p2(), (1, 1), multiplicity)


def test_stellar_subdivide_checks_the_weight_at_an_existing_ray():
    for multiplicity in (0, -5):
        with pytest.raises(ValueError):
            stellar_subdivide(fan_p2(), (2, 0), multiplicity)


def test_stellar_subdivide_multiplicity():
    f = mk_sfan(2, [(1, 0), (0, 1)], (2, 1), [(0, 1)], "convex")
    g = stellar_subdivide(f, (1, 1), 2)
    assert g.fan.rays == ((1, 0), (0, 1), (1, 1))
    assert g.weights == (2, 1, 2)
    assert is_stacky_refinement(g, f) is not None


def test_refinement_witness_p2_subdivision():
    coarse = fan_p2()
    fine = stellar_subdivide(coarse, (1, 1))
    w = is_stacky_refinement(fine, coarse)
    assert w is not None
    assert w.integrality_certificates == \
        (((0, 1),), ((1, 1),), ((2, 1),), ((0, 1), (1, 1)))


def test_not_a_refinement_non_integral_b():
    coarse = mk_sfan(2, [(1, 0), (0, 1)], (2, 1), [(0, 1)], "convex")
    fine = mk_sfan(2, [(1, 0), (0, 1), (1, 1)], (2, 1, 1),
                   [(0, 2), (1, 2)], "convex")
    assert is_stacky_refinement(fine, coarse) is None


def test_not_a_refinement_unrelated_fans():
    assert is_stacky_refinement(fan_p2(), fan_p112()) is None


def test_refinement_rank_mismatch():
    with pytest.raises(RankMismatch):
        is_stacky_refinement(fan_p1(), fan_p2())


def test_transfer_identity_refinement_keeps_zero():
    f = fan_p112()
    lam = transfer_lambda(f, zero_functional(f), f)
    assert lam.values_on_b == (0, 0, 0)


def test_transfer_p2_stellar():
    coarse = fan_p2()
    fine = stellar_subdivide(coarse, (1, 1))
    lam = transfer_lambda(coarse, zero_functional(coarse), fine)
    assert lam.values_on_b == (0, 0, 0, 1)


def test_transfer_not_klt():
    coarse = fan_p2()
    fine = stellar_subdivide(coarse, (1, 1))
    bad = PiecewiseQLinear(coarse, (Fraction(-1), Fraction(-1), Fraction(0)))
    with pytest.raises(TransferNotKLT):
        transfer_lambda(coarse, bad, fine)


def test_transfer_requires_refinement():
    coarse = mk_sfan(2, [(1, 0), (0, 1)], (2, 1), [(0, 1)], "convex")
    fine = mk_sfan(2, [(1, 0), (0, 1), (1, 1)], (2, 1, 1),
                   [(0, 2), (1, 2)], "convex")
    with pytest.raises(NotARefinement):
        transfer_lambda(coarse, zero_functional(coarse), fine)


def test_invariance_p2_stellar():
    coarse = fan_p2()
    fine = stellar_subdivide(coarse, (1, 1))
    assert check_invariance(coarse, zero_functional(coarse), fine)


def test_invariance_identity():
    f = fan_p12()
    assert check_invariance(f, zero_functional(f), f)


def test_invariance_chain_of_subdivisions():
    coarse = fan_p2()
    mid = stellar_subdivide(coarse, (1, 1))
    fine = stellar_subdivide(mid, (2, 1))
    lam = PiecewiseQLinear(coarse, (Fraction(1, 2), Fraction(0), Fraction(1)))
    assert check_invariance(coarse, lam, mid)
    assert check_invariance(mid, transfer_lambda(coarse, lam, mid), fine)
    assert check_invariance(coarse, lam, fine)


def test_transfer_composes_along_chains():
    coarse = fan_p2()
    mid = stellar_subdivide(coarse, (1, 1))
    fine = stellar_subdivide(mid, (2, 1))
    lam = PiecewiseQLinear(coarse, (Fraction(1, 4), Fraction(1), Fraction(0)))
    via_mid = transfer_lambda(mid, transfer_lambda(coarse, lam, mid), fine)
    direct = transfer_lambda(coarse, lam, fine)
    assert via_mid.values_on_b == direct.values_on_b


def test_invariance_random_rank2_subdivisions():
    rng = random.Random(314)
    for _ in range(4):
        coarse = random_complete_rank2(rng)
        sigma = coarse.fan.maximal_cones[0]
        i, j = sigma.ray_indices
        w = tuple(a + b for a, b in zip(coarse.b(i), coarse.b(j)))
        mult = math.gcd(abs(w[0]), abs(w[1]))
        fine = stellar_subdivide(coarse, w, mult)
        if fine is coarse:
            continue
        lam = random_admissible_lambda(rng, coarse)
        assert check_invariance(coarse, lam, fine)


def test_stellar_subdivide_invalid_result_raises(monkeypatch):
    # a check python -O keeps: force the validation of the result to fail
    monkeypatch.setattr(core, "validate_fan",
                        lambda fan: ValidationReport(["forced violation"]))
    with pytest.raises(InvariantViolation, match="forced violation"):
        stellar_subdivide(fan_p2(), (1, 1))


# ---------------------------------------------------------------------------
# Coverage is decided exactly: fine fans with a gap are not refinements


def gap_rank2():
    """cone((1,0),(0,1)) and a fine fan missing the wedge between (1,1)
    and (1,20): no lattice point with psi <= 2 lies in it, so sampling
    such points cannot see the gap."""
    coarse = mk_sfan(2, [(1, 0), (0, 1)], (1, 1), [(0, 1)], "convex")
    fine = mk_sfan(2, [(1, 0), (0, 1), (1, 1), (1, 20)], (1, 1, 1, 1),
                   [(0, 2), (1, 3)], "general")
    return coarse, fine


def gap_rank3():
    """A complete rank-3 stacky fan and a two-step stellar subdivision of
    it with the maximal cone (1, 4, 5) dropped."""
    coarse = mk_sfan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, -1)],
                     (1, 3, 2, 2),
                     [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], "complete")
    fine = mk_sfan(3, coarse.fan.rays + ((0, 3, 1), (-1, 1, 0)),
                   (1, 3, 2, 2, 2, 4),
                   [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 3, 5),
                    (2, 3, 5), (2, 4, 5)], "general")
    return coarse, fine


@pytest.mark.parametrize("make", [gap_rank2, gap_rank3])
def test_fine_fan_with_a_gap_is_not_a_refinement(make):
    coarse, fine = make()
    assert validate_fan(fine.fan).ok
    assert is_stacky_refinement(fine, coarse) is None
    with pytest.raises(NotARefinement):
        transfer_lambda(coarse, zero_functional(coarse), fine)


def test_refinement_needs_no_point_location(monkeypatch):
    coarse = fan_p2()
    fine = stellar_subdivide(stellar_subdivide(coarse, (1, 1)), (2, 1))
    lam = PiecewiseQLinear(coarse, (Fraction(1, 2), 0, 1))
    gap_coarse, gap_fine = gap_rank2()

    def forbidden(*args, **kwargs):
        raise AssertionError("point location called")

    for module, name in [(stacky, "enumerate_support_points"),
                         (stacky, "psi"), (stacky, "eval_pl"),
                         (core, "minimal_containing_cone")]:
        original = getattr(module, name)
        for owner in (core, stacky, refine):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, forbidden)
    assert is_stacky_refinement(fine, coarse) is not None
    assert is_stacky_refinement(gap_fine, gap_coarse) is None
    assert transfer_lambda(coarse, lam, fine).values_on_b[:3] == \
        lam.values_on_b
    assert check_invariance(coarse, lam, fine)


# ---------------------------------------------------------------------------
# Property: stellar-subdivision chains refine, and lose that by a dropped cone

MAKERS = (random_complete_rank2, random_convex_rank2, random_complete_rank3,
          random_convex_rank3)


def subdivision_chain(rng, sfan, steps):
    """Stellar subdivisions at integer combinations of the b-vectors of a
    maximal cone, with the new b-vector a multiple of that combination."""
    for _ in range(steps):
        sigma = rng.choice(sfan.fan.maximal_cones)
        ks = [rng.randint(0, 2) for _ in sigma.ray_indices]
        ks[rng.randrange(len(ks))] = rng.randint(1, 2)
        w = [sum(k * sfan.b(i)[c] for k, i in zip(ks, sigma.ray_indices))
             for c in range(sfan.rank)]
        sfan = stellar_subdivide(sfan, w, core.content(w) * rng.randint(1, 2))
    return sfan


def drop_cone(sfan, drop):
    """The fan without its maximal cone number `drop` and without the rays
    no other cone uses, which validation would reject."""
    kept = [c.ray_indices for k, c in enumerate(sfan.fan.maximal_cones)
            if k != drop]
    used = sorted(set().union(*kept))
    index = {i: k for k, i in enumerate(used)}
    return mk_sfan(sfan.rank, [sfan.fan.rays[i] for i in used],
                   [sfan.weights[i] for i in used],
                   [[index[i] for i in c] for c in kept], "general")


# no shrink phase: a defect that makes a maker raise spent most of a
# failing run shrinking, and shrinking changes no verdict of a passing run
@settings(max_examples=30, derandomize=True, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(maker=st.sampled_from(MAKERS), steps=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_subdivision_chains_refine_and_a_dropped_cone_does_not(maker, steps,
                                                              seed):
    # the makers sample by rejection, so they draw from a seeded Random
    rng = random.Random(seed)
    coarse = maker(rng)
    fine = subdivision_chain(rng, coarse, steps)
    assert is_stacky_refinement(fine, coarse) is not None
    assert check_invariance(coarse, random_admissible_lambda(rng, coarse),
                            fine)
    holed = drop_cone(fine, rng.randrange(len(fine.fan.maximal_cones)))
    if validate_fan(holed.fan).ok:
        assert is_stacky_refinement(holed, coarse) is None


# ---------------------------------------------------------------------------
# Invariance and palindromy are decided on the assembled closed form; the
# reference is the old definition on canonical forms


def canonical_palindromic(sfan, lam):
    delta = weighted_delta_closed(sfan, lam)
    return delta == (FracRational(FracPoly.t_power(sfan.rank))
                     * substitute_reciprocal(delta))


def decision_cases(rng):
    """(kind, (fan, lambda), (fan, lambda)) pairs on seeded fans of rank 1-3:
    stellar-subdivision chains with the transferred lambda, the same with
    lambda changed at one fine ray, and two independently drawn fans."""
    for maker in (random_rank1,) + MAKERS:
        for _ in range(3):
            coarse = maker(rng)
            lam = random_admissible_lambda(rng, coarse)
            other = maker(rng)
            yield "other", (coarse, lam), (other,
                                           random_admissible_lambda(rng, other))
            if coarse.rank == 1:
                continue
            fine = subdivision_chain(rng, coarse, rng.randint(1, 2))
            lam_fine = transfer_lambda(coarse, lam, fine)
            yield "chain", (coarse, lam), (fine, lam_fine)
            values = list(lam_fine.values_on_b)
            values[rng.randrange(len(values))] += Fraction(rng.randint(1, 3), 3)
            yield "changed", (coarse, lam), (fine,
                                             PiecewiseQLinear(fine, values))


def test_decisions_agree_with_canonical_forms():
    rng = random.Random(2718)
    seen = collections.Counter()
    for kind, a, b in decision_cases(rng):
        equal = weighted_delta_closed(*a) == weighted_delta_closed(*b)
        assert weighted_delta_equal(*a, *b) == equal
        assert weighted_delta_equal(*b, *a) == equal
        if kind == "chain":
            assert check_invariance(a[0], a[1], b[0])
        grids = {deltainv._weighted_delta_parts(*side)[0] for side in (a, b)}
        seen[kind, equal, len(grids) > 1] += 1
        for sfan, lam in (a, b):
            if sfan.fan.support_kind == "complete":
                assert check_symmetry(sfan, lam) == \
                    canonical_palindromic(sfan, lam)
    # on refinements the assembled grids agree (n is read from the values
    # of psi + lambda); other pairs give different grids
    assert seen["chain", True, False] and seen["other", False, False]
    assert seen["changed", False, True] and seen["changed", False, False]
    assert seen["other", False, True]


def rational_of(parts):
    """The reference value num(s) / prod_c (1 - s^c) of assembled parts,
    with s = t^{1/n}, as a canonical FracRational."""
    n, num, binom = parts
    den = FracPoly.one()
    for c in binom:
        den = den * FracPoly({0: 1, Fraction(c, n): -1})
    return FracRational(FracPoly({Fraction(e, n): v for e, v in num.items()}),
                        den)


def test_parts_equal_across_grids_and_binomials():
    # the same value on a grid k times finer, or with a binomial multiplied
    # into both sides, against the parts of other fans; each pair is judged
    # by the canonical reference
    rng = random.Random(577)
    fans = list(named_fans().values())
    fans += [maker(rng) for maker in (random_rank1, random_complete_rank2,
                                      random_convex_rank2) for _ in range(3)]
    seen = collections.Counter()
    for f, g in zip(fans, fans[1:] + fans[:1]):
        pa, pb = (deltainv._weighted_delta_parts(
            h, random_admissible_lambda(rng, h)) for h in (f, g))
        n, num, binom = pa
        k, c = rng.randint(2, 3), rng.choice(binom + [rng.randint(1, 5)])
        finer = (k * n, {k * e: v for e, v in num.items()},
                 [k * x for x in binom])
        extra = (n, deltainv._times_binomial(num, c), binom + [c])
        value = {id(x): rational_of(x) for x in (pa, pb, finer, extra)}
        for x, y in ((pa, finer), (pa, extra), (finer, extra), (finer, pb),
                     (extra, pb)):
            equal = value[id(x)] == value[id(y)]
            assert deltainv._parts_equal(x, y) == equal
            assert deltainv._parts_equal(y, x) == equal
            seen[equal, x[0] != y[0]] += 1
    assert all(seen[key] for key in itertools.product((True, False), repeat=2))


def test_palindromy_decision_agrees_when_it_fails():
    # the closed formula does not read the support kind, so single-cone
    # fans labelled complete give delta-vectors that are not palindromic
    rng = random.Random(1618)
    verdicts = collections.Counter()
    for maker in (random_convex_rank2, random_convex_rank3, random_rank1):
        for _ in range(6):
            f = maker(rng)
            labelled = mk_sfan(f.rank, f.fan.rays, f.weights,
                               [c.ray_indices for c in f.fan.maximal_cones],
                               "complete")
            lam = random_admissible_lambda(rng, labelled)
            verdict = canonical_palindromic(labelled, lam)
            assert check_symmetry(labelled, lam) == verdict
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_predicates_do_not_canonicalise(monkeypatch):
    # the closed form reduces over its known binomials by reduce_binomials,
    # which lowest_terms runs too once it has found them: both are forbidden
    def forbidden(*args):
        raise AssertionError("lowest_terms called")

    coarse = fan_p2()
    fine = stellar_subdivide(stellar_subdivide(coarse, (1, 1)), (2, 1))
    lam = PiecewiseQLinear(coarse, (Fraction(1, 2), Fraction(-1, 3), 1))
    for module in (qseries, cyclotomic):
        for name in ("lowest_terms", "reduce_binomials"):
            monkeypatch.setattr(module, name, forbidden)
    assert check_invariance(coarse, lam, fine)
    assert check_symmetry(fine, transfer_lambda(coarse, lam, fine))
    assert check_symmetry(fan_p112(), zero_functional(fan_p112()))
    with pytest.raises(AssertionError, match="lowest_terms"):
        weighted_delta_closed(coarse, lam)


# ---------------------------------------------------------------------------
# Equality cancels the cones the two sides share before it assembles


def test_invariance_assembles_only_the_cones_the_fans_do_not_share(
        monkeypatch):
    # the (fan, cone indices) pairs deltainv asks box elements for
    asked = []
    box_elements = deltainv.box_elements

    def recorded(sfan, tau):
        asked.append((sfan, tau.ray_indices))
        return box_elements(sfan, tau)

    monkeypatch.setattr(deltainv, "box_elements", recorded)
    coarse = fan_p2()
    fine = stellar_subdivide(coarse, (1, 1))
    assert fine.fan.rays[3] == (1, 1)
    assert check_invariance(coarse, zero_functional(coarse), fine)
    # the subdivided cone (0, 1) and its faces; the new cones (3,), (0, 3)
    # and (1, 3) and their faces
    assert {t for f, t in asked if f is coarse} == \
        {(), (0,), (1,), (0, 1)}
    assert {t for f, t in asked if f is fine} == \
        {(), (0,), (1,), (3,), (0, 3), (1, 3)}
    asked.clear()
    for f in named_fans().values():
        assert check_invariance(f, zero_functional(f), f)
        assert check_invariance(f, random_admissible_lambda(
            random.Random(7), f), f)
    assert asked == []


def test_each_box_group_is_scanned_once_and_only_where_read(monkeypatch):
    # the (fan, maximal cone indices) pairs whose box group is scanned
    scans = []
    original = stacky._scan_parallelepiped

    def counting(sfan, sigma):
        scans.append((sfan, sigma.ray_indices))
        return original(sfan, sigma)

    monkeypatch.setattr(stacky, "_scan_parallelepiped", counting)
    coarse = fan_p2()
    fine = stellar_subdivide(coarse, (1, 1))
    assert check_invariance(coarse, zero_functional(coarse), fine)
    # the subdivided cone of the coarse fan, the two new cones of the fine
    assert [t for f, t in scans if f is coarse] == [(0, 1)]
    assert sorted(t for f, t in scans if f is fine) == [(0, 3), (1, 3)]
    scans.clear()
    assert check_invariance(coarse, zero_functional(coarse), fine)
    assert scans == []
    # box_table scans the rest, so every maximal cone once in all
    for sfan, before in ((coarse, [(0, 1)]), (fine, [(0, 3), (1, 3)])):
        sfan.box_table
        assert sorted(before + [t for f, t in scans if f is sfan]) == \
            sorted(s.ray_indices for s in sfan.fan.maximal_cones)
    scans.clear()
    for sfan in (coarse, fine):
        sfan.box_table
        stacky.box_all(sfan)
        weighted_delta_closed(sfan, zero_functional(sfan))
    assert scans == []
    for sfan in named_fans().values():
        sfan.box_table
        assert [t for f, t in scans if f is sfan] == \
            [s.ray_indices for s in sfan.fan.maximal_cones]


def judged_pair(a, b):
    """weighted_delta_equal on a pair in both orders, each equal to the
    canonical forms' verdict; that verdict."""
    equal = weighted_delta_closed(*a) == weighted_delta_closed(*b)
    assert weighted_delta_equal(*a, *b) == equal
    assert weighted_delta_equal(*b, *a) == equal
    return equal


def test_targeted_decisions_agree_with_canonical_forms():
    coarse = fan_p2()
    lam = PiecewiseQLinear(coarse, (Fraction(1, 2), Fraction(-1, 3), 1))
    fine = stellar_subdivide(coarse, (1, 1))
    lam_fine = transfer_lambda(coarse, lam, fine)
    assert judged_pair((coarse, lam), (fine, lam_fine))
    # lambda changed at the shared ray (-1, -1): its cones no longer cancel
    values = list(lam_fine.values_on_b)
    values[2] += Fraction(1, 4)
    assert not judged_pair((coarse, lam),
                           (fine, PiecewiseQLinear(fine, values)))
    # the weight of the shared ray (-1, -1) changed, lambda kept
    heavier = mk_sfan(2, fine.fan.rays, (1, 1, 2, 1),
                      [c.ray_indices for c in fine.fan.maximal_cones],
                      "complete")
    assert not judged_pair(
        (coarse, lam), (heavier, PiecewiseQLinear(heavier,
                                                  lam_fine.values_on_b)))
    # the same fan twice
    assert judged_pair((fine, lam_fine), (fine, lam_fine))
    # the zero cones of ranks 1 and 2 differ by 1 - t: the half-line and
    # the orthant both have delta = 1, which cancelling the zero cones
    # would turn into t against 2t - t^2
    orthant = mk_sfan(2, [(1, 0), (0, 1)], (1, 1), [(0, 1)], "convex")
    assert judged_pair((fan_a1(), zero_functional(fan_a1())),
                       (orthant, zero_functional(orthant)))
    assert not judged_pair((fan_p1(), zero_functional(fan_p1())),
                           (coarse, zero_functional(coarse)))
    # lambda left untransferred: its old values and 0 at the new ray
    assert lam_fine.values_on_b[3] != 0
    assert not judged_pair(
        (coarse, lam), (fine, PiecewiseQLinear(fine, (*lam.values_on_b, 0))))
    assert not judged_pair((coarse, zero_functional(coarse)),
                           (fine, zero_functional(fine)))


@settings(max_examples=25, derandomize=True, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 3),
       perturb=st.sampled_from([None, "shared", "new"]),
       amount=st.sampled_from([Fraction(1, 4), Fraction(1, 3), 1]))
def test_equality_after_subdivision_agrees_with_canonical_forms(
        seed, steps, perturb, amount):
    # weights up to 2 keep the canonical reference forms small
    rng = random.Random(seed)
    coarse = random_complete_rank2(rng, max_weight=2)
    lam = random_admissible_lambda(rng, coarse)
    fine = subdivision_chain(rng, coarse, steps)
    values = list(transfer_lambda(coarse, lam, fine).values_on_b)
    old = len(coarse.fan.rays)
    rays = {"shared": range(old), "new": range(old, len(values))}
    if perturb and rays[perturb]:
        values[rng.choice(rays[perturb])] += amount
    equal = judged_pair((coarse, lam), (fine, PiecewiseQLinear(fine, values)))
    assert equal or perturb

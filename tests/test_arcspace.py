import itertools
import random
from fractions import Fraction

import pytest

from conftest import (closure_order, fan_a1, fan_p1, fan_p2, fan_p12,
                      fan_p112, mk_sfan, named_fans, random_complete_rank2,
                      random_complete_rank3, random_convex_rank2,
                      random_convex_rank3, random_klt_divisor,
                      transitive_reduction)
from stackyfan.arcspace import (StackDivisor, canonical_divisor, closure_leq,
                                contact_order, divisor_to_pl,
                                gamma_truncated_direct, orbit_label,
                                orbit_measure, orbit_poset, pullback_divisor,
                                shift_function, zero_divisor)
from stackyfan import arcspace, core, stacky
from stackyfan.errors import (BudgetExceeded, InvariantViolation, NotKLT,
                              OutsideSupport)
from stackyfan.qseries import (FracPoly, expand_laurent, series_equal,
                               substitute_reciprocal)
from stackyfan.stacky import enumerate_support_points, eval_pl, psi


def test_pullback_divisor():
    f = fan_p12()
    assert pullback_divisor(f, (0, 0)).coefficients == (0, 0)
    assert pullback_divisor(f, (0, Fraction(1, 4))).coefficients == \
        (0, Fraction(1, 2))
    g = fan_p2()
    assert pullback_divisor(g, (1, 2, 3)).coefficients == (1, 2, 3)


def test_divisor_to_pl():
    f = fan_p12()
    assert divisor_to_pl(zero_divisor(f)).values_on_b == (0, 0)
    assert divisor_to_pl(canonical_divisor(f)).values_on_b == (1, 1)
    e = StackDivisor(f, (Fraction(1, 2), Fraction(-1, 3)))
    assert divisor_to_pl(e).values_on_b == (Fraction(-1, 2), Fraction(1, 3))


def test_klt_flag():
    f = fan_p1()
    assert zero_divisor(f).is_klt
    assert canonical_divisor(f).is_klt
    assert not StackDivisor(f, (1, 0)).is_klt


def test_contact_order():
    f = fan_p12()
    k = canonical_divisor(f)
    assert contact_order(k, orbit_label(f, (0,))) == 0
    assert contact_order(k, orbit_label(f, (-3,))) == Fraction(-3, 2)
    a = fan_a1()
    d1 = StackDivisor(a, (1,))
    assert contact_order(d1, orbit_label(a, (5,))) == 5


def test_contact_order_matches_lambda_at_the_point():
    rng = random.Random(41)
    for f in named_fans().values():
        for _ in range(3):
            e = random_klt_divisor(rng, f)
            lam = divisor_to_pl(e)
            for w, _, _, _ in enumerate_support_points(f, 3):
                assert contact_order(e, orbit_label(f, w)) == \
                    -eval_pl(lam, w), w


def test_shift_function():
    f = fan_p12()
    assert shift_function(f, orbit_label(f, (0,))) == 0
    assert shift_function(f, orbit_label(f, (-1,))) == Fraction(1, 2)
    g = mk_sfan(2, [(1, 0), (1, 2)], (1, 1), [(0, 1)], "convex")
    assert shift_function(g, orbit_label(g, (1, 1))) == 1


def test_shift_plus_age_is_dim():
    for f in named_fans().values():
        from stackyfan.stacky import enumerate_support_points, age
        for p, _, _, _ in enumerate_support_points(f, 3):
            lab = orbit_label(f, p)
            box = lab.box_part
            assert shift_function(f, lab) + age(f, box) == box.cone.dim


def test_orbit_measure():
    a = fan_a1()
    assert orbit_measure(a, orbit_label(a, (0,))) == FracPoly({0: -1, 1: 1})
    assert orbit_measure(a, orbit_label(a, (2,))) == \
        FracPoly({-2: -1, -1: 1})
    f = fan_p12()
    assert orbit_measure(f, orbit_label(f, (-1,))) == \
        FracPoly({-1: -1, 0: 1})


def test_closure_leq_examples():
    a = fan_a1()
    l0, l1 = orbit_label(a, (0,)), orbit_label(a, (1,))
    assert closure_leq(a, l0, l0)
    assert closure_leq(a, l0, l1)
    assert not closure_leq(a, l1, l0)
    f = fan_p12()
    assert closure_leq(f, orbit_label(f, (-1,)), orbit_label(f, (-3,)))
    assert not closure_leq(f, orbit_label(f, (-1,)), orbit_label(f, (1,)))


def test_orbit_poset_a1():
    p = orbit_poset(fan_a1(), 2)
    assert sorted(lab.w for lab in p.labels) == [(0,), (1,), (2,)]
    assert p.covers == {((0,), (1,)), ((1,), (2,))}


def test_orbit_poset_p12_bound1():
    p = orbit_poset(fan_p12(), 1)
    assert sorted(lab.w for lab in p.labels) == [(-2,), (-1,), (0,), (1,)]
    assert closure_order(fan_p12(), p.labels) == {((0,), (1,)), ((0,), (-2,))}


def test_orbit_poset_p12_bound2():
    p = orbit_poset(fan_p12(), 2)
    assert p.covers == {((0,), (1,)), ((1,), (2,)), ((0,), (-2,)),
                        ((-2,), (-4,)), ((-1,), (-3,))}


def test_orbit_poset_bound_zero():
    for f in named_fans().values():
        p = orbit_poset(f, 0)
        assert [lab.w for lab in p.labels] == [(0,) * f.rank]
        assert closure_order(f, p.labels) == set() and p.covers == set()


def test_orbit_poset_psi_monotone():
    f = fan_p112()
    p = orbit_poset(f, 2)
    for a, b in closure_order(f, p.labels):
        assert psi(f, a) < psi(f, b)


def test_gamma_truncated_rejects_non_klt():
    f = fan_p1()
    with pytest.raises(NotKLT):
        gamma_truncated_direct(f, StackDivisor(f, (1, 0)), 2)


def test_gamma_truncated_matches_closed_named():
    from stackyfan.deltainv import gamma
    for f in named_fans().values():
        bound = Fraction(f.rank + 2)
        e = zero_divisor(f)
        direct = gamma_truncated_direct(f, e, bound)
        closed = expand_laurent(substitute_reciprocal(gamma(f, e)),
                                direct.cutoff)
        assert series_equal(direct, closed)


def test_gamma_truncated_matches_closed_random_divisors():
    from stackyfan.deltainv import gamma
    rng = random.Random(2024)
    fans = [fan_p1(), fan_p12(), fan_p112()] + \
        [random_complete_rank2(rng) for _ in range(3)]
    for f in fans:
        for _ in range(2):
            e = random_klt_divisor(rng, f)
            bound = Fraction(f.rank + 2)
            direct = gamma_truncated_direct(f, e, bound)
            closed = expand_laurent(substitute_reciprocal(gamma(f, e)),
                                    direct.cutoff)
            assert series_equal(direct, closed)


def test_orbit_label_outside_support():
    with pytest.raises(OutsideSupport):
        orbit_label(fan_a1(), (-2,))


# The invariant checks raise InvariantViolation, which python -O keeps;
# each test breaks one input of a check to force its failure.


def test_shift_function_disagreement_raises(monkeypatch):
    # the formulas compare numerators: an involution that drops them breaks
    # psi(iota({w})) at a point with a non-zero box part
    f = fan_p12()
    monkeypatch.setattr(arcspace, "iota",
                        lambda sfan, e: e._replace(nums=()))
    with pytest.raises(InvariantViolation, match="shift-function"):
        shift_function(f, orbit_label(f, (-1,)))


def _fake_closure(holds):
    def closure(sfan, v, w):
        return holds(psi(sfan, v.w), psi(sfan, w.w))
    return closure


def test_closure_order_not_antisymmetric_raises(monkeypatch):
    labels = orbit_poset(fan_a1(), 2).labels
    monkeypatch.setattr(arcspace, "closure_leq", lambda sfan, v, w: True)
    with pytest.raises(InvariantViolation, match="antisymmetric"):
        closure_order(fan_a1(), labels)


def test_closure_order_psi_not_increasing_raises(monkeypatch):
    labels = orbit_poset(fan_a1(), 2).labels
    monkeypatch.setattr(arcspace, "closure_leq",
                        _fake_closure(lambda pv, pw: pv > pw))
    with pytest.raises(InvariantViolation, match="psi not strictly"):
        closure_order(fan_a1(), labels)


def test_closure_order_not_transitive_raises(monkeypatch):
    # psi 0 < 1 < 2 related step by step only
    labels = orbit_poset(fan_a1(), 2).labels
    monkeypatch.setattr(arcspace, "closure_leq",
                        _fake_closure(lambda pv, pw: pw - pv == 1))
    with pytest.raises(InvariantViolation, match="transitive"):
        closure_order(fan_a1(), labels)


def test_orbit_poset_cover_outside_the_closure_order_raises(monkeypatch):
    # every cover w - b_i -> w is checked with closure_leq
    monkeypatch.setattr(arcspace, "closure_leq", lambda sfan, v, w: False)
    with pytest.raises(InvariantViolation, match="closure order"):
        orbit_poset(fan_a1(), 2)


def test_orbit_poset_covers_are_the_reduction_of_the_closure_order():
    # the covers read from the shifts against the transitive reduction of
    # the pairwise order, on the named fans and 20 seeded rank-2/3 fans
    rng = random.Random(53)
    makers = [random_complete_rank2, random_convex_rank2,
              random_complete_rank3, random_convex_rank3]
    fans = [*named_fans().values(), *(m(rng) for m in makers * 5)]
    for f in fans:
        for bound in (0, 1, Fraction(3, 2), 2, 3):
            p = orbit_poset(f, bound)
            assert p.covers == transitive_reduction(
                closure_order(f, p.labels)), (f.fan.rays, f.weights, bound)


def test_gamma_truncated_orbit_measure_disagreement_raises(monkeypatch):
    f = fan_p12()
    exponent = arcspace.measure_exponent
    monkeypatch.setattr(arcspace, "measure_exponent", lambda sfan, w:
                        exponent(sfan, w) + 1)
    with pytest.raises(InvariantViolation, match="orbit-measure"):
        gamma_truncated_direct(f, zero_divisor(f), 1)


@pytest.mark.parametrize("route", ["shift_function", "contact_order"])
def test_gamma_truncated_route_off_by_one_raises(monkeypatch, route):
    f = fan_p12()
    original = getattr(arcspace, route)
    monkeypatch.setattr(arcspace, route, lambda x, w: original(x, w) + 1)
    with pytest.raises(InvariantViolation, match="orbit-measure"):
        gamma_truncated_direct(f, zero_divisor(f), 1)


def test_gamma_truncated_off_grid_value_raises(monkeypatch):
    # 1/p lies off the grid of P(1,2) with a zero divisor; truncated onto
    # it, the check would pass; times the grid it is no integer, so the
    # exact comparison with the direct level fails
    f = fan_p12()
    original = arcspace.contact_order
    monkeypatch.setattr(arcspace, "contact_order", lambda e, w:
                        original(e, w) + Fraction(1, 10 ** 9 + 7))
    with pytest.raises(InvariantViolation,
                       match="orbit-measure route disagrees"):
        gamma_truncated_direct(f, zero_divisor(f), 1)


def test_orbit_measure_is_q_minus_1_power_shifted_by_measure_exponent():
    for f in named_fans().values():
        qm1 = FracPoly({0: -1, 1: 1}) ** f.rank
        for p, _, _, _ in enumerate_support_points(f, 3):
            lab = orbit_label(f, p)
            assert orbit_measure(f, lab) == qm1 * FracPoly.t_power(
                arcspace.measure_exponent(f, lab)), p


def test_labels_are_read_from_the_enumerator_not_located(monkeypatch):
    # the poset locates no point; the direct sum locates each point it keeps
    # once, in measure_exponent's own route to psi
    located = []
    plain = core.ConeSolvers.locate

    def counting(self, v):
        located.append(v)
        return plain(self, v)

    monkeypatch.setattr(core.ConeSolvers, "locate", counting)
    rng = random.Random(49)
    for f in [*named_fans().values(), random_complete_rank2(rng),
              random_convex_rank3(rng)]:
        located.clear()
        orbit_poset(f, 2)
        assert located == []
        e = random_klt_divisor(rng, f)
        lam = divisor_to_pl(e).values_on_b
        grid = f.grid * e.scale
        kept = [p for p, ps, lv, _ in enumerate_support_points(f, 6, lam)
                if Fraction(ps + lv, grid) <= 2]
        assert located == []
        gamma_truncated_direct(f, e, 2)
        assert sorted(located) == sorted(kept)


def test_poset_and_direct_sum_over_budget_raise_before_enumerating(
        monkeypatch):
    # both enumerated with no bound: on P2, the direct sum at bound 400
    # still ran after 20 s; the enumerator admits its walk before it
    # builds a point from any shift tuple
    def forbidden(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(stacky, "_bounded_tuples", forbidden)
    f = fan_p2()
    with pytest.raises(BudgetExceeded, match="lattice points"):
        orbit_poset(f, 400)
    with pytest.raises(BudgetExceeded, match="lattice points"):
        gamma_truncated_direct(f, zero_divisor(f), 400)
    # a coefficient near 1 widens the direct scan to bound / (1 - 99/100)
    near_one = StackDivisor(f, (Fraction(99, 100), 0, 0))
    with pytest.raises(BudgetExceeded, match="lattice points"):
        gamma_truncated_direct(f, near_one, 5)


def test_poset_and_direct_sum_walk_the_cells_once(monkeypatch):
    # the budget was counted by a walk over the same cells as the
    # enumerator's, before it walked them again
    calls = []
    walk = stacky._walk_cells

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(stacky, "_walk_cells", counting)
    rng = random.Random(50)
    for f in [*named_fans().values(), random_convex_rank3(rng)]:
        calls.clear()
        orbit_poset(f, 2)
        assert len(calls) == 1
        calls.clear()
        gamma_truncated_direct(f, random_klt_divisor(rng, f), 2)
        assert len(calls) == 1


def test_small_bounds_stay_far_below_the_budgets():
    # the benchmark asks for the poset at bound 1 and the direct sum at
    # bound 2, under one budget
    rng = random.Random(47)
    makers = [random_complete_rank2, random_convex_rank2,
              random_complete_rank3, random_convex_rank3]
    for f in [*named_fans().values(), *(m(rng) for m in makers * 5)]:
        assert 10 * len(enumerate_support_points(f, 1)) <= \
            stacky.LABEL_WALK_BUDGET
        assert 10 * len(enumerate_support_points(f, 2)) <= \
            stacky.LABEL_WALK_BUDGET


def test_support_point_count_is_the_shift_tuples_walked_and_the_points(
        monkeypatch):
    # _bounded_tuples recurses through the module name, so the counting
    # stand-in makes the tuples itself; every cone is walked from its own
    # faces, so no point is built twice, on the degenerate general fans too,
    # and the count the enumerator admits is exactly the points it returns
    walked = []

    def counting(k, total_max):
        for shifts in itertools.product(range(total_max + 1), repeat=k):
            if sum(shifts) <= total_max:
                walked.append(shifts)
                yield shifts

    monkeypatch.setattr(stacky, "_bounded_tuples", counting)
    rng = random.Random(48)
    fans = [*named_fans().values(), random_complete_rank3(rng),
            random_convex_rank3(rng), mk_sfan(2, [], (), [()], "general"),
            mk_sfan(2, [(1, 0)], (3,), [(0,)], "general")]
    for f in fans:
        for bound in (0, Fraction(3, 2), 3):
            walked.clear()
            points = enumerate_support_points(f, bound)
            assert len(walked) == len(points)
            with monkeypatch.context() as m:
                m.setattr(stacky, "LABEL_WALK_BUDGET", len(points))
                assert enumerate_support_points(f, bound) == points
                m.setattr(stacky, "LABEL_WALK_BUDGET", len(points) - 1)
                walked.clear()
                with pytest.raises(BudgetExceeded,
                                   match=f"walk {len(points)} lattice"):
                    enumerate_support_points(f, bound)
                assert walked == []


def test_a_skewed_rank_3_fan_is_admitted_at_small_bounds():
    # the squared lattice-point count of its bounding boxes, the budget's
    # earlier measure, refused it at bound 3, where the poset has 655 labels
    # and takes about 0.2 s
    f = mk_sfan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -2, -1)],
                (3, 2, 3, 3), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
                "complete")
    assert len(orbit_poset(f, 3).labels) == 655

import math
import operator
import random
import re
from fractions import Fraction

import pytest

from conftest import (fan_a1, fan_p1, fan_p2, fan_p12, fan_p112, mk_sfan,
                      named_fans, random_complete_rank2, random_complete_rank3,
                      random_convex_rank2, random_convex_rank3,
                      random_stellar_chain, support_grid)
from stackyfan import deltainv, stacky
from stackyfan.core import Cone
from stackyfan.errors import (BudgetExceeded, InvariantViolation,
                              NotMaximalCone, OutsideSupport)
from stackyfan.refine import check_invariance, stellar_subdivide
from stackyfan.stacky import (PiecewiseQLinear, StackyFan, age, box_all,
                              box_elements, box_reads,
                              enumerate_support_points,
                              eval_pl, fractional_decompose, group_order,
                              iota, psi, zero_functional)


def cone12():
    """Single-cone fan on (1,0), (1,2), weights 1."""
    return mk_sfan(2, [(1, 0), (1, 2)], (1, 1), [(0, 1)], "convex")


def test_psi_on_b_is_one():
    for f in named_fans().values():
        for i in range(len(f.fan.rays)):
            assert psi(f, f.b(i)) == 1


def test_psi_p12_values():
    f = fan_p12()
    assert psi(f, (-2,)) == 1
    assert psi(f, (-3,)) == Fraction(3, 2)
    assert psi(f, (0,)) == 0


def test_psi_outside_support():
    with pytest.raises(OutsideSupport):
        psi(fan_a1(), (-1,))


def test_psi_homogeneity():
    f = fan_p112()
    rng = random.Random(5)
    for _ in range(20):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        k = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        assert psi(f, tuple(k * x for x in v)) == k * psi(f, v)


def test_eval_pl_matches_psi_for_ones():
    f = fan_p112()
    ones = PiecewiseQLinear(f, (1, 1, 1))
    rng = random.Random(13)
    for _ in range(20):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert eval_pl(ones, v) == psi(f, v)


def test_eval_pl_p1():
    f = fan_p1()
    lam = PiecewiseQLinear(f, (1, 0))
    assert eval_pl(lam, (3,)) == 3
    assert eval_pl(lam, (-2,)) == 0


def test_box_elements_cone12():
    f = cone12()
    elems = box_elements(f, Cone((0, 1)))
    assert len(elems) == 1
    e = elems[0]
    assert e.point == (1, 1)
    assert e.q == (Fraction(1, 2), Fraction(1, 2))
    assert e.order == 2


def test_box_elements_p112():
    f = fan_p112()
    elems = box_elements(f, Cone((0, 2)))
    assert [(e.point, e.q, e.order) for e in elems] == \
        [((0, -1), (Fraction(1, 2), Fraction(1, 2)), 2)]


def test_box_elements_unit_weight_ray_empty():
    f = fan_p2()
    for i in range(3):
        assert box_elements(f, Cone((i,))) == []


def test_box_elements_rejects_a_cone_outside_the_fan(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(stacky, "_scan_parallelepiped", forbidden)
    # (0, 2) spans a cone of the plane, but not one of this fan's
    f = mk_sfan(2, [(1, 0), (0, 1), (-1, -1)], (1, 2, 3), [(0, 1), (1, 2)],
                "general")
    for idx in [(0, 2), (3,), (0, 1, 2), (1, 3)]:
        message = re.escape(f"cone {list(idx)} is not a cone of the fan")
        with pytest.raises(ValueError, match=message):
            box_elements(f, Cone(idx))
    assert f.box_scans == {}


def _unshared_lists(a, b):
    """The cones of each of two unit-weight fans whose b-vectors the other
    fan has on no cone, as weighted_delta_equal finds them at lambda = 0."""
    keys = [{tau: frozenset(f.b_vectors[i] for i in tau.ray_indices)
             for tau in f.fan.sorted_cones} for f in (a, b)]
    found = [set(k.values()) for k in keys]
    return [[tau for tau, key in k.items() if key not in other]
            for k, other in zip(keys, found[::-1])]


def planner_cases():
    """(stacky fan, cone list) pairs: the full fan of the named fans and of
    20 seeded fans, and both lists of cones that a stellar subdivision of
    20 seeded chains of rank 2 and 3 does not share with its chain."""
    rng = random.Random(54)
    makers = [random_complete_rank2, random_convex_rank2,
              random_complete_rank3, random_convex_rank3]
    fans = [*named_fans().values(), *(m(rng) for m in makers * 5)]
    cases = [(f, list(f.fan.sorted_cones)) for f in fans]
    for k in range(20):
        rank = 2 + k % 2
        coarse = random_stellar_chain(rng, rank, rng.randint(rank + 1, 8))
        i, j = rng.sample(rng.choice(coarse.fan.maximal_cones).ray_indices, 2)
        fine = stellar_subdivide(
            coarse, tuple(map(sum, zip(coarse.b(i), coarse.b(j)))))
        cases += zip((coarse, fine), _unshared_lists(coarse, fine))
    return cases


def test_box_reads_admits_and_scans_exactly_the_given_maximal_cones(
        monkeypatch):
    admitted, scanned = [], []
    admit, scan = stacky._admit_box_groups, stacky._scan_parallelepiped

    def recorded_admit(sfan, sigmas):
        admitted.append([s.ray_indices for s in sigmas])
        return admit(sfan, sigmas)

    def recorded_scan(sfan, sigma):
        scanned.append(sigma.ray_indices)
        return scan(sfan, sigma)

    monkeypatch.setattr(stacky, "_admit_box_groups", recorded_admit)
    monkeypatch.setattr(stacky, "_scan_parallelepiped", recorded_scan)
    for f, cones in planner_cases():
        assert cones
        f = StackyFan(f.fan, f.weights)
        maximal = [c.ray_indices for c in cones
                   if c in f.fan.maximal_cones]
        admitted.clear()
        reads = box_reads(f, cones)
        assert admitted == [maximal]
        # the given maximal cones first, then each of their faces once
        faces = {t.ray_indices for c in cones for t in c.faces()}
        assert [t.ray_indices for t in reads[:len(maximal)]] == maximal
        assert sorted(t.ray_indices for t in reads) == sorted(faces)
        scanned.clear()
        for tau in reads:
            box_elements(f, tau)
        assert scanned == maximal


def test_box_reads_refuses_cones_not_closed_upwards(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("admitted or scanned")

    monkeypatch.setattr(stacky, "_admit_box_groups", forbidden)
    monkeypatch.setattr(stacky, "_scan_parallelepiped", forbidden)
    f = fan_p2()
    # (0, 1) and (0, 2) hold the ray (0,); (1, 2) holds (1, 2)'s faces
    for idx in [[(0,)], [(0, 1), (0,)], [()], [(1, 2), (1,), (2,)]]:
        with pytest.raises(InvariantViolation, match="closed upwards"):
            box_reads(f, [Cone(t) for t in idx])
    assert f.box_scans == {}


def _orthant(rank):
    """C^rank: one cone on the unit vectors, weights 1, with 2^rank faces."""
    return mk_sfan(rank, [tuple(int(i == j) for j in range(rank))
                          for i in range(rank)], (1,) * rank,
                   [tuple(range(rank))], "convex")


def _recording_walk(monkeypatch, module, pairs):
    """Patch module.walk_star to record each (tau, C) pair it yields."""
    walk = stacky.walk_star

    def recording(fan, tau, depth):
        for layer in walk(fan, tau, depth):
            pairs.extend((tau.ray_indices, c.ray_indices) for c, _ in layer)
            yield layer

    monkeypatch.setattr(module, "walk_star", recording)


def test_walk_star_reaches_each_cone_over_tau_once():
    rng = random.Random(36)
    for f in [*named_fans().values(), random_complete_rank3(rng),
              random_convex_rank3(rng), _orthant(6)]:
        for tau in f.fan.sorted_cones:
            for depth in range(f.rank + 1):
                layers = list(stacky.walk_star(f.fan, tau, depth))
                got = [(c.ray_indices, rays) for k, layer in enumerate(layers)
                       for c, rays in layer if len(rays) == k]
                assert len(got) == sum(map(len, layers))
                assert sorted(got) == sorted(
                    (c.ray_indices, tuple(sorted(set(c.ray_indices)
                                                 - set(tau.ray_indices))))
                    for c in f.fan.sorted_cones if tau.is_face_of(c)
                    and c.dim - tau.dim <= depth)


def test_the_assembly_walks_only_the_pairs_that_add(monkeypatch):
    # each face tau of a given cone with a box is paired once with every
    # cone of its star in the whole fan, and with nothing else: the cones
    # two fans do not share, which refine-check sums, list neither all the
    # faces of a listed cone nor the cones between tau and it
    pairs, visits = [], []
    parts = deltainv._weighted_delta_parts

    def checked(sfan, lam, cones=None):
        pairs.clear()
        found = parts(sfan, lam, cones)
        listed = sfan.fan.sorted_cones if cones is None else cones
        # a list closed upwards: its faces are those of its maximal cones
        faces = {t for c in listed if c in sfan.fan.maximal_cones
                 for t in c.faces()}
        boxed = [t for t in faces if box_elements(sfan, t)]
        expected = [(t.ray_indices, c.ray_indices)
                    for c in sfan.fan.sorted_cones for t in boxed
                    if t.is_face_of(c)]
        assert sorted(pairs) == sorted(expected)
        visits.append((list(pairs), {c.ray_indices for c in listed}))
        return found

    monkeypatch.setattr(deltainv, "_weighted_delta_parts", checked)
    _recording_walk(monkeypatch, deltainv, pairs)
    rng = random.Random(37)
    for f in [*named_fans().values(), random_complete_rank3(rng),
              random_convex_rank2(rng), _orthant(14)]:
        deltainv.weighted_delta_closed(f, zero_functional(f))
    # 3^14 (cone, face) pairs, of which only the zero cone's add anything
    assert len(visits[-1][0]) == 2 ** 14
    coarse = fan_p112()
    for fine in (stellar_subdivide(coarse, (0, -1), 2),
                 stellar_subdivide(coarse, (1, 1))):
        visits.clear()
        assert check_invariance(coarse, zero_functional(coarse), fine)
        # the zero cone is never listed, and the walk from it reaches a
        # listed cone through an unlisted ray
        assert any(t == () and c in listed
                   and any((i,) not in listed for i in c)
                   for found, listed in visits for t, c in found)


def test_walk_cells_visits_only_the_cells_with_points(monkeypatch):
    # each (tau, C) the walk reaches has a u in BOX(tau) with m >= 0, and
    # the cells are those of a brute-force pass over the cones and faces
    pairs = []
    _recording_walk(monkeypatch, stacky, pairs)
    rng = random.Random(38)
    for f in [*named_fans().values(), random_complete_rank3(rng),
              random_convex_rank3(rng), _orthant(14)]:
        boxed = [t for t in f.fan.sorted_cones if box_elements(f, t)]
        for bound in map(Fraction, (0, 1, "3/2", 2, 3)):
            pairs.clear()
            walk = list(stacky._walk_cells(f, bound))
            expected = {}
            for c in f.fan.sorted_cones:
                for t in (t for t in boxed if t.is_face_of(c)):
                    cells = [(e, m) for e in box_elements(f, t)
                             if (m := math.floor(bound - age(f, e))
                                 - c.dim + t.dim) >= 0]
                    if cells:
                        expected[t.ray_indices, c.ray_indices] = cells
            assert sorted(pairs) == sorted(expected)
            assert len(walk) == len(expected)
            assert {(t, c.ray_indices): cells
                    for c, t, cells in walk} == expected


def _same_records(got, filed):
    return len(got) == len(filed) and all(map(operator.is_, got, filed))


def test_each_box_element_is_filed_once(monkeypatch):
    # the scan files one BoxElement per element, and every reader hands out
    # those very records: box_elements, box_table, box_all and the closed
    # form's reads build none of their own
    reads = []

    def recorded(sfan, tau):
        found = box_elements(sfan, tau)
        reads.append((tau.ray_indices, found))
        return found

    monkeypatch.setattr(deltainv, "box_elements", recorded)
    rng = random.Random(56)
    makers = [random_complete_rank2, random_convex_rank2,
              random_complete_rank3, random_convex_rank3]
    for f in [*named_fans().values(), *(m(rng) for m in makers * 5)]:
        f = StackyFan(f.fan, f.weights)
        reads.clear()
        deltainv.weighted_delta_closed(f, zero_functional(f))
        filed = f.box_scans
        assert sorted(t for t, _ in reads) == sorted(filed)
        assert all(_same_records(found, filed[t]) for t, found in reads)
        assert all(_same_records(box_elements(f, tau),
                                 filed[tau.ray_indices])
                   for tau in f.fan.sorted_cones)
        assert f.box_table.keys() == filed.keys()
        assert all(_same_records(found, filed[t])
                   for t, found in f.box_table.items())
        assert _same_records(box_all(f), [
            e for tau in f.fan.sorted_cones for e in filed[tau.ray_indices]])


def test_box_all_fixtures():
    assert [e.point for e in box_all(fan_p2())] == [(0, 0)]
    assert [e.point for e in box_all(fan_p112())] == [(0, 0), (0, -1)]
    assert [e.point for e in box_all(fan_p12())] == [(0,), (-1,)]
    p12_box = box_all(fan_p12())[1]
    assert p12_box.q == (Fraction(1, 2),) and p12_box.order == 2


def test_iota_fixed_points():
    f = fan_p12()
    e = box_all(f)[1]
    assert iota(f, e).point == (-1,)
    g = cone12()
    e2 = box_elements(g, Cone((0, 1)))[0]
    assert iota(g, e2).point == (1, 1)
    zero = box_all(f)[0]
    assert iota(f, zero) is zero


def test_iota_involution_and_age_sum():
    for f in named_fans().values():
        for e in box_all(f):
            back = iota(f, iota(f, e))
            assert back.point == e.point and back.q == e.q
            if not e.is_zero:
                assert age(f, e) + age(f, iota(f, e)) == e.cone.dim


def test_ages():
    f = fan_p12()
    zero, minus1 = box_all(f)
    assert age(f, zero) == 0
    assert age(f, minus1) == Fraction(1, 2)
    g = fan_p112()
    assert age(g, box_all(g)[1]) == 1


def test_age_is_psi_of_point():
    for f in named_fans().values():
        for e in box_all(f):
            assert age(f, e) == psi(f, e.point)


def test_group_order():
    f = fan_p2()
    for sigma in f.fan.maximal_cones:
        assert group_order(f, sigma) == 1
    assert group_order(cone12(), Cone((0, 1))) == 2
    assert group_order(fan_p12(), Cone((1,))) == 2


def test_group_order_requires_maximal_dim():
    with pytest.raises(NotMaximalCone):
        group_order(fan_p2(), Cone((0,)))


def test_box_group_bijection():
    for f in named_fans().values():
        for sigma in f.fan.maximal_cones:
            if sigma.dim != f.rank:
                continue
            total = sum(len(box_elements(f, tau)) for tau in sigma.faces())
            assert total == group_order(f, sigma)


def test_solver_order_is_the_group_order():
    rng = random.Random(52)
    fans = [*named_fans().values(), random_convex_rank3(rng),
            random_complete_rank3(rng)]
    for f in fans:
        for sigma in f.fan.maximal_cones:
            order = f.solvers[sigma].order
            if sigma.dim == f.rank:
                assert order == group_order(f, sigma)
            # the scan keeps at most the group's elements
            assert len(stacky._scan_parallelepiped(f, sigma)) <= order


def test_box_table_over_budget_raises_before_scanning(monkeypatch):
    # P(10^8, 1): the scan is linear in the group orders, and ran past 60 s
    def forbidden(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(stacky, "_scan_parallelepiped", forbidden)
    f = mk_sfan(1, [(1,), (-1,)], (10 ** 8, 1), [(0,), (1,)], "complete")
    with pytest.raises(BudgetExceeded, match="100000001 elements"):
        f.box_table


def test_test_fans_stay_far_below_the_box_budget():
    rng = random.Random(53)
    makers = [random_complete_rank2, random_convex_rank2,
              random_complete_rank3, random_convex_rank3]
    for f in [*named_fans().values(), *(m(rng) for m in makers * 5)]:
        orders = sum(f.solvers[s].order for s in f.fan.maximal_cones)
        assert 10 * orders <= stacky.BOX_SCAN_BUDGET


def test_enumerator_over_budget_raises_before_building(monkeypatch):
    # only the enumerator's callers admitted its walk, so a direct call on
    # P2 built its 1 + 3m(m + 1)/2 points up to psi m with no limit
    def forbidden(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(stacky, "_bounded_tuples", forbidden)
    with pytest.raises(BudgetExceeded, match="the support points up to 400 "
                       "may walk 240601 lattice points, over the limit of "
                       "30000"):
        enumerate_support_points(fan_p2(), 400)


def test_the_walk_builds_no_fraction_per_point(monkeypatch):
    # psi and lambda are read as integers on one grid; the walk made one
    # Fraction per point for psi and one more for lambda
    made = []
    plain = stacky.Fraction

    def counting(*args):
        made.append(args)
        return plain(*args)

    monkeypatch.setattr(stacky, "Fraction", counting)
    for f in (fan_p2(), fan_p12()):
        quarters = tuple(Fraction(i + 1, 4) for i in range(len(f.fan.rays)))
        f.box_table   # scanned once, before the counted walks
        for values in (None, quarters):
            counts = []
            for bound in (2, 8):
                made.clear()
                points = enumerate_support_points(f, bound, values)
                counts.append(len(made))
            assert len(points) > 20
            assert counts[0] == counts[1], (values, counts)


def test_element_order():
    assert box_all(fan_p12())[0].order == 1
    e = box_elements(cone12(), Cone((0, 1)))[0]
    assert e.order == 2


def test_fractional_decompose_integral():
    f = fan_a1()
    d = fractional_decompose(f, (2,))
    assert d.box_part.is_zero and d.shifts == ((0, 2),)


def test_fractional_decompose_p12():
    f = fan_p12()
    d = fractional_decompose(f, (-3,))
    assert d.box_part.point == (-1,)
    assert d.shifts == ((1, 1),)


def test_fractional_decompose_reassembles():
    rng = random.Random(17)
    for f in named_fans().values():
        pts = [p for p, _, _, _ in enumerate_support_points(f, 4)]
        for w in rng.sample(pts, min(10, len(pts))):
            d = fractional_decompose(f, w)
            rebuilt = list(d.box_part.point)
            for i, n in d.shifts:
                assert n >= 0
                for j, x in enumerate(f.b(i)):
                    rebuilt[j] += n * x
            assert tuple(rebuilt) == w


def test_fractional_decompose_box_part_is_a_box_element():
    rng = random.Random(19)
    fans = [(f, 4) for f in named_fans().values()]
    fans += [(random_complete_rank2(rng), 2), (random_convex_rank3(rng), 2)]
    for f, bound in fans:
        for w, _, _, _ in enumerate_support_points(f, bound):
            box = fractional_decompose(f, w).box_part
            assert [e for e in box_elements(f, box.cone)
                    if e.point == box.point] == [box]


def test_fractional_decompose_box_cone_is_built_sorted():
    # the box cone is built without the sort of Cone(...); it must still
    # be the cone Cone(...) builds, a face of the point's minimal cone
    for f in named_fans().values():
        for w, _, _, _ in enumerate_support_points(f, 3):
            d = fractional_decompose(f, w)
            cone = d.box_part.cone
            assert cone == Cone(cone.ray_indices), w
            assert cone.is_face_of(stacky.locate(f, w)[0]), w


def test_fractional_decompose_on_b():
    for f in named_fans().values():
        for i in range(len(f.fan.rays)):
            d = fractional_decompose(f, f.b(i))
            assert d.box_part.is_zero
            assert dict(d.shifts).get(i) == 1


def test_enumerate_support_points_matches_brute_count():
    from stackyfan.deltainv import count_lattice_points
    for f in named_fans().values():
        for m in range(4):
            pts = enumerate_support_points(f, m)
            assert len(pts) == count_lattice_points(f, m)
            assert all(Fraction(ps, f.grid) <= m for _, ps, _, _ in pts)
            psis = [Fraction(ps, f.grid) for _, ps, _, _ in pts]
            assert psis == sorted(psis)


def test_enumerate_support_points_lambda_values():
    f = fan_p1()
    lam = (Fraction(1), Fraction(0))
    grid = support_grid(f, lam)
    for p, ps, lv, _ in enumerate_support_points(f, 3, lam):
        assert Fraction(lv, grid) == (p[0] if p[0] >= 0 else 0)

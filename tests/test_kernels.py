"""Seeded random checks of the integer cone kernels (the one elimination
routine behind determinants, independent coordinates, per-cone solvers, the
overlap test's simplex and the complete-fan certificate; box-group
enumeration and the integer closed-form assembly) against references
written here from solve_rational_system, the Fraction assembly,
Leibniz sums, minor searches, adjugates, one-at-a-time substitution,
Fourier-Motzkin, bounding-box scans, an element-by-element group closure
and the pairwise overlap test, of the cyclotomic lowest-terms kernels
against naive loops and sympy, and of the oracle kernels (Ehrhart counts,
the series oracles, closure order, direct Gamma) against their
definitions."""

import functools
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (mk_sfan, named_fans, random_admissible_lambda,
                      random_complete_rank2, random_complete_rank3,
                      random_convex_rank2, random_convex_rank3,
                      random_klt_divisor, random_rank1, random_stellar_chain,
                      series_of, support_grid, weighted_projective,
                      weighted_projective_stacks)
from stackyfan import core, cyclotomic, deltainv, stacky
from stackyfan.arcspace import (StackDivisor, closure_leq, contact_order,
                                divisor_to_pl, gamma_truncated_direct,
                                orbit_label, orbit_measure, orbit_poset,
                                shift_function, zero_divisor)
from stackyfan.core import (Cone, Fan, ZERO_CONE, _cones_overlap_improperly,
                            _eliminate, _nonnegative_solution, determinant,
                            minimal_containing_cone, solve_rational_system,
                            validate_fan)
from stackyfan.cyclotomic import (_div_binomial, _fold, lowest_terms,
                                  reduce_binomials)
from stackyfan.deltainv import (check_symmetry, count_lattice_points,
                                delta_mu_series, ehrhart_counts,
                                weighted_delta_closed, weighted_delta_series)
from stackyfan.errors import OutsideSupport
from stackyfan.qseries import FracPoly, FracRational
from stackyfan.refine import is_stacky_refinement, stellar_subdivide
from stackyfan.stacky import (PiecewiseQLinear, StackyFan,
                              _scan_parallelepiped, box_all, box_elements,
                              enumerate_support_points, fractional_decompose,
                              eval_pl, locate, psi, zero_functional)

MAKERS = (random_complete_rank2, random_convex_rank2, random_complete_rank3,
          random_convex_rank3)


def random_fans(seed, per_maker):
    rng = random.Random(seed)
    return [make(rng) for make in MAKERS for _ in range(per_maker)]


def determinant_reference(rows):
    """det by the Leibniz sum over permutations."""
    d = len(rows)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(d), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                                for i in range(d))
    return total


def independent_rows_reference(columns, dim):
    """The first k coordinates, in lexicographic order of k-subsets, on
    which the k columns have a non-zero minor; None if there are none."""
    return next((rows for rows in itertools.combinations(range(dim),
                                                         len(columns))
                 if determinant_reference([[c[i] for i in rows]
                                           for c in columns])), None)


def scan_reference(sfan, tau, high, keep):
    """Bounding-box scan of the lattice points sum q_i b_i, 0 <= q_i <= high,
    over the rays of tau, kept when keep(q); sorted by point."""
    bvecs = [sfan.b(i) for i in tau.ray_indices]
    ranges = []
    for j in range(sfan.rank):
        lo = sum(min(0, high * b[j]) for b in bvecs)
        hi = sum(max(0, high * b[j]) for b in bvecs)
        ranges.append(range(lo, hi + 1))
    out = []
    for point in itertools.product(*ranges):
        q = solve_rational_system(bvecs, point)
        if q is not None and keep(q):
            out.append((point, q))
    return sorted(out)


def locate_reference(fan, v):
    """(minimal cone, its coordinates) from the maximal cones, or None."""
    if all(x == 0 for x in v):
        return ZERO_CONE, ()
    for sigma in fan.maximal_cones:
        q = solve_rational_system(fan.ray_vectors(sigma), v)
        if q is not None and all(x >= 0 for x in q):
            face = tuple((i, x) for i, x in zip(sigma.ray_indices, q) if x > 0)
            return Cone(tuple(i for i, _ in face)), tuple(x for _, x in face)
    return None


def sample_points(rng, sfan):
    """Integer, Fraction, boundary and (for cones) out-of-support points."""
    d = sfan.rank
    rays = sfan.fan.rays
    points = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(12)]
    points += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(d)) for _ in range(6)]
    for tau in sfan.fan.sorted_cones:
        # a point in the relative interior of every cone
        k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        points.append(tuple(k * sum(r[j] for r in sfan.fan.ray_vectors(tau))
                            for j in range(d)))
    points += [sfan.b(i) for i in range(len(rays))]
    points += [tuple(-x for x in r) for r in rays]
    return points


@pytest.mark.parametrize("seed", [1, 2])
def test_parallelepiped_and_box_elements_match_scan(seed):
    for sfan in random_fans(seed, 2):
        for tau in sfan.fan.sorted_cones:
            reps = scan_reference(sfan, tau, 1,
                                  lambda q: all(0 <= x < 1 for x in q))
            # the scan gives numerators over the b-solver's denominator
            den = sfan.solvers[tau].denominator
            assert [(u, tuple(Fraction(x, den) for x in n))
                    for u, n in _scan_parallelepiped(sfan, tau)] == reps
            box = [(e.point, e.q) for e in box_elements(sfan, tau)]
            assert box == [(p, q) for p, q in reps if all(x > 0 for x in q)]
            for e in box_elements(sfan, tau):
                assert e.cone == tau
                assert e.order == math.lcm(*(x.denominator for x in e.q))


def assert_canonical_box_element(sfan, e):
    """e stores q_i = nums_i / order in lowest terms, and q, age and iota
    agree with the Fractions."""
    assert type(e.order) is int and all(type(n) is int for n in e.nums)
    assert len(e.nums) == e.cone.dim
    assert all(0 < n < e.order for n in e.nums)
    assert math.gcd(e.order, *e.nums) == 1
    assert e.q == tuple(Fraction(n, e.order) for n in e.nums)
    assert stacky.age(sfan, e) == sum(e.q, Fraction(0))
    back = stacky.iota(sfan, e)
    assert math.gcd(back.order, *back.nums) == 1
    if not e.is_zero:
        assert back.q == tuple(1 - x for x in e.q)


@pytest.mark.parametrize("seed", [3, 4])
def test_box_elements_are_canonical_integer_numerators(seed):
    rng = random.Random(seed)
    for sfan in [*named_fans().values(), *random_fans(seed, 2)]:
        for tau in sfan.fan.sorted_cones:
            for e in box_elements(sfan, tau):
                assert e.cone == tau
                assert_canonical_box_element(sfan, e)
        for w in sample_points(rng, sfan) + cone_sums(sfan):
            if not all(type(x) is int for x in w):
                continue
            try:
                _, coords = locate(sfan, w)
            except OutsideSupport:
                continue
            box = fractional_decompose(sfan, w).box_part
            assert_canonical_box_element(sfan, box)
            # the box part holds the fractional parts of the b-coordinates
            assert box.q == tuple(x - math.floor(x) for x in coords
                                  if x != math.floor(x))


def weighted_delta_parts_reference(sfan, lam):
    """_weighted_delta_parts assembled on Fractions: each box exponent is
    age + sum_i q_i lambda(b_i), taken to the grid n by int(x * n), and the
    faces of each cone are found by is_face_of."""
    lams = lam.values_on_b
    cones = sfan.fan.sorted_cones
    boxes = {tau: [sum(e.q, Fraction(0))
                   + sum((qi * lams[i] for qi, i in zip(e.q, tau.ray_indices)),
                         Fraction(0))
                   for e in box_elements(sfan, tau)] for tau in cones}
    n = math.lcm(*(x.denominator
                   for x in itertools.chain(lams, *boxes.values())))
    binom = [int((x + 1) * n) for x in lams]

    def times(p, c):
        out = Counter(p)
        for e, v in p.items():
            out[e + c] -= v
        return {e: v for e, v in out.items() if v}

    total = Counter()
    for sigma in cones:
        part = Counter()
        for tau in cones:
            if tau.is_face_of(sigma):
                shift = sum(binom[i] for i in sigma.ray_indices
                            if i not in tau.ray_indices)
                for x in boxes[tau]:
                    part[int(x * n) + shift] += 1
        for i, c in enumerate(binom):
            if i not in sigma.ray_indices:
                part = times(part, c)
        total.update(part)
    total = {e: v for e, v in total.items() if v}
    for _ in range(sfan.rank):
        total = times(total, n)
    return n, total, binom


def assert_parts_match_reference(sfan, lam):
    """The assembled triple has the reference's grid and value, compared by
    cross-multiplying each numerator with the other side's binomials, and
    its binomials are a sub-multiset of the reference's, one per ray."""
    n, num, binom = deltainv._weighted_delta_parts(sfan, lam)
    ref_n, ref_num, ref_binom = weighted_delta_parts_reference(sfan, lam)
    assert n == ref_n
    assert not Counter(binom) - Counter(ref_binom)
    assert all(num.values())
    cross = []
    for p, others in ((num, ref_binom), (ref_num, binom)):
        for c in others:
            out = Counter(p)
            for e, v in p.items():
                out[e + c] -= v
            p = {e: v for e, v in out.items() if v}
        cross.append(p)
    assert cross[0] == cross[1]


@pytest.mark.parametrize("seed", [8, 9])
def test_weighted_delta_parts_match_fraction_reference(seed):
    # lambda on the grids 1/den, den = 1..6, and zero
    rng = random.Random(seed)
    for sfan in [*named_fans().values(), *random_fans(seed, 2)]:
        rays = len(sfan.fan.rays)
        lams = [zero_functional(sfan)]
        lams += [PiecewiseQLinear(sfan, [
            Fraction(rng.randint(1 - den, 2 * den), den) for _ in range(rays)])
            for den in range(1, 7)]
        for lam in lams:
            assert_parts_match_reference(sfan, lam)


def test_zero_lambda_assembles_a_polynomial():
    # every cone's binomials at lambda = 0 are 1 - s^n, which the (1 - t)^d
    # of each summand cancels: nothing is left over the numerator
    from test_acceptance import fan_suite
    rng = random.Random(12)
    fans = [*named_fans().values(), *fan_suite(), *random_fans(12, 2),
            random_stellar_chain(rng, 2, 24), random_stellar_chain(rng, 3, 12)]
    for sfan in fans:
        n, num, binom = deltainv._weighted_delta_parts(
            sfan, zero_functional(sfan))
        assert binom == []
        assert weighted_delta_closed(sfan, zero_functional(sfan)) == \
            FracRational(FracPoly({Fraction(e, n): v for e, v in num.items()}))


@pytest.mark.parametrize("rank, rays", [(2, 96), (3, 80)])
def test_assembly_scales_with_the_rays(rank, rays):
    # many rays with lambda on the grid 1/7 share few binomials; the every-
    # ray assembly took 2.5-4.4 s on each of these, at lambda = 0 0.3-0.5 s
    rng = random.Random(rays)
    sfan = random_stellar_chain(rng, rank, rays)
    lam = PiecewiseQLinear(sfan, [Fraction(rng.randint(-6, 14), 7)
                                  for _ in range(rays)])
    for lam in (lam, zero_functional(sfan)):
        for check in (weighted_delta_closed, check_symmetry):
            start = time.perf_counter()
            check(sfan, lam)
            assert time.perf_counter() - start < 1, (check.__name__, lam)


def test_many_ray_assembly_matches_every_ray_reference():
    rng = random.Random(24)
    sfan = random_stellar_chain(rng, 2, 24)
    for den in (1, 3, 7):
        assert_parts_match_reference(sfan, PiecewiseQLinear(sfan, [
            Fraction(rng.randint(1 - den, 2 * den), den) for _ in range(24)]))


def test_box_table_builds_no_fraction(monkeypatch):
    fans = [*named_fans().values(), *random_fans(10, 2)]
    expected = [sfan.box_table for sfan in fans]

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(stacky, "Fraction", forbidden)
    assert [StackyFan(sfan.fan, sfan.weights).box_table
            for sfan in fans] == expected


def box_reference(sfan):
    """{cone indices: [(point, nums, order)]} from one _scan_parallelepiped
    per maximal cone, each point filed under its support and reduced by
    Fractions."""
    table = {tau.ray_indices: set() for tau in sfan.fan.sorted_cones}
    for sigma in sfan.fan.maximal_cones:
        den = sfan.solvers[sigma].denominator
        for point, n in _scan_parallelepiped(sfan, sigma):
            q = [(i, Fraction(x, den)) for i, x in zip(sigma.ray_indices, n)
                 if x]
            order = math.lcm(*(x.denominator for _, x in q))
            table[tuple(i for i, _ in q)].add(
                (point, tuple(int(x * order) for _, x in q), order))
    return {t: sorted(found) for t, found in table.items()}


def test_box_elements_do_not_depend_on_the_read_order():
    rng = random.Random(28)
    fans = [*named_fans().values(), *random_fans(28, 5)]
    assert len(fans) == 5 + 20
    for sfan in fans:
        expected = box_reference(sfan)
        cones = list(sfan.fan.sorted_cones)
        rng.shuffle(cones)
        fresh = StackyFan(sfan.fan, sfan.weights)
        got = {tau.ray_indices: [(e.point, e.nums, e.order)
                                 for e in box_elements(fresh, tau)]
               for tau in cones}
        assert got == expected


def parallelepiped_reference(sfan, tau):
    """The box-group scan element by element over tuples: the subgroup of
    (Z/D)^k generated by the columns of the b-solver of tau, closed coset
    by coset, each element n kept when sum n_i b_i / D is integral; (u, n)
    sorted by u."""
    solver = sfan.solvers[tau]
    den = solver.denominator
    k = len(tau.ray_indices)
    group = [(0,) * k]
    for r in range(k):
        gen = tuple(row[r] % den for row in solver.matrix)
        members = set(group)
        shift = gen
        cosets = []
        while shift not in members:
            cosets.extend(tuple((a + s) % den for a, s in zip(n, shift))
                          for n in group)
            shift = tuple((a + s) % den for a, s in zip(shift, gen))
        group += cosets
    bvecs = [sfan.b(i) for i in tau.ray_indices]
    out = []
    for n in group:
        point = [sum(ni * b[j] for ni, b in zip(n, bvecs))
                 for j in range(sfan.rank)]
        if all(x % den == 0 for x in point):
            out.append((tuple(x // den for x in point), n))
    out.sort(key=lambda pq: pq[0])
    return out


def box_scans_reference(sfan):
    """{face: [(point, nums, order)]} of every maximal cone's scan, each
    element filed under its support and reduced on its own, a face filed
    from the first maximal cone that holds it."""
    table = {}
    for sigma in sfan.fan.maximal_cones:
        idx = sigma.ray_indices
        den = sfan.solvers[sigma].denominator
        new = {face: [] for k in range(len(idx) + 1)
               for face in itertools.combinations(idx, k) if face not in table}
        for point, n in parallelepiped_reference(sfan, sigma):
            found = new.get(tuple(i for i, ni in zip(idx, n) if ni))
            if found is not None:
                nums = [ni for ni in n if ni]
                g = math.gcd(den, *nums)
                found.append((point, tuple(x // g for x in nums), den // g))
        table.update(new)
    return table


def test_box_group_scan_matches_the_element_by_element_reference():
    rng = random.Random(29)
    makers = MAKERS + (random_mixed_dimension, random_skew_lower_dimension)
    seeded = [rng.choice(makers)(rng) for _ in range(40)]
    assert sum(any(len(s.ray_indices) < f.rank for s in f.fan.maximal_cones)
               for f in seeded) >= 8
    fans = [*named_fans().values(), *seeded, *weighted_projective_stacks(29)]
    assert {f.rank for f in fans} == set(range(1, 7))
    for sfan in fans:
        for tau in sfan.fan.sorted_cones:
            assert _scan_parallelepiped(sfan, tau) == \
                parallelepiped_reference(sfan, tau)
        expected = box_scans_reference(sfan)
        fresh = StackyFan(sfan.fan, sfan.weights)
        table = fresh.box_table
        assert {t: [(e.point, e.nums, e.order) for e in found]
                for t, found in table.items()} == expected
        assert all(e.cone.ray_indices == t
                   for t, found in table.items() for e in found)
        # box_scans holds the very records box_table reads
        assert fresh.box_scans.keys() == table.keys()
        assert all(fresh.box_scans[t] is found for t, found in table.items())


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_point_location_matches_reference(seed):
    rng = random.Random(seed)
    for sfan in random_fans(seed, 2):
        fan = sfan.fan
        unit = StackyFan(fan, (1,) * len(fan.rays))
        solvers = {tau: core.ConeSolver(fan.ray_vectors(tau), fan.rank)
                   for tau in fan.sorted_cones}
        for v in sample_points(rng, sfan):
            expected = locate_reference(fan, v)
            if expected is None:
                with pytest.raises(OutsideSupport):
                    minimal_containing_cone(fan, v)
                with pytest.raises(OutsideSupport):
                    locate(unit, v)
                with pytest.raises(OutsideSupport):
                    locate(sfan, v)
            else:
                cone, coords = expected
                assert minimal_containing_cone(fan, v) == cone
                assert locate(unit, v) == expected
                assert locate(sfan, v) == (cone, tuple(
                    x / sfan.weights[i]
                    for x, i in zip(coords, cone.ray_indices)))
            for tau, solver in solvers.items():
                q = solve_rational_system(fan.ray_vectors(tau), v)
                sol = solver.solve(v)
                assert (sol is None) == (q is None)
                if q is not None:
                    assert tuple(Fraction(n, sol[1]) for n in sol[0]) == q


def cone_sums(sfan):
    """Each ray, and the sum of the b-vectors of each maximal cone."""
    sums = [tuple(sum(sfan.b(i)[j] for i in sigma.ray_indices)
                  for j in range(sfan.rank))
            for sigma in sfan.fan.maximal_cones]
    return list(sfan.fan.rays) + sums


def test_each_point_is_located_by_one_solve_family(monkeypatch):
    # psi, the decomposition, stellar subdivision and every reader of BOX
    # build b-solvers on the maximal cones alone, and scan the box group of
    # each maximal cone once per fan
    scans = []
    original = stacky._scan_parallelepiped

    def counting(sfan, tau):
        scans.append((sfan, tau))
        return original(sfan, tau)

    monkeypatch.setattr(stacky, "_scan_parallelepiped", counting)
    for sfan in named_fans().values():
        for w in cone_sums(sfan):
            psi(sfan, w)
            fractional_decompose(sfan, w)
            stellar_subdivide(sfan, w, core.content(w))
        lam = zero_functional(sfan)
        box_all(sfan)
        weighted_delta_closed(sfan, lam)
        if sfan.fan.support_kind == "complete":
            check_symmetry(sfan, lam)
        orbit_poset(sfan, 2)
        gamma_truncated_direct(sfan, zero_divisor(sfan), 2)
        assert [tau for f, tau in scans if f is sfan] == \
            list(sfan.fan.maximal_cones)
        assert set(sfan.solvers) <= set(sfan.fan.maximal_cones)
    assert all(tau in f.fan.maximal_cones for f, tau in scans)


def test_refinement_locates_each_fine_ray_once(monkeypatch):
    pairs = []
    for coarse in named_fans().values():
        w = cone_sums(coarse)[-1]
        pairs.append((coarse, stellar_subdivide(coarse, w, core.content(w))))
    located = []
    original = core.ConeSolvers.locate

    def counting(self, v):
        located.append(v)
        return original(self, v)

    monkeypatch.setattr(core.ConeSolvers, "locate", counting)
    for coarse, fine in pairs:
        located.clear()
        assert is_stacky_refinement(fine, coarse) is not None
        assert located == list(fine.fan.rays)


E = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("rays, cones, overlap", [
    # (1,1,1) is interior to the first cone
    (E + [(1, 1, 1), (-1, 0, 0), (0, -1, 0)], [(0, 1, 2), (3, 4, 5)], True),
    # a shared ray, but e2 + e3 lies inside a face of the first cone only
    (E + [(0, 1, 1), (0, 0, -1)], [(0, 1, 2), (0, 3, 4)], True),
    # meeting in the common face on e1, e2
    (E + [(0, 0, -1)], [(0, 1, 2), (0, 1, 3)], False),
    # meeting in the common ray e1
    (E + [(0, -1, 0), (0, 0, -1)], [(0, 1, 2), (0, 3, 4)], False),
])
def test_validate_rank3_pairs(rays, cones, overlap):
    report = validate_fan(Fan.from_maximal(3, rays, cones, "general"))
    message = (f"cones {list(cones[0])} and {list(cones[1])} intersect "
               "outside their common face")
    assert (message in report.violations) == overlap
    assert report.ok == (not overlap)


def test_nonnegative_solution_decides_rational_feasibility():
    # x = 2y with x + y = 3 at (2, 1), but not with x + y = -3; 2x = 1 only
    # at x = 1/2, which no integer test would find
    assert _nonnegative_solution([((1, -2), 0), ((1, 1), 3)], 2)
    assert not _nonnegative_solution([((1, -2), 0), ((1, 1), -3)], 2)
    assert _nonnegative_solution([((2,), 1)], 1)
    assert not _nonnegative_solution([((2,), -1)], 1)
    # x + y = 0 only at the origin, which is x >= 0; with x = 1 nowhere
    assert _nonnegative_solution([((1, 1), 0)], 2)
    assert not _nonnegative_solution([((1, 1), 0), ((1, 0), 1)], 2)
    # inconsistent: x + y = 1 and 2x + 2y = 3; no rows, or zero rows
    assert not _nonnegative_solution([((1, 1), 1), ((2, 2), 3)], 2)
    assert _nonnegative_solution([], 3)
    assert _nonnegative_solution([((0, 0), 0)], 2)
    assert not _nonnegative_solution([((0, 0), 1)], 2)


@pytest.mark.parametrize("seed, ranks", [(8, (2, 3)), (9, (2, 3)),
                                         (10, (2, 3, 4, 5, 6))],
                         ids=["8", "9", "10"])
def test_overlap_test_is_symmetric(seed, ranks):
    # validate_fan tests each pair of maximal cones in one direction only
    rng = random.Random(seed)
    checked = 0
    while checked < 40:
        rank = rng.choice(ranks)
        rays = []
        while len(rays) < 2 * rank:
            r = tuple(rng.randint(-2, 2) for _ in range(rank))
            if math.gcd(*r) == 1 and r not in rays:
                rays.append(r)
        a, b = (Cone(tuple(rng.sample(range(2 * rank), rank)))
                for _ in range(2))
        fan = Fan.from_maximal(rank, rays, [a.ray_indices, b.ray_indices],
                               "general")
        if a == b or any(
                independent_rows_reference(fan.ray_vectors(c), rank) is None
                for c in (a, b)):
            continue
        checked += 1
        assert _cones_overlap_improperly(fan, a, b) == \
            _cones_overlap_improperly(fan, b, a)


def validate_reference(fan):
    """The violations of `validate_fan` found the long way: every cone and
    every face of every cone checked, and every pair of maximal cones given
    the overlap test."""
    out = []
    for i, r in enumerate(fan.rays):
        if len(r) != fan.rank:
            out.append(f"ray {i} has wrong length")
        elif all(a == 0 for a in r):
            out.append(f"ray {i} is zero")
        elif math.gcd(*r) != 1:
            out.append(f"ray {i} not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        out.append("duplicate rays")
    used = {i for c in fan.cones for i in c.ray_indices}
    out += [f"ray {i} lies in no cone"
            for i in sorted(set(range(len(fan.rays))) - used)]
    for c in fan.sorted_cones:
        if any(i < 0 or i >= len(fan.rays) for i in c.ray_indices):
            out.append(f"cone {list(c.ray_indices)} references missing ray")
            continue
        vecs = fan.ray_vectors(c)
        if (all(len(v) == fan.rank for v in vecs)
                and independent_rows_reference(vecs, fan.rank) is None):
            out.append(f"cone {list(c.ray_indices)} rays not linearly "
                       "independent")
    if ZERO_CONE not in fan.cones:
        out.append("zero cone missing")
    for c in fan.cones:
        out += [f"face {list(f.ray_indices)} of cone {list(c.ray_indices)} "
                "missing from fan" for f in c.faces() if f not in fan.cones]
    if out:
        return out
    maximal = fan.maximal_cones
    out += [f"cones {list(a.ray_indices)} and {list(b.ray_indices)} "
            "intersect outside their common face"
            for a, b in itertools.combinations(maximal, 2)
            if _cones_overlap_improperly(fan, a, b)]
    top = [c for c in maximal if c.dim == fan.rank]
    facets = [(f, sum(f.is_face_of(c) for c in top))
              for f in fan.sorted_cones if f.dim == fan.rank - 1]
    if fan.support_kind == "complete":
        if not top:
            out.append("complete fan has no maximal-dimensional cone")
        if any(c.dim != fan.rank for c in maximal):
            out.append("complete fan has a maximal cone of lower dimension")
        out += [f"facet {list(f.ray_indices)} on {n} maximal cone"
                + ("" if n == 1 else "s") for f, n in facets if n != 2]
    elif fan.support_kind == "convex":
        for f, n in facets:
            if n != 1:
                continue
            rows = fan.ray_vectors(f)
            normal = [(-1) ** j * determinant_reference(
                [r[:j] + r[j + 1:] for r in rows]) for j in range(fan.rank)]
            dots = [sum(n * x for n, x in zip(normal, r)) for r in fan.rays]
            if any(d > 0 for d in dots) and any(d < 0 for d in dots):
                out.append(f"boundary facet {list(f.ray_indices)} admits no "
                           "supporting hyperplane (support not convex)")
    return out


def orthant_fan(rank):
    """The complete fan of the 2^rank orthants, on the rays +-e_i."""
    rays = [tuple(s * (i == j) for j in range(rank))
            for i in range(rank) for s in (1, -1)]
    cones = [tuple(2 * i + s for i, s in enumerate(signs))
             for signs in itertools.product((0, 1), repeat=rank)]
    return Fan.from_maximal(rank, rays, cones, "complete")


PENTAGON = [(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)]
# the pentagon's rays taken two steps at a time: consecutive pairs span the
# cones of a pentagram, which winds twice around the origin
PENTAGRAM = [PENTAGON[2 * k % 5] for k in range(5)]


# a pentagram whose first cone's ray sum (0, 2) lies on the ray (0, 1) of
# two other cones, and in neither of their interiors
PENTAGRAM_THROUGH_A_RAY = [(1, 0), (-1, 2), (1, -3), (0, 1), (-1, -1)]


def cycle_fan(rays, support="complete"):
    """The rank-2 fan whose cones join each ray to the next, cyclically."""
    n = len(rays)
    return Fan.from_maximal(2, rays, [(k, (k + 1) % n) for k in range(n)],
                            support)


def double_cover_rank3():
    """The pentagram suspended by +-e3: every facet lies on two cones on
    opposite sides, and the cones cover each direction twice."""
    rays = [r + (0,) for r in PENTAGRAM] + [(0, 0, 1), (0, 0, -1)]
    cones = [(k, (k + 1) % 5, top) for k in range(5) for top in (5, 6)]
    return Fan.from_maximal(3, rays, cones, "complete")


def complete_fans(seed):
    """Valid complete fans: the named ones, seeded random rank-2 and rank-3
    fans, stellar subdivisions of them at the b-sums of two maximal cones,
    P(1,2,3,2,3), the large-grid pentagon and the orthant fans of ranks 1
    to 4."""
    rng = random.Random(seed)
    sfans = [f for f in named_fans().values()
             if f.fan.support_kind == "complete"]
    sfans += [make(rng) for make in (random_complete_rank2,
                                     random_complete_rank3)
              for _ in range(6)]
    for sfan in list(sfans):
        for w in cone_sums(sfan)[len(sfan.fan.rays):][:2]:
            sfan = stellar_subdivide(sfan, w, core.content(w))
            sfans.append(sfan)
    fans = [f.fan for f in sfans]
    rank4 = [(-2, -3, -2, -3), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
             (0, 0, 0, 1)]
    fans.append(Fan.from_maximal(4, rank4,
                                 list(itertools.combinations(range(5), 4)),
                                 "complete"))
    fans.append(cycle_fan(PENTAGON))
    fans += [orthant_fan(rank) for rank in range(1, 5)]
    return fans


def ray_mutants(fan):
    """The fan with one ray negated, and with the first two coordinates of
    one ray swapped, for every ray."""
    out = []
    for i, r in enumerate(fan.rays):
        changed = [tuple(-a for a in r)]
        if fan.rank >= 2 and r[0] != r[1]:
            changed.append((r[1], r[0]) + r[2:])
        for new in changed:
            rays = fan.rays[:i] + (new,) + fan.rays[i + 1:]
            out.append(Fan.from_maximal(
                fan.rank, rays, [c.ray_indices for c in fan.maximal_cones],
                "complete"))
    return out


def test_complete_fan_certificate_agrees_with_pairwise_reference():
    valid = complete_fans(31)
    for fan in valid:
        assert core._complete_fan_certified(fan, fan.maximal_cones)
        assert validate_fan(fan).violations == validate_reference(fan) == []
    mutants = [m for fan in valid for m in ray_mutants(fan)]
    mutants += [cycle_fan(PENTAGRAM), cycle_fan(PENTAGRAM_THROUGH_A_RAY),
                double_cover_rank3()]
    overlapping = 0
    for fan in mutants:
        expected = validate_reference(fan)
        assert validate_fan(fan).violations == expected
        maximal = fan.maximal_cones
        if any(independent_rows_reference(fan.ray_vectors(c), fan.rank)
               is None for c in maximal):
            continue
        overlap = any(_cones_overlap_improperly(fan, a, b)
                      for a, b in itertools.combinations(maximal, 2))
        overlapping += overlap
        certified = core._complete_fan_certified(fan, maximal)
        assert not (certified and overlap)
        assert certified or expected != []
    assert overlapping > len(mutants) // 2
    for fan, overlaps in ((cycle_fan(PENTAGRAM), 5),
                          (double_cover_rank3(), 20)):
        assert not core._complete_fan_certified(fan, fan.maximal_cones)
        violations = validate_fan(fan).violations
        assert len(violations) == overlaps
        assert all("intersect outside their common face" in v
                   for v in violations)


def test_validate_matches_reference_beyond_valid_complete_fans():
    # the cone and face checks are skipped when the maximal cones pass
    # them; a fan that fails them gets every message the long way, and
    # convex and general fans keep the pairwise overlap test
    p2 = ((1, 0), (0, 1), (-1, -1))
    quadrants = ((1, 0), (0, 1), (-1, 0), (0, -1))
    rng = random.Random(33)
    others = [make(rng).fan for make in (random_convex_rank2,
                                         random_convex_rank3)
              for _ in range(4)]
    others += [
        Fan.from_maximal(2, quadrants[:3], [(0, 1), (1, 2)], "convex"),
        Fan.from_maximal(2, quadrants, [(0, 1), (1, 2), (2, 3)], "convex"),
        Fan.from_maximal(2, quadrants, [(0, 1), (1, 2), (3,)], "general"),
        Fan.from_maximal(2, ((1, 0), (0, 1), (1, 1), (1, -1)),
                         [(0, 1), (2, 3)], "general"),
        cycle_fan(PENTAGRAM, "general"),
    ]
    for fan in others:
        assert validate_fan(fan).violations == validate_reference(fan)
    assert sum(validate_fan(fan).ok for fan in others) == 10
    broken = [
        Fan(2, p2, frozenset({Cone((0, 1)), Cone((1, 2)), ZERO_CONE}),
            "complete"),
        Fan(2, p2, frozenset({Cone((0, 1)), Cone((0,)), Cone((1,))}),
            "general"),
        Fan.from_maximal(2, p2, [(0, 1), (1, 5)], "complete"),
        Fan.from_maximal(2, p2 + ((1, 0, 0),), [(0, 3), (1, 2)], "general"),
        Fan.from_maximal(2, p2 + ((1, 1),), [(0, 1, 3), (1, 2)], "convex"),
        Fan.from_maximal(2, ((1, 0), (-1, 0), (0, 1)), [(0, 1), (1, 2)],
                         "convex"),
        Fan.from_maximal(3, [r + (0,) for r in p2], [(0, 1), (1, 2), (0, 2)],
                         "complete"),
        # complete fans that the one elimination per maximal cone hands on
        # to the long way: a full-size cone on collinear rays, first among
        # the maximal cones and later
        Fan.from_maximal(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
                         [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)],
                         "complete"),
        Fan.from_maximal(2, quadrants, [(0, 1), (1, 2), (2, 3), (0, 3),
                                        (1, 3)], "complete"),
        # a lower-dimensional maximal cone, after the full ones and first
        Fan.from_maximal(2, p2 + ((1, 1),), [(0, 1), (1, 2), (0, 2), (3,)],
                         "complete"),
        Fan.from_maximal(2, ((1, 1),) + p2, [(0,), (1, 2), (2, 3), (1, 3)],
                         "complete"),
        # the ray (1, 0) on three cones
        Fan.from_maximal(2, quadrants + ((1, -1),),
                         [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)],
                         "complete"),
    ]
    for fan in broken:
        assert validate_fan(fan).violations == validate_reference(fan)
        assert not validate_fan(fan).ok


def test_complete_fans_skip_pairwise_overlap(monkeypatch):
    def forbidden(*args):
        raise AssertionError("pairwise overlap test called")

    rng = random.Random(32)
    sfans = [f for f in named_fans().values()
             if f.fan.support_kind == "complete"]
    sfans += [make(rng) for make in (random_complete_rank2,
                                     random_complete_rank3)
              for _ in range(10)]
    monkeypatch.setattr(core, "_cones_overlap_improperly", forbidden)
    for sfan in sfans:
        assert validate_fan(sfan.fan).ok
        for w in cone_sums(sfan)[len(sfan.fan.rays):]:
            fine = stellar_subdivide(sfan, w, core.content(w))
            assert fine.fan.support_kind == "complete"
            assert validate_fan(fine.fan).ok
    for rank in range(1, 5):
        assert validate_fan(orthant_fan(rank)).ok


def test_validation_eliminates_once_per_maximal_cone(monkeypatch):
    # the same elimination of [rays^T | p] decides each maximal cone's
    # independence and its part of the complete-fan certificate
    rng = random.Random(34)
    sfans = [f for f in named_fans().values()
             if f.fan.support_kind == "complete"]
    sfans += [make(rng) for make in (random_complete_rank2,
                                     random_complete_rank3)
              for _ in range(4)]
    fans = complete_fans(34)
    fans += [stellar_subdivide(sfan, w, core.content(w)).fan
             for sfan in sfans for w in cone_sums(sfan)[len(sfan.fan.rays):]]
    calls = []
    original = core._eliminate

    def counting(rows, width):
        calls.append(width)
        return original(rows, width)

    monkeypatch.setattr(core, "_eliminate", counting)
    for fan in fans:
        calls.clear()
        assert validate_fan(fan).ok
        assert calls == [c.dim for c in fan.maximal_cones]


def cone_solver_reference(columns, dim):
    """(rows, matrix, denominator) of a ConeSolver from the adjugate of the
    square minor, one determinant per cofactor."""
    rows = independent_rows_reference(columns, dim)
    square = [[c[i] for i in rows] for c in columns]
    k = len(columns)
    det = determinant_reference(square)
    adj = [[(-1) ** (j + r) * determinant_reference(
                [row[:r] + row[r + 1:] for jj, row in enumerate(square)
                 if jj != j])
            for r in range(k)] for j in range(k)]
    g = math.gcd(det, *(a for row in adj for a in row))
    matrix = tuple(tuple((a if det > 0 else -a) // g for a in row)
                   for row in adj)
    return rows, matrix, abs(det) // g


@pytest.mark.parametrize("seed", [23, 24])
def test_cone_solver_matches_adjugate_reference(seed):
    rng = random.Random(seed)
    for dim in range(1, 6):
        for k in range(1, dim + 1):
            checked = 0
            while checked < 12:
                columns = [tuple(rng.choice((-3, -1, 0, 0, 1, 2, 5))
                                 for _ in range(dim)) for _ in range(k)]
                if independent_rows_reference(columns, dim) is None:
                    continue
                checked += 1
                solver = core.ConeSolver(columns, dim)
                assert (solver.rows, solver.matrix, solver.denominator) == \
                    cone_solver_reference(columns, dim), columns


def random_matrix(rng, rows, cols):
    return [tuple(rng.choice((-4, -1, 0, 0, 1, 2, 3, 7)) for _ in range(cols))
            for _ in range(rows)]


@pytest.mark.parametrize("seed", [41, 42])
def test_determinant_matches_leibniz_sum(seed):
    rng = random.Random(seed)
    singular = 0
    for d in range(6):
        for _ in range(60):
            m = random_matrix(rng, d, d)
            if d >= 2 and rng.random() < 0.3:
                # a row repeated, or a combination of two others
                i, j = rng.sample(range(d), 2)
                m[i] = tuple(a + rng.choice((0, 2)) * b
                             for a, b in zip(m[j], m[i - 1]))
            expected = determinant_reference(m)
            singular += expected == 0
            assert determinant(m) == expected, m
    assert singular > 40


@pytest.mark.parametrize("seed", [43, 44])
def test_independent_rows_match_minor_search(seed):
    rng = random.Random(seed)
    dependent = 0
    for dim in range(1, 6):
        for k in range(1, dim + 1):
            for _ in range(20):
                columns = random_matrix(rng, k, dim)
                if k >= 2 and rng.random() < 0.3:
                    columns[-1] = tuple(2 * a - b for a, b in
                                        zip(columns[0], columns[-2]))
                expected = independent_rows_reference(columns, dim)
                dependent += expected is None
                pivots = _eliminate(columns, dim)[0]
                assert (pivots if len(pivots) == k else None) == expected, \
                    columns
    assert dependent > 40


def fm_feasible_reference(ineqs, eqs, nvars, cap=None):
    """Exact Fourier-Motzkin feasibility, the equalities substituted out
    one at a time, each made primitive with its right-hand side; None once
    the eliminations would have built more than `cap` rows in all."""
    def primitive(row, c):
        g = math.gcd(*row, c) or 1
        return tuple(a // g for a in row), c // g

    ineqs = {(tuple(row), c) for row, c in ineqs}
    eqs = [(tuple(row), c) for row, c in eqs]
    live = list(range(nvars))
    while eqs:
        row, c = eqs.pop()
        piv = next((j for j in live if row[j] != 0), None)
        if piv is None:
            if c != 0:
                return False
            continue
        if row[piv] < 0:
            row, c = tuple(-a for a in row), -c
        p = row[piv]

        def subst(orow, oc):
            f = orow[piv]
            if f == 0:
                return orow, oc
            return primitive([p * a - f * b for a, b in zip(orow, row)],
                             p * oc - f * c)

        eqs = [subst(r, cc) for r, cc in eqs]
        ineqs = {subst(r, cc) for r, cc in ineqs}
        live.remove(piv)
    built = 0
    for j in live:
        pos = [(r, c) for r, c in ineqs if r[j] > 0]
        neg = [(r, c) for r, c in ineqs if r[j] < 0]
        rest = {(r, c) for r, c in ineqs if r[j] == 0}
        built += len(pos) * len(neg)
        if cap is not None and built > cap:
            return None
        for (rp, cp), (rn, cn) in itertools.product(pos, neg):
            fp, fn = -rn[j], rp[j]
            rest.add(primitive([fp * x + fn * y for x, y in zip(rp, rn)],
                               fp * cp + fn * cn))
        ineqs = rest
    return all(c <= 0 for _, c in ineqs)


def nonnegative_reference(eqs, nvars, cap=None):
    """fm_feasible_reference with one x_k >= 0 row per variable."""
    return fm_feasible_reference(
        [([int(j == k) for j in range(nvars)], 0) for k in range(nvars)],
        eqs, nvars, cap)


@pytest.mark.parametrize("seed", [45, 46])
def test_nonnegative_solution_matches_substitution_reference(seed):
    # most right-hand sides are 0, which makes the degenerate tableaux in
    # which the simplex needs its tie-break
    rng = random.Random(seed)
    verdicts = Counter()
    for _ in range(1500):
        nvars = rng.randint(1, 6)
        eqs = [([rng.randint(-3, 3) for _ in range(nvars)],
                rng.randint(-3, 3) if rng.random() < 0.4 else 0)
               for _ in range(rng.randint(1, 4))]
        inconsistent = rng.random() < 0.2
        if inconsistent:
            # twice the first equality, with an odd right-hand side
            row, c = eqs[0]
            eqs.insert(rng.randint(0, len(eqs)),
                       ([2 * a for a in row], 2 * c + 1))
        expected = nonnegative_reference(eqs, nvars)
        assert not (inconsistent and expected)
        verdicts[inconsistent, expected] += 1
        assert _nonnegative_solution(eqs, nvars) == expected, eqs
    assert min(verdicts[False, True], verdicts[False, False],
               verdicts[True, False]) > 100


def test_simplex_pivots_follow_blands_rule(monkeypatch):
    # each pivot of the simplex, checked on the tableau it is made on: the
    # lowest-index x_j with a negative reduced cost enters, on a positive
    # entry of least ratio, the tie going to the row of the lowest-index
    # basic variable; Bland's proof that no basis repeats needs both.
    # Entries in [-1, 1] and zero right sides make ties, over 40 of which
    # the basic variables decide against the order of the rows
    rng = random.Random(50)
    calls = []
    original = core._pivot

    def recording(m, t, c, prev):
        calls.append(([list(row) for row in m], t, c, prev))
        return original(m, t, c, prev)

    monkeypatch.setattr(core, "_pivot", recording)
    decided_by_the_tie = 0
    for _ in range(1000):
        nvars = rng.randint(5, 10)
        eqs = [([rng.randint(-1, 1) for _ in range(nvars)],
                rng.randint(0, 2) if rng.random() < 0.5 else 0)
               for _ in range(rng.randint(3, 6))]
        rank = len(core._eliminate([a + [c] for a, c in eqs], nvars)[0])
        calls.clear()
        _nonnegative_solution(eqs, nvars)
        basis = list(range(nvars, nvars + rank))
        for m, t, c, prev in calls[rank:]:
            assert prev > 0
            assert c == min(j for j in range(nvars) if m[-1][j] < 0)
            ratios = {i: Fraction(m[i][-1], m[i][c])
                      for i in range(rank) if m[i][c] > 0}
            assert t in ratios and ratios[t] == min(ratios.values())
            ties = [i for i in ratios if ratios[i] == ratios[t]]
            assert basis[t] == min(basis[i] for i in ties)
            decided_by_the_tie += t != min(ties)
            basis[t] = c
    assert decided_by_the_tie > 40


def overlap_reference(fan, a, b, cap):
    """The overlap system of `_cones_overlap_improperly` written out again:
    A p - B q = 0 and the weight of p on the rays of a that b lacks equal
    to 1, decided by Fourier-Motzkin (None past `cap` rows)."""
    extra = [int(i not in b.ray_indices) for i in a.ray_indices]
    if not any(extra):
        return False
    eqs = [([fan.rays[i][k] for i in a.ray_indices]
            + [-fan.rays[j][k] for j in b.ray_indices], 0)
           for k in range(fan.rank)]
    eqs.append((extra + [0] * b.dim, 1))
    return nonnegative_reference(eqs, a.dim + b.dim, cap)


def test_overlap_test_matches_the_capped_reference_at_ranks_2_to_6():
    # pairs of maximal cones of general fans that share 0 to d - 1 rays,
    # full-dimensional or not; past rank 4 Fourier-Motzkin gives up on some
    rng = random.Random(49)
    for rank in range(2, 7):
        verdicts = Counter()
        while sum(verdicts.values()) < 80:
            rays = []
            while len(rays) < 2 * rank:
                r = tuple(rng.randint(-3, 3) for _ in range(rank))
                if math.gcd(*r) == 1 and r not in rays:
                    rays.append(r)
            ka, kb = (rank if rng.random() < 0.7 else rng.randint(1, rank)
                      for _ in range(2))
            shared = rng.sample(range(ka), rng.randint(0, min(ka, kb) - 1))
            a = Cone(tuple(range(ka)))
            b = Cone(tuple(shared) + tuple(range(rank, rank + kb
                                                 - len(shared))))
            fan = Fan.from_maximal(rank, rays, [a.ray_indices,
                                                b.ray_indices], "general")
            if any(independent_rows_reference(fan.ray_vectors(c), rank)
                   is None for c in (a, b)):
                continue
            expected = overlap_reference(fan, a, b, cap=2000)
            verdicts[expected] += 1
            if expected is not None:
                assert _cones_overlap_improperly(fan, a, b) == expected, \
                    (rays, a, b)
        assert min(verdicts[True], verdicts[False]) >= 10, (rank, verdicts)
        assert verdicts[None] <= 30, (rank, verdicts)


def test_solvers_and_the_certificate_eliminate_once(monkeypatch):
    # one elimination builds a ConeSolver; the complete-fan certificate
    # takes each maximal cone's sign and point test from one elimination
    # and calls no determinant
    rng = random.Random(47)
    column_sets = []
    while len(column_sets) < 150:
        dim = rng.randint(1, 5)
        columns = random_matrix(rng, rng.randint(0, dim), dim)
        if independent_rows_reference(columns, dim) is not None:
            column_sets.append((columns, dim))
    valid = complete_fans(48)
    through_a_ray = cycle_fan(PENTAGRAM_THROUGH_A_RAY)
    calls = []
    original = core._eliminate

    def counting(rows, width):
        calls.append(width)
        return original(rows, width)

    def forbidden(*args):
        raise AssertionError("determinant called")

    monkeypatch.setattr(core, "_eliminate", counting)
    monkeypatch.setattr(core, "determinant", forbidden)
    for columns, dim in column_sets:
        calls.clear()
        solver = core.ConeSolver(columns, dim)
        assert calls == [dim]
        assert solver.others == tuple(i for i in range(dim)
                                      if i not in solver.rows)
        assert solver.check == tuple(
            tuple(sum(c[i] * row[r] for c, row in zip(columns, solver.matrix))
                  for r in range(len(columns)))
            for i in solver.others)
    for fan in valid:
        calls.clear()
        assert core._complete_fan_certified(fan, fan.maximal_cones)
        assert len(calls) == len(fan.maximal_cones)
    calls.clear()
    assert not core._complete_fan_certified(through_a_ray,
                                            through_a_ray.maximal_cones)
    assert len(calls) <= len(through_a_ray.maximal_cones)


@pytest.mark.parametrize("seed", [25, 26])
def test_support_points_come_in_psi_then_point_order(seed):
    rng = random.Random(seed)
    for sfan in list(named_fans().values()) + random_fans(seed, 2):
        lam = random_admissible_lambda(rng, sfan).values_on_b
        for values in (None, lam):
            grid = support_grid(sfan, values)
            for bound in (Fraction(5, 2), 3):
                points = enumerate_support_points(sfan, bound, values)
                assert points == sorted(points, key=lambda item: (
                    Fraction(item[1], grid), item[0]))



@pytest.mark.parametrize("seed", [27, 28])
def test_support_point_labels_are_the_located_labels(seed):
    # the enumerator reads each label off w = u + sum s_i b_i; orbit_label
    # locates w afresh, and the box part is the record the scan filed
    rng = random.Random(seed)
    cases = [(sfan, 5) for sfan in named_fans().values()]
    cases += [(sfan, 3) for sfan in random_fans(seed, 2)]
    cases += [(weighted_projective(w), 2)
              for w in ((1, 2, 3, 5), (2, 1, 3, 1, 4), (1, 2, 1, 3, 1, 2, 1))]
    cases += [(random_stellar_chain(rng, 3, rng.randint(5, 8)), 3)
              for _ in range(3)]
    cases += [(mk_sfan(2, [], (), [()], "general"), 5),
              (mk_sfan(2, [(1, 0)], (3,), [(0,)], "general"), 5)]
    checked = 0
    for sfan, bound in cases:
        lam = random_admissible_lambda(rng, sfan).values_on_b
        for values in (None, lam):
            points = enumerate_support_points(sfan, bound, values)
            filed = {(e.cone.ray_indices, e.point): e
                     for records in sfan.box_scans.values() for e in records}
            grid = support_grid(sfan, values)
            functional = PiecewiseQLinear(sfan, lam)
            for point, ps, lv, label in points:
                assert label == orbit_label(sfan, point), point
                assert Fraction(ps, grid) == psi(sfan, point), point
                assert Fraction(lv, grid) == (
                    eval_pl(functional, point) if values else 0), point
                box = label.box_part
                assert filed[box.cone.ray_indices, box.point] is box
                checked += 1
    assert checked > 1000

# cyclotomic kernels: polynomials are integer coefficient lists in s

def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def binomial(d):
    """1 - s^d."""
    return [1] + [0] * (d - 1) + [-1]


def div_binomial_reference(a, c):
    """The first len(a) - c terms of a / (1 - s^c) as a power series."""
    q = []
    for i in range(len(a) - c):
        q.append(a[i] + (q[i - c] if i >= c else 0))
    return q


# (c, length) on both sides of c^2 = length, at it, and (for _fold) with
# length < c and length not a multiple of c
FOLD_SHAPES = [(1, 7), (3, 40), (5, 25), (6, 35), (7, 50), (12, 100),
               (30, 101), (64, 64), (90, 40)]


@pytest.mark.parametrize("c, length", FOLD_SHAPES)
def test_fold_matches_naive_loop(c, length):
    rng = random.Random(c * 1000 + length)
    a = [rng.randint(-9, 9) for _ in range(length)]
    expected = [0] * c
    for i, x in enumerate(a):
        expected[i % c] += x
    assert _fold(a, c) == expected


@pytest.mark.parametrize("c, length", [(c, n) for c, n in FOLD_SHAPES
                                       if n > c])
def test_div_binomial_matches_naive_loop(c, length):
    rng = random.Random(c * 1000 + length)
    a = [rng.randint(-9, 9) for _ in range(length)]
    assert _div_binomial(list(a), c) == div_binomial_reference(a, c)
    q = [rng.randint(-9, 9) for _ in range(length)]
    assert _div_binomial(poly_mul(q, binomial(c)), c) == q


def random_quotients(seed, count):
    """(a, b) with b a product of binomials (1 - s^d)^e, e of either sign
    (exact), and a a random polynomial times binomials sharing cyclotomic
    factors with b, so that Phi_k divides both, some k more than once."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        tops = rng.sample(range(2, 31), rng.randint(1, 4))
        b = [1]
        for d in tops:
            for _ in range(rng.randint(1, 3)):
                b = poly_mul(b, binomial(d))
        if rng.random() < 0.5:
            # divide out a binomial 1 - s^k for k | some top: a negative
            # peel exponent
            d = rng.choice(tops)
            k = rng.choice([k for k in range(1, d) if d % k == 0])
            b = div_binomial_reference(b, k)
        a = [rng.choice((-1, 1)) * rng.randint(1, 5)] + \
            [rng.randint(-4, 4) for _ in range(rng.randint(0, 40))]
        for _ in range(rng.randint(0, 4)):
            d = rng.choice(tops)
            m = rng.choice([m for m in range(1, 2 * d + 1)
                            if math.gcd(m, d) > 1 or m == 1])
            a = poly_mul(a, binomial(m))
        while not a[-1]:
            a.pop()
        out.append((a, b))
    return out


def test_lowest_terms_divisor_lattice_cases():
    # Phi_1 and Phi_2 twice in each: common factors found again on the
    # second round
    a = poly_mul(binomial(2), binomial(6))
    b = poly_mul(binomial(4), binomial(4))
    num, den = lowest_terms(a, b)
    assert poly_mul(num, b) == poly_mul(a, den)
    assert num == [1, 0, 1, 0, 1] and den == [1, 0, 2, 0, 1]
    # tops 12 and 10: Phi_5 and Phi_10 divide only the smaller top, and
    # b = (1 - s^12)(1 - s^10)/(1 - s^2) peels with e_2 = -1; the gcd is
    # Phi_1 Phi_2 Phi_5 Phi_10 = 1 - s^10
    b = div_binomial_reference(poly_mul(binomial(12), binomial(10)), 2)
    a = poly_mul(poly_mul([3, 1], binomial(5)), binomial(10))
    num, den = lowest_terms(a, b)
    assert num == poly_mul([3, 1], binomial(5))
    assert den == div_binomial_reference(binomial(12), 2)
    # Phi_1 four times in a and three times in b: found in three rounds,
    # and the fourth copy stays in the numerator
    a = functools.reduce(poly_mul, [binomial(1)] * 4, [1, 2])
    b = functools.reduce(poly_mul, [binomial(2)] * 3)
    assert lowest_terms(a, b) == reduce_binomials(a, 1, {2: 3}) \
        == ([1, 1, -2], [1, 3, 3, 1])


def _sympy_poly(sympy, s, coefficients):
    return sympy.Poly(list(reversed(coefficients)), s)


@pytest.mark.parametrize("seed", [11, 12])
def test_lowest_terms_random_quotients_coprime(seed):
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    for a, b in random_quotients(seed, 25):
        num, den = lowest_terms(list(a), list(b))
        assert poly_mul(num, b) == poly_mul(a, den)
        assert len(den) <= len(b) and den[0] and num[0]
        g = sympy.gcd(_sympy_poly(sympy, s, num), _sympy_poly(sympy, s, den))
        assert g.degree() == 0


def random_binomial_quotients(seed, count):
    """(a, c, exps) for c prod_d (1 - s^d)^{exps[d]} with a random multiset
    of binomials, and a a random polynomial times none, some or all of them
    (in turn), with 1 - s^k for a proper divisor k of a binomial's d in
    some, so that a shares only part of its cyclotomic factors."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        binom = [rng.randint(2, 30) for _ in range(rng.randint(1, 5))]
        shared = {0: [], 1: rng.sample(binom, rng.randint(0, len(binom))),
                  2: binom}[i % 3]
        if i % 3 == 1:
            d = rng.choice(binom)
            shared = shared + [rng.choice([k for k in range(1, d)
                                           if d % k == 0])]
        a = [rng.choice((-1, 1)) * rng.randint(1, 5)] + \
            [rng.randint(-4, 4) for _ in range(rng.randint(0, 30))]
        for d in shared:
            a = poly_mul(a, binomial(d))
        while not a[-1]:
            a.pop()
        out.append((a, rng.choice([1, -2, 3]), Counter(binom)))
    return out


@pytest.mark.parametrize("seed", [13, 14])
def test_reduction_over_known_binomials_matches_lowest_terms(seed):
    shortened = 0
    for a, c, exps in random_binomial_quotients(seed, 30):
        dense = functools.reduce(poly_mul, map(binomial, exps.elements()),
                                 [c])
        lengths = []
        num, den = reduce_binomials(list(a), c, exps, lengths.append)
        assert (num, den) == lowest_terms(list(a), dense)
        q, net = cyclotomic._divide_gcd(list(a), exps)
        assert 0 not in net.values()
        # the quotient times prod_d (1 - s^d)^{E_d} is +-a
        times, over = [q], [list(a)]
        for d, e in net.items():
            (times if e > 0 else over).extend([binomial(d)] * abs(e))
        lhs, rhs = (functools.reduce(poly_mul, p) for p in (times, over))
        assert lhs in (rhs, [-x for x in rhs])
        # fit sees the longest list the denominator grows to
        assert len(lengths) == 1 and lengths[0] >= len(den)
        shortened += len(den) < len(dense)
    assert shortened >= 20


def counted_reduction(monkeypatch, a, exps):
    """reduce_binomials(a, 1, exps), with the k of each _fold and each
    _phi_divides call it made, in order."""
    folds, tests = [], []
    fold, phi_divides = cyclotomic._fold, cyclotomic._phi_divides

    def counting_fold(f, k):
        folds.append(k)
        return fold(f, k)

    def counting_phi_divides(f, k, factors):
        tests.append(k)
        return phi_divides(f, k, factors)

    monkeypatch.setattr(cyclotomic, "_fold", counting_fold)
    monkeypatch.setattr(cyclotomic, "_phi_divides", counting_phi_divides)
    return reduce_binomials(list(a), 1, exps), folds, tests


def test_a_zero_fold_settles_every_divisor_untested(monkeypatch):
    # (1 - s^12) divides a, so a mod s^12 - 1 is 0: Phi_12 passes with no
    # test, and Phi_6, Phi_4, Phi_3, Phi_2 and Phi_1 with no fold and no
    # test of their own (six folds from the top and six tests before)
    a = poly_mul([3, 1], binomial(12))
    got, folds, tests = counted_reduction(monkeypatch, a, {12: 1})
    assert got == ([3, 1], [1])
    assert folds == [12] and tests == []


def times_binomials(p, *ds):
    """p (1 - s^d) for each d of ds."""
    return functools.reduce(poly_mul, map(binomial, ds), p)


# (a, exps, the reduced numerator and denominator, the k of each
# _phi_divides call), with every expected pair derived by hand
ZERO_FOLD_CASES = {
    # zero folds at 18 and at 12 overlap in 6, 3, 2 and 1; the round after
    # finds a zero fold at 6, where a is (3 + s)(1 - s^6)
    "overlapping": (times_binomials([3, 1], 12, 18), {12: 1, 18: 1, 5: 1},
                    [3, 1], binomial(5), [5, 1]),
    # a zero fold at 6, which divides the top 12 and is no top itself
    "below-a-top": (times_binomials([3, 1], 6), {12: 1},
                    [3, 1], [1, 0, 0, 0, 0, 0, 1], [12, 4]),
    # (1 - s^10)^3 in a against a need of 2: two rounds of zero folds, and
    # the third copy stays in the numerator
    "more-than-needed": (times_binomials([3, 1], 10, 10, 10), {10: 2},
                         times_binomials([3, 1], 10), [1], []),
}


@pytest.mark.parametrize("case", ZERO_FOLD_CASES)
def test_zero_folds_reduce_exactly(monkeypatch, case):
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    a, exps, num, den, expected_tests = ZERO_FOLD_CASES[case]
    b = times_binomials([1], *Counter(exps).elements())
    got, _, tests = counted_reduction(monkeypatch, a, exps)
    assert got == (num, den) and tests == expected_tests
    assert poly_mul(num, b) == poly_mul(a, den)
    g = sympy.gcd(_sympy_poly(sympy, s, num), _sympy_poly(sympy, s, den))
    assert g.degree() == 0


def test_closed_form_never_seeks_its_denominator_factors(monkeypatch):
    # the closed form knows its binomials: the greedy peel of a dense
    # denominator (_cyclotomic_exponents) must not run, and the value is
    # the one canonicalised from that dense denominator
    rng = random.Random(20)
    cases, reduced = [], []
    for sfan in [*named_fans().values(), *random_fans(20, 2)]:
        lam = random_admissible_lambda(rng, sfan)
        n, total, binom = deltainv._weighted_delta_parts(sfan, lam)
        dense = functools.reduce(deltainv._times_binomial, binom, {0: 1})
        expected = FracRational(total, dense, grid=n)
        if max(expected.b) < sum(binom):
            reduced.append((total, dense, n))
        cases.append((sfan, lam, expected))
    assert len(reduced) >= 5

    def forbidden(*args):
        raise AssertionError("_cyclotomic_exponents called")

    monkeypatch.setattr(cyclotomic, "_cyclotomic_exponents", forbidden)
    for sfan, lam, expected in cases:
        assert weighted_delta_closed(sfan, lam) == expected
    total, dense, n = reduced[0]
    with pytest.raises(AssertionError, match="_cyclotomic_exponents"):
        FracRational(total, dense, grid=n)


# oracle kernels


def random_mixed_dimension(rng, max_weight=3):
    """A fan with a lower-dimensional maximal cone: a full cone of rank 2 or
    3 and a ray or 2-cone pointing away from it."""
    if rng.random() < 0.5:
        rays = [(1, 0), (0, 1), (-1, -rng.randint(1, 2))]
        cones = [(0, 1), (2,)]
        rank = 2
    else:
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0),
                (0, -1, -rng.randint(1, 2))]
        cones = [(0, 1, 2), (3, 4)]
        rank = 3
    sfan = mk_sfan(rank, rays, tuple(rng.randint(1, max_weight) for _ in rays),
                   cones, "general")
    assert validate_fan(sfan.fan).ok
    return sfan


def oracle_fans(seed, per_maker):
    rng = random.Random(seed)
    return [make(rng) for make in MAKERS + (random_mixed_dimension,)
            for _ in range(per_maker)]


def count_reference(sfan, m):
    """Lattice points with psi <= m: a bounding-box scan of conv(0, m b_i)
    per maximal cone, one rational solve per point."""
    points = {(0,) * sfan.rank}
    for sigma in sfan.fan.maximal_cones:
        bvecs = [sfan.b(i) for i in sigma.ray_indices]
        ranges = [range(sum(min(0, m * b[j]) for b in bvecs),
                        sum(max(0, m * b[j]) for b in bvecs) + 1)
                  for j in range(sfan.rank)]
        for point in itertools.product(*ranges):
            q = solve_rational_system(bvecs, point)
            if q is not None and all(x >= 0 for x in q) and sum(q) <= m:
                points.add(point)
    return len(points)


@pytest.mark.parametrize("seed", [13, 14])
def test_ehrhart_counts_match_per_level_scan(seed):
    for sfan in oracle_fans(seed, 2):
        top = 3 if sfan.rank == 2 else 1
        counts = ehrhart_counts(sfan, top)
        assert counts == tuple(count_reference(sfan, m)
                               for m in range(top + 1))
        assert count_lattice_points(sfan, top) == counts[-1]


def test_ehrhart_counts_reject_negative_level():
    with pytest.raises(ValueError):
        ehrhart_counts(random_mixed_dimension(random.Random(1)), -1)


def random_skew_lower_dimension(rng, max_weight=3):
    """A full cone and a lower-dimensional one whose b-vectors are not
    unimodular on the coordinates they are read from: a ray -(a, c) with
    a >= 2 in rank 2, a 2-cone with (0, -a, -c) in rank 3."""
    a = rng.randint(2, 3)
    c = rng.choice([x for x in range(1, 5) if math.gcd(a, x) == 1])
    if rng.random() < 0.5:
        rays = [(1, 0), (0, 1), (-a, -c)]
        cones = [(0, 1), (2,)]
    else:
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -a, -c)]
        cones = [(0, 1, 2), (3, 4)]
    return mk_sfan(len(rays[0]), rays, tuple(rng.randint(1, max_weight)
                                             for _ in rays), cones, "general")


def level_sum_reference(sfan, values, cutoff, mu):
    """The defining level sum of weighted_delta_series (mu false) or
    delta_mu_series (mu true), term by term: 1 plus, for every lattice point
    with psi <= M = floor((cutoff + 1) / (1 - L)) + 1, the terms t^{psi -
    ceil(psi) + lambda + m} (or t^{mu + m}) for max(1, ceil(psi)) <= m <= M,
    times (1 - t)^{d+1}; L = max(0, max_i -lambda(b_i)), and 0 for mu."""
    slack = 1 if mu else 1 + min([0, *values])
    top = math.floor((Fraction(cutoff) + 1) / slack) + 1
    raw = {Fraction(0): 1}
    grid = support_grid(sfan, values)
    for _, ps, lv, _ in enumerate_support_points(sfan, top, values):
        psi_v, f_v = Fraction(ps, grid), Fraction(lv, grid)
        base = f_v if mu else psi_v - math.ceil(psi_v) + f_v
        for m in range(max(1, math.ceil(psi_v)), top + 1):
            raw[base + m] = raw.get(base + m, 0) + 1
    one_minus_t = FracPoly({0: 1, 1: -1})
    return series_of((FracPoly(raw) * one_minus_t ** (sfan.rank + 1)).terms,
                     cutoff)


@pytest.mark.parametrize("seed", [19, 20])
def test_oracles_match_level_sum_over_support_points(seed):
    rng = random.Random(seed)
    fans = [random_rank1(rng), *oracle_fans(seed, 1),
            random_skew_lower_dimension(rng)]
    for sfan in fans:
        top = 2 if sfan.rank == 3 else 4
        assert ehrhart_counts(sfan, top) == tuple(
            len(enumerate_support_points(sfan, m)) for m in range(top + 1))
        for cutoff in (1, Fraction(5, 2), sfan.rank + 1):
            lam = random_admissible_lambda(
                rng, sfan, min_num=0 if sfan.rank == 3 else None)
            mu = tuple(Fraction(rng.randint(0, 8), 4) for _ in sfan.fan.rays)
            assert weighted_delta_series(sfan, lam, cutoff).terms == \
                level_sum_reference(sfan, lam.values_on_b, cutoff, False).terms
            assert delta_mu_series(
                sfan, PiecewiseQLinear(sfan, mu), cutoff).terms == \
                level_sum_reference(sfan, mu, cutoff, True).terms


def closure_reference(sfan, v, w):
    """w - v is a non-negative integer combination of the b_i of a maximal
    cone containing both points, by rational solves."""
    diff = tuple(a - b for a, b in zip(w, v))
    for sigma in sfan.fan.maximal_cones:
        rays = sfan.fan.ray_vectors(sigma)
        if not all((q := solve_rational_system(rays, p)) is not None
                   and all(x >= 0 for x in q) for p in (v, w)):
            continue
        q = solve_rational_system([sfan.b(i) for i in sigma.ray_indices], diff)
        if q is not None and all(x >= 0 and x.denominator == 1 for x in q):
            return True
    return False


def closure_cases(seed):
    """(fan, bound) pairs: the oracle fans, and a complete rank-2 and a
    complete rank-3 fan stellar-subdivided twice, at bound 1; a skew
    lower-dimensional fan at bound 2."""
    rng = random.Random(seed)
    cases = [(sfan, 1) for sfan in oracle_fans(seed, 1)]
    cases.append((random_skew_lower_dimension(rng), 2))
    for make in (random_complete_rank2, random_complete_rank3):
        sfan = make(rng)
        for _ in range(2):
            w = cone_sums(sfan)[-1]
            sfan = stellar_subdivide(sfan, w, core.content(w))
        cases.append((sfan, 1))
    return cases


@pytest.mark.parametrize("seed", [15, 16, 17, 18, 19])
def test_closure_leq_matches_cone_definition(seed):
    # psi is linear on a cone holding both points, so w - v = sum n_i b_i
    # with integers n_i >= 0 needs psi(w) - psi(v) to be a non-negative
    # integer; the reference decides every pair where it is
    held = 0
    for sfan, bound in closure_cases(seed):
        labels = [(orbit_label(sfan, p), Fraction(ps, sfan.grid))
                  for p, ps, _, _ in enumerate_support_points(sfan, bound)]
        for v, psi_v in labels:
            for w, psi_w in labels:
                gap = psi_w - psi_v
                expected = (gap >= 0 and gap.denominator == 1
                            and closure_reference(sfan, v.w, w.w))
                assert closure_leq(sfan, v, w) == expected, (v.w, w.w)
                held += expected
    assert 0 < held


def gamma_direct_reference(sfan, e, bound):
    """gamma_truncated_direct with a FracPoly product per point and per
    route."""
    bound = Fraction(bound)
    d = sfan.rank
    lam = divisor_to_pl(e)
    slack = 1 - max(Fraction(0), max(e.coefficients))
    total = FracPoly.zero()
    qm1 = FracPoly({0: -1, 1: 1}) ** d
    grid = support_grid(sfan, lam.values_on_b)
    for point, ps, lv, _ in enumerate_support_points(
            sfan, math.floor(bound / slack) + 1, lam.values_on_b):
        psi_w, lam_w = Fraction(ps, grid), Fraction(lv, grid)
        if psi_w + lam_w > bound:
            continue
        direct = qm1 * FracPoly.t_power(-psi_w - lam_w)
        label = orbit_label(sfan, point)
        assert direct == orbit_measure(sfan, label) * FracPoly.t_power(
            shift_function(sfan, label) + contact_order(e, label))
        total = total + direct
    return series_of({-qe: c for qe, c in total.terms.items()}, bound - d)


@pytest.mark.parametrize("seed", [17, 18])
def test_gamma_truncated_direct_matches_per_point_products(seed):
    rng = random.Random(seed)
    for sfan in oracle_fans(seed, 1):
        for bound in (Fraction(3, 2), 2):
            e = random_klt_divisor(rng, sfan)
            got = gamma_truncated_direct(sfan, e, bound)
            expected = gamma_direct_reference(sfan, e, bound)
            assert got.cutoff == expected.cutoff
            assert got.terms == expected.terms


def divisor_over(rng, sfan, den):
    """A klt divisor whose every beta_i has denominator den, at most 1/2."""
    return StackDivisor(sfan, tuple(
        Fraction(rng.choice([n for n in range(-2 * den, den // 2 + 1)
                             if n % den]), den) for _ in sfan.fan.rays))


@pytest.mark.parametrize("seed", [21, 22])
def test_gamma_truncated_direct_on_a_grid_with_the_divisor_denominator(seed):
    # beta_i over 5 and 7 put psi + lambda off the grid of the solver
    # denominators alone, unless the fan's box orders share the prime
    rng = random.Random(seed)
    coprime = 0
    for sfan in oracle_fans(seed, 1):
        solver_grid = math.lcm(*(sfan.solvers[sigma].denominator
                                 for sigma in sfan.fan.maximal_cones))
        for den in (5, 7):
            coprime += math.gcd(den, solver_grid) == 1
            e = divisor_over(rng, sfan, den)
            for bound in (Fraction(5, 3), Fraction(7, 4)):
                got = gamma_truncated_direct(sfan, e, bound)
                expected = gamma_direct_reference(sfan, e, bound)
                assert got.cutoff == expected.cutoff
                assert got.terms == expected.terms
    assert coprime

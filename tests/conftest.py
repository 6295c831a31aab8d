"""Shared fixtures: the five named test fans and randomized generators."""

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from stackyfan import arcspace, stacky
from stackyfan.core import Fan, validate_fan
from stackyfan.deltainv import ehrhart_counts
from stackyfan.errors import InvariantViolation
from stackyfan.qseries import FracPoly, FracRational, TruncatedSeries
from stackyfan.stacky import PiecewiseQLinear, StackyFan, psi
from stackyfan.arcspace import StackDivisor

DATA = Path(__file__).parent / "data"


def support_grid(sfan, values=None):
    """The G of enumerate_support_points(sfan, bound, values): sfan.grid
    times the common denominator of the values on the b_i."""
    return sfan.grid * math.lcm(*(Fraction(x).denominator
                                  for x in values or ()))


def moved_iota(sfan, e):
    """The box involution with its numerators kept and its point moved by
    b_0: a broken involution that only a located psi can tell apart."""
    image = stacky.iota(sfan, e)
    return image._replace(point=tuple(map(sum, zip(image.point, sfan.b(0)))))


def mk_sfan(rank, rays, weights, cones, support):
    fan = Fan.from_maximal(rank, rays, cones, support)
    return StackyFan(fan, weights)


def fan_a1():
    """Half-line: rank 1, single ray +1, weight 1, convex support."""
    return mk_sfan(1, [(1,)], (1,), [(0,)], "convex")


def fan_p1():
    """Projective line: rank 1, rays +1 and -1, weights 1."""
    return mk_sfan(1, [(1,), (-1,)], (1, 1), [(0,), (1,)], "complete")


def fan_p2():
    """Projective plane: rays (1,0), (0,1), (-1,-1), weights 1."""
    return mk_sfan(2, [(1, 0), (0, 1), (-1, -1)], (1, 1, 1),
                   [(0, 1), (1, 2), (0, 2)], "complete")


def fan_p12():
    """Weighted projective line P(1,2): rays +1, -1, weights (1, 2)."""
    return mk_sfan(1, [(1,), (-1,)], (1, 2), [(0,), (1,)], "complete")


def fan_p112():
    """P(1,1,2)-type surface: rays (1,0), (0,1), (-1,-2), weights 1."""
    return mk_sfan(2, [(1, 0), (0, 1), (-1, -2)], (1, 1, 1),
                   [(0, 1), (1, 2), (0, 2)], "complete")


def named_fans():
    return {"a1": fan_a1(), "p1": fan_p1(), "p2": fan_p2(),
            "p12": fan_p12(), "p112": fan_p112()}


def fan_p12323():
    """P(1,2,3,2,3): rank 4, rays -(2,3,2,3) and e_1..e_4, weights 1, all
    4-subsets as cones."""
    rays = [(-2, -3, -2, -3), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
            (0, 0, 0, 1)]
    return mk_sfan(4, rays, (1,) * 5,
                   list(itertools.combinations(range(5), 4)), "complete")


def weighted_projective(weights):
    """The weighted projective stack P(w) for w = (w_0, ..., w_n) with gcd
    1: N = Z^{n+1} / Z w, b_i the image of e_i, every n-subset of the rays
    a maximal cone.  Integer row operations, tracked in a unimodular U,
    reduce w to +-e_p; the other rows of U map Z^{n+1} onto N, so b_i is
    column i of U without row p, with weight a_i its content and ray
    b_i / a_i."""
    n = len(weights) - 1
    x = list(weights)
    u = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    while sum(1 for v in x if v) > 1:
        p = min((j for j in range(n + 1) if x[j]), key=lambda j: x[j])
        for j in range(n + 1):
            if j != p and x[j]:
                q = x[j] // x[p]
                x[j] -= q * x[p]
                u[j] = [a - q * b for a, b in zip(u[j], u[p])]
    rows = [row for row, v in zip(u, x) if not v]
    b = [tuple(row[i] for row in rows) for i in range(n + 1)]
    a = [math.gcd(*bi) for bi in b]
    return mk_sfan(n, [tuple(c // ai for c in bi) for bi, ai in zip(b, a)],
                   a, list(itertools.combinations(range(n + 1), n)),
                   "complete")


def weighted_projective_stacks(seed):
    """Seeded P(w) of ranks 1 to 6, three per rank, with weights 1 to 9 of
    gcd 1."""
    rng = random.Random(seed)
    fans = []
    for rank in range(1, 7):
        while len(fans) < 3 * rank:
            weights = [rng.randint(1, 9) for _ in range(rank + 1)]
            if math.gcd(*weights) == 1:
                fans.append(weighted_projective(weights))
    return fans


def sector_betti(weights):
    """The orbifold Betti numbers of P(w) as a sum over sectors (Chen-Ruan):
    over f in F = {k / w_i : 0 <= k < w_i}, q^{age(f)} (1 + q + ... +
    q^{|I_f| - 1}), with I_f = {i : f w_i in Z} and age(f) the sum of the
    fractional parts {f w_i}.  As {exponent: count}; it reads no box
    element and no lattice point."""
    out = {}
    for f in {Fraction(k, w) for w in weights for k in range(w)}:
        fixed = sum(1 for w in weights if (f * w).denominator == 1)
        age = sum(f * w - math.floor(f * w) for w in weights)
        for j in range(fixed):
            out[age + j] = out.get(age + j, 0) + 1
    return out


def product(f, g):
    """The stacky fan F x G on N_F + N_G: the rays of F, then those of G,
    each padded with zeros, the cones sigma x tau of a maximal cone of each,
    and the weights of F, then G.  Its support |F| x |G| is complete when
    both are, convex when each is complete or convex, and general else."""
    n = len(f.fan.rays)
    rays = [v + (0,) * g.rank for v in f.fan.rays]
    rays += [(0,) * f.rank + v for v in g.fan.rays]
    cones = [s.ray_indices + tuple(n + i for i in t.ray_indices)
             for s in f.fan.maximal_cones for t in g.fan.maximal_cones]
    kinds = {f.fan.support_kind, g.fan.support_kind}
    support = ("complete" if kinds == {"complete"}
               else "convex" if kinds <= {"complete", "convex"}
               else "general")
    return mk_sfan(f.rank + g.rank, rays, f.weights + g.weights, cones,
                   support)


def closure_order(sfan, labels):
    """The strict closure order on the labels, compared pair by pair with
    arcspace.closure_leq: the set of pairs of label points (v, w) with v
    strictly below w.  Raises InvariantViolation unless it is
    antisymmetric, psi rises strictly along it, and it is transitive.  The
    reference for arcspace.orbit_poset, which reads only the covers."""
    strict = {(v.w, w.w) for v in labels for w in labels
              if v.w != w.w and arcspace.closure_leq(sfan, v, w)}
    for (a, b) in strict:
        if (b, a) in strict:
            raise InvariantViolation(
                f"closure order not antisymmetric at {list(a)}, {list(b)}")
        if psi(sfan, a) >= psi(sfan, b):
            raise InvariantViolation(
                f"psi not strictly increasing along closure from {list(a)} "
                f"to {list(b)}")
    succ = {lab.w: set() for lab in labels}
    for (a, b) in strict:
        succ[a].add(b)
    for (a, b) in strict:
        if not succ[b] <= succ[a]:
            d = next(iter(succ[b] - succ[a]))
            raise InvariantViolation(
                f"closure order not transitive at {list(a)}, {list(b)}, "
                f"{list(d)}")
    return strict


def transitive_reduction(strict):
    """The covers of a transitive strict order given as its pairs: b covers
    a when b is above a and above nothing else that is above a."""
    succ = {}
    for (a, b) in strict:
        succ.setdefault(a, set()).add(b)
    return {(a, b) for a, above in succ.items()
            for b in above.difference(*(succ.get(c, ()) for c in above))}


def series_of(terms, cutoff):
    """The TruncatedSeries of {exponent: coefficient} truncated at the
    cutoff, on the lcm of the exponents' denominators."""
    terms = {Fraction(e): c for e, c in terms.items()}
    n = math.lcm(*(e.denominator for e in terms))
    return TruncatedSeries(n, {e.numerator * (n // e.denominator): c
                               for e, c in terms.items()}, cutoff)


def ehrhart_delta_reference(sfan):
    """The Ehrhart delta-polynomial from the oracle's lattice-point counts:
    delta_j = sum_k (-1)^k C(d+1, k) f(j-k), j = 0..d."""
    d = sfan.rank
    counts = ehrhart_counts(sfan, d)
    return FracRational(FracPoly({
        j: sum((-1) ** k * math.comb(d + 1, k) * counts[j - k]
               for k in range(j + 1))
        for j in range(d + 1)}))


def h_vector_reference(fan):
    """The h-vector from the face counts alone: h(t) = sum_k f_k t^k
    (1 - t)^(d - k), f_k the number of k-dimensional cones, so h_j =
    sum_k (-1)^(j - k) C(d - k, j - k) f_k."""
    d = fan.rank
    f = Counter(tau.dim for tau in fan.sorted_cones)
    return FracPoly({j: sum((-1) ** (j - k) * math.comb(d - k, j - k) * f[k]
                            for k in range(j + 1))
                     for j in range(d + 1)})


# ---------------------------------------------------------------------------
# Randomized generators (seeded by the caller for reproducibility)

# the most fans a maker draws before it raises, so that a defect which makes
# validation reject every fan fails the suite instead of hanging it; the
# suite's seeds need at most 14 draws, and over 2000 seeds each maker drew
# a valid fan within 20
MAX_DRAWS = 50
# the most rays random_stellar_chain grows a fan to
MAX_CHAIN_RAYS = 200


def _angle_half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_cmp(a, b):
    if _angle_half(a) != _angle_half(b):
        return _angle_half(a) - _angle_half(b)
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


_PRIMITIVE_2D = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
                 if (x, y) != (0, 0) and math.gcd(abs(x), abs(y)) == 1]


def random_complete_rank2(rng, max_weight=3):
    """A random complete rank-2 stacky fan with 3-5 rays."""
    for _ in range(MAX_DRAWS):
        rays = rng.sample(_PRIMITIVE_2D, rng.randint(3, 5))
        rays.sort(key=functools.cmp_to_key(_angle_cmp))
        n = len(rays)
        if not all(rays[i][0] * rays[(i + 1) % n][1]
                   - rays[i][1] * rays[(i + 1) % n][0] > 0 for i in range(n)):
            continue
        fan = Fan.from_maximal(2, rays, [(i, (i + 1) % n) for i in range(n)],
                               "complete")
        if validate_fan(fan).ok:
            return StackyFan(fan, tuple(rng.randint(1, max_weight)
                                        for _ in rays))
    raise RuntimeError(
        f"random_complete_rank2: no valid fan in {MAX_DRAWS} draws")


def random_convex_rank2(rng, max_weight=3):
    """A random single-cone rank-2 stacky fan (convex support)."""
    for _ in range(MAX_DRAWS):
        a, b = rng.sample(_PRIMITIVE_2D, 2)
        if a[0] * b[1] - a[1] * b[0] <= 0:
            continue
        fan = Fan.from_maximal(2, [a, b], [(0, 1)], "convex")
        if validate_fan(fan).ok:
            return StackyFan(fan, (rng.randint(1, max_weight),
                                   rng.randint(1, max_weight)))
    raise RuntimeError(
        f"random_convex_rank2: no valid fan in {MAX_DRAWS} draws")


def random_complete_rank3(rng, max_weight=3):
    """A random complete rank-3 stacky fan over a simplex with apex
    (-a,-b,-c)."""
    for _ in range(MAX_DRAWS):
        apex = (-rng.randint(1, 2), -rng.randint(1, 2), -rng.randint(1, 2))
        if math.gcd(math.gcd(abs(apex[0]), abs(apex[1])), abs(apex[2])) != 1:
            continue
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), apex]
        fan = Fan.from_maximal(3, rays,
                               [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
                               "complete")
        if validate_fan(fan).ok:
            return StackyFan(fan, tuple(rng.randint(1, max_weight)
                                        for _ in rays))
    raise RuntimeError(
        f"random_complete_rank3: no valid fan in {MAX_DRAWS} draws")


def random_convex_rank3(rng, max_weight=3):
    """A random single-cone rank-3 stacky fan."""
    for _ in range(MAX_DRAWS):
        rays = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if any(math.gcd(math.gcd(abs(r[0]), abs(r[1])), abs(r[2])) != 1
               for r in rays):
            continue
        if len(set(rays)) != 3:
            continue
        fan = Fan.from_maximal(3, rays, [(0, 1, 2)], "convex")
        if validate_fan(fan).ok:
            return StackyFan(fan, tuple(rng.randint(1, max_weight)
                                        for _ in rays))
    raise RuntimeError(
        f"random_convex_rank3: no valid fan in {MAX_DRAWS} draws")


def random_rank1(rng, max_weight=3):
    """The half-line or the line, with random weights."""
    if rng.random() < 0.5:
        return mk_sfan(1, [(1,)], (rng.randint(1, max_weight),), [(0,)],
                       "convex")
    return mk_sfan(1, [(1,), (-1,)], (rng.randint(1, max_weight),
                                      rng.randint(1, max_weight)),
                   [(0,), (1,)], "complete")


def random_stellar_chain(rng, rank, rays):
    """A unit-weight complete fan of the given rank with the given number of
    rays, grown from P^rank by stellar subdivisions at b_i + b_j, for two
    rays i, j of a random maximal cone: every cone on both is split in two.
    Each subdivision of a smooth fan is smooth, so every draw is valid; the
    fan is validated once, and a defect that fails it raises instead of
    drawing again.  The rays are capped at MAX_CHAIN_RAYS."""
    if not rank < rays <= MAX_CHAIN_RAYS:
        raise ValueError(f"a chain of rank {rank} has {rank + 1} to "
                         f"{MAX_CHAIN_RAYS} rays")
    vectors = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    vectors.append((-1,) * rank)
    cones = list(itertools.combinations(range(rank + 1), rank))
    while len(vectors) < rays:
        i, j = rng.sample(rng.choice(cones), 2)
        new = len(vectors)
        vectors.append(tuple(map(sum, zip(vectors[i], vectors[j]))))
        cones = [c for c in cones if i not in c or j not in c] + [
            tuple(new if k == old else k for k in c)
            for c in cones if i in c and j in c for old in (i, j)]
    fan = Fan.from_maximal(rank, vectors, cones, "complete")
    if not validate_fan(fan).ok:
        raise RuntimeError(f"random_stellar_chain: rank {rank}, {rays} rays "
                           "fails validation")
    return StackyFan(fan, (1,) * rays)


def random_admissible_lambda(rng, sfan, min_num=None):
    """Random functional with values in (-1, 2], denominators <= 4.

    min_num bounds the numerator from below on the quarter grid; the
    default -3 allows values as low as -3/4."""
    lo = -3 if min_num is None else min_num
    values = tuple(Fraction(rng.randint(lo, 8), 4)
                   for _ in sfan.fan.rays)
    return PiecewiseQLinear(sfan, values)


def random_klt_divisor(rng, sfan):
    """Random klt divisor with coefficients on the quarter grid, <= 1/2."""
    return StackDivisor(sfan, tuple(Fraction(rng.randint(-4, 2), 4)
                                    for _ in sfan.fan.rays))

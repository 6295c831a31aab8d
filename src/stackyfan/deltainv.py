"""The invariant engine: Ehrhart counts and the delta-polynomial, the
weighted delta-vector by definition (truncated series) and by closed
formula, bucketing, h-vectors and Hodge polynomials, the palindromy check,
the motivic integral Gamma and orbifold Betti numbers.

The three oracles, ehrhart_counts, weighted_delta_series and
delta_mu_series, read the lattice points of |Sigma| from one enumerator of
their own, _oracle_points.  It uses nothing of the box-group enumerator in
`stacky` or of the per-cone solvers in `core`: the closed formula is built
on those, and the oracles check it.  The Ehrhart delta-polynomial,
ehrhart_delta, is read from the closed formula, not from an oracle."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from . import arcspace
from .core import Cone, Fan
from .errors import (InvariantViolation, LambdaNotKLT, NegativeMu,
                     NotComplete, NotKLT, admit)
from .qseries import (FracPoly, FracRational, TruncatedSeries,
                      over_binomials, substitute_reciprocal, times_one_minus_t)
from .stacky import (PiecewiseQLinear, StackyFan, box_elements, box_reads,
                     walk_star, zero_functional)


# the most lattice points one _oracle_points scan may walk: its levels and
# the lattice points of the box it walks in each cone
EHRHART_SCAN_BUDGET = 10 ** 7


def _check_admissible(lam: PiecewiseQLinear):
    if any(v <= -1 for v in lam.values_on_b):
        raise LambdaNotKLT("lambda(b_i) <= -1 for some ray")


def count_lattice_points(sfan: StackyFan, m: int) -> int:
    """|{v in N cap |Sigma| : psi(v) <= m}|: the last count of
    ehrhart_counts(sfan, m)."""
    return ehrhart_counts(sfan, m)[-1]


def ehrhart_counts(sfan: StackyFan, max_m: int) -> tuple:
    """The lattice-point counts f(m) = |{v in N cap |Sigma| : psi(v) <= m}|
    for m = 0..max_m: each oracle point with psi(v) <= max_m is recorded
    at its level ceil(psi(v)) = ceil(sum n_i / D), and f(m) counts the
    levels <= m.  The scan admits itself, so over EHRHART_SCAN_BUDGET a
    BudgetExceeded is raised before the max_m + 1 counts are built."""
    if max_m < 0:
        raise ValueError("max_m must be non-negative")
    per_level = Counter(-(-sum(n) // den)
                        for _, den, points in _oracle_points(sfan, max_m)
                        for n in points.values())
    return tuple(itertools.accumulate(per_level[m] for m in range(max_m + 1)))


def _oracle_points(sfan: StackyFan, bound):
    """The lattice points v of |Sigma| with psi(v) <= bound, each once, as
    (ray indices, D, {v: n}) per maximal cone: v = sum n_i b_i / D over the
    cone's rays with integers n_i >= 0 and D > 0, so psi(v) = sum n_i / D.

    Each cone with k rays is set up once, before the first point: _invert
    gives the first k coordinates of v on which the b_i have a non-zero
    minor, and the inverse of that minor, whose denominators cleared give
    n = A . v[rows] and D.  The first k - 1 of them run over the bounding
    box of the simplex conv(0, bound * b_i), the last over the integer
    interval that the k + 1 facets n_i >= 0, sum n_i <= bound * D leave;
    the other coordinates, sum n_i b_i / D, must be integers.  Full- and
    lower-dimensional cones take this one path.  The scan admits its
    ceil(bound) + 1 levels and the lattice points of each cone's box over
    its k coordinates against EHRHART_SCAN_BUDGET, so a BudgetExceeded is
    raised before the first point; a negative bound yields nothing.
    """
    bound = Fraction(bound)
    if bound < 0:
        return
    d = sfan.rank
    cones = []   # (ray indices, D, A, derived rows, place, box)
    for sigma in sfan.fan.maximal_cones:
        bvecs = [sfan.b(i) for i in sigma.ray_indices]
        if not bvecs:
            continue
        rows, inv = _invert(bvecs)
        den = math.lcm(*(x.denominator for row in inv for x in row))
        others = [j for j in range(d) if j not in rows]
        box = [range(math.ceil(bound * min(0, *(b[r] for b in bvecs))),
                     math.floor(bound * max(0, *(b[r] for b in bvecs))) + 1)
               for r in rows]
        cones.append((sigma.ray_indices, den,
                      [[int(x * den) for x in row] for row in inv],
                      [[b[j] for b in bvecs] for j in others],
                      [(rows + others).index(j) for j in range(d)], box))
    # each side counted as stop - start: len() overflows past sys.maxsize
    admit(math.ceil(bound) + 1 + sum(math.prod(r.stop - r.start for r in box)
                                     for *_, box in cones),
          EHRHART_SCAN_BUDGET, f"the oracle scan up to {bound} may walk",
          "lattice points,")
    seen = {(0,) * d}
    yield (), 1, {(0,) * d: ()}
    for idx, den, matrix, derived, place, box in cones:
        # facet i reads c_i + s_i x >= 0 in the last coordinate x: n_i for
        # i < k, and bound * D - sum n_i
        slopes = [row[-1] for row in matrix]
        slopes.append(-sum(slopes))
        top = math.floor(bound * den)
        found = {}
        for outer in itertools.product(*box[:-1]):
            base = [sum(map(operator.mul, row, outer)) for row in matrix]
            facets = list(zip(base + [top - sum(base)], slopes))
            if any(c < 0 for c, s in facets if s == 0):
                continue
            lo = max(-(c // s) for c, s in facets if s > 0)
            hi = min(c // -s for c, s in facets if s < 0)
            for x in range(lo, hi + 1):
                n = tuple(c + s * x for c, s in zip(base, slopes))
                point = outer + (x,)
                if derived:
                    extra = [sum(map(operator.mul, n, col)) for col in derived]
                    if any(e % den for e in extra):
                        continue
                    point += tuple(e // den for e in extra)
                    point = tuple(point[k] for k in place)
                if point not in seen:
                    seen.add(point)
                    found[point] = n
        yield idx, den, found


def _invert(vectors):
    """(rows, inverse) for linearly independent b_1..b_k in Q^d: rows the
    lexicographically first k coordinates on which the minor M, M[i][j] =
    b_j[rows[i]], is non-zero, and inverse M^-1 over Q.  One Gauss-Jordan
    elimination of [B^T | I_k], B^T with the b_j as rows, takes its pivots
    left to right, so the pivot columns are those rows; it ends at E with
    E M^T = I_k in the right block, and M^-1 is the transpose of E."""
    k, d = len(vectors), len(vectors[0])
    aug = [[Fraction(x) for x in b] + [Fraction(i == j) for j in range(k)]
           for i, b in enumerate(vectors)]
    rows = []
    for col in range(d):
        r = len(rows)
        piv = next((i for i in range(r, k) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][col]
        aug[r] = [a / p for a in aug[r]]
        for i in range(k):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        rows.append(col)
        if len(rows) == k:
            return rows, [list(c) for c in zip(*(row[d:] for row in aug))]
    raise InvariantViolation("the rays of a cone are linearly dependent")


def ehrhart_delta(sfan: StackyFan) -> FracRational:
    """The Ehrhart delta-polynomial: the weighted delta-vector at lambda = 0
    with each term c t^e moved to t^ceil(e).  A point v = u + sum s_i b_i
    has ceil(psi(v)) = ceil(age(u)) + sum s_i, so this places it at the
    level where the counts f(m) of ehrhart_counts record it."""
    d = sfan.rank
    closed = weighted_delta_closed(sfan, zero_functional(sfan))
    n, shift, a = closed.n, closed.shift, closed.a
    if not closed.is_polynomial() or shift + max(a, default=0) > d * n:
        raise InvariantViolation(
            f"the delta-vector at lambda = 0 is not a polynomial of degree "
            f"at most {d}")
    bucketed = bucket_series(
        TruncatedSeries(n, {e + shift: c for e, c in a.items()}, d))
    return FracRational(bucketed.coeffs, {0: 1}, grid=1)


# ---------------------------------------------------------------------------
# Weighted delta-vector: definitional series (oracle) and closed formula


def weighted_delta_series(sfan: StackyFan, lam: PiecewiseQLinear,
                          cutoff) -> TruncatedSeries:
    """Literal evaluation of the defining series of the weighted
    delta-vector, truncated at the cutoff: (1 - t)^d sum_v t^{psi(v) +
    lam(v)} over the lattice points v of |Sigma|."""
    _check_admissible(lam)
    cutoff = Fraction(cutoff)
    # psi + lam >= psi (1 - L) with L = max(0, max_i -lam(b_i)) < 1, so a
    # point adds a term only if psi <= cutoff / (1 - L)
    bound = cutoff / (1 + min([0, *lam.values_on_b]))
    return _level_sum(sfan, bound, cutoff, [1 + x for x in lam.values_on_b],
                      ceil_psi=False)


def _level_sum(sfan: StackyFan, bound, cutoff: Fraction, values,
               ceil_psi: bool) -> TruncatedSeries:
    """(1 - t)^d sum_v t^{e(v)} over the oracle points with psi(v) <= bound,
    truncated at the cutoff, for e = f, or e = f + ceil(psi) if ceil_psi, and
    f the piecewise linear function with the given values on the b_i.

    This is the level sum (1 - t)^{d+1} sum_v sum_{m >= ceil(psi(v))}
    t^{e(v) - ceil(psi(v)) + m} with the sum over m taken as a geometric
    series.  Each exponent is read from the integer numerators n: with the
    values on their common denominator S, e(v) D S is sum n_i S f(b_i), plus
    ceil(psi(v)) D S if ceil_psi.  The points are counted per cone on its
    grid D S, and the counts are lifted once onto the lcm of those grids.
    The scan admits itself against EHRHART_SCAN_BUDGET before any point.
    """
    scale = math.lcm(*(x.denominator for x in values))
    ints = [int(x * scale) for x in values]
    per_cone = []   # (grid D S, {exponent on that grid: points})
    for idx, den, points in _oracle_points(sfan, bound):
        weights = [ints[i] for i in idx]
        top = math.floor(cutoff * den * scale)
        counts = {}
        for n in points.values():
            e = sum(map(operator.mul, n, weights))
            if ceil_psi:
                e += -(-sum(n) // den) * den * scale
            if e <= top:
                counts[e] = counts.get(e, 0) + 1
        per_cone.append((den * scale, counts))
    grid = math.lcm(*(g for g, _ in per_cone))
    raw = Counter()
    for g, counts in per_cone:
        raw.update({e * (grid // g): c for e, c in counts.items()})
    return times_one_minus_t(grid, raw, sfan.rank, cutoff)


def h_tau_lambda(sfan: StackyFan, tau: Cone, lam: PiecewiseQLinear) -> FracRational:
    """The weighted h-vector of the star of tau; the plain h-vector of
    Sigma_tau when lambda is identically zero."""
    _check_admissible(lam)
    d = sfan.rank
    total = FracRational(FracPoly.zero())
    for sigma in sfan.fan.sorted_cones:
        if not tau.is_face_of(sigma):
            continue
        extra = [i for i in sigma.ray_indices if i not in tau.ray_indices]
        lam_sum = sum((lam.values_on_b[i] for i in extra), Fraction(0))
        term = FracRational(
            FracPoly.t_power(lam_sum + sigma.dim - tau.dim)
            * (FracPoly({0: 1, 1: -1}) ** (d - sigma.dim)))
        for i in extra:
            term = term * FracRational(FracPoly({0: 1, 1: -1}),
                                       FracPoly({0: 1, lam.values_on_b[i] + 1: -1}))
        total = total + term
    return total


def weighted_delta_closed(sfan: StackyFan, lam: PiecewiseQLinear) -> FracRational:
    """The weighted delta-vector as an exact rational function in canonical
    form: sum over cones of h_tau^lambda times the box contributions, over
    the cones' least common denominator (_weighted_delta_parts), reduced
    over its known binomials.  Agrees with the naive sum of h_tau_lambda *
    box factors (tested)."""
    n, total, binom = _weighted_delta_parts(sfan, lam)
    return over_binomials(n, total, Counter(binom))


def _weighted_delta_parts(sfan: StackyFan, lam: PiecewiseQLinear,
                          cones=None):
    """(n, numerator, binom) with delta = numerator(s) / prod_{c in binom}
    (1 - s^c), s = t^{1/n}, not reduced: n is the lcm of the denominators
    of the lambda(b_i) and of the box exponents, binom the least multiset
    holding each cone's c_i = n (lambda(b_i) + 1), less the 1 - s^n that
    (1 - t)^d = (1 - s^n)^d cancels (so empty at lambda = 0), and numerator
    a sparse {int exponent: int} dict without zeros.

    Given a list of cones, closed upwards in the fan, the parts are those
    of (1 - t)^d times the sum of those cones' terms alone; by default
    every cone of the fan is summed.  Their faces tau are read in one
    stacky.box_reads plan, and each tau with a box is paired with the given
    cones of its star, walked in the whole fan (stacky.walk_star).

    With lambda(b_i) = l_i / L over a common denominator, the box element
    q_i = nums_i / order has exponent age + lambda = sum_i nums_i (L + l_i)
    / (L order), so every exponent is an integer quotient."""
    _check_admissible(lam)
    lams = lam.values_on_b
    scale = math.lcm(*(x.denominator for x in lams))
    plus = [scale + x.numerator * (scale // x.denominator) for x in lams]
    cones = sfan.fan.sorted_cones if cones is None else cones
    boxes = {}   # tau -> [(a, D)], exponents a / D
    for tau in box_reads(sfan, cones):
        weights = [plus[i] for i in tau.ray_indices]
        boxes[tau] = [(sum(map(operator.mul, e.nums, weights)),
                       scale * e.order) for e in box_elements(sfan, tau)]
    n = math.lcm(scale, *(den // math.gcd(a, den)
                          for pairs in boxes.values() for a, den in pairs))
    binom = [c * (n // scale) for c in plus]   # ray i gives 1 - s^binom[i]
    groups = {}   # a cone's sorted binomials -> the sum of its cones' parts
    parts = {s.ray_indices: groups.setdefault(tuple(sorted(
        binom[i] for i in s.ray_indices)), {}) for s in cones}
    for tau, pairs in boxes.items():
        exps = [a * n // den for a, den in pairs]
        # each given sigma on tau: exps shifted by binom of its rays off tau
        for layer in walk_star(sfan.fan, tau, sfan.rank) if exps else ():
            for sigma, rays in layer:
                part = parts.get(sigma.ray_indices)
                if part is not None:
                    shift = sum(binom[i] for i in rays)
                    for e in exps:
                        part[e + shift] = part.get(e + shift, 0) + 1
    common = functools.reduce(operator.or_, map(Counter, groups), Counter())
    total = {}
    for key, part in groups.items():
        for c in (common - Counter(key)).elements():
            part = _times_binomial(part, c)
        for e, v in part.items():
            total[e] = total.get(e, 0) + v
    cancelled = min(sfan.rank, common[n])
    common[n] -= cancelled
    for _ in range(sfan.rank - cancelled):
        total = _times_binomial(total, n)
    return n, {e: v for e, v in total.items() if v}, sorted(common.elements())


def _times_binomial(p: dict, c: int) -> dict:
    """p * (1 - s^c) for a sparse {exponent: int} polynomial, without
    zeros."""
    out = dict(p)
    for e, v in p.items():
        out[e + c] = out.get(e + c, 0) - v
    return {e: v for e, v in out.items() if v}


def weighted_delta_equal(sfan1: StackyFan, lam1: PiecewiseQLinear,
                         sfan2: StackyFan, lam2: PiecewiseQLinear) -> bool:
    """Whether two weighted delta-vectors are equal, decided exactly on
    their assembled parts (_parts_equal) without reducing either.

    The cones the two sides share cancel before anything is assembled.
    A cone's term, its box elements and their ages shifted by lambda over
    (1 - s^c) per ray, reads only the b-vectors of its rays and lambda at
    them, and both sides carry the same (1 - t)^d.  So the cones with one
    key (d, {(b_i, lambda(b_i))}), as many on each side, add the same sum
    to both, and only the other cones are summed.  The rank is in the key:
    the zero cones of a rank-1 and a rank-2 fan differ by 1 - t."""
    sides = ((sfan1, lam1), (sfan2, lam2))
    keys = [{tau: (sfan.rank, frozenset((sfan.b_vectors[i], lam.values_on_b[i])
                                        for i in tau.ray_indices))
             for tau in sfan.fan.sorted_cones} for sfan, lam in sides]
    counts = [Counter(k.values()) for k in keys]
    shared = {key for key, m in counts[0].items() if counts[1][key] == m}
    return _parts_equal(*(
        _weighted_delta_parts(sfan, lam, [tau for tau, key in k.items()
                                          if key not in shared])
        for (sfan, lam), k in zip(sides, keys)))


def _parts_equal(parts1, parts2) -> bool:
    """Whether p1 / B1 = p2 / B2 for two (n, numerator, binom) triples: on
    the lcm grid this holds exactly when p1 (B2 / S) = p2 (B1 / S), with S
    the product of the binomials that B1 and B2 share as a multiset."""
    n = math.lcm(parts1[0], parts2[0])
    nums = [{e * (n // m): v for e, v in num.items()}
            for m, num, _ in (parts1, parts2)]
    binoms = [Counter(c * (n // m) for c in binom)
              for m, _, binom in (parts1, parts2)]
    shared = binoms[0] & binoms[1]
    for i, other in ((0, binoms[1]), (1, binoms[0])):
        for c in (other - shared).elements():
            nums[i] = _times_binomial(nums[i], c)
    return nums[0] == nums[1]


def check_symmetry(sfan: StackyFan, lam: PiecewiseQLinear) -> bool:
    """Palindromy delta(t) = t^d delta(1/t), for complete fans, decided on
    the assembled parts: m binomials with exponent sum C give D(1/s) =
    (-1)^m s^{-C} D(s), so it holds exactly when numerator(s) = (-1)^m
    s^{d n + C} numerator(1/s)."""
    if sfan.fan.support_kind != "complete":
        raise NotComplete("fan support is not complete")
    n, num, binom = _weighted_delta_parts(sfan, lam)
    top, sign = sfan.rank * n + sum(binom), (-1) ** len(binom)
    return num == {top - e: sign * v for e, v in num.items()}


def delta_mu_series(sfan: StackyFan, mu: PiecewiseQLinear, cutoff) -> TruncatedSeries:
    """The bucketed generating series (1 - t)^d sum_v t^{mu(v) +
    ceil(psi(v))} over the lattice points v of |Sigma|, truncated at the
    cutoff."""
    for i, v in enumerate(mu.values_on_b):
        if v < 0:
            raise NegativeMu(f"mu(b_{i}) < 0")
    cutoff = Fraction(cutoff)
    # mu >= 0: a point adds a term only if psi <= cutoff
    return _level_sum(sfan, cutoff, cutoff, mu.values_on_b, ceil_psi=True)


def bucket_series(a: TruncatedSeries) -> TruncatedSeries:
    """Collect the coefficient at integer i from exponents i-1 < j <= i:
    the term c t^{k/n} goes to t^ceil(k/n)."""
    out = {}
    for k, c in a.coeffs.items():
        i = -(-k // a.n)
        out[i] = out.get(i, 0) + c
    return TruncatedSeries(1, out, math.floor(a.cutoff))


# ---------------------------------------------------------------------------
# h-vectors, Hodge polynomials, Gamma


def h_vector(fan: Fan) -> FracPoly:
    """h(t) = sum over cones of t^dim (1-t)^codim."""
    total = FracPoly.zero()
    for tau in fan.sorted_cones:
        total = total + (FracPoly.t_power(tau.dim)
                         * (FracPoly({0: 1, 1: -1}) ** (fan.rank - tau.dim)))
    return total


def hodge_polynomial_toric(fan: Fan) -> FracPoly:
    """E(q) = q^r h(1/q), as a polynomial in q."""
    h = h_vector(fan)
    return FracPoly({Fraction(fan.rank) - e: c for e, c in h.terms.items()})


def gamma(sfan: StackyFan, e: "arcspace.StackDivisor") -> FracRational:
    """The motivic integral Gamma(X, E) = q^d delta^lambda(1/q) with
    lambda the functional of the pushed-forward divisor."""
    if not e.is_klt:
        raise NotKLT("divisor is not Kawamata log terminal")
    lam = arcspace.divisor_to_pl(e)
    g = substitute_reciprocal(weighted_delta_closed(sfan, lam))
    return g * FracRational({sfan.rank: 1}, {0: 1}, grid=1)


def orbifold_betti(sfan: StackyFan) -> dict:
    """Coefficients of Gamma(X, 0); dimensions of the orbifold cohomology
    groups with compact support, by exponent in ascending order (read from
    the sorted integer exponents of the canonical form, so no Fraction is
    sorted).  Answered on complete fans, and on others while no coefficient
    is negative: a stack that is not proper may have one (the torus has
    Gamma = 1 - 2q + q^2), which raises NotComplete."""
    g = gamma(sfan, arcspace.zero_divisor(sfan))
    if not g.is_polynomial():
        raise InvariantViolation("Gamma(X, 0) is not a polynomial")
    out = {Fraction(e + g.shift, g.n): g.a[e] for e in sorted(g.a)}
    for exp, c in out.items():
        if c < 0:
            if sfan.fan.support_kind != "complete":
                raise NotComplete(f"Gamma(X, 0) has coefficient {c} at {exp}"
                                  " on a fan that is not complete")
            raise InvariantViolation(
                f"orbifold Betti number {c} at {exp} is not a positive integer")
    return out

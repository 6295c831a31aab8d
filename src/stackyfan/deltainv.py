"""The invariant engine: Ehrhart counts and the delta-polynomial, the
weighted delta-vector by definition (truncated series) and by closed
formula, bucketing, h-vectors and Hodge polynomials, the palindromy check,
the motivic integral Gamma and orbifold Betti numbers."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import arcspace, core, stacky
from .core import Cone, Fan, ZERO_CONE, as_vec
from .errors import (InvariantViolation, LambdaNotKLT, NegativeMu, NotComplete,
                     NotKLT)
from .qseries import (FracPoly, FracRational, TruncatedSeries, expand_series,
                      substitute_reciprocal)
from .stacky import PiecewiseQLinear, StackyFan, age, box_elements, psi


@dataclass(frozen=True)
class DeltaVector:
    """A delta-vector as a canonical rational function in t; a polynomial
    in the unweighted case."""

    value: FracRational


def _check_admissible(lam: PiecewiseQLinear):
    if any(v <= -1 for v in lam.values_on_b):
        raise LambdaNotKLT("lambda(b_i) <= -1 for some ray")


def count_lattice_points(sfan: StackyFan, m: int) -> int:
    """|{v in N cap |Sigma| : psi(v) <= m}|: the last count of
    ehrhart_counts(sfan, m)."""
    return ehrhart_counts(sfan, m)[-1]


def ehrhart_counts(sfan: StackyFan, max_m: int) -> tuple:
    """The lattice-point counts f(m) = |{v in N cap |Sigma| : psi(v) <= m}|
    for m = 0..max_m.

    Brute force in one scan per maximal cone: the integer points p of the
    bounding box of the simplex conv(0, max_m * b_i) get the cone
    coordinates n / D = A . p / D, with A and D the inverse of the b-matrix
    with its denominators cleared once; p is kept when every n_i >= 0, at
    the level ceil(sum n_i / D) = ceil(psi(p)), when that is <= max_m.
    Points are de-duplicated across cones, and f(m) counts the levels
    <= m.  Deliberately independent of the box-group enumerator in
    `stacky` and of the per-cone solvers in `core`, so the two routes can
    cross-check each other.
    """
    if max_m < 0:
        raise ValueError("max_m must be non-negative")
    levels = {(0,) * sfan.rank: 0}
    for sigma in sfan.fan.maximal_cones:
        bvecs = [sfan.b(i) for i in sigma.ray_indices]
        if not bvecs:
            continue
        lows, highs = stacky._bounding_box(bvecs, 0, max_m)
        box = itertools.product(*[range(lo, hi + 1)
                                  for lo, hi in zip(lows, highs)])
        inverse = _integer_inverse(bvecs)
        if inverse is None:
            # lower-dimensional cone: exact elimination per point
            for point in box:
                q = core.solve_rational_system(bvecs, as_vec(point))
                if q is not None and all(qi >= 0 for qi in q):
                    level = math.ceil(sum(q))
                    if level <= max_m:
                        levels[point] = level
            continue
        rows, den = inverse
        for point in box:
            n = [sum(map(operator.mul, row, point)) for row in rows]
            if min(n) >= 0:
                level = -(-sum(n) // den)
                if level <= max_m:
                    levels[point] = level
    per_level = [0] * (max_m + 1)
    for level in levels.values():
        per_level[level] += 1
    return tuple(itertools.accumulate(per_level))


def _integer_inverse(bvecs):
    """(A, D) with integer A and D > 0 such that A . p / D are the
    coordinates of p over the b-vectors, or None unless they form a
    square full-rank system."""
    d = len(bvecs[0])
    if len(bvecs) != d or core.determinant_abs(bvecs) == 0:
        return None
    inv = _invert([[Fraction(bvecs[j][i]) for j in range(d)]
                   for i in range(d)])
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return [[int(x * den) for x in row] for row in inv], den


def _invert(matrix):
    d = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(matrix)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [a / p for a in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def ehrhart_delta(sfan: StackyFan) -> DeltaVector:
    """delta_j = sum_k (-1)^k C(d+1, k) f(j-k), j = 0..d."""
    d = sfan.rank
    counts = ehrhart_counts(sfan, d)
    terms = {}
    for j in range(d + 1):
        coeff = sum((-1) ** k * math.comb(d + 1, k) * counts[j - k]
                    for k in range(j + 1))
        if coeff:
            terms[Fraction(j)] = Fraction(coeff)
    return DeltaVector(FracRational(FracPoly(terms)))


# ---------------------------------------------------------------------------
# Weighted delta-vector: definitional series (oracle) and closed formula


def series_level_bound(cutoff, lam_values) -> int:
    """Least safe m-cutoff M for the definitional series.

    Every term contributed by a lattice point v at level m has exponent
    psi(v) - ceil(psi(v)) + lam(v) + m >= m(1 - L) - 1, where
    L = max(0, max_i(-lam(b_i))) < 1: indeed lam(v) >= -L psi(v) >= -L m on
    each cone.  So all levels m > (cutoff + 1)/(1 - L) only produce
    exponents above the cutoff; multiplying by (1 - t)^{d+1} cannot lower
    them.  M = floor((cutoff + 1)/(1 - L)) + 1.
    """
    return math.floor((Fraction(cutoff) + 1) / _slack(lam_values)) + 1


def _slack(lam_values) -> Fraction:
    """1 - L for L = max(0, max_i(-lam(b_i)))."""
    return Fraction(1) + min(Fraction(0), min(lam_values, default=Fraction(0)))


def weighted_delta_series(sfan: StackyFan, lam: PiecewiseQLinear,
                          cutoff) -> TruncatedSeries:
    """Literal evaluation of the defining series of the weighted
    delta-vector, truncated at the cutoff."""
    _check_admissible(lam)
    cutoff = Fraction(cutoff)
    d = sfan.rank
    level_bound = series_level_bound(cutoff, lam.values_on_b)
    raw = {Fraction(0): Fraction(1)}
    # a point adds a term only if psi + lam <= cutoff, and psi + lam >=
    # psi (1 - L) (see series_level_bound)
    for point, psi_v, lam_v in stacky.enumerate_support_points(
            sfan, cutoff / _slack(lam.values_on_b), lam.values_on_b):
        base = psi_v - math.ceil(psi_v) + lam_v
        m = max(1, math.ceil(psi_v))
        while m <= level_bound:
            exp = base + m
            if exp > cutoff:
                break
            raw[exp] = raw.get(exp, Fraction(0)) + 1
            m += 1
    product = FracPoly(raw) * (FracPoly({0: 1, 1: -1}) ** (d + 1))
    return product.truncate(cutoff)


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
    """The weighted delta-vector as an exact rational function: sum over
    cones of h_tau^lambda times the box-element contributions.

    Assembled with integer exponents on the grid s = t^{1/N}, N the lcm of
    the denominators of the lambda(b_i) and of the box exponents, over the
    single common denominator prod_i (1 - t^{lam(b_i)+1}): each h-summand
    and box factor written over it carries exactly (1 - t)^d.  Agrees with
    the naive sum of h_tau_lambda * box factors (tested).
    """
    _check_admissible(lam)
    lams = lam.values_on_b
    cones = sfan.fan.sorted_cones
    boxes = {}
    for tau in cones:
        boxes[tau] = [age(sfan, e) + sum((qi * lams[i] for qi, i in
                                          zip(e.q, tau.ray_indices)), Fraction(0))
                      for e in box_elements(sfan, tau)]
    n = math.lcm(*(x.denominator for x in
                   itertools.chain(lams, *boxes.values())))
    binom = [int((x + 1) * n) for x in lams]   # factor i is 1 - s^binom[i]
    total = {}
    for sigma in cones:
        # faces tau of sigma: box exponents shifted by sum over the rays of
        # sigma - tau of lam(b_i) + 1, times the factors of rays not in sigma
        part = {}
        for tau in cones:
            if not boxes[tau] or not tau.is_face_of(sigma):
                continue
            shift = sum(binom[i] for i in sigma.ray_indices
                        if i not in tau.ray_indices)
            for x in boxes[tau]:
                e = int(x * n) + shift
                part[e] = part.get(e, 0) + 1
        for i, c in enumerate(binom):
            if i not in sigma.ray_indices:
                part = _times_binomial(part, c)
        for e, c in part.items():
            total[e] = total.get(e, 0) + c
    for _ in range(sfan.rank):
        total = _times_binomial(total, n)
    denominator = {0: 1}
    for c in binom:
        denominator = _times_binomial(denominator, c)
    return FracRational(total, denominator, grid=n)


def _times_binomial(p: dict, c: int) -> dict:
    """p * (1 - s^c) for a sparse {exponent: int} polynomial."""
    out = dict(p)
    for e, v in p.items():
        out[e + c] = out.get(e + c, 0) - v
    return out


def check_symmetry(sfan: StackyFan, lam: PiecewiseQLinear) -> bool:
    """Palindromy delta(t) = t^d delta(1/t), for complete fans."""
    if sfan.fan.support_kind != "complete":
        raise NotComplete("fan support is not complete")
    _check_admissible(lam)
    delta = weighted_delta_closed(sfan, lam)
    flipped = FracRational(FracPoly.t_power(sfan.rank)) * substitute_reciprocal(delta)
    return delta == flipped


def delta_mu_series(sfan: StackyFan, mu: PiecewiseQLinear, cutoff) -> TruncatedSeries:
    """The bucketed generating series with exponent mu(v) + m."""
    for i, v in enumerate(mu.values_on_b):
        if v < 0:
            raise NegativeMu(f"mu(b_{i}) < 0")
    for e in stacky.box_all(mu.sfan):
        if not e.is_zero:
            val = sum((qi * mu.values_on_b[i]
                       for qi, i in zip(e.q, e.cone.ray_indices)), Fraction(0))
            if val < 0:
                raise NegativeMu("mu negative at a box representative")
    cutoff = Fraction(cutoff)
    d = sfan.rank
    level_bound = math.floor(cutoff) + 1
    raw = {Fraction(0): Fraction(1)}
    # mu >= 0: a point adds a term only if psi <= cutoff
    for point, psi_v, mu_v in stacky.enumerate_support_points(
            sfan, cutoff, mu.values_on_b):
        m = max(1, math.ceil(psi_v))
        while m <= level_bound:
            exp = mu_v + m
            if exp > cutoff:
                break
            raw[exp] = raw.get(exp, Fraction(0)) + 1
            m += 1
    product = FracPoly(raw) * (FracPoly({0: 1, 1: -1}) ** (d + 1))
    return product.truncate(cutoff)


def bucket_series(a: TruncatedSeries) -> TruncatedSeries:
    """Collect the coefficient at integer i from exponents i-1 < j <= i."""
    out = {}
    for e, c in a.terms.items():
        i = Fraction(math.ceil(e))
        out[i] = out.get(i, Fraction(0)) + c
    return TruncatedSeries(out, Fraction(math.floor(a.cutoff)))


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
    delta = weighted_delta_closed(sfan, lam)
    return FracRational(FracPoly.t_power(sfan.rank)) * substitute_reciprocal(delta)


def orbifold_betti(sfan: StackyFan) -> dict:
    """Coefficients of Gamma(X, 0); dimensions of the orbifold cohomology
    groups with compact support."""
    g = gamma(sfan, arcspace.zero_divisor(sfan))
    if not g.is_polynomial():
        raise InvariantViolation("Gamma(X, 0) is not a polynomial")
    out = {}
    for exp, c in sorted(g.num.terms.items()):
        if c.denominator != 1 or c <= 0:
            raise InvariantViolation(
                f"orbifold Betti number {c} at {exp} is not a positive integer")
        out[exp] = int(c)
    return out

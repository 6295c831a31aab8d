"""Twisted-arc orbit bookkeeping: orbit labels, the closure partial order,
cylinder measures, contact orders, the shift function and the truncated
direct motivic integral used as an oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import stacky
from .errors import InvariantViolation, NotKLT
from .qseries import FracPoly, TruncatedSeries, times_one_minus_t
from .stacky import (FractionalDecomposition, PiecewiseQLinear, StackyFan,
                     fractional_decompose, iota)


def orbit_label(sfan: StackyFan, w) -> FractionalDecomposition:
    """The label of the twisted-arc orbit of the lattice point w: its
    fractional decomposition w = {w} + sum lambda_i b_i, w located afresh.
    The API, and the tests' reference for the enumerator's labels."""
    return fractional_decompose(sfan, w)


@dataclass(frozen=True)
class StackDivisor:
    """A T-invariant Q-divisor sum beta_i D_i on the stack."""

    sfan: StackyFan
    coefficients: tuple

    def __post_init__(self):
        beta = tuple(Fraction(b) for b in self.coefficients)
        object.__setattr__(self, "coefficients", beta)
        if len(beta) != len(self.sfan.fan.rays):
            raise ValueError("one coefficient per ray required")
        # beta_i = numerators[i] / scale over their least common denominator
        scale = math.lcm(*(b.denominator for b in beta))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "numerators", tuple(
            b.numerator * (scale // b.denominator) for b in beta))

    @property
    def is_klt(self) -> bool:
        return all(b < 1 for b in self.coefficients)


def zero_divisor(sfan: StackyFan) -> StackDivisor:
    return StackDivisor(sfan, (Fraction(0),) * len(sfan.fan.rays))


def canonical_divisor(sfan: StackyFan) -> StackDivisor:
    return StackDivisor(sfan, (Fraction(-1),) * len(sfan.fan.rays))


def pullback_divisor(sfan: StackyFan, alpha) -> StackDivisor:
    """Pull a coarse-space divisor sum alpha_i D_i back to the stack:
    beta_i = a_i * alpha_i."""
    return StackDivisor(sfan, tuple(sfan.weights[i] * Fraction(a)
                                    for i, a in enumerate(alpha)))


def divisor_to_pl(e: StackDivisor) -> PiecewiseQLinear:
    """The piecewise Q-linear functional of the pushed-forward divisor,
    normalised so lambda(b_i) = -beta_i."""
    return PiecewiseQLinear(e.sfan, tuple(-b for b in e.coefficients))


def contact_order(e: StackDivisor, w: FractionalDecomposition) -> Fraction:
    """Contact order of the orbit of w along the divisor: -lambda(w) with
    lambda(b_i) = -beta_i, read from the label's decomposition
    w = sum q_i b_i + sum s_i b_i as sum beta_i (q_i + s_i), on the integer
    numerators of the q_i and the beta_i."""
    box = w.box_part
    beta = e.numerators
    top = (sum(n * beta[i] for n, i in zip(box.nums, box.cone.ray_indices))
           + box.order * sum(s * beta[i] for i, s in w.shifts))
    return Fraction(top, box.order * e.scale)


def shift_function(sfan: StackyFan, w: FractionalDecomposition) -> Fraction:
    """dim sigma({w}) - psi({w}); equal to psi(iota({w})).  The two are
    compared on their numerators over the box element's order."""
    box = w.box_part
    value = box.cone.dim * box.order - sum(box.nums)
    alt = sum(iota(sfan, box).nums)
    if value != alt:
        raise InvariantViolation(
            f"shift-function formulas disagree at {list(w.w)}: "
            f"{value}/{box.order} != {alt}/{box.order}")
    return Fraction(value, box.order)


def measure_exponent(sfan: StackyFan, w: FractionalDecomposition) -> Fraction:
    """-psi(w) + psi({w}) - dim sigma({w}), the q-exponent that shifts
    (q-1)^d to the orbit's cylinder measure.  psi(w) comes from locating
    the label's point afresh, not from the enumerator that found it."""
    _, nums, den = sfan.solvers.locate(w.w)
    box = w.box_part
    return Fraction((sum(box.nums) - box.cone.dim * box.order) * den
                    - sum(nums) * box.order, den * box.order)


def orbit_measure(sfan: StackyFan, w: FractionalDecomposition) -> FracPoly:
    """Cylinder measure of the orbit: (q-1)^d q^{-psi(w)+psi({w})-dim},
    the terms C(d, j) (-1)^{d-j} q^j of (q-1)^d shifted by
    measure_exponent."""
    exponent, d = measure_exponent(sfan, w), sfan.rank
    return FracPoly({j + exponent: math.comb(d, j) * (-1) ** (d - j)
                     for j in range(d + 1)})


def closure_leq(sfan: StackyFan, v: FractionalDecomposition,
                w: FractionalDecomposition) -> bool:
    """orbit(w) lies in the closure of orbit(v): w - v is a non-negative
    integer combination of the b_i of some cone containing both.  Read from
    the labels alone: the box parts agree and no shift of w is below v's.

    Over a cone that holds a point, its coordinates are its box part
    q_i in [0, 1) plus its shift s_i; a label's shifts run over every ray
    of its minimal cone.  So if w - v = sum n_i b_i over a cone holding
    both, the box parts agree and each shift of w is that of v plus
    n_i >= 0.  Conversely, if the box parts agree and no shift of w is
    below v's, every ray of sigma(v) lies in sigma(w): a box ray because
    the box parts agree, any other because its shift in v is at least 1.
    Then w - v = sum (s_i(w) - s_i(v)) b_i over sigma(w)."""
    if w.box_part.point != v.box_part.point:
        return False
    shifts = dict(w.shifts)
    return all(shifts.get(i, 0) >= s for i, s in v.shifts)


@dataclass
class OrbitPoset:
    """Orbit labels with psi <= bound and the covers of their closure
    order, as ordered pairs of label points (v, w), w covering v."""

    labels: list
    covers: set


def orbit_poset(sfan: StackyFan, bound) -> OrbitPoset:
    """The orbit labels with psi <= bound and the covers of their closure
    order, read from each label's shifts.

    If v < w, then w - v = sum n_i b_i over sigma(w) with n_i >= 0, and for
    any n_i > 0 the point w - b_i is a label with v <= w - b_i < w, of psi
    psi(w) - 1 <= bound.  So w covers exactly the w - b_i with shift
    s_i(w) >= 1.  Each cover is checked: w - b_i must be a label, of psi
    psi(w) - 1 (the enumerator's psi(w) * sfan.grid less sfan.grid), below
    w by closure_leq; else InvariantViolation.  The enumerator refuses a
    walk over stacky.LABEL_WALK_BUDGET labels with a BudgetExceeded before
    any label is made."""
    pts = stacky.enumerate_support_points(sfan, bound)
    labels = {p: label for p, _, _, label in pts}
    psis = {p: ps for p, ps, _, _ in pts}
    covers = set()
    for w, label in labels.items():
        for i, s in label.shifts:
            if s < 1:
                continue
            v = tuple(x - y for x, y in zip(w, sfan.b_vectors[i]))
            if (v not in labels or psis[v] != psis[w] - sfan.grid
                    or not closure_leq(sfan, labels[v], label)):
                raise InvariantViolation(
                    f"{list(v)} = w - b_{i} is not a label one psi below "
                    f"w = {list(w)} in the closure order")
            covers.add((v, w))
    return OrbitPoset(list(labels.values()), covers)


def gamma_truncated_direct(sfan: StackyFan, e: StackDivisor, bound) -> TruncatedSeries:
    """Partial sum (q-1)^d sum_w q^{-psi(w)-lambda(w)} over labels with
    psi(w) + lambda(w) <= bound.

    Every term is computed twice: directly, as (q-1)^d q^{-psi(w)-lambda(w)}
    with psi and lambda from the enumerator, and as orbit_measure(w) *
    q^{shift(w) + contact_order(w)}; the two must agree.  Multiplying by a
    power of q is a bijection, so this is checked on the exponents,
    measure_exponent(w) + shift(w) + contact_order(w) == -psi(w) -
    lambda(w).  The enumerator gives psi and lambda as integers on one grid
    of step 1/G, G = sfan.grid times the common denominator of the beta_i,
    and the measure route's exact sum times G must equal -(psi + lambda) *
    G, so a value off the grid raises InvariantViolation.  The direct terms
    are summed as a count per level (psi + lambda) * G, and multiplied by
    (q-1)^d once at the end: in x = q^{-1}, (q-1)^d q^{-L} = x^{L-d} (1-x)^d,
    so on the grid x^{1/G} it is the oracles' (1 - x)^d shifted by -dG.
    Returned as a series in q^{-1} (negative q-exponents ascending) with
    cutoff bound - d, so that all omitted terms have q-exponent strictly
    below d - bound.  The enumerator refuses a walk over
    stacky.LABEL_WALK_BUDGET points with a BudgetExceeded before any is built.
    """
    bound = Fraction(bound)
    if not e.is_klt:
        raise NotKLT("divisor is not Kawamata log terminal")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    d = sfan.rank
    lam = divisor_to_pl(e)
    # psi + lam >= psi (1 - L) with L = max(0, max beta_i) < 1, so every
    # label kept has psi <= bound / (1 - L)
    slack = Fraction(1) - max(Fraction(0), max(e.coefficients, default=Fraction(0)))
    grid = sfan.grid * e.scale   # the enumerator's G for the -beta_i
    # an integer level exceeds bound * grid exactly when it exceeds its floor
    top = bound.numerator * grid // bound.denominator
    counts = {}   # (psi(w) + lambda(w) - d) * grid -> number of labels
    for point, psi_w, lam_w, label in stacky.enumerate_support_points(
            sfan, bound / slack, lam.values_on_b):
        level = psi_w + lam_w
        if level > top:
            continue
        if (measure_exponent(sfan, label) + shift_function(sfan, label)
                + contact_order(e, label)) * grid != -level:
            raise InvariantViolation(
                f"orbit-measure route disagrees at {list(point)}")
        counts[level - d * grid] = counts.get(level - d * grid, 0) + 1
    return times_one_minus_t(grid, counts, d, bound - d)

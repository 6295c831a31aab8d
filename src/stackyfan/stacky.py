"""Stacky-fan structure: ray weights b_i = a_i v_i, piecewise Q-linear
functionals, BOX enumeration, the box involution, ages, group orders and
fractional-part decompositions of lattice points."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import core
from .core import Cone, Fan, ZERO_CONE
from .errors import NotMaximalCone


@dataclass(frozen=True)
class StackyFan:
    """The triple (N, Sigma, {b_i}) with b_i = a_i * v_i."""

    fan: Fan
    weights: tuple  # positive integer a_i per ray

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(a) for a in self.weights))
        if len(self.weights) != len(self.fan.rays):
            raise ValueError("one weight per ray required")
        if any(a < 1 for a in self.weights):
            raise ValueError("weights must be positive")

    @property
    def rank(self) -> int:
        return self.fan.rank

    def b(self, i) -> tuple:
        return tuple(self.weights[i] * x for x in self.fan.rays[i])

    @cached_property
    def b_vectors(self) -> tuple:
        return tuple(self.b(i) for i in range(len(self.fan.rays)))

    @cached_property
    def solvers(self) -> core.ConeSolvers:
        """The ConeSolver over the b-vectors of each cone, by cone; its
        `locate` finds a point's minimal cone and b-coordinates."""
        return core.ConeSolvers(self.fan, self.b_vectors)

    @cached_property
    def box_table(self) -> dict:
        """BOX(tau) of every cone tau, sorted by point, from one scan per
        maximal cone: the fan is simplicial, so BOX(tau) is the part of the
        parallelepiped of any maximal sigma containing tau whose non-zero
        q_i lie on the rays of tau.  Each face is filed from the first
        maximal cone that reaches it."""
        table = {}
        for sigma in self.fan.maximal_cones:
            new = {}
            for point, q in _scan_parallelepiped(self, sigma):
                face = [(i, qi) for i, qi in zip(sigma.ray_indices, q) if qi]
                tau = Cone(tuple(i for i, _ in face))
                if tau not in table:
                    qs = tuple(qi for _, qi in face)
                    new.setdefault(tau, []).append(
                        BoxElement(point, tau, qs, _order_of(qs)))
            table.update(new)
        return {tau: table.get(tau, []) for tau in self.fan.sorted_cones}


@dataclass(frozen=True)
class PiecewiseQLinear:
    """A functional on |Sigma|, linear on every cone, determined by its
    values on the b_i."""

    sfan: StackyFan
    values_on_b: tuple  # exact rationals

    def __post_init__(self):
        object.__setattr__(self, "values_on_b",
                           tuple(Fraction(v) for v in self.values_on_b))
        if len(self.values_on_b) != len(self.sfan.fan.rays):
            raise ValueError("one value per ray required")


def zero_functional(sfan: StackyFan) -> PiecewiseQLinear:
    return PiecewiseQLinear(sfan, (Fraction(0),) * len(sfan.fan.rays))


@dataclass(frozen=True)
class BoxElement:
    """A lattice point v = sum q_i b_i with all q_i in (0,1), together with
    its minimal cone and the order of the corresponding group element."""

    point: tuple
    cone: Cone
    q: tuple      # fractions, one per ray of the cone, same order as indices
    order: int

    @property
    def is_zero(self) -> bool:
        return self.cone == ZERO_CONE


@dataclass(frozen=True)
class FractionalDecomposition:
    """w = {w} + sum lambda_i b_i over the rays of sigma(w)."""

    w: tuple
    box_part: BoxElement
    shifts: tuple  # pairs (ray_index, non-negative integer)


# ---------------------------------------------------------------------------
# Coordinates with respect to the b_i


def locate(sfan: StackyFan, v):
    """(minimal cone of v, coordinates of v w.r.t. its b_i)."""
    cone, nums, den = sfan.solvers.locate(v)
    return cone, tuple(Fraction(n, den) for n in nums)


def psi(sfan: StackyFan, v) -> Fraction:
    """The piecewise Q-linear function with psi(b_i) = 1."""
    _, nums, den = sfan.solvers.locate(v)
    return Fraction(sum(nums), den)


def eval_pl(f: PiecewiseQLinear, v) -> Fraction:
    cone, nums, den = f.sfan.solvers.locate(v)
    return sum((n * f.values_on_b[i] for n, i in zip(nums, cone.ray_indices)),
               Fraction(0)) / den


# ---------------------------------------------------------------------------
# BOX enumeration


def _scan_parallelepiped(sfan: StackyFan, tau: Cone) -> list:
    """Lattice points u = sum q_i b_i with 0 <= q_i < 1 over the rays of tau
    (coset representatives of the b-sublattice), as (u, q) sorted by u.

    With the b-solver x = A . v[rows] / D of tau, the coordinates of lattice
    points, times D and taken mod D, form the subgroup of (Z/D)^k generated
    by the columns of A.  It is enumerated coset by coset, so the work is
    proportional to its order, the |det| of the chosen minor of the b_i; an
    element n is kept when sum n_i b_i / D is integral, which only discards
    anything for lower-dimensional cones.
    """
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
            out.append((tuple(x // den for x in point),
                        tuple(Fraction(ni, den) for ni in n)))
    out.sort(key=lambda pq: pq[0])
    return out


def box_elements(sfan: StackyFan, tau: Cone) -> list:
    """All of BOX(tau) for a cone tau of the fan, sorted lexicographically
    by point coordinates, as a new list."""
    return list(sfan.box_table[tau])


def _order_of(q) -> int:
    return math.lcm(*(qi.denominator for qi in q))


def box_all(sfan: StackyFan) -> list:
    """BOX(Sigma): concatenation over all cones in canonical order; the zero
    element appears exactly once (from the zero cone)."""
    out = []
    for tau in sfan.fan.sorted_cones:
        out.extend(box_elements(sfan, tau))
    return out


def iota(sfan: StackyFan, e: BoxElement) -> BoxElement:
    """The box involution q_i -> 1 - q_i; fixes the zero element."""
    if e.is_zero:
        return e
    bvecs = [sfan.b_vectors[i] for i in e.cone.ray_indices]
    point = tuple(sum(b[j] for b in bvecs) - x for j, x in enumerate(e.point))
    return BoxElement(point, e.cone, tuple(1 - qi for qi in e.q), e.order)


def age(sfan: StackyFan, e: BoxElement) -> Fraction:
    """age = psi(v) = sum of the box coordinates."""
    return sum(e.q, Fraction(0))


def group_order(sfan: StackyFan, sigma: Cone) -> int:
    """|N(sigma)| for a maximal-dimensional cone, as |det{b_i}|."""
    if sigma.dim != sfan.rank:
        raise NotMaximalCone(f"cone {list(sigma.ray_indices)} is not "
                             "maximal-dimensional")
    return core.determinant_abs([sfan.b(i) for i in sigma.ray_indices])


def fractional_decompose(sfan: StackyFan, w) -> FractionalDecomposition:
    """The unique decomposition w = {w} + sum lambda_i b_i over sigma(w)."""
    w = tuple(int(x) for x in w)
    cone, nums, den = sfan.solvers.locate(w)
    shifts = tuple((i, n // den) for i, n in zip(cone.ray_indices, nums))
    point = list(w)
    for i, s in shifts:
        for j, x in enumerate(sfan.b_vectors[i]):
            point[j] -= s * x
    frac = [(i, n % den) for i, n in zip(cone.ray_indices, nums) if n % den]
    tau = Cone(tuple(i for i, _ in frac))
    qs = tuple(Fraction(r, den) for _, r in frac)
    box = BoxElement(tuple(point), tau, qs, _order_of(qs))
    return FractionalDecomposition(w, box, shifts)


# ---------------------------------------------------------------------------
# Enumeration of |Sigma| cap N by psi-sublevel, via the box decomposition
# w = u + sum lambda_i b_i within each maximal cone, yielding psi and lambda
# exactly at every point, for orbit enumeration and the truncated motivic
# integral (the refinement check decides coverage without it).  The oracles
# in deltainv enumerate the same points by their own route; the two
# cross-check each other in the tests.


def enumerate_support_points(sfan: StackyFan, bound, lam_values=None):
    """All lattice points w in |Sigma| with psi(w) <= bound.

    Yields (point, psi(w), lam(w)) where lam is the piecewise Q-linear
    functional with the given values on the b_i (None -> lam(w) = None).
    Deterministic order: ascending psi, ties broken lexicographically.
    """
    bound = Fraction(bound)
    if bound < 0:
        return []
    lam = None if lam_values is None else [Fraction(x) for x in lam_values]
    found = {}
    for sigma in sfan.fan.maximal_cones:
        idx = sigma.ray_indices
        bvecs = [sfan.b(i) for i in idx]
        lam_b = None if lam is None else [lam[i] for i in idx]
        # the box elements of the faces of sigma are its parallelepiped
        for e in itertools.chain.from_iterable(
                sfan.box_table[tau] for tau in sigma.faces()):
            psi_u = age(sfan, e)
            if psi_u > bound:
                continue
            lam_u = None
            if lam is not None:
                lam_u = sum((qi * lam[i] for qi, i in
                             zip(e.q, e.cone.ray_indices)), Fraction(0))
            budget = bound - psi_u
            for shifts in _bounded_tuples(len(bvecs), math.floor(budget)):
                point = list(e.point)
                for k, s in enumerate(shifts):
                    if s:
                        bk = bvecs[k]
                        for j in range(len(point)):
                            point[j] += s * bk[j]
                point = tuple(point)
                if point in found:
                    continue
                total = sum(shifts)
                lam_w = None
                if lam_b is not None:
                    lam_w = lam_u + sum(s * lv for s, lv in zip(shifts, lam_b))
                found[point] = (psi_u + total, lam_w)
    # psi times a common denominator orders the points as psi does, with
    # integer comparisons
    den = math.lcm(*{ps.denominator for ps, _ in found.values()})
    return sorted(((p, ps, lv) for p, (ps, lv) in found.items()),
                  key=lambda item: (item[1].numerator
                                    * (den // item[1].denominator), item[0]))


def _bounded_tuples(k: int, total_max: int):
    """Non-negative integer k-tuples with coordinate sum <= total_max."""
    if k == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in _bounded_tuples(k - 1, total_max - first):
            yield (first,) + rest

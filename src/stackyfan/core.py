"""Exact rational linear algebra and polyhedral primitives.

Lattices, simplicial cones, fans, point-in-cone tests and validation.
Point location runs on integer solvers (`ConeSolver`) on the maximal
cones; `ConeSolvers.locate` is the one routine that finds a point's minimal
cone.  All arithmetic uses arbitrary-precision integers and
``fractions.Fraction``; there is no floating point anywhere in the package.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import OutsideSupport, admit

Vec = tuple  # integer or Fraction coordinates

# the most pairs of maximal cones that validate_fan gives the pairwise
# overlap test before it raises BudgetExceeded, up to 100 maximal cones:
# 4,950 pairs of rank-2 cones take some 0.3 s, of rank-3 cones some 0.5 s;
# a pair costs one elimination of its rank + 1 equalities, so 100 disjoint
# 7-ray cones of rank 64 take some 10 s (2 vCPU, Python 3.11)
OVERLAP_PAIR_BUDGET = 5 * 10 ** 3


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def content(v: Sequence[int]) -> int:
    """gcd of the coordinates of an integer vector (0 for the zero vector)."""
    g = 0
    for a in v:
        g = math.gcd(g, abs(int(a)))
    return g


def primitive_part(v: Sequence[int]) -> Vec:
    """The primitive integer vector on the ray through v (v nonzero)."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(int(a) // g for a in v)


def solve_rational_system(columns: Sequence[Vec], rhs: Vec) -> Optional[tuple]:
    """Solve sum_j x_j * columns[j] = rhs exactly; None if inconsistent.

    Gaussian elimination over the rationals.  When the columns are linearly
    independent the solution is unique; otherwise an arbitrary consistent
    solution is returned (free variables set to zero).
    """
    k = len(columns)
    d = len(rhs)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(rhs[i])]
           for i in range(d)]
    piv_cols = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, d) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        p = aug[row][col]
        aug[row] = [a / p for a in aug[row]]
        for r in range(d):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        piv_cols.append(col)
        row += 1
        if row == d:
            break
    for r in range(row, d):
        if aug[r][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for r, col in enumerate(piv_cols):
        sol[col] = aug[r][k]
    return tuple(sol)


def determinant_abs(vectors: Sequence[Vec]) -> int:
    """|det| of d integer vectors of length d."""
    return abs(determinant(vectors))


def _eliminate(rows: Sequence[Vec], width: int) -> tuple:
    """(pivots, rows, delta, sign): fraction-free (Bareiss) Gauss-Jordan
    elimination of integer rows, taking pivots greedily, left to right,
    among the first `width` columns.

    pivots are the pivot columns, the lexicographically first independent
    ones.  In the eliminated rows, row t holds delta in column pivots[t]
    and 0 in the other pivot columns, and the rows below len(pivots) are
    zero on the first `width` columns.  delta is the minor of the
    row-permuted input on its first len(pivots) rows and the pivot columns
    (1 when there is no pivot), and sign = (-1)^(row swaps).  Every
    division is exact, so the rows stay integral."""
    m = [[int(a) for a in row] for row in rows]
    pivots = []
    sign = 1
    prev = 1
    for c in range(width):
        t = len(pivots)
        piv = next((r for r in range(t, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        if piv != t:
            m[t], m[piv] = m[piv], m[t]
            sign = -sign
        prev = _pivot(m, t, c, prev)
        pivots.append(c)
    return tuple(pivots), m, prev, sign


def _pivot(m: list, t: int, c: int, prev: int) -> int:
    """One fraction-free (Bareiss) pivot on p = m[t][c], in place: every
    other row r becomes (p * m[r] - m[r][c] * m[t]) / prev, and row t stays.
    When prev is the previous pivot (1 at the start), the rows are the
    adjugate of the pivoted columns times the input, so every division is
    exact.  Returns p, the next pivot's prev."""
    top = m[t]
    p = top[c]
    for r in range(len(m)):
        if r != t:
            f = m[r][c]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
    return p


def determinant(vectors: Sequence[Vec]) -> int:
    """det of d integer vectors of length d (as rows)."""
    d = len(vectors)
    if any(len(v) != d for v in vectors):
        raise ValueError("need d vectors of length d")
    pivots, _, delta, sign = _eliminate(vectors, d)
    return sign * delta if len(pivots) == d else 0


class ConeSolver:
    """Exact coordinates over k linearly independent integer columns M in
    Z^dim, built once per cone.

    One elimination of [M^T | I_k] takes its pivots, the first k rows on
    which M has a non-zero minor S, and turns the identity block into
    delta * S^{-T} and the other coordinate columns into
    delta * (M[others] . S^{-1})^T.  Divided by the gcd of delta and the
    block, which divides those columns too, they give the integer matrix
    A = D * S^{-1}, with D the least positive integer making it integral,
    and C = M[others] . A; `order` is |det S| = |delta|, the order of the
    subgroup of (Z/D)^k that the columns of A generate.  A point v of the
    span has coordinates x = A . v[rows] / D, and v lies in the span if and
    only if D * v[others] == C . v[rows] on the remaining coordinates.
    """

    __slots__ = ("rows", "matrix", "denominator", "order", "others", "check")

    def __init__(self, columns: Sequence[Vec], dim: int):
        k = len(columns)
        pivots, m, delta, _ = _eliminate(
            [list(c) + [int(i == j) for i in range(k)]
             for j, c in enumerate(columns)], dim)
        if len(pivots) < k:
            raise ValueError("cone rays are linearly dependent")
        g = math.gcd(delta, *(a for row in m for a in row[dim:]))
        if delta < 0:
            g = -g
        self.rows = pivots
        self.denominator = delta // g
        self.order = abs(delta)
        self.matrix = tuple(tuple(row[dim + j] // g for row in m)
                            for j in range(k))
        self.others = tuple(i for i in range(dim) if i not in pivots)
        self.check = tuple(tuple(row[i] // g for row in m)
                           for i in self.others)

    def solve(self, v) -> Optional[tuple]:
        """(n, m): integers n and m > 0 with v = sum_j (n_j / m) * column_j,
        or None when v is not in the span.  v may have Fraction
        coordinates."""
        scale = 1
        if not all(type(x) is int for x in v):
            scale = math.lcm(*(Fraction(x).denominator for x in v))
            v = [int(x * scale) for x in v]
        top = [v[i] for i in self.rows]
        for i, row in zip(self.others, self.check):
            if self.denominator * v[i] != sum(map(operator.mul, row, top)):
                return None
        return (tuple(sum(map(operator.mul, row, top)) for row in self.matrix),
                self.denominator * scale)


class ConeSolvers(dict):
    """The ConeSolver of each cone of a fan over the given vectors (its rays
    or its b-vectors), built on first use."""

    def __init__(self, fan: Fan, vectors):
        super().__init__()
        self.vectors = vectors
        self.rank = fan.rank
        self.maximal_cones = fan.maximal_cones

    def __missing__(self, cone):
        solver = self[cone] = ConeSolver(
            [self.vectors[i] for i in cone.ray_indices], self.rank)
        return solver

    def locate(self, v) -> tuple:
        """(cone, n, m): the minimal cone of v, the unique cone holding v in
        its relative interior, and positive integers n and m with
        v = sum_j (n_j / m) * vectors_j over the cone's rays, from one solve
        per maximal cone.  OutsideSupport when v lies in no cone."""
        for sigma in self.maximal_cones:
            sol = self[sigma].solve(v)
            if sol is None or any(n < 0 for n in sol[0]):
                continue
            nums, den = sol
            face = [(i, n) for i, n in zip(sigma.ray_indices, nums) if n]
            return (Cone._sorted(tuple(i for i, _ in face)),
                    tuple(n for _, n in face), den)
        raise OutsideSupport(f"point {tuple(v)} outside the fan support")


# ---------------------------------------------------------------------------
# Nonnegative solutions of integer equalities (exact), used for pairwise
# cone-intersection validation.

def _nonnegative_solution(eqs, nvars) -> bool:
    """Is there a rational x >= 0 with a.x == c for all (a, c) in eqs?

    `_eliminate` reduces the equalities; a row below its pivots with a
    nonzero right side makes them inconsistent.  The pivot rows, each
    signed so that its right side is >= 0, start phase I of the simplex
    method with one artificial variable per row as the basis, minimising
    the artificials' sum.  Bland's rule: the lowest-index x_j with a
    negative reduced cost enters, and the least ratio leaves, compared by
    cross-multiplication, ties going to the lowest-index basic variable
    (the artificials come after x, and one that leaves never returns); so
    no basis repeats and the loop ends.  Each step is one `_pivot` on a
    positive entry, so the tableau stays integral over the positive scale
    prev: its last column is prev times the basic solution.  The system is
    feasible exactly when the artificials' sum reaches 0."""
    pivots, rows, _, _ = _eliminate([list(a) + [c] for a, c in eqs], nvars)
    if any(row[nvars] for row in rows[len(pivots):]):
        return False
    m = [row if row[nvars] >= 0 else [-a for a in row]
         for row in rows[:len(pivots)]]
    basis = list(range(nvars, nvars + len(m)))
    # the cost row, times prev: each x_j's reduced cost, then minus the
    # artificials' sum
    m.append([-sum(row[j] for row in m) for j in range(nvars + 1)])
    prev = 1
    while m[-1][nvars]:
        c = next((j for j in range(nvars) if m[-1][j] < 0), None)
        if c is None:
            return False
        t = None
        for i, b in enumerate(basis):
            if m[i][c] > 0 and (t is None or (m[i][nvars] * m[t][c], b)
                                < (m[t][nvars] * m[i][c], basis[t])):
                t = i
        prev = _pivot(m, t, c, prev)
        basis[t] = c
    return True


# ---------------------------------------------------------------------------
# Cones and fans


@dataclass(frozen=True, order=True)
class Cone:
    """A simplicial cone, stored as sorted indices into the fan's ray list."""

    ray_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "ray_indices", tuple(sorted(self.ray_indices)))

    @classmethod
    def _sorted(cls, ray_indices: tuple) -> "Cone":
        """The cone on indices already in ascending order, built without
        the sort of __post_init__."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "ray_indices", ray_indices)
        return cone

    @property
    def dim(self) -> int:
        return len(self.ray_indices)

    def faces(self):
        for k in range(len(self.ray_indices) + 1):
            for sub in itertools.combinations(self.ray_indices, k):
                yield Cone._sorted(sub)

    def is_face_of(self, other: "Cone") -> bool:
        return set(self.ray_indices) <= set(other.ray_indices)


ZERO_CONE = Cone(())


@dataclass(frozen=True)
class Fan:
    """A simplicial rational fan given by primitive rays and its cones,
    closed under taking faces."""

    rank: int
    rays: tuple          # tuple of integer vectors
    cones: frozenset     # frozenset of Cone
    support_kind: str = "general"   # complete | convex | general

    @classmethod
    def from_maximal(cls, rank, rays, maximal_cones, support_kind="general"):
        rays = tuple(tuple(int(a) for a in r) for r in rays)
        faces = set()
        for c in maximal_cones:
            idx = tuple(sorted(c.ray_indices if isinstance(c, Cone) else c))
            for k in range(len(idx) + 1):
                faces.update(itertools.combinations(idx, k))
        return cls(rank, rays, frozenset(map(Cone._sorted, faces)),
                   support_kind)

    @cached_property
    def sorted_cones(self) -> tuple:
        """Canonical enumeration order: lexicographic by ray indices."""
        return tuple(sorted(self.cones, key=lambda c: c.ray_indices))

    @cached_property
    def facet_indices(self) -> dict:
        """The coface map: {facet: [(ray, facet + ray)]}, by ascending ray."""
        cofaces = {}
        for c in self.sorted_cones:
            for j, ray in enumerate(c.ray_indices):
                facet = c.ray_indices[:j] + c.ray_indices[j + 1:]
                cofaces.setdefault(facet, []).append((ray, c))
        return cofaces

    @cached_property
    def maximal_cones(self) -> tuple:
        """The cones that no one more ray extends to a cone of the fan: the
        cones are closed under faces, so these are the faces of no other
        cone."""
        return tuple(c for c in self.sorted_cones
                     if c.ray_indices not in self.facet_indices)

    def ray_vectors(self, cone: Cone):
        return tuple(self.rays[i] for i in cone.ray_indices)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str):
        self.violations.append(msg)


def _cones_overlap_improperly(fan: Fan, a: Cone, b: Cone) -> bool:
    """True iff cone(a) and cone(b) share a point outside their common face.

    Feasibility of: A p = B q, p >= 0, q >= 0, sum of p over non-shared
    rays of a equals 1, decided exactly by `_nonnegative_solution`.  With
    linearly independent rays the coordinates of a point are unique, so it
    lies outside the common face iff its coordinates over a (equally, over
    b) put weight on a non-shared ray: the test is symmetric in a and b.
    When a is a face of b that sum is empty and the system infeasible.
    """
    common = set(a.ray_indices) & set(b.ray_indices)
    extra = [i for i in a.ray_indices if i not in common]
    ka, kb = a.dim, b.dim
    n = ka + kb
    eqs = []
    for coord in range(fan.rank):
        row = [fan.rays[i][coord] for i in a.ray_indices]
        row += [-fan.rays[j][coord] for j in b.ray_indices]
        eqs.append((row, 0))
    norm = [int(k < ka and a.ray_indices[k] in extra) for k in range(n)]
    eqs.append((norm, 1))
    return _nonnegative_solution(eqs, n)


def _complete_fan_certified(fan: Fan, maximal) -> Optional[bool]:
    """A certificate, linear in the cones, that the maximal cones of a fan
    declared complete meet only in common faces, so that no pair overlaps
    improperly.  The cones must have passed the ray and face-closure
    checks; a maximal cone with a missing, wrong-length or dependent ray,
    checked by the same elimination, gives None.  It holds when
      (1) every maximal cone has dimension d;
      (2) every (d-1)-cone lies on exactly two maximal cones, whose other
          rays lie strictly on opposite sides of its hyperplane;
      (3) the sum p of the rays of the first maximal cone lies in no other
          maximal cone.

    Why that suffices.  Let B be the union of the cones of dimension at
    most d - 2.  For y outside B, let n(y) count the maximal cones holding
    the points near y that lie on no (d-1)-cone.  By (1) and (2), a cone
    holding y has y in its interior or in the relative interior of one of
    its facets, and on crossing that facet one cone of its pair gives way
    to the other; so n is locally constant on R^d less B, which is
    connected, as B is a finite union of cones of codimension >= 2.  By
    (3), n(p) = 1, so n = 1 everywhere.  Now let x lie in maximal cones
    sigma and tau, in the relative interior of their faces F and G.  In a
    ball U about x that meets no cone missing x, count for each face H
    only the maximal cones whose minimal face at x is H.  A facet that
    meets U holds x, hence H, and so do both of its cones: the count is
    constant too.  It is at least 1 for H = F and H = G, because sigma and
    tau fill open parts of U, and the counts sum to n = 1.  So F = G.
    Taking x in the relative interior of the convex set sigma cap tau, the
    set lies in F, a face of both cones, so it is F: a common face.

    One elimination per maximal cone, of the d x (k + 1) matrix with the
    cone's k rays S as columns and p last, has k pivots exactly when the
    rays are independent; for k = d it gives the cone's determinant,
    sign * delta, and delta * S^{-1} p in its last column.  Moving ray j
    last multiplies the determinant by (-1)^(d-1-j), which gives the side
    of the apex j of each facet, and p lies in the closed cone exactly when
    S^{-1} p >= 0, that is, when every entry of the last column times delta
    is >= 0.
    """
    d = fan.rank
    usable = {i for i, r in enumerate(fan.rays) if len(r) == d}
    inside = False
    sides = {}   # each (d-1)-cone's apex sides
    for n, c in enumerate(maximal):
        idx = c.ray_indices
        if not usable.issuperset(idx):
            return None
        columns = list(zip(*[fan.rays[i] for i in idx])) or [()] * d
        if not n:
            p = [sum(x) for x in columns]
        pivots, rows, delta, sign = _eliminate(
            [x + (y,) for x, y in zip(columns, p)], len(idx))
        if len(pivots) < len(idx):
            return None
        if len(idx) == d:
            inside = inside or n and all(row[d] * delta >= 0 for row in rows)
            for j in range(d):
                sides.setdefault(idx[:j] + idx[j + 1:], []).append(
                    (sign * delta > 0) ^ ((d - 1 - j) % 2 == 1))
    return (not inside and all(c.dim == d for c in maximal)
            and all(len(s) == 2 and s[0] != s[1] for s in sides.values()))


def validate_fan(fan: Fan) -> ValidationReport:
    """Check all structural invariants; violations are data, not errors.

    The maximal cones of a `complete` fan that passes the linear-time
    certificate of `_complete_fan_certified` skip the pairwise overlap
    test, which could find nothing there; every other fan runs it."""
    rep = ValidationReport()
    for i, r in enumerate(fan.rays):
        if len(r) != fan.rank:
            rep.add(f"ray {i} has wrong length")
        elif is_zero_vec(r):
            rep.add(f"ray {i} is zero")
        elif content(r) != 1:
            rep.add(f"ray {i} not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        rep.add("duplicate rays")
    maximal = fan.maximal_cones
    used = {i for c in maximal for i in c.ray_indices}
    for i in sorted(set(range(len(fan.rays))) - used):
        rep.add(f"ray {i} lies in no cone")
    # every cone is a face of a maximal one, and a face of a cone whose
    # rays exist, have the right length and are independent is such a cone
    # too: when the maximal cones pass, every cone does
    certified = _complete_fan_certified(fan, maximal)
    if certified is None:
        for c in fan.sorted_cones:
            if any(i < 0 or i >= len(fan.rays) for i in c.ray_indices):
                rep.add(f"cone {list(c.ray_indices)} references missing ray")
                continue
            vecs = fan.ray_vectors(c)
            if (all(len(v) == fan.rank for v in vecs)
                    and len(_eliminate(vecs, fan.rank)[0]) < len(vecs)):
                rep.add(f"cone {list(c.ray_indices)} rays not linearly "
                        "independent")
    indices = {c.ray_indices for c in fan.cones}
    if () not in indices:
        rep.add("zero cone missing")
    # cones closed under facets are closed under faces
    if not fan.facet_indices.keys() <= indices:
        for c in fan.cones:
            for f in c.faces():
                if f not in fan.cones:
                    rep.add(f"face {list(f.ray_indices)} of cone "
                            f"{list(c.ray_indices)} missing from fan")
    if not rep.ok:
        return rep
    pairs = ()
    if fan.support_kind != "complete" or not certified:
        pairs = itertools.combinations(maximal, 2)
        admit(len(maximal) * (len(maximal) - 1) // 2, OVERLAP_PAIR_BUDGET,
              "the overlap test may compare", "pairs of maximal cones,")
    for a, b in pairs:
        if _cones_overlap_improperly(fan, a, b):
            rep.add(f"cones {list(a.ray_indices)} and {list(b.ray_indices)} "
                    "intersect outside their common face")
    # each codimension-one cone with the number of top-dimensional cones
    # holding it, its cofaces
    facets = [(f, len(fan.facet_indices.get(f, ())))
              for f in sorted(f for f in indices if len(f) == fan.rank - 1)]
    if fan.support_kind == "complete":
        if not any(c.dim == fan.rank for c in maximal):
            rep.add("complete fan has no maximal-dimensional cone")
        if any(c.dim != fan.rank for c in maximal):
            rep.add("complete fan has a maximal cone of lower dimension")
        for facet, count in facets:
            if count != 2:
                rep.add(f"facet {list(facet)} on {count} maximal cone"
                        + ("" if count == 1 else "s"))
    elif fan.support_kind == "convex":
        for facet, count in facets:
            if count != 1:
                continue
            # the facet's rays are independent, so its normal is the
            # vector of signed maximal minors
            rows = [fan.rays[i] for i in facet]
            normal = [(-1) ** j * determinant([r[:j] + r[j + 1:] for r in rows])
                      for j in range(fan.rank)]
            dots = [sum(n * x for n, x in zip(normal, r)) for r in fan.rays]
            if any(d > 0 for d in dots) and any(d < 0 for d in dots):
                rep.add(f"boundary facet {list(facet)} admits no "
                        "supporting hyperplane (support not convex)")
    return rep


def minimal_containing_cone(fan: Fan, v) -> Cone:
    """The unique cone containing v in its relative interior."""
    return ConeSolvers(fan, fan.rays).locate(v)[0]

"""Stacky-fan structure: ray weights b_i = a_i v_i, piecewise Q-linear
functionals, BOX enumeration, the box involution, ages, group orders and
fractional-part decompositions of lattice points."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import core
from .core import Cone, Fan, ZERO_CONE
from .errors import InvariantViolation, NotMaximalCone, admit

# the most box-group elements, summed over the maximal cones whose groups
# one read may scan, admitted before any scan (by box_reads, which plans
# every multi-cone read, box_table's over every maximal cone included,
# and by box_elements for the one cone it scans); scanning and filing
# take some 4 us per element (box_table on P2 with weights 173, 179, 181:
# 94,679 elements in 0.35-0.55 s, 2 vCPU shared, Python 3.11), so about
# 0.5 s at the limit
BOX_SCAN_BUDGET = 10 ** 5

# the most points one enumerate_support_points walk may build, counted
# from its cells before any is; on P2 bound 140, the largest under it,
# `orbit-poset` takes 0.5-0.6 s and `gamma --check-direct`, which locates
# each point it keeps once, 0.65-0.85 s (2 vCPU shared, Python 3.11.7)
LABEL_WALK_BUDGET = 3 * 10 ** 4


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
    def grid(self) -> int:
        """The lcm of the maximal cones' solver denominators: the psi of
        every lattice point of |Sigma| lies on the grid of step 1/grid."""
        return math.lcm(*(self.solvers[sigma].denominator
                          for sigma in self.fan.maximal_cones))

    @cached_property
    def box_scans(self) -> dict:
        """{support: [BoxElement]}: BOX(tau) of every face tau of the
        maximal cones scanned so far, by the index tuple of tau, sorted by
        point.  Filed by _scan_box_groups, one scan per maximal cone at
        most, and read through box_elements."""
        return {}

    @cached_property
    def box_table(self) -> dict:
        """BOX(tau) of every cone tau, by its index tuple: the lists of
        box_scans, read through one box_reads plan over every cone, so
        over BOX_SCAN_BUDGET group elements in all a BudgetExceeded is
        raised before any scan."""
        return {tau.ray_indices: box_elements(self, tau)
                for tau in box_reads(self, self.fan.sorted_cones)}


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


class BoxElement(NamedTuple):
    """A lattice point v = sum q_i b_i with all q_i in (0,1), together with
    its minimal cone and the order of the corresponding group element.

    The q_i are stored as integers, q_i = nums_i / order, one per ray of the
    cone in the order of its indices, with gcd(order, *nums) = 1: the order
    is the least common denominator of the q_i, and the form is canonical."""

    point: tuple
    cone: Cone
    nums: tuple
    order: int

    @property
    def q(self) -> tuple:
        """The coordinates nums_i / order as Fractions."""
        return tuple(Fraction(n, self.order) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return self.cone == ZERO_CONE


class FractionalDecomposition(NamedTuple):
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
    (coset representatives of the b-sublattice), as (u, n) sorted by u, with
    integers 0 <= n_i < D and q_i = n_i / D over the denominator D of the
    b-solver of tau.

    With the b-solver x = A . v[rows] / D of tau, the coordinates of lattice
    points, times D and taken mod D, form the subgroup of (Z/D)^k generated
    by the columns of A.  It is built as k integer columns, one list per
    coordinate: each generator g adds the cosets H + j g, 0 < j < m, of the
    group H built so far, where m, the least j > 0 with j g in H, divides
    the order of g.  D u is formed column by column, so the work is a few
    C-level passes per coordinate over the group, whose order is the |det|
    of the chosen minor of the b_i; an element is kept when D u is
    divisible by D, which only discards anything for lower-dimensional
    cones.
    """
    solver = sfan.solvers[tau]
    den = solver.denominator
    k = len(tau.ray_indices)
    cols = [[0] for _ in range(k)]
    for r in range(k):
        gen = [row[r] % den for row in solver.matrix]
        members = set(zip(*cols))
        order = den // math.gcd(den, *gen)
        m = next(j for j in range(1, order + 1) if order % j == 0
                 and tuple(j * g % den for g in gen) in members)
        cols = [[(a + s) % den for s in range(0, m * g, g) for a in col]
                if g else col * m for col, g in zip(cols, gen)]
    size = len(cols[0]) if cols else 1
    scaled = []   # D u, one column per coordinate
    for j in range(sfan.rank):
        total = [0] * size
        for col, i in zip(cols, tau.ray_indices):
            c = sfan.b_vectors[i][j]
            if c:
                total = list(map(operator.add, total,
                                 map(operator.mul, col, itertools.repeat(c))))
        scaled.append(total)
    keep = list(map(operator.not_, map(any, zip(*(
        map(operator.mod, x, itertools.repeat(den)) for x in scaled)))))
    points = zip(*(itertools.compress(
        map(operator.floordiv, x, itertools.repeat(den)), keep)
        for x in scaled))
    # n as tuples; the zero cone's group is the empty tuple alone
    nums = list(zip(*(itertools.compress(col, keep) for col in cols))) or [()]
    return sorted(zip(points, nums))


def _admit_box_groups(sfan: StackyFan, sigmas) -> None:
    admit(sum(sfan.solvers[s].order for s in sigmas), BOX_SCAN_BUDGET,
          "the box groups have", "elements in all,")


def _scan_box_groups(sfan: StackyFan, sigmas) -> None:
    """File into sfan.box_scans BOX of every face of the given maximal cones,
    as BoxElements, with one parallelepiped scan of each cone not scanned
    before.  The fan is simplicial, so BOX(tau) is the part of the
    parallelepiped of any maximal sigma containing tau whose non-zero q_i
    lie on the rays of tau; a face already filed from another cone is not
    filed again.  Each element n goes to the face of its non-zero n_i,
    looked up by its zero pattern, reduced by one gcd; the face's Cone is
    built once per scan.  Over BOX_SCAN_BUDGET elements in the given
    groups, a BudgetExceeded is raised before any scan."""
    _admit_box_groups(sfan, sigmas)
    table = sfan.box_scans
    for sigma in sigmas:
        idx = sigma.ray_indices
        if idx in table:
            continue
        den = sfan.solvers[sigma].denominator
        # the cone and list of each face not filed, by the zero pattern of n
        new, files = {}, {}
        for pattern in itertools.product((False, True), repeat=len(idx)):
            face = tuple(itertools.compress(idx, pattern))
            if face not in table:
                new[face] = []
                files[pattern] = Cone._sorted(face), new[face]
        for point, n in _scan_parallelepiped(sfan, sigma):
            found = files.get(tuple(map(bool, n)))
            if found is not None:
                g = math.gcd(den, *n)
                cone, records = found
                records.append(BoxElement(
                    point, cone, tuple([x // g for x in n if x]), den // g))
        table.update(new)


def box_elements(sfan: StackyFan, tau: Cone) -> list:
    """All of BOX(tau) for a cone tau of the fan, sorted lexicographically
    by point coordinates: the list of BoxElements filed in sfan.box_scans,
    shared by every read and not to be changed.  It is filed by the scan of
    a maximal cone that holds tau: one scanned before, or else tau itself
    if it is maximal, or the first maximal cone of the fan that holds it,
    whose group order is admitted and which is scanned now.  A cone outside
    the fan raises a ValueError before any scan."""
    found = sfan.box_scans.get(tau.ray_indices)
    if found is None:
        fan = sfan.fan
        if tau not in fan.cones:
            raise ValueError(f"cone {list(tau.ray_indices)} is not a cone "
                             "of the fan")
        holder = tau if tau.ray_indices not in fan.facet_indices else next(
            s for s in fan.maximal_cones if tau.is_face_of(s))
        _scan_box_groups(sfan, [holder])
        found = sfan.box_scans[tau.ray_indices]
    return found


def box_reads(sfan: StackyFan, cones) -> list:
    """The faces of the given cones of the fan, each once, in an order
    whose box_elements reads scan only the box groups admitted here.

    The given cones, every cone of the fan or the cones two fans do not
    share, are closed upwards: a cone of the fan that holds one of them is
    given too, so each is a face of a given maximal cone.  A list that is
    not raises an InvariantViolation before anything is admitted.  The
    summed order of the given maximal cones is admitted against
    BOX_SCAN_BUDGET; they come first, each read through its own scan, and
    then their faces."""
    fan = sfan.fan
    given = {c.ray_indices: c for c in cones}
    # closed upwards: no cone left out has a given facet
    if any(c.ray_indices[:j] + c.ray_indices[j + 1:] in given
           for c in fan.cones if c.ray_indices not in given
           for j in range(c.dim)):
        raise InvariantViolation("the cones to read are not closed upwards "
                                 "in the fan")
    sigmas = [s for s in cones if s.ray_indices not in fan.facet_indices]
    reads = {s.ray_indices: s for s in sigmas}   # in the order to read them
    for sigma in sigmas:
        idx = sigma.ray_indices
        for k in range(len(idx) - 1, -1, -1):
            for face in itertools.combinations(idx, k):
                if face not in reads:
                    reads[face] = given.get(face) or Cone._sorted(face)
    _admit_box_groups(sfan, sigmas)
    return list(reads.values())


def box_all(sfan: StackyFan) -> list:
    """BOX(Sigma): box_table concatenated over all cones in canonical order;
    the zero element appears exactly once (from the zero cone)."""
    table = sfan.box_table
    return [e for tau in sfan.fan.sorted_cones for e in table[tau.ray_indices]]


def iota(sfan: StackyFan, e: BoxElement) -> BoxElement:
    """The box involution q_i -> 1 - q_i; fixes the zero element."""
    if e.is_zero:
        return e
    bvecs = [sfan.b_vectors[i] for i in e.cone.ray_indices]
    point = tuple(sum(b[j] for b in bvecs) - x for j, x in enumerate(e.point))
    return e._replace(point=point, nums=tuple(e.order - n for n in e.nums))


def age(sfan: StackyFan, e: BoxElement) -> Fraction:
    """age = psi(v) = sum of the box coordinates."""
    return Fraction(sum(e.nums), e.order)


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
    point = tuple(x - sum(s * sfan.b_vectors[i][j] for i, s in shifts)
                  for j, x in enumerate(w))
    frac = [(i, n % den) for i, n in zip(cone.ray_indices, nums) if n % den]
    # a located cone's indices ascend, and so do those of its face
    tau = Cone._sorted(tuple(i for i, _ in frac))
    g = math.gcd(den, *(r for _, r in frac))
    box = BoxElement(point, tau, tuple(r // g for _, r in frac), den // g)
    return FractionalDecomposition(w, box, shifts)


# ---------------------------------------------------------------------------
# Enumeration of |Sigma| cap N by psi-sublevel, by the paper's decomposition
# w = u + sum s_i b_i over the minimal cone C of w, u in BOX(tau) for a face
# tau of C and s_i >= 1 exactly off tau: each point is built once, with psi,
# lambda and its orbit label, none located.  The oracles in deltainv
# enumerate the same points by their own route; the tests cross-check them.


def walk_star(fan: Fan, tau: Cone, depth: int):
    """The star of tau by layers: for k = 0, 1, ... up to depth, the list of
    (C, rays) over the cones C on tau with k rays off it in ascending order,
    each reached once from tau through the coface map, adding larger rays."""
    layer = [(tau, ())]
    while layer:
        yield layer
        layer = [(up, off + (r,)) for c, off in layer if len(off) < depth
                 for r, up in fan.facet_indices.get(c.ray_indices, ())
                 if not off or r > off[-1]]


def _walk_cells(sfan: StackyFan, bound: Fraction):
    """(C, tau, [(u, m), ...]) over the u in BOX(tau) with m0 = floor(bound
    - age(u)) >= 0 and the C in the star of tau with k <= m0 rays off tau,
    as m = m0 - k: w = u + sum s_i b_i has psi <= bound if sum s_i <= m + k."""
    top, den = bound.numerator, bound.denominator
    table = sfan.box_table
    for tau in sfan.fan.sorted_cones:
        cells = [(e, m) for e in table[tau.ray_indices] if (m := (
            top * e.order - sum(e.nums) * den) // (den * e.order)) >= 0]
        if cells:
            for layer in walk_star(sfan.fan, tau, max(m for _, m in cells)):
                for cone, _ in layer:
                    yield cone, tau.ray_indices, cells
                cells = [(e, m - 1) for e, m in cells if m]   # k + 1 rays


def enumerate_support_points(sfan: StackyFan, bound, lam_values=None):
    """All lattice points w in |Sigma| with psi(w) <= bound, as a list of
    (w, psi(w) * G, lam(w) * G, label): integers on one grid, G = sfan.grid
    times the common denominator of the values, with no Fraction per point.
    lam is the piecewise Q-linear functional with the given values on the
    b_i (None -> lam = 0), and label the FractionalDecomposition of w = u +
    sum s_i b_i: u the BoxElement filed in sfan.box_scans, whose order
    divides sfan.grid, the s_i over the rays of the minimal cone of w in
    ascending order.  Ordered by ascending psi, then lexicographically.
    Over LABEL_WALK_BUDGET points, C(m + dim C, dim C) per cell of the
    walk, a BudgetExceeded is raised before any is built."""
    bound = Fraction(bound)
    if bound < 0:
        return []
    walk = list(_walk_cells(sfan, bound))
    admit(sum(math.comb(m + cone.dim, cone.dim)
              for cone, _, cells in walk for _, m in cells),
          LABEL_WALK_BUDGET, f"the support points up to {bound} may walk",
          "lattice points,")
    # lam(b_i) = lam_int[i] / scale over a common denominator
    lam = [Fraction(x) for x in lam_values or [0] * len(sfan.fan.rays)]
    scale = math.lcm(*(x.denominator for x in lam))
    lam_int = [x.numerator * (scale // x.denominator) for x in lam]
    grid = sfan.grid
    found = []   # (point, psi * G, lam * G, label), G = grid * scale
    for cone, tau, cells in walk:
        idx = cone.ray_indices
        bvecs = [sfan.b_vectors[i] for i in idx]
        lam_cone = [lam_int[i] for i in idx]
        lift = [int(i not in tau) for i in idx]    # s_i >= 1 off tau
        offset = [sum(x) for x in zip(*itertools.compress(bvecs, lift),
                                      [0] * sfan.rank)]   # sum lift_i b_i
        for e, m in cells:
            u, _, nums, order = e
            step = grid // order   # u's coordinates, over order, on grid
            base = list(map(operator.add, u, offset))
            psi_u = sum(nums) * step
            lam_u = step * sum(map(operator.mul, nums,
                                   (lam_int[i] for i in tau)))
            for extra in _bounded_tuples(len(idx), m):
                shifts = tuple(map(operator.add, extra, lift))
                point = base[:]
                for s, bk in zip(extra, bvecs):
                    if s:
                        for j in range(len(point)):
                            point[j] += s * bk[j]
                point = tuple(point)
                found.append((
                    point, (psi_u + grid * sum(shifts)) * scale,
                    lam_u + grid * sum(map(operator.mul, shifts, lam_cone)),
                    FractionalDecomposition(point, e, tuple(zip(idx, shifts)))))
    found.sort(key=operator.itemgetter(1, 0))
    return found


def _bounded_tuples(k: int, total_max: int):
    """Non-negative integer k-tuples with coordinate sum <= total_max."""
    if k == 0 or total_max == 0:
        yield (0,) * k
        return
    for first in range(total_max + 1):
        for rest in _bounded_tuples(k - 1, total_max - first):
            yield (first,) + rest

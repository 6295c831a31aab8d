"""Stacky refinements: the refinement predicate, stellar subdivision as a
refinement generator, the lambda-transfer map and the invariance check of
the weighted delta-vector under refinement."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import core, stacky
from .core import Fan
from .deltainv import weighted_delta_closed
from .errors import (IntegralityFailure, InvariantViolation, NotARefinement,
                     NotInSupport, OutsideSupport, RankMismatch,
                     TransferNotKLT)
from .stacky import PiecewiseQLinear, StackyFan, eval_pl, psi


@dataclass(frozen=True)
class RefinementWitness:
    """Evidence that `fine` refines `coarse` as stacky fans.

    cone_map sends each fine maximal cone to the index (into the coarse
    fan's maximal_cones) of a coarse cone containing it;
    integrality_certificates gives, per fine ray, the integer coefficients
    expressing its b-vector in the b_j of its minimal containing coarse
    cone, as pairs (coarse ray index, coefficient).
    """

    fine: StackyFan
    coarse: StackyFan
    cone_map: dict
    integrality_certificates: tuple


def is_stacky_refinement(fine: StackyFan,
                         coarse: StackyFan) -> Optional[RefinementWitness]:
    """A witness that `fine` refines `coarse`, or None.

    Checks: (1) every fine maximal cone lies inside some coarse maximal
    cone; (2) every fine b-vector is an integer combination of the coarse
    b_j of its minimal containing coarse cone; plus a finite support proxy —
    every coarse lattice point with psi_coarse <= rank lies in the fine
    support.  A full polyhedral support-equality decision is out of scope.
    """
    if fine.rank != coarse.rank:
        raise RankMismatch("fine and coarse fans have different ranks")
    coarse_max = coarse.fan.maximal_cones
    cone_map = {}
    for tau in fine.fan.maximal_cones:
        home = None
        for j, sigma in enumerate(coarse_max):
            if all(core.in_cone(coarse.fan, sigma, fine.fan.rays[i])
                   for i in tau.ray_indices):
                home = j
                break
        if home is None:
            return None
        cone_map[tau] = home
    certificates = []
    for i in range(len(fine.fan.rays)):
        b_bar = fine.b(i)
        try:
            sigma = core.minimal_containing_cone(coarse.fan, b_bar)
        except OutsideSupport:
            return None
        nums, den = coarse.solvers[sigma].solve(b_bar)
        if any(n % den for n in nums):
            return None
        certificates.append(tuple(
            (j, n // den) for j, n in zip(sigma.ray_indices, nums)))
    # support proxy: coarse sublevel points must lie in the fine support
    for point, _, _ in stacky.enumerate_support_points(coarse, coarse.rank):
        try:
            core.minimal_containing_cone(fine.fan, point)
        except OutsideSupport:
            return None
    return RefinementWitness(fine, coarse, cone_map, tuple(certificates))


def stellar_subdivide(sfan: StackyFan, w, multiplicity: int = 1) -> StackyFan:
    """Star subdivision of the fan at the ray through w, with the given
    weight on the new ray.

    Every maximal cone containing w is replaced by the joins of its facets
    not containing w with the new ray; if the ray through w already exists
    the fan is returned unchanged.
    """
    w = tuple(int(x) for x in w)
    if core.is_zero_vec(w):
        raise NotInSupport("cannot subdivide at the origin")
    v = core.primitive_part(w)
    if v in sfan.fan.rays:
        return sfan
    try:
        tau0 = core.minimal_containing_cone(sfan.fan, w)
    except OutsideSupport:
        raise NotInSupport(f"{list(w)} is outside the fan support")
    b_bar = tuple(int(multiplicity) * x for x in v)
    nums, den = sfan.solvers[tau0].solve(b_bar)
    if any(n % den for n in nums):
        raise IntegralityFailure(
            f"new b-vector {list(b_bar)} is not an integer combination of "
            "the b-vectors of its containing cone")
    new_index = len(sfan.fan.rays)
    new_maximal = []
    for sigma in sfan.fan.maximal_cones:
        if tau0.is_face_of(sigma):
            for i in tau0.ray_indices:
                rest = tuple(j for j in sigma.ray_indices if j != i)
                new_maximal.append(rest + (new_index,))
        else:
            new_maximal.append(sigma.ray_indices)
    fan = Fan.from_maximal(sfan.rank, sfan.fan.rays + (v,), new_maximal,
                           sfan.fan.support_kind)
    report = core.validate_fan(fan)
    if not report.ok:
        raise InvariantViolation(
            f"subdivision produced an invalid fan: {report.violations}")
    return StackyFan(fan, sfan.weights + (int(multiplicity),))


def transfer_lambda(coarse: StackyFan, lam: PiecewiseQLinear,
                    fine: StackyFan) -> PiecewiseQLinear:
    """Transport an admissible functional along a refinement:
    lambda'(b_bar) = lambda(b_bar) + psi_coarse(b_bar) - 1."""
    witness = is_stacky_refinement(fine, coarse)
    if witness is None:
        raise NotARefinement("fine fan does not refine the coarse fan")
    values = []
    for i in range(len(fine.fan.rays)):
        b_bar = fine.b(i)
        val = eval_pl(lam, b_bar) + psi(coarse, b_bar) - 1
        if val <= -1:
            raise TransferNotKLT(
                f"transferred value {val} at fine ray {i} is <= -1")
        values.append(val)
    return PiecewiseQLinear(fine, tuple(values))


def check_invariance(coarse: StackyFan, lam: PiecewiseQLinear,
                     fine: StackyFan) -> bool:
    """The weighted delta-vector is unchanged by refinement once lambda is
    transferred; exact equality of canonical rational functions."""
    lam_fine = transfer_lambda(coarse, lam, fine)
    return (weighted_delta_closed(coarse, lam)
            == weighted_delta_closed(fine, lam_fine))

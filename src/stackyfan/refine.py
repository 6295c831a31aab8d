"""Stacky refinements: the refinement predicate, stellar subdivision as a
refinement generator, the lambda-transfer map and the invariance check of
the weighted delta-vector under refinement.  The predicate is exact, and
one solve per fine ray gives its certificates, cone map and coverage."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import core
from .core import Fan
from .deltainv import weighted_delta_equal
from .errors import (IntegralityFailure, InvariantViolation, NotARefinement,
                     NotInSupport, OutsideSupport, RankMismatch,
                     TransferNotKLT)
from .stacky import PiecewiseQLinear, StackyFan


@dataclass(frozen=True)
class RefinementWitness:
    """Evidence that `fine` refines `coarse` as stacky fans: cone_map sends
    each fine maximal cone to the index of a coarse maximal cone holding
    it; integrality_certificates gives, per fine ray, its b-vector over the
    b_j of its minimal coarse cone, as pairs (coarse ray index, integer)."""

    fine: StackyFan
    coarse: StackyFan
    cone_map: dict
    integrality_certificates: tuple


def is_stacky_refinement(fine: StackyFan,
                         coarse: StackyFan) -> Optional[RefinementWitness]:
    """A witness that `fine` refines `coarse`, or None.

    Locating each fine ray once over the coarse b-vectors gives
    a_i v_i = sum_j c_ij b_j over its minimal coarse cone.  (1) Every c_ij
    must be an integer.  (2) A fine maximal cone tau lies in the first
    coarse maximal cone sigma whose rays hold every j with c_ij > 0, i in
    tau; so |fine| lies in |coarse|.  (3) A fine cone tau of sigma's
    dimension cuts |det c_tau| / prod_i sum_j c_ij of the volume of
    sigma's slice psi <= 1, and sigma is covered exactly when these sum
    to 1.  This presumes that the fine maximal cones do not
    overlap (`core.validate_fan` checks it).
    """
    if fine.rank != coarse.rank:
        raise RankMismatch("fine and coarse fans have different ranks")
    coarse_max = coarse.fan.maximal_cones
    certificates = []
    for a, v in zip(fine.weights, fine.fan.rays):
        try:
            tau, nums, den = coarse.solvers.locate(v)
        except OutsideSupport:
            return None
        if any(a * n % den for n in nums):
            return None
        certificates.append({j: a * n // den
                             for j, n in zip(tau.ray_indices, nums)})
    cone_map = {}
    covered = [Fraction(0)] * len(coarse_max)
    for tau in fine.fan.maximal_cones:
        rows = [certificates[i] for i in tau.ray_indices]
        home = next((j for j, sigma in enumerate(coarse_max)
                     if set().union(*rows) <= set(sigma.ray_indices)), None)
        if home is None:
            return None
        cone_map[tau] = home
        sigma = coarse_max[home].ray_indices
        if tau.dim == len(sigma):
            det = core.determinant([[row.get(j, 0) for j in sigma]
                                    for row in rows])
            covered[home] += Fraction(abs(det), math.prod(
                sum(row.values()) for row in rows))
    if any(share != 1 for share in covered):
        return None
    return RefinementWitness(fine, coarse, cone_map,
                             tuple(tuple(c.items()) for c in certificates))


def stellar_subdivide(sfan: StackyFan, w, multiplicity: int = 1) -> StackyFan:
    """Star subdivision of the fan at the ray through w, with the given
    weight on the new ray.

    Every maximal cone containing w is replaced by the joins of its facets
    not containing w with the new ray; if the ray through w already exists
    the fan is returned unchanged.
    """
    if multiplicity < 1:
        raise ValueError("weights must be positive")
    w = tuple(int(x) for x in w)
    if core.is_zero_vec(w):
        raise NotInSupport("cannot subdivide at the origin")
    v = core.primitive_part(w)
    if v in sfan.fan.rays:
        return sfan
    b_bar = tuple(int(multiplicity) * x for x in v)
    try:
        tau0, nums, den = sfan.solvers.locate(b_bar)
    except OutsideSupport:
        raise NotInSupport(f"{list(w)} is outside the fan support")
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
    """Transport an admissible functional along a refinement: lambda'(b_bar)
    = lambda(b_bar) + psi_coarse(b_bar) - 1 = sum_j c_j (lambda(b_j) + 1) - 1
    over the certificate b_bar = sum_j c_j b_j of the witness."""
    witness = is_stacky_refinement(fine, coarse)
    if witness is None:
        raise NotARefinement("fine fan does not refine the coarse fan")
    values = []
    for i, cert in enumerate(witness.integrality_certificates):
        val = sum(c * (lam.values_on_b[j] + 1) for j, c in cert) - 1
        if val <= -1:
            raise TransferNotKLT(
                f"transferred value {val} at fine ray {i} is <= -1")
        values.append(val)
    return PiecewiseQLinear(fine, tuple(values))


def check_invariance(coarse: StackyFan, lam: PiecewiseQLinear,
                     fine: StackyFan) -> bool:
    """The weighted delta-vector is unchanged by refinement once lambda is
    transferred; decided exactly by `weighted_delta_equal` on the two
    assembled closed forms, neither of them reduced to lowest terms.  The
    cones the two fans share cancel first (a cone's term reads only its
    own b-vectors and lambda values, and both sides carry (1 - t)^d), so a
    stellar subdivision assembles only the cones it changed and made."""
    lam_fine = transfer_lambda(coarse, lam, fine)
    return weighted_delta_equal(coarse, lam, fine, lam_fine)

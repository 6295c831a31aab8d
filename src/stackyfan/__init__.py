"""Exact combinatorics of toric stacks given by stacky fans: box elements
and ages, Ehrhart delta-polynomials, weighted delta-vectors, twisted-arc
orbit posets and motivic integrals, all in exact rational arithmetic."""

from .core import (Cone, Fan, ValidationReport, ZERO_CONE, determinant_abs,
                   minimal_containing_cone, solve_rational_system,
                   validate_fan)
from .stacky import (BoxElement, FractionalDecomposition, PiecewiseQLinear,
                     StackyFan, age, box_all, box_elements, eval_pl,
                     fractional_decompose, group_order, iota, psi,
                     zero_functional)
from .qseries import (FracPoly, FracRational, TruncatedSeries, expand_laurent,
                      expand_series, format_poly, format_rational,
                      format_series, series_equal, substitute_reciprocal)
from .arcspace import (OrbitPoset, StackDivisor, canonical_divisor,
                       closure_leq, contact_order, divisor_to_pl,
                       gamma_truncated_direct, orbit_label, orbit_measure,
                       orbit_poset, pullback_divisor, shift_function,
                       zero_divisor)
from .deltainv import (bucket_series, check_symmetry, count_lattice_points,
                       delta_mu_series, ehrhart_counts, ehrhart_delta, gamma,
                       h_tau_lambda, h_vector, hodge_polynomial_toric,
                       orbifold_betti, weighted_delta_closed,
                       weighted_delta_series)
from .refine import (RefinementWitness, check_invariance, is_stacky_refinement,
                     stellar_subdivide, transfer_lambda)
from .cli import FanDocument, parse_fan_document, render_document, run_command
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

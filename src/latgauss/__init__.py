"""latgauss: lattices, Gaussian measure of convex bodies, and balancing constants.

Desk-scale (n <= ~6) numerical laboratory around a single family of
questions: how large must a convex set of Gaussian measure at least one
half be before it meets every coset of a lattice generated by short
vectors, and what do the associated covering and balancing constants look
like. Everything is deterministic per seed and certified with explicit
tolerances or confidence half-widths.
"""

from .convex import (AxisBox, Ball, ConvexBody, Ellipsoid, FullSpace, Halfspace,
                     HPolytope, OracleBody, body_from_document, minkowski_combination,
                     tail_radius)
from .errors import (CalibrationError, DimensionMismatchError,
                     EnumerationCapExceededError, InvalidBodyError,
                     InvalidLatticeError, LatgaussError,
                     ResolutionTooCoarseError, UnsupportedBodyError,
                     UnsupportedCombinationError)
from .gaussian import (MeasureEstimate, calibrate_scale, correlation_bracket,
                       correlation_scale, gauge_quantile, measure_auto,
                       measure_exact, measure_interval, measure_mc,
                       std_normal_cdf, std_normal_pdf, std_normal_quantile,
                       theta)
from .lattice import (Coset, Lattice, closest_vector, coset_from_document,
                      covering_radius, enumerate_coset_in_ball,
                      lattice_from_document, lll_reduce, nth_minimum,
                      successive_minima)
from .balancing import (BalanceResult, SignAssignment, alpha_lower_bound_search,
                        balance_exhaustive, balance_heuristic, beta_ellipsoid_formula,
                        beta_lower_bound_search, ellipsoid_for_formula,
                        ELLIPSOID_FORMULA_CONVENTION)
from .minkowski import (CheckReport, CosetSearch, WProfile, check_ehrhard,
                        check_lemma_instance, check_theorem_instance,
                        corollary_ratio, cube_scale, cube_scaling_curve,
                        ehrhard_suite, find_coset_point_in_body, lemma_suite,
                        random_theta_lattice, sharpness_witness, theorem_suite,
                        w_profile)

__version__ = "0.1.0"

"""Relativistic hydrogen levels and their noncommutative-space corrections.

The package computes the exact Coulomb-Dirac bound spectrum, the
first-order energy shifts induced by space-space noncommutativity (theta
along z), the opposite-parity transition element, bounds on theta implied
by spectroscopic accuracy, and the full nonrelativistic correction budget
including the cutoff-regularized S-state channel.
"""

from .constants import (DEFAULT_CONSTANTS, DEFAULT_LAMBDA_QCD_EV, LAMB_ACCURACY_1S_HZ,
                        LAMB_ACCURACY_2P_HZ, PhysicalConstants, ThetaTensor,
                        ev2_to_gev_scale, hz_to_ev)
from .dirac import (RelativisticState, deformed_potential, dirac_binding_energy,
                    dirac_energy, kappa_to_lj, level_label, lj_to_kappa, make_state,
                    parse_level_label, radial_fg)
from .errors import DivergenceError, DomainError, SingularityError, ValidationError
from .nonrel import (ExpectationTable, HyperfineShift, SchrodingerState,
                     expectation_table, fine_structure_dirac_expansion,
                     fine_structure_shift, nc_hyperfine_shift, pi_delta_expectation,
                     r_inverse_moment,
                     r_inverse_moment_quadrature, radial_R, s_state_bound,
                     s_state_cutoff_expectation, s_state_shift, s_state_shift_assembled,
                     schrodinger_energy)
from .oracle import ValidationReport, run_all, validate_angular, validate_moments, validate_radial
from .shifts import (AngularBlock, Level, ShiftReport, ThetaBound,
                     cross_radial_integral_closed, cross_radial_integral_quadrature,
                     level_shift, lz_block, lz_block_numeric, perturbation_kernels,
                     radial_integral_closed, radial_integral_quadrature, selection_allowed,
                     sigma_cross_block, theta_bound, transition_element_2s2p)
from .specfun import (IntegrationResult, QuadratureRule, gauss_laguerre, laguerre_general,
                      spherical_harmonic, spinor_harmonic)

__version__ = "0.1.0"

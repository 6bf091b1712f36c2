"""Relativistic hydrogen levels and their noncommutative-space corrections.

The package computes the exact Coulomb-Dirac bound spectrum, the
first-order energy shifts induced by space-space noncommutativity (theta
along z), the opposite-parity transition element, bounds on theta implied
by spectroscopic accuracy, and the full nonrelativistic correction budget
including the cutoff-regularized S-state channel.

Every public name below, and each submodule, resolves on first use (PEP 562
module __getattr__): `import nchydro` loads no submodule, and
`from nchydro import level_shift` loads only what nchydro.shifts imports.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "constants": ("DEFAULT_CONSTANTS", "DEFAULT_LAMBDA_QCD_EV", "LAMB_ACCURACY_1S_HZ",
                  "LAMB_ACCURACY_2P_HZ", "PhysicalConstants", "ev2_to_gev_scale",
                  "hz_to_ev"),
    "dirac": ("RelativisticState", "dirac_binding_energy", "dirac_energy", "kappa_to_lj",
              "level_label", "lj_to_kappa", "make_state", "parse_level_label", "radial_fg"),
    "errors": ("DivergenceError", "DomainError", "ValidationError"),
    "nonrel": ("ExpectationTable", "HyperfineShift", "SchrodingerState", "expectation_table",
               "fine_structure_shift", "nc_hyperfine_shift", "r_inverse_moment",
               "r_inverse_moment_quadrature", "s_state_bound", "s_state_shift",
               "schrodinger_energy"),
    "oracle": ("ValidationReport", "run_all", "validate_angular", "validate_moments",
               "validate_radial"),
    "shifts": ("AngularBlock", "Level", "ShiftReport", "ThetaBound",
               "cross_radial_integral_closed", "cross_radial_integral_quadrature",
               "level_shift", "lz_block", "lz_block_numeric", "radial_integral_closed",
               "radial_integral_quadrature", "sigma_cross_block", "theta_bound",
               "transition_element_2s2p"),
    "specfun": ("IntegrationResult", "QuadratureRule", "gauss_laguerre", "laguerre_general",
                "spherical_harmonic", "spinor_harmonic"),
}
# public name -> defining submodule; a submodule's own name maps to itself
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items()
            for name in (module, *names)}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})

"""Physical constants and the noncommutativity parameter.

Natural units hbar = c = 1 throughout; energies in eV, lengths in eV^-1.
The squared electron charge equals the fine-structure constant in these
units (Gaussian convention), so e^2 = alpha everywhere.  The only place a
dimensional constant appears is the Hz <-> eV conversion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from .errors import ValidationError

GEV = 1.0e9  # eV per GeV

# Published theoretical accuracies of the hydrogen Lamb shift, used as
# default ceilings when converting level splittings into bounds.
LAMB_ACCURACY_2P_HZ = 80.0
LAMB_ACCURACY_1S_HZ = 14.0e3

# Short-distance cutoff regularizing divergent S-state expectation values.
DEFAULT_LAMBDA_QCD_EV = 2.0e8


def finite_real(value) -> bool:
    """True for a finite real number (bools and strings are not numbers here)."""
    if type(value) is float:  # the common case, without the numbers.Real ABC check
        return math.isfinite(value)
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_theta(theta: float):
    """Reject a theta (eV^-2) that is negative or not finite."""
    if not (finite_real(theta) and theta >= 0.0):
        raise ValidationError(f"theta must be finite and >= 0, got {theta!r}")


def check_lambda_qcd(lambda_qcd: float):
    """Reject an S-state cutoff (eV) that is not a finite positive number."""
    if not (finite_real(lambda_qcd) and lambda_qcd > 0.0):
        raise ValidationError(f"lambda_qcd must be finite and positive, got {lambda_qcd}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Electron mass, fine-structure constant, and hbar in eV s."""

    m_e: float = 510998.95
    alpha: float = 7.2973525693e-3
    hbar_eV_s: float = 6.582119569e-16

    def __post_init__(self):
        for name in ("m_e", "alpha", "hbar_eV_s"):
            value = getattr(self, name)
            if not (finite_real(value) and value > 0.0):
                raise ValidationError(f"{name} must be a finite positive number, "
                                      f"got {value!r}")
        if not self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def bohr_radius(self) -> float:
        """a0 = 1/(m alpha) in eV^-1."""
        return 1.0 / (self.m_e * self.alpha)

    def with_(self, **kwargs) -> "PhysicalConstants":
        return replace(self, **kwargs)


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ThetaTensor:
    """Antisymmetric space-space block (as its dual vector) plus the
    time-space row theta^{0j}.

    The spectroscopy in this package keeps theta^{0j} = 0; the potential
    evaluator accepts it anyway so the full deformed potential can be
    inspected.
    """

    space_vector: tuple[float, float, float]
    time_row: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @classmethod
    def z_axis(cls, theta: float, time_row=(0.0, 0.0, 0.0)) -> "ThetaTensor":
        return cls(space_vector=(0.0, 0.0, float(theta)), time_row=tuple(time_row))


def hz_to_ev(frequency_hz: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Convert an ordinary frequency in Hz to an energy in eV: one Planck
    quantum per cycle, h f = 2 pi hbar f."""
    return 2.0 * math.pi * constants.hbar_eV_s * frequency_hz


def ev2_to_gev_scale(theta_ev2: float) -> float:
    """Render a theta value (eV^-2) as the X of 'theta = (X GeV)^-2'."""
    if not (finite_real(theta_ev2) and theta_ev2 > 0.0):
        raise ValidationError(f"theta must be finite and positive, got {theta_ev2!r}")
    return 1.0 / (math.sqrt(theta_ev2) * GEV)

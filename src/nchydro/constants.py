"""Physical constants, the noncommutativity parameter, and the one check of each
kind of real boundary value: positive number, theta, radius, constants file.

Natural units hbar = c = 1 throughout; energies in eV, lengths in eV^-1.
The squared electron charge equals the fine-structure constant in these
units (Gaussian convention), so e^2 = alpha everywhere.  The only place a
dimensional constant appears is the Hz <-> eV conversion.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .errors import DomainError, ValidationError

GEV = 1.0e9  # eV per GeV

# Published theoretical accuracies of the hydrogen Lamb shift, used as
# default ceilings when converting level splittings into bounds.
LAMB_ACCURACY_2P_HZ = 80.0
LAMB_ACCURACY_1S_HZ = 14.0e3

# Short-distance cutoff regularizing divergent S-state expectation values.
DEFAULT_LAMBDA_QCD_EV = 2.0e8


def finite_real(value) -> bool:
    """True for a real number that converts to a finite float (bools and
    strings are not numbers here); False for one beyond the float range,
    such as the int 10**400."""
    if type(value) is float:  # a float, then an int: without the numbers.Real ABC check
        return math.isfinite(value)
    try:
        if type(value) is int:
            return math.isfinite(value)
        import numbers
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def shown(value) -> str:
    """repr(value) for an error message, cut to 40 characters (10**400 has 401)."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def check_theta(theta: float):
    """Reject a theta (eV^-2) that is negative or not finite."""
    if not (finite_real(theta) and theta >= 0.0):
        raise ValidationError(f"theta must be finite and >= 0, got {shown(theta)}")


def check_positive(name: str, value, error=ValidationError):
    """Raise error unless value is a finite real > 0."""
    if not (finite_real(value) and value > 0.0):
        raise error(f"{name} must be finite and positive, got {shown(value)}")


def check_lambda_qcd(lambda_qcd: float):
    """Reject an S-state cutoff (eV) that is not a finite positive number."""
    check_positive("lambda_qcd", lambda_qcd)


def check_radius(r: float, caller: str):
    """Reject a radius (eV^-1) that is not a finite real, or not > 0."""
    if not finite_real(r):
        raise ValidationError(f"{caller} requires a finite real r, got {shown(r)}")
    if r <= 0.0:
        raise DomainError(f"{caller} requires r > 0")


def _checked(cls):
    """cls, a named tuple, with every construction (constructor, _make and so
    _replace, copy, pickle) returning cls._check of the new tuple."""
    new = cls.__new__
    cls.__new__ = staticmethod(lambda cls, *args, **kwargs: new(cls, *args, **kwargs)._check())
    cls._make = classmethod(lambda cls, fields: cls(*fields))
    return cls


@_checked
class PhysicalConstants(namedtuple("PhysicalConstants", "m_e alpha hbar_eV_s",
                                   defaults=(510998.95, 7.2973525693e-3, 6.582119569e-16))):
    """Electron mass (eV), fine-structure constant, and hbar in eV s."""

    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            check_positive(name, value)
        if not self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")
        return self

    @property
    def bohr_radius(self) -> float:
        """a0 = 1/(m alpha) in eV^-1."""
        return 1.0 / (self.m_e * self.alpha)

    def with_(self, **kwargs) -> "PhysicalConstants":
        return type(self)(**{**self._asdict(), **kwargs})


DEFAULT_CONSTANTS = PhysicalConstants()


def read_constants_file(path: str) -> tuple[PhysicalConstants, float]:
    """(constants, lambda_qcd) from a JSON object setting any of m_e, alpha
    and lambda_qcd over their defaults, each checked as the library does."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("constants file must hold a JSON object")
    unknown = set(data) - {"m_e", "alpha", "lambda_qcd"}
    if unknown:
        raise ValidationError(f"unknown constants keys: {sorted(unknown)}")
    lambda_qcd = data.pop("lambda_qcd", DEFAULT_LAMBDA_QCD_EV)
    check_lambda_qcd(lambda_qcd)
    return DEFAULT_CONSTANTS.with_(**data), lambda_qcd


def hz_to_ev(frequency_hz: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Convert an ordinary frequency in Hz to an energy in eV: one Planck
    quantum per cycle, h f = 2 pi hbar f."""
    return 2.0 * math.pi * constants.hbar_eV_s * frequency_hz


def ev2_to_gev_scale(theta_ev2: float) -> float:
    """Render a theta value (eV^-2) as the X of 'theta = (X GeV)^-2'."""
    check_positive("theta", theta_ev2)
    return 1.0 / (math.sqrt(theta_ev2) * GEV)

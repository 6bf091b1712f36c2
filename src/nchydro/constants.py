"""Physical constants, the noncommutativity parameter, the one check of each
kind of real boundary value (positive number, theta, radius, constants
file) and Record.

Natural units hbar = c = 1 throughout; energies in eV, lengths in eV^-1.
The squared electron charge equals the fine-structure constant in these
units (Gaussian convention), so e^2 = alpha everywhere.  The only place a
dimensional constant appears is the Hz <-> eV conversion.

Record, the base of every value type, gives a tuple subclass
collections.namedtuple's API from its class statement alone: no class is
generated and no source compiled, which namedtuple does once per class.
Only read_constants_file loads json.
"""

from __future__ import annotations

import math
from operator import itemgetter

# A field read through the C descriptor that collections.namedtuple installs
# costs about 15 ns less than one through property(itemgetter(i)), its fallback.
try:
    from _collections import _tuplegetter
except ImportError:
    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)

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


def cut(text: str) -> str:
    """text for an error message, cut to 40 characters."""
    return text if len(text) <= 40 else text[:37] + "..."


def shown(value) -> str:
    """repr(value) for an error message, cut to 40 characters (10**400 has 401)."""
    return cut(repr(value))


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


class Record(tuple):
    """A tuple with named fields: subclass it as

        class Point(Record, fields="x y z", defaults=(0.0,)):
            __slots__ = ()

    and Point(1.0, 2.0), Point(x=1.0, y=2.0) and Point._make([1.0, 2.0, 0.0])
    build the same Point(x=1.0, y=2.0, z=0.0).  The defaults belong to the
    last fields.  A missing, unknown or doubly given argument raises
    TypeError, and so does _make of an iterable of the wrong length.  A
    subclass that defines _check(self) has it run on every construction:
    the constructor, _make and so _replace, copy and pickle (protocol 2 and
    up, which call the constructor).  A subclass without __slots__ keeps an
    instance dict outside its fields."""

    __slots__ = ()
    _check = None  # or a subclass's check of a new instance

    def __init_subclass__(cls, /, fields: str, defaults: tuple = (), **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(fields.split())
        cls._fields = cls.__match_args__ = names
        cls._field_defaults = dict(zip(names[len(names) - len(defaults):], defaults))
        for index, name in enumerate(names):
            setattr(cls, name, _tuplegetter(index, f"Field {index}, {name}."))
        count, check, new = len(names), cls._check, tuple.__new__

        def __new__(cls, *args, **kwargs):
            if kwargs or len(args) != count:  # the fast path is a full positional call
                args = cls._bind(args, kwargs)
            result = new(cls, args)
            if check is not None:
                check(result)
            return result

        def _make(cls, iterable, new=new, len=len):  # bound as namedtuple binds them
            result = new(cls, iterable)
            if len(result) != count:
                raise TypeError(f"Expected {count} arguments, got {len(result)}")
            if check is not None:
                check(result)
            return result

        cls.__new__, cls._make = staticmethod(__new__), classmethod(_make)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a constructor call, defaults filled in."""
        fields, defaults = cls._fields, cls._field_defaults
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return values

    def _replace(self, /, **kwargs):
        """A copy with the named fields set, built by _make."""
        result = self._make(map(kwargs.pop, self._fields, self))
        if kwargs:
            raise ValueError(f"Got unexpected field names: {list(kwargs)!r}")
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


class PhysicalConstants(Record, fields="m_e alpha hbar_eV_s",
                        defaults=(510998.95, 7.2973525693e-3, 6.582119569e-16)):
    """Electron mass (eV), fine-structure constant, and hbar in eV s."""

    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            check_positive(name, value)
        if not self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")

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
    import json  # here, so that only a request with a constants file loads json
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

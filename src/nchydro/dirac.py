"""Exact relativistic hydrogen bound states.

States are labeled by the radial quantum number n_r = 0, 1, 2, ... and the
angular quantum number kappa = +l (j = l - 1/2) or -(l + 1) (j = l + 1/2).
Energies come from the closed-form Coulomb spectrum; the normalized radial
pair (f, g) multiplies the spinor harmonics for (j, l, M) and its
opposite-parity partner.

Conventions worth stating once:

* nu = sqrt(kappa^2 - alpha^2); lam = sqrt(m^2 - E^2); x = 2 lam r.
  The dimensionless x is the natural Gauss-Laguerre variable.
* Both radial components share the envelope x^(nu-1) e^(-x/2); the
  polynomial parts mix x L_{n_r-1}^{2 nu + 1} and L_{n_r}^{2 nu - 1}.
  The coefficient of the first polynomial is written per unit mass so the
  two terms carry the same dimension; with that reading the pair solves
  the coupled radial equations to machine precision (checked in tests).
* _check_level is the one bound-state test of (n_r, kappa), and _nu_energy,
  behind it, the one derivation of nu and E; every entry point uses them.
  _exact_series is the one test of whether the series below is a state's
  radial integral (|kappa| >= 2).
* make_state is the one place that derives lam, a and the shape
  coefficients (f1, f2, g1, g2), kept in state.shape.  The state computes
  its normalization constant state.norm from them when it is built: the
  norm integral for the weight x^(2 nu) e^-x as the exact Laguerre series
  below, with sign fixed positive; the physics downstream only consumes
  normalized shapes.
* _overlap is the one kernel for radial integrals of a pair of states,
  int x^beta e^-x (P_f P_f' +/- P_g P_g') dx with beta = 2 nu + shift: the
  norm and the |kappa| >= 2 radial integrals here (shift 0 and -3), and the
  sampled radial and cross integrals in shifts (shift -3).  It has two
  modes.  Without sample points (a state's own overlap, beta > -1) it is
  exact: the shape is expanded in the Laguerre polynomials of the
  weight's own beta, L_n^(beta + d) = sum_k C(d - 1 + n - k, n - k) L_k^beta
  for the integer d of each term, and
  x L_k^beta = (2k + beta + 1) L_k^beta - (k + 1) L_{k+1}^beta - (k + beta) L_{k-1}^beta
  for the x L_{n_r-1}^{2 nu + 1} term, so orthogonality leaves
  sum_k (p_k^2 +/- q_k^2) Gamma(k + beta + 1) / k!, n_r + 1 terms in
  pure Python.  At a point x it returns the integrand's two products
  there, for the |kappa| = 1 endpoint samples (beta = 2 nu - 3 < -1, where
  the series is not the integral).  The Gauss rules of specfun check the
  series independently in oracle.  A |kappa| >= 2 state computes its
  series radial integrals (shift -3, sum and diff) once, on first use,
  and keeps them in state.radial_series; later calls read them.
* Everything is pure Python on floats: radial_fg and deformed_potential
  take a point, and radial_polynomials (through laguerre_general) also
  maps an ndarray x elementwise when a caller passes one; no module of the
  package imports numpy.
* kappa_to_lj, lj_to_kappa (the one test of j = l +/- 1/2) and the one
  half-integer test check_magnetic live in specfun.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .constants import DEFAULT_CONSTANTS, PhysicalConstants, ThetaTensor
from .errors import DomainError, SingularityError, ValidationError
from .specfun import (IntegrationResult, check_integer, check_magnetic, kappa_to_lj,
                      laguerre_general, lj_to_kappa)

__all__ = [
    "RelativisticState",
    "kappa_to_lj",
    "lj_to_kappa",
    "make_state",
    "dirac_energy",
    "dirac_binding_energy",
    "radial_polynomials",
    "radial_fg",
    "deformed_potential",
    "parse_level_label",
    "level_label",
    "SPECTROSCOPIC_LETTERS",
]

SPECTROSCOPIC_LETTERS = "SPDFGHIK"


@dataclass(frozen=True)
class RelativisticState:
    """One Dirac-Coulomb bound level with all derived quantities attached."""

    n_r: int
    kappa: int
    M: float
    constants: PhysicalConstants
    j: float
    l: int
    nu: float
    energy: float
    a: float          # sqrt(m^2 - E^2)/m, dimensionless momentum scale
    lam: float        # sqrt(m^2 - E^2) in eV
    shape: tuple[float, float, float, float]  # (f1, f2, g1, g2), see radial_polynomials
    norm: float = field(init=False)  # multiplies the raw radial shapes; > 0

    def __post_init__(self):
        # C^2 int (f~^2 + g~^2) r^2 dr = 1 with x = 2 lam r: C^2 = (2 lam)^3 / I
        integral = _overlap(self, self, 0, 1.0).value
        object.__setattr__(self, "norm", math.sqrt((2.0 * self.lam) ** 3 / integral))

    @cached_property
    def radial_series(self) -> tuple[IntegrationResult, IntegrationResult]:
        """(sum, diff): int (f^2 +/- g^2)/r dr in eV^3 for |kappa| >= 2, the
        exact series of _overlap (shift -3) times norm^2.  Computed on first
        use and kept in the instance dict, outside the fields, so eq, hash
        and repr ignore it."""
        if not _exact_series(self):
            raise DomainError("the radial integrals diverge at the origin for |kappa| = 1")
        scale = self.norm * self.norm
        return (_overlap(self, self, -3, 1.0).scaled(scale),
                _overlap(self, self, -3, -1.0).scaled(scale))

    @property
    def n_principal(self) -> int:
        return self.n_r + abs(self.kappa)

    @property
    def label(self) -> str:
        return level_label(self.n_r, self.kappa)


def _check_level(n_r: int, kappa: int, label: str | None = None):
    """The one bound-state test: integer n_r >= 0, kappa as kappa_to_lj
    accepts it, and no n_r = 0 with kappa > 0 (no such level exists)."""
    check_integer("n_r", n_r)
    kappa_to_lj(kappa)
    if n_r < 0 or (n_r == 0 and kappa > 0):
        name = repr(label) if label else f"(n_r, kappa) = ({n_r}, {kappa})"
        raise ValidationError(f"{name} does not name a bound state")


def _nu_energy(n_r: int, kappa: int, constants: PhysicalConstants) -> tuple[float, float]:
    """(nu, E) of the level _check_level accepts: the one derivation of nu."""
    _check_level(n_r, kappa)
    alpha = constants.alpha
    nu = math.sqrt(kappa * kappa - alpha * alpha)
    return nu, constants.m_e * (n_r + nu) / math.sqrt(alpha * alpha + (n_r + nu) ** 2)


def dirac_energy(n_r: int, kappa: int, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Bound-state energy E = m (n_r + nu) / sqrt(alpha^2 + (n_r + nu)^2)."""
    return _nu_energy(n_r, kappa, constants)[1]


def dirac_binding_energy(n_r: int, kappa: int,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """m - E evaluated without cancellation (log1p/expm1 route)."""
    nu = _nu_energy(n_r, kappa, constants)[0]
    u = (constants.alpha / (n_r + nu)) ** 2
    # 1 - (1+u)^(-1/2), computed stably
    return -constants.m_e * math.expm1(-0.5 * math.log1p(u))


def make_state(n_r: int, kappa: int, M: float,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> RelativisticState:
    """Validate quantum numbers and build a fully derived state.

    This is the one place that derives lam, a and the shape coefficients
    (f1, f2, g1, g2); nu and E come from the one (n_r, kappa) check.
    """
    nu, energy = _nu_energy(n_r, kappa, constants)
    l, j = kappa_to_lj(kappa)
    check_magnetic(j, M)
    alpha, m = constants.alpha, constants.m_e
    lam = math.sqrt((m - energy) * (m + energy))
    a = lam / m
    # f1 and g1 carry a factor m relative to the bare ratio
    # a alpha / (E kappa - m nu) so that both terms are dimensionless
    f1 = g1 = 0.0
    if n_r >= 1:
        denom = energy * kappa - m * nu
        f1 = m * a * alpha / denom
        g1 = m * a * (kappa - nu) / denom
    return RelativisticState(n_r=n_r, kappa=kappa, M=M, constants=constants, j=j, l=l,
                             nu=nu, energy=energy, a=a, lam=lam,
                             shape=(f1, kappa - nu, g1, alpha))


def radial_polynomials(state: RelativisticState, x):
    """Polynomial parts (P_f, P_g) of the radial pair at dimensionless x.

    P_f = f1 x L_{n_r-1}^{2nu+1}(x) + f2 L_{n_r}^{2nu-1}(x), and likewise P_g
    with (g1, g2), the coefficients in state.shape.  For n_r = 0 the first
    term is absent and f1 = g1 = 0.  x is a float or an ndarray.
    """
    f1, f2, g1, g2 = state.shape
    low = laguerre_general(state.n_r, 2.0 * state.nu - 1.0, x)
    high = x * laguerre_general(state.n_r - 1, 2.0 * state.nu + 1.0, x)
    return f1 * high + f2 * low, g1 * high + g2 * low


def _connection(n: int, d: int) -> list[int]:
    """c_k with L_n^(beta + d) = sum_k c_k L_k^beta for an integer d (empty for
    n = -1): c_k = C(d - 1 + n - k, n - k), the generalized binomial."""
    out = []
    for k in range(n + 1):
        s, j = d - 1 + n - k, n - k
        out.append(math.comb(s, j) if s >= 0 else (-1) ** j * math.comb(j - s - 1, j))
    return out


def _laguerre_series(state: RelativisticState,
                     shift: int) -> tuple[list[float], list[float], list[float]]:
    """(p, q, h): P_f = sum_k p_k L_k^beta, P_g = sum_k q_k L_k^beta and
    h_k = int x^beta e^-x (L_k^beta)^2 dx = Gamma(k + beta + 1) / k!, for
    beta = 2 nu + shift > -1, k = 0..n_r."""
    n_r, beta = state.n_r, 2.0 * state.nu + shift
    f1, f2, g1, g2 = state.shape
    low = _connection(n_r, -1 - shift)  # L_{n_r}^{2nu-1}
    high = [0.0] * (n_r + 1)            # x L_{n_r-1}^{2nu+1}, by the three-term recurrence
    for k, c in enumerate(_connection(n_r - 1, 1 - shift)):
        high[k] += (2 * k + beta + 1.0) * c
        high[k + 1] -= (k + 1) * c
        if k:
            high[k - 1] -= (k + beta) * c
    h = [math.gamma(beta + 1.0)]
    for k in range(n_r):
        h.append(h[-1] * (k + beta + 1.0) / (k + 1))
    return ([f1 * u + f2 * v for u, v in zip(high, low)],
            [g1 * u + g2 * v for u, v in zip(high, low)], h)


def _overlap(bra: RelativisticState, ket: RelativisticState, shift: int,
             sign: float | None, x: float | None = None):
    """Radial overlap int x^beta e^-x (P_f P_f' + sign P_g P_g') dx of two states
    sharing nu, for the weight exponent beta = 2 nu + shift.

    Without x it is the exact Laguerre series of a state's own overlap
    (ket is bra, beta > -1): with the shapes expanded as
    P = sum_k p_k L_k^beta, orthogonality leaves
    sum_k (p_k^2 + sign q_k^2) Gamma(k + beta + 1) / k!.  The result's
    order is the number of terms and its drift the a-priori relative
    rounding bound eps (terms + 1) sum |t_k| / |sum t_k|.
    At a point x (a float) it returns the integrand's two products without
    its e^-x, (x^beta P_f P_f', x^beta P_g P_g'), and sign is unused: one
    evaluation serves the sum and diff samples of adaptive_sampled_endpoint.
    """
    if x is not None:
        pf, pg = radial_polynomials(bra, x)
        pf2, pg2 = (pf, pg) if ket is bra else radial_polynomials(ket, x)
        power = x ** (2.0 * bra.nu + shift)
        return power * pf * pf2, power * pg * pg2
    assert ket is bra, "the series covers a state's own overlap only"
    p, q, h = _laguerre_series(bra, shift)
    terms = [(a * a + sign * b * b) * w for a, b, w in zip(p, q, h)]
    value = sum(terms)
    drift = (sys.float_info.epsilon * (len(terms) + 1) * sum(abs(t) for t in terms)
             / max(abs(value), 1e-300))
    return IntegrationResult(value=value, order=len(terms), drift=drift,
                             converged=drift <= 1e-10)


def _exact_series(state: RelativisticState) -> bool:
    # x^(2nu-3) is integrable at the origin (|kappa| >= 2), so the Laguerre
    # series is the radial integral; for |kappa| = 1 it is not
    return 2.0 * state.nu - 3.0 > -1.0 + 1e-9


def radial_fg(state: RelativisticState, r: float) -> tuple[float, float]:
    """Normalized radial pair (f, g) at radius r > 0 (eV^-1, a float).

    Both components decay as e^(-x/2) with x = 2 sqrt(m^2 - E^2) r and share
    the x^(nu-1) envelope.  int (f^2 + g^2) r^2 dr = 1.
    """
    if r <= 0.0:
        raise DomainError("radial_fg requires r > 0")
    x = 2.0 * state.lam * r
    pf, pg = radial_polynomials(state, x)
    envelope = math.exp(-0.5 * x + (state.nu - 1.0) * math.log(x))
    return state.norm * envelope * pf, state.norm * envelope * pg


# ---------------------------------------------------------------------------
# Deformed Coulomb potential
# ---------------------------------------------------------------------------


def deformed_potential(x_vec, theta: ThetaTensor,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """First-order deformed Coulomb potential at the point x_vec, a 3-vector
    of floats.

    Returns (a0, a_vec): the scalar part -e/r - e^3 (theta^{0j} x_j)/r^4 and
    the vector part e^3 (x cross theta)/(4 r^4), a tuple of three floats,
    with e = sqrt(alpha).  Setting all theta components to zero recovers
    (-e/r, 0).
    """
    xv = tuple(map(float, x_vec))
    if len(xv) != 3:
        raise DomainError(f"x_vec must be a 3-vector, got {len(xv)} components")
    r = math.hypot(*xv)
    if r == 0.0:
        raise SingularityError("deformed_potential is singular at r = 0")
    e = math.sqrt(constants.alpha)
    e3 = e ** 3
    a0 = -e / r - e3 * math.fsum(map(mul, theta.time_row, xv)) / r ** 4
    (x, y, z), (tx, ty, tz) = xv, theta.space_vector
    a_vec = tuple(e3 / (4.0 * r ** 4) * c for c in (y * tz - z * ty, z * tx - x * tz,
                                                     x * ty - y * tx))
    return a0, a_vec


# ---------------------------------------------------------------------------
# Spectroscopic labels: N l_j with l in S, P, D, ... and j printed as "3/2"
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^\s*(\d+)\s*([A-Za-z])\s*(\d+)\s*/\s*2\s*$")


def parse_level_label(label: str) -> tuple[int, int]:
    """Parse a label like '2P3/2' into (n_r, kappa).

    Grammar: principal integer, orbital letter (S, P, D, F, ...), total j as
    an odd numerator over 2.  Raises ValidationError on anything else or on
    physically impossible combinations, and on a label that is not a str.
    """
    match = _LABEL_RE.match(label) if isinstance(label, str) else None
    if not match:
        raise ValidationError(f"cannot parse level label {label!r} (expected e.g. '2P3/2')")
    n_principal = int(match.group(1))
    letter = match.group(2).upper()
    two_j = int(match.group(3))
    if letter not in SPECTROSCOPIC_LETTERS:
        raise ValidationError(f"unknown orbital letter {letter!r} in {label!r}")
    l = SPECTROSCOPIC_LETTERS.index(letter)
    kappa = lj_to_kappa(l, two_j / 2.0)  # raises unless j = l +/- 1/2 > 0
    n_r = n_principal - abs(kappa)
    _check_level(n_r, kappa, label)
    return n_r, kappa


def level_label(n_r: int, kappa: int) -> str:
    l, j = kappa_to_lj(kappa)
    if l >= len(SPECTROSCOPIC_LETTERS):
        raise ValidationError(f"l = {l} has no spectroscopic letter here")
    return f"{n_r + abs(kappa)}{SPECTROSCOPIC_LETTERS[l]}{int(2 * j)}/2"

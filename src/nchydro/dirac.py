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
  coefficients (f1, f2, g1, g2), kept in state.shape, and the
  normalization constant state.norm: the norm integral for the weight
  x^(2 nu) e^-x as the exact Laguerre series below (the sum of its pair);
  the physics downstream only consumes normalized shapes.
* _overlap is the one kernel for radial integrals of a pair of states,
  int x^beta e^-x (P_f P_f' +/- P_g P_g') dx with beta = 2 nu + shift: the
  norm and the |kappa| >= 2 radial integrals here (shift 0 and -3), and,
  through _overlap_at, the sampled radial and cross integrals in shifts
  (shift -3).  It takes no sign: both give the (sum, diff) pair.  For a
  state's own overlap (beta > -1) it is exact, one expansion for both: the
  shape is expanded in the Laguerre polynomials of the weight's own beta,
  L_n^(beta + d) = sum_k C(d - 1 + n - k, n - k) L_k^beta
  for the integer d of each term, and
  x L_k^beta = (2k + beta + 1) L_k^beta - (k + 1) L_{k+1}^beta - (k + beta) L_{k-1}^beta
  for the x L_{n_r-1}^{2 nu + 1} term, so orthogonality leaves
  sum_k (p_k^2 +/- q_k^2) Gamma(k + beta + 1) / k!, n_r + 1 terms in
  pure Python.  _overlap_at gives the sum and diff integrands at a point
  x, for the |kappa| = 1 endpoint samples (beta = 2 nu - 3 < -1, where
  the series is not the integral).  The Gauss rules of specfun check the
  series independently in oracle.
* Everything is pure Python on floats: radial_fg takes a radius
  (constants.check_radius decides which), and radial_polynomials also
  maps an ndarray x elementwise when a caller passes one; no module of the
  package imports numpy.
* kappa_to_lj, lj_to_kappa (the one test of j = l +/- 1/2) and the one
  half-integer test check_magnetic live in specfun.
"""

from __future__ import annotations

import math
import re
import sys

from .constants import DEFAULT_CONSTANTS, PhysicalConstants, Record, check_radius, shown
from .errors import ValidationError
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
    "parse_level_label",
    "level_label",
    "SPECTROSCOPIC_LETTERS",
]

SPECTROSCOPIC_LETTERS = "SPDFGHIK"


class RelativisticState(Record, fields="n_r kappa M constants j l nu energy a lam shape norm"):
    """One Dirac-Coulomb bound level with all derived quantities attached,
    norm included: a named tuple that make_state builds.  n_r, kappa and l
    are ints; M, j, nu and energy (eV) floats; a = sqrt(m^2 - E^2)/m is the
    dimensionless momentum scale and lam = sqrt(m^2 - E^2) in eV; shape is
    (f1, f2, g1, g2), see radial_polynomials; norm (> 0) multiplies the raw
    radial shapes."""

    __slots__ = ()

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
        name = shown(label) if label else f"(n_r, kappa) = ({n_r}, {kappa})"
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

    This is the one place that derives lam, a, the shape coefficients
    (f1, f2, g1, g2) and norm; nu and E come from the one (n_r, kappa) check.
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
    bare = RelativisticState(n_r, kappa, M, constants, j, l, nu, energy, a, lam,
                             (f1, kappa - nu, g1, alpha), 1.0)
    # C^2 int (f~^2 + g~^2) r^2 dr = 1 with x = 2 lam r: C^2 = (2 lam)^3 / I
    return bare._replace(norm=math.sqrt((2.0 * lam) ** 3 / _overlap(bare, 0)[0].value))


def radial_polynomials(state: RelativisticState, x):
    """Polynomial parts (P_f, P_g) of the radial pair at dimensionless x.

    P_f = f1 x L_{n_r-1}^{2nu+1}(x) + f2 L_{n_r}^{2nu-1}(x), and likewise P_g
    with (g1, g2), the coefficients in state.shape.  For n_r = 0 the first
    term is absent and f1 = g1 = 0.  x is a float or an ndarray.
    """
    return _polynomials(state.n_r, state.nu, state.shape, x)


def _polynomials(n_r: int, nu: float, shape: tuple, x):
    f1, f2, g1, g2 = shape
    low = laguerre_general(n_r, 2.0 * nu - 1.0, x)
    high = x * laguerre_general(n_r - 1, 2.0 * nu + 1.0, x)
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


def _overlap(state: RelativisticState, shift: int) -> tuple:
    """The (sum, diff) radial overlaps int x^beta e^-x (P_f^2 +/- P_g^2) dx of
    a state with itself, for the weight exponent beta = 2 nu + shift > -1:
    two IntegrationResults from one expansion, the exact Laguerre series.
    With the shapes expanded as P = sum_k p_k L_k^beta, orthogonality leaves
    sum_k (p_k^2 +/- q_k^2) Gamma(k + beta + 1) / k!.  Each result's
    order is the number of terms and its drift the a-priori relative
    rounding bound eps (terms + 1) sum |t_k| / |sum t_k|.  Both sums are
    math.fsum, correctly rounded, so every Python version gives the same bits
    (the built-in sum is compensated from 3.12 on only).
    """
    p, q, h = _laguerre_series(state, shift)
    results = []
    for sign in (1.0, -1.0):
        terms = [(a * a + sign * b * b) * w for a, b, w in zip(p, q, h)]
        value = math.fsum(terms)
        drift = (sys.float_info.epsilon * (len(terms) + 1) * math.fsum(map(abs, terms))
                 / max(abs(value), 1e-300))
        results.append(IntegrationResult(value, len(terms), drift, drift <= 1e-10))
    return tuple(results)


def _overlap_at(bra: RelativisticState, ket: RelativisticState, shift: int):
    """x -> (sum, diff): the integrands x^beta (P_f P_f' +/- P_g P_g') of two
    states sharing nu at a float x, without e^-x, for the endpoint samples;
    each state's n_r, nu and shape are read here once, not at every x."""
    power, n_r, nu, shape = 2.0 * bra.nu + shift, bra.n_r, bra.nu, bra.shape
    other = None if ket is bra else (ket.n_r, ket.nu, ket.shape)

    def at(x):
        pf, pg = _polynomials(n_r, nu, shape, x)
        pf2, pg2 = (pf, pg) if other is None else _polynomials(*other, x)
        weight = x ** power
        ff, gg = weight * pf * pf2, weight * pg * pg2
        return ff + gg, ff - gg

    return at


def _exact_series(state: RelativisticState) -> bool:
    # x^(2nu-3) is integrable at the origin (|kappa| >= 2), so the Laguerre
    # series is the radial integral; for |kappa| = 1 it is not
    return 2.0 * state.nu - 3.0 > -1.0 + 1e-9


def radial_fg(state: RelativisticState, r: float) -> tuple[float, float]:
    """Normalized radial pair (f, g) at radius r > 0 (eV^-1, a float).

    Both components decay as e^(-x/2) with x = 2 sqrt(m^2 - E^2) r and share
    the x^(nu-1) envelope.  int (f^2 + g^2) r^2 dr = 1.
    """
    check_radius(r, "radial_fg")
    x = 2.0 * state.lam * r
    envelope = math.exp(-0.5 * x + (state.nu - 1.0) * math.log(x)) if x < math.inf else 0.0
    if envelope == 0.0:  # underflowed; the polynomials can be inf at this x
        return 0.0, 0.0
    pf, pg = radial_polynomials(state, x)
    return state.norm * envelope * pf, state.norm * envelope * pg


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
    try:  # int() refuses more than 4300 digits, and a j beyond the floats overflows
        n_principal, j = int(match.group(1)), int(match.group(3)) / 2.0
    except (AttributeError, ValueError, OverflowError):  # AttributeError: no match
        raise ValidationError(
            f"cannot parse level label {shown(label)} (expected e.g. '2P3/2')") from None
    letter = match.group(2).upper()
    if letter not in SPECTROSCOPIC_LETTERS:
        raise ValidationError(f"unknown orbital letter {letter!r} in {shown(label)}")
    l = SPECTROSCOPIC_LETTERS.index(letter)
    kappa = lj_to_kappa(l, j)  # raises unless j = l +/- 1/2 > 0
    n_r = n_principal - abs(kappa)
    _check_level(n_r, kappa, label)
    return n_r, kappa


def level_label(n_r: int, kappa: int) -> str:
    l, j = kappa_to_lj(kappa)
    if l >= len(SPECTROSCOPIC_LETTERS):
        raise ValidationError(f"l = {l} has no spectroscopic letter here")
    return f"{n_r + abs(kappa)}{SPECTROSCOPIC_LETTERS[l]}{int(2 * j)}/2"

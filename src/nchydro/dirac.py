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
* make_state is the one place that derives nu, E, lam, a and the shape
  coefficients (f1, f2, g1, g2), kept in state.shape.  The state computes
  its normalization constant state.norm from them when it is built: the
  norm integral on the exact Gauss rule for the weight x^(2 nu) e^-x, with
  sign fixed positive; the physics downstream only consumes normalized
  shapes.
* _overlap is the one kernel for radial integrals of a pair of states,
  int x^beta e^-x (P_f P_f' +/- P_g P_g') dx: the norm here, and the
  radial and cross integrals in shifts.
* kappa_to_lj, lj_to_kappa (the one test of j = l +/- 1/2) and the one
  half-integer test check_magnetic live in specfun.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants, ThetaTensor
from .errors import DomainError, SingularityError, ValidationError
from .specfun import (check_magnetic, gauss_laguerre, kappa_to_lj, laguerre_general,
                      lj_to_kappa)

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
        integral = _overlap(self, self, 2.0 * self.nu, 1.0, self.n_r + 1)
        object.__setattr__(self, "norm", math.sqrt((2.0 * self.lam) ** 3 / integral))

    @property
    def n_principal(self) -> int:
        return self.n_r + abs(self.kappa)

    @property
    def label(self) -> str:
        return level_label(self.n_r, self.kappa)


def dirac_energy(n_r: int, kappa: int, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Bound-state energy E = m (n_r + nu) / sqrt(alpha^2 + (n_r + nu)^2)."""
    alpha, m = constants.alpha, constants.m_e
    kappa_to_lj(kappa)  # rejects kappa = 0
    if alpha >= abs(kappa):
        raise ValidationError(f"alpha = {alpha} >= |kappa| = {abs(kappa)}: nu is not real")
    nu = math.sqrt(kappa * kappa - alpha * alpha)
    return m * (n_r + nu) / math.sqrt(alpha * alpha + (n_r + nu) ** 2)


def dirac_binding_energy(n_r: int, kappa: int,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """m - E evaluated without cancellation (log1p/expm1 route)."""
    alpha, m = constants.alpha, constants.m_e
    nu = math.sqrt(kappa * kappa - alpha * alpha)
    u = (alpha / (n_r + nu)) ** 2
    # 1 - (1+u)^(-1/2), computed stably
    return -m * math.expm1(-0.5 * math.log1p(u))


def make_state(n_r: int, kappa: int, M: float,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> RelativisticState:
    """Validate quantum numbers and build a fully derived state.

    This is the one place that derives nu, E, lam, a and the shape
    coefficients (f1, f2, g1, g2).  n_r = 0 with kappa > 0 is rejected: the
    closed-form prefactor vanishes there, i.e. no such bound state exists.
    """
    if n_r < 0:
        raise ValidationError(f"n_r must be >= 0, got {n_r}")
    if n_r == 0 and kappa > 0:
        raise ValidationError(f"(n_r=0, kappa={kappa}): state is unnormalizable")
    l, j = kappa_to_lj(kappa)
    check_magnetic(j, M)
    alpha, m = constants.alpha, constants.m_e
    energy = dirac_energy(n_r, kappa, constants)
    nu = math.sqrt(kappa * kappa - alpha * alpha)
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
    term is absent and f1 = g1 = 0.
    """
    f1, f2, g1, g2 = state.shape
    low = laguerre_general(state.n_r, 2.0 * state.nu - 1.0, x)
    if state.n_r >= 1:
        high = np.asarray(x, dtype=float) * laguerre_general(state.n_r - 1,
                                                             2.0 * state.nu + 1.0, x)
    else:
        high = 0.0
    return f1 * high + f2 * low, g1 * high + g2 * low


def _overlap(bra: RelativisticState, ket: RelativisticState, beta: float, sign: float,
             nodes):
    """Radial overlap int x^beta e^-x (P_f P_f' + sign P_g P_g') dx of two states.

    An int `nodes` integrates on the nodes-point Gauss rule for the weight
    x^beta e^-x (beta > -1).  The polynomial has degree n_r + n_r', so
    nodes >= (n_r + n_r')/2 + 1 gives the exact integral up to rounding.
    An ndarray `nodes` returns the integrand without its e^-x,
    x^beta (P_f P_f' + sign P_g P_g'), at those points: the form a sampler
    such as adaptive_sampled_endpoint weights itself.
    """
    sampled = isinstance(nodes, np.ndarray)
    if sampled:
        x, scale = nodes, np.exp(beta * np.log(nodes))
    else:
        rule = gauss_laguerre(nodes, beta)
        x, scale = rule.nodes, rule.weights
    pf, pg = radial_polynomials(bra, x)
    pf2, pg2 = (pf, pg) if ket is bra else radial_polynomials(ket, x)
    values = scale * (pf * pf2 + sign * pg * pg2)
    return values if sampled else float(np.sum(values))


def radial_fg(state: RelativisticState, r):
    """Normalized radial pair (f, g) at radius r > 0 (eV^-1; scalar or array).

    Both components decay as e^(-x/2) with x = 2 sqrt(m^2 - E^2) r and share
    the x^(nu-1) envelope.  int (f^2 + g^2) r^2 dr = 1.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise DomainError("radial_fg requires r > 0")
    x = 2.0 * state.lam * r_arr
    pf, pg = radial_polynomials(state, x)
    envelope = np.exp(-0.5 * x + (state.nu - 1.0) * np.log(x))
    f = state.norm * envelope * pf
    g = state.norm * envelope * pg
    if np.ndim(r):
        return f, g
    return float(f), float(g)


def analytic_norm_nodeless(state: RelativisticState) -> float:
    """Closed-form normalization for n_r = 0 states (single-term shapes)."""
    if state.n_r != 0:
        raise ValidationError("closed-form norm only applies to n_r = 0 states")
    _, f2, _, g2 = state.shape
    integral = (f2 * f2 + g2 * g2) * math.gamma(2.0 * state.nu + 1.0)
    return math.sqrt((2.0 * state.lam) ** 3 / integral)


# ---------------------------------------------------------------------------
# Deformed Coulomb potential
# ---------------------------------------------------------------------------


def deformed_potential(x_vec, theta: ThetaTensor,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """First-order deformed Coulomb potential at the point x_vec.

    Returns (a0, a_vec): the scalar part -e/r - e^3 (theta^{0j} x_j)/r^4 and
    the vector part e^3 (x cross theta)/(4 r^4), with e = sqrt(alpha).
    Setting all theta components to zero recovers (-e/r, 0).
    """
    xv = np.asarray(x_vec, dtype=float)
    if xv.shape != (3,):
        raise DomainError(f"x_vec must be a 3-vector, got shape {xv.shape}")
    r = float(np.linalg.norm(xv))
    if r == 0.0:
        raise SingularityError("deformed_potential is singular at r = 0")
    e = math.sqrt(constants.alpha)
    e3 = e ** 3
    a0 = -e / r - e3 * float(np.dot(theta.time_row, xv)) / r ** 4
    a_vec = e3 / (4.0 * r ** 4) * np.cross(xv, np.asarray(theta.space_vector, dtype=float))
    return a0, a_vec


# ---------------------------------------------------------------------------
# Spectroscopic labels: N l_j with l in S, P, D, ... and j printed as "3/2"
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^\s*(\d+)\s*([A-Za-z])\s*(\d+)\s*/\s*2\s*$")


def parse_level_label(label: str) -> tuple[int, int]:
    """Parse a label like '2P3/2' into (n_r, kappa).

    Grammar: principal integer, orbital letter (S, P, D, F, ...), total j as
    an odd numerator over 2.  Raises ValidationError on anything else or on
    physically impossible combinations.
    """
    match = _LABEL_RE.match(label)
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
    if n_r < 0 or (n_r == 0 and kappa > 0) or n_principal <= l:
        raise ValidationError(f"{label!r} does not name a bound state")
    return n_r, kappa


def level_label(n_r: int, kappa: int) -> str:
    l, j = kappa_to_lj(kappa)
    if l >= len(SPECTROSCOPIC_LETTERS):
        raise ValidationError(f"l = {l} has no spectroscopic letter here")
    return f"{n_r + abs(kappa)}{SPECTROSCOPIC_LETTERS[l]}{int(2 * j)}/2"

"""First-order corrections from space-space noncommutativity.

The perturbation splits into a scalar piece -(e^2 / 2 r^3) theta.L and a
vector piece (e^4 / 4) theta.(alpha x r / r^4).  With theta along z the
scalar piece is diagonal in M and factorizes into a radial integral times
an angular block.  The vector piece's angular operator is parity-odd: its
block between harmonics of equal l vanishes (sigma_cross_block of a level
with itself), and it connects opposite-parity partners (the 2S-2P
channel).  That includes the upper-lower block between a level's own
l and l' = 2j - l, the harmonics of its large and small components; that
block is not zero, and nchydro does not compute it.

The numeric angular blocks take the phi integral exactly and sum each
entry as one real math.fsum over the 16 Gauss-Legendre nodes in
cos(theta), so entries between different M are exactly 0.

Every radial quantity is computed twice:

* "closed_form" evaluates the tabulated closed expressions verbatim.  For
  l >= 1 levels these tables take kappa as +(j + 1/2); the l = 0 column
  keeps the signed value.  Several of these expressions are internally
  inconsistent with their own defining integrals, which is exactly why the
  second route exists.
* "quadrature" integrates the defining integral int (f f' +/- g g')/r dr
  directly, through the overlap kernel of dirac.  For |kappa| >= 2
  the integrand is a polynomial against the weight x^(2nu-3) e^-x
  (2nu - 3 > -1), and the value is exact: the Laguerre series of
  dirac._overlap, sum_k (p_k^2 +/- q_k^2) Gamma(k + 2nu - 2) / k!
  over the n_r + 1 expansion coefficients of P_f and P_g in
  L_k^(2nu-3).  The report gives route "laguerre_series", order n_r + 1
  and the series' a-priori rounding bound eps (terms + 1) sum|t| / |sum t|
  as drift; oracle checks the value against the Gauss rule with n_r + 2
  nodes.  For |kappa| = 1 the x^(2nu-3) endpoint is nonintegrable
  (2nu - 3 < -1) and the integral mathematically diverges; the
  endpoint-substituted plain rule is sampled at 80 and 160 nodes (route
  "endpoint_sample"), the 160-node sample is reported with
  converged=False, and the report is flagged rather than silently
  trusted.  That sample depends on the order and is not a value of the
  integral.  One private helper takes the sum and diff samples together,
  in pure Python, for the level integrals and the 2S-2P cross element, and
  one (_radial_pair) chooses between the series and the samples.

A Level, a named tuple, builds one state with make_state (one norm sum)
and the others with _replace(M=m).  Outside its fields it keeps its
ShiftReport at theta = 0, computed on first use (Level.closed_form): the
eigenvalues, both closed integrals, the closed-form coefficients and the
2P Lamb-shift theta bound, and for |kappa| >= 2 the series route too,
with its coefficients, order, drift, flag and notes.  level_shift is
linear in theta by construction: a warm |kappa| >= 2 call checks theta
and the constants and builds its report in one tuple construction, the
kept report's fields with theta and shifts_eV = coefficients * theta set;
a |kappa| = 1 call first fills the route fields from the two endpoint
samples, taken again and not kept.
cli's bound and sweep read the same report.

Reports carry both values plus flags so downstream consumers can see any
disagreement instead of having it averaged away.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, partial
from operator import mul

from .constants import (DEFAULT_CONSTANTS, LAMB_ACCURACY_2P_HZ, PhysicalConstants,
                        check_positive, check_theta, ev2_to_gev_scale, hz_to_ev)
from .dirac import (RelativisticState, _exact_series, _overlap, _overlap_at, make_state,
                    parse_level_label)
from .errors import DomainError, ValidationError
from .specfun import (_SPHERE_RULE, IntegrationResult, _norm_legendre, _spinor_profiles,
                      adaptive_sampled_endpoint, check_magnetic, kappa_to_lj, lj_to_kappa)

__all__ = [
    "AngularBlock",
    "ThetaBound",
    "ShiftReport",
    "Level",
    "lz_expectation",
    "lz_block",
    "lz_block_numeric",
    "sigma_cross_block",
    "radial_integral_closed",
    "radial_integral_quadrature",
    "cross_radial_integral_closed",
    "cross_radial_integral_quadrature",
    "level_shift",
    "transition_element_2s2p",
    "theta_bound",
    "RADIAL_AGREEMENT_TOL",
]

RADIAL_AGREEMENT_TOL = 1e-8


# ---------------------------------------------------------------------------
# Levels and angular blocks
# ---------------------------------------------------------------------------


class Level(namedtuple("Level", "label n_r kappa j l states")):
    """A full j-multiplet of one fine-structure level, as a named tuple."""

    @classmethod
    def from_label(cls, label: str,
                   constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "Level":
        n_r, kappa = parse_level_label(label)
        return cls.from_quantum_numbers(n_r, kappa, constants)

    @classmethod
    def from_quantum_numbers(cls, n_r: int, kappa: int,
                             constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "Level":
        l, j = kappa_to_lj(kappa)
        state = make_state(n_r, kappa, -j, constants)  # one norm sum: the states differ in M
        states = tuple(state._replace(M=m) for m in m_values(j))
        return cls(state.label, n_r, kappa, j, l, states)

    @property
    def m_basis(self) -> tuple[float, ...]:
        return tuple(s.M for s in self.states)

    @property
    def constants(self) -> PhysicalConstants:
        return self.states[0].constants

    @cached_property
    def closed_form(self) -> ShiftReport:
        """This level's ShiftReport at theta = 0, which keeps every field
        that does not depend on theta.  The eigenvalues are <L_z> over
        m_basis, rho1 and rho2 the closed sum and diff integrals, the
        coefficients -(alpha/2) rho1 lambda_k in eV^3 per theta, and
        theta_bound the LAMB_ACCURACY_2P_HZ bound from the largest
        |coefficient| (None when every coefficient is 0).  For |kappa| >= 2
        the quadrature route is the state's exact series; for |kappa| = 1
        its fields, rho1_quadrature to quadrature_drift,
        coefficients_quadrature, flagged and notes, are None here
        (report_fields).  Computed on first use and kept in the instance
        dict, outside the fields, so eq, hash and repr ignore it."""
        state0, alpha = self.states[0], self.constants.alpha
        eigenvalues = tuple(_lz(self.kappa, m) for m in self.m_basis)
        rho1 = radial_integral_closed(state0, "sum")
        coefficients = tuple(-(alpha / 2.0) * rho1 * lam for lam in eigenvalues)
        max_coeff = max((abs(c) for c in coefficients), default=0.0)
        report = ShiftReport(
            label=self.label, theta=0.0, eigenvalues=eigenvalues, rho1=rho1,
            rho2=radial_integral_closed(state0, "diff"), rho1_quadrature=None,
            rho2_quadrature=None, quadrature_converged=None, quadrature_route=None,
            quadrature_order=None, quadrature_drift=None, coefficients=coefficients,
            coefficients_quadrature=None, shifts_eV=tuple([c * 0.0 for c in coefficients]),
            theta_bound=(theta_bound(max_coeff, LAMB_ACCURACY_2P_HZ, self.constants)
                         if max_coeff > 0.0 else None),
            flagged=None, notes=None)
        return self._with_route(report, *_radial_pair(state0)) if _exact_series(state0) else report

    def report_fields(self) -> ShiftReport:
        """closed_form with every field set: for |kappa| = 1 the route fields
        come from a fresh pair of endpoint samples, taken on every call and
        not kept."""
        report = self.closed_form
        if report.quadrature_route is None:
            report = self._with_route(report, *_radial_pair(self.states[0]))
        return report

    def _with_route(self, report: ShiftReport, rho1_q: IntegrationResult,
                    rho2_q: IntegrationResult) -> ShiftReport:
        """report with the quadrature route of rho1_q and rho2_q: its values,
        coefficients, order and drift, and the flag and notes that compare
        it with the closed form."""
        exact = _exact_series(self.states[0])
        notes = []
        rel = abs(report.rho1 - rho1_q.value) / max(abs(rho1_q.value), 1e-300)
        if not exact:
            notes.append(f"defining radial integral diverges at the origin for |kappa| = 1; "
                         f"quadrature value is the sample at order {rho1_q.order}, "
                         f"not a value of the integral")
        if rel > RADIAL_AGREEMENT_TOL:
            notes.append(f"closed-form and quadrature radial integrals disagree "
                         f"(relative difference {rel:.3e}); both are reported")
        alpha = self.constants.alpha
        return report._replace(
            rho1_quadrature=rho1_q.value, rho2_quadrature=rho2_q.value,
            quadrature_converged=rho1_q.converged and rho2_q.converged,
            quadrature_route="laguerre_series" if exact else "endpoint_sample",
            quadrature_order=rho1_q.order, quadrature_drift=max(rho1_q.drift, rho2_q.drift),
            coefficients_quadrature=tuple(-(alpha / 2.0) * rho1_q.value * lam
                                          for lam in report.eigenvalues),
            flagged=rel > RADIAL_AGREEMENT_TOL or not exact, notes=tuple(notes))


def m_values(j: float) -> tuple[float, ...]:
    """All magnetic quantum numbers -j ... +j in increasing order."""
    count = int(round(2 * j)) + 1
    return tuple(-j + k for k in range(count))


class AngularBlock(namedtuple("AngularBlock", "label basis matrix")):
    """Real angular matrix over the M basis (a float tuple) of a level, in
    units of theta: matrix is a tuple of rows of floats."""

    __slots__ = ()


def _lz(kappa: int, M: float) -> float:
    # <L_z> = M (1 + 1/(2 kappa + 1)) = M (1 -/+ 1/(2l+1)), upper sign for
    # j = l + 1/2: the one formula, for quantum numbers already checked
    return M * (1.0 + 1.0 / (2.0 * kappa + 1.0))


def lz_expectation(j: float, l: int, M: float) -> float:
    """<L_z> for (j, l, M), after lj_to_kappa and check_magnetic accept them."""
    kappa = lj_to_kappa(l, j)
    check_magnetic(j, M)
    return _lz(kappa, M)


def lz_block(j: float, l: int) -> AngularBlock:
    """Closed-form theta.L block: diagonal in M with entries <L_z>."""
    kappa = lj_to_kappa(l, j)
    basis = m_values(j)
    return AngularBlock(f"Lz(j={j}, l={l})", basis, tuple(
        tuple(_lz(kappa, a) if a == b else 0.0 for b in basis) for a in basis))


def _sphere_block(bra: tuple[float, int], ket: tuple[float, int], act):
    """M basis and rows of floats <bra, M_a| O |ket, M_b> of two (j, l) waves
    sharing j on _SPHERE_RULE; a spinor is _spinor_profiles' two (m, c,
    profile) and act(spinor, sin_theta) applies O in that form.  A component
    pair's phi integral is 2 pi where the m match, else 0: an entry is 2 pi
    times the fsum of c c' w p p' over the matching pairs.  Each wave's
    profile of Y_lm is computed once per m, and the ket's spinors are the
    bra's when the waves are equal."""
    cos_theta, weights = _SPHERE_RULE
    sin_theta = [math.sqrt((1.0 - x) * (1.0 + x)) for x in cos_theta]
    basis = m_values(bra[0])

    def spinors(j, l):
        # M's lower component shares its m, and so its profile, with the
        # upper component of M + 1
        profile = {m: list(map(partial(_norm_legendre, l, m), cos_theta, sin_theta))
                   for m in range(-l, l + 1)}.__getitem__
        return [_spinor_profiles(j, l, M, profile) for M in basis]

    bras = spinors(*bra)
    kets = [act(spinor, sin_theta) for spinor in (bras if ket == bra else spinors(*ket))]
    return basis, tuple(tuple(2.0 * math.pi * math.fsum(
        c * d * w * p * q for (m_a, c, ps), (m_b, d, qs) in zip(u, k) if m_a == m_b
        for w, p, q in zip(weights, ps, qs)) for k in kets) for u in bras)


def lz_block_numeric(j: float, l: int) -> AngularBlock:
    """theta.L block from sphere quadrature over spinor harmonics.

    L_z acts on each spinor component through its definite orbital magnetic
    number; only the theta integrals are numerical.
    """
    lj_to_kappa(l, j)
    basis, rows = _sphere_block((j, l), (j, l), lambda spinor, sin_theta: tuple(
        (m, m * c, profile) for m, c, profile in spinor))
    return AngularBlock(f"Lz numeric(j={j}, l={l})", basis, rows)


def sigma_cross_block(bra: Level, ket: Level) -> AngularBlock:
    """Angular block of sigma.(z-hat x r-hat) between two Levels sharing j.

    Computed by sphere quadrature.  The operator connects opposite-parity
    partners; within a level (equal l) the block vanishes identically.  The
    overall phase i is included so the matrix comes out real for allowed
    transitions, matching the convention in which the small bi-spinor
    component carries an explicit i.
    """
    if not (isinstance(bra, Level) and isinstance(ket, Level)):
        raise ValidationError(f"sigma_cross_block takes two Levels, got "
                              f"{type(bra).__name__} and {type(ket).__name__}")
    if abs(bra.j - ket.j) > 1e-9:
        raise ValidationError(f"states must share j, got {bra.j} and {ket.j}")

    def act(spinor, sin_theta):
        # i sigma.(z-hat x r-hat) = [[0, e^{-i phi} sin th], [-e^{i phi} sin th, 0]]
        (m_up, c_up, up), (m_dn, c_dn, dn) = spinor
        return ((m_dn - 1, c_dn, list(map(mul, sin_theta, dn))),
                (m_up + 1, -c_up, list(map(mul, sin_theta, up))))

    basis, rows = _sphere_block((bra.j, bra.l), (ket.j, ket.l), act)
    return AngularBlock(f"sigma-cross(l={bra.l}->{ket.l}, j={bra.j})", basis, rows)


# ---------------------------------------------------------------------------
# Radial integrals
# ---------------------------------------------------------------------------


def _closed_form_kappa(kappa: int, l: int) -> int:
    # The tabulated closed forms take kappa as +(j + 1/2) for every l >= 1
    # level; the l = 0 column keeps the signed value.
    return abs(kappa) if l >= 1 else kappa


def radial_integral_closed(state: RelativisticState, kind: str = "sum") -> float:
    """Closed-form value of int (f^2 +/- g^2)/r dr in eV^3.

    kind="sum" is the (f^2 + g^2) integral, kind="diff" the (f^2 - g^2) one.
    These expressions are evaluated verbatim; use the quadrature route for a
    definition-level cross-check (the two are known to disagree for some
    levels and the reports flag that).
    """
    c = state.constants
    m, nu, E, a = c.m_e, state.nu, state.energy, state.a
    kappa = _closed_form_kappa(state.kappa, state.l)
    if abs(nu - 0.5) < 1e-12 or abs(nu - 1.0) < 1e-12:
        raise DomainError(f"closed form has a vanishing denominator at nu = {nu}")
    denom_common = nu * (4.0 * nu * nu - 1.0) * (nu * nu - 1.0)
    if kind == "sum":
        num = 3.0 * E * kappa * (E * kappa - m) - (nu * nu - 1.0)
        return (m * a) ** 3 * num / (m * m * denom_common)
    if kind == "diff":
        num = m + 2.0 * m * nu * nu - 3.0 * E * kappa
        return 2.0 * (m * a) ** 3 * E / (m * m) * num / denom_common
    raise ValidationError(f"kind must be 'sum' or 'diff', got {kind!r}")


def _endpoint_samples(bra: RelativisticState,
                      ket: RelativisticState) -> tuple[IntegrationResult, IntegrationResult]:
    """(sum, diff): the order-160 endpoint samples of int (f f' +/- g g')/r dr
    in eV^3 for two |kappa| = 1 states sharing x = 2 lam r, where the
    integral diverges at the origin.  The sum's pass stores each node's diff
    integrand in a dict for the diff's pass; nothing outlives the call."""
    diff, at = {}, _overlap_at(bra, ket, -3)

    def sum_at(x):
        total, diff[x] = at(x)
        return total

    scale = bra.norm * ket.norm
    total = adaptive_sampled_endpoint(sum_at).scaled(scale)
    return total, adaptive_sampled_endpoint(diff.__getitem__).scaled(scale)


def _radial_pair(state: RelativisticState) -> tuple[IntegrationResult, IntegrationResult]:
    """(sum, diff): int (f^2 +/- g^2)/r dr in eV^3 of one state, the one
    choice of route: for |kappa| >= 2 the exact series of _overlap (shift
    -3) times norm^2, for |kappa| = 1 the order-160 endpoint samples."""
    if not _exact_series(state):
        return _endpoint_samples(state, state)
    scale = state.norm * state.norm
    return tuple(result.scaled(scale) for result in _overlap(state, -3))


def radial_integral_quadrature(state: RelativisticState, kind: str = "sum") -> IntegrationResult:
    """Direct quadrature of int (f^2 +/- g^2)/r dr in eV^3.

    For |kappa| >= 2 (nu > 1) the value is exact: the Laguerre series of
    dirac._overlap for the weight x^(2nu-3) e^-x, with order = its n_r + 1
    terms, drift = its a-priori rounding bound and converged = drift <=
    1e-10.  For |kappa| = 1 the integral diverges at the origin; the value
    is the order-160 sample of the endpoint-substituted plain rule, with the
    gap to the order-80 sample as drift and converged=False.
    """
    if kind not in ("sum", "diff"):
        raise ValidationError(f"kind must be 'sum' or 'diff', got {kind!r}")
    return _radial_pair(state)[kind == "diff"]


def cross_radial_integral_closed(constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Closed-form 2S-2P cross integral: the 'diff' expression of the 2P1/2
    state (kappa = 1), at the n = 2, |kappa| = 1 energy the 2S1/2 state
    shares."""
    return radial_integral_closed(make_state(1, 1, 0.5, constants), "diff")


def cross_radial_integral_quadrature(
        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> IntegrationResult:
    """Direct quadrature of int (f_2S f_2P - g_2S g_2P)/r dr in eV^3.

    The two states are degenerate so they share the same x variable.  The
    sign convention of each state's normalization constant is positive,
    which fixes the (otherwise arbitrary) overall sign of this element.
    The x^(2nu-3) endpoint is the |kappa| = 1 one, so the integral diverges
    and, as in radial_integral_quadrature, the order-160 sample is returned.
    """
    return _endpoint_samples(make_state(1, -1, 0.5, constants),
                             make_state(1, 1, 0.5, constants))[1]


# ---------------------------------------------------------------------------
# Shifts, bounds, transition element
# ---------------------------------------------------------------------------


class ThetaBound(namedtuple("ThetaBound",
                            "theta_max_ev2 gev_scale coefficient_ev3 accuracy_hz")):
    """Upper bound on theta implied by one splitting coefficient: theta_max
    in eV^-2, gev_scale the X of "theta <= (X GeV)^-2", the coefficient in
    eV^3 and the accuracy in Hz."""

    __slots__ = ()


def theta_bound(shift_coefficient_ev3: float, accuracy_hz: float,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ThetaBound:
    """Largest theta compatible with |coefficient| theta <= E(accuracy).

    The accuracy is an ordinary frequency; its energy equivalent is one
    Planck quantum per cycle (see hz_to_ev).  Doubling the accuracy doubles
    the bound.
    """
    check_positive("shift coefficient", shift_coefficient_ev3, DomainError)
    check_positive("accuracy", accuracy_hz, DomainError)
    theta_max = hz_to_ev(accuracy_hz, constants) / shift_coefficient_ev3
    return ThetaBound(theta_max_ev2=theta_max, gev_scale=ev2_to_gev_scale(theta_max),
                      coefficient_ev3=shift_coefficient_ev3, accuracy_hz=accuracy_hz)


class ShiftReport(namedtuple("ShiftReport", (
        "label theta eigenvalues rho1 rho2 rho1_quadrature rho2_quadrature "
        "quadrature_converged quadrature_route quadrature_order quadrature_drift "
        "coefficients coefficients_quadrature shifts_eV theta_bound flagged notes"),
        defaults=((),))):
    """First-order shift data for one level at a given theta.

    A named tuple, so it compares, hashes, iterates and unpacks as the
    tuple of its fields.  Level.closed_form is a level's report at
    theta = 0; level_shift sets its theta and shifts_eV in a copy.

    Fields: label; theta (eV^-2); eigenvalues, the angular eigenvalues per
    unit theta; rho1 and rho2, the closed-form sum and diff integrals in
    eV^3, and rho1_quadrature and rho2_quadrature their quadrature values;
    quadrature_converged; quadrature_route, "laguerre_series" or
    "endpoint_sample"; quadrature_order, the series terms or the larger
    sample's order; quadrature_drift, the larger of the two rounding bounds
    or sample gaps; coefficients (closed-form route) and
    coefficients_quadrature in eV^3 per theta; shifts_eV, the closed-form
    coefficients times theta; theta_bound, a ThetaBound or None; flagged;
    notes, a tuple of strs.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        d = {
            "label": self.label,
            "theta_eV2": self.theta,
            "eigenvalues": list(self.eigenvalues),
            "rho1_closed_eV3": self.rho1,
            "rho2_closed_eV3": self.rho2,
            "rho1_quadrature_eV3": self.rho1_quadrature,
            "rho2_quadrature_eV3": self.rho2_quadrature,
            "quadrature_converged": self.quadrature_converged,
            "quadrature_route": self.quadrature_route,
            "quadrature_order": self.quadrature_order,
            "quadrature_drift": self.quadrature_drift,
            "coefficients_eV3": list(self.coefficients),
            "coefficients_quadrature_eV3": list(self.coefficients_quadrature),
            "shifts_eV": list(self.shifts_eV),
            "flagged": self.flagged,
            "notes": list(self.notes),
        }
        if self.theta_bound is not None:
            d["theta_bound_eV2"] = self.theta_bound.theta_max_ev2
            d["theta_bound_gev_scale"] = self.theta_bound.gev_scale
        return d


# the slots level_shift sets in a copy of a level's report
_THETA, _SHIFTS_EV = map(ShiftReport._fields.index, ("theta", "shifts_eV"))


def level_shift(level, theta: float,
                constants: PhysicalConstants | None = None) -> ShiftReport:
    """First-order shifts Delta E = -(e^2/2) rho1 lambda_k theta for a level.

    `level` is a Level or a spectroscopic label.  Both the closed-form and
    the quadrature radial integrals feed coefficient lists; the closed-form
    ones are the headline numbers and the report is flagged whenever the
    two routes disagree beyond RADIAL_AGREEMENT_TOL or the defining integral
    diverges (|kappa| = 1).  The shifts are those of the scalar piece alone:
    the vector piece's block between harmonics of equal l vanishes by
    parity, but its upper-lower block between l and l' = 2j - l is not
    zero, and nchydro does not compute it.  The report's theta_bound is the bound
    from the largest |coefficient| at the 2P Lamb-shift accuracy
    LAMB_ACCURACY_2P_HZ.

    Every field but theta and shifts_eV is independent of theta; the Level
    keeps them in its report at theta = 0 (Level.closed_form) after its
    first call, and every report on it shares the kept objects.  A warm
    |kappa| >= 2 call checks theta and the constants, copies the kept
    report's fields into a list once, sets theta and shifts_eV
    (coefficient * theta) there and builds the report with one _make, no
    _replace.  A |kappa| = 1 call
    also samples the divergent integrals again and forms their
    coefficients, flag and notes (Level.report_fields), which are not kept.

    A label is built with `constants` (default constants when None).  A
    Level carries its own constants, which set alpha and the bound's Hz
    conversion; an explicit `constants` that differs from them raises
    ValidationError.
    """
    check_theta(theta)
    if not isinstance(level, Level):
        level = Level.from_label(level, constants or DEFAULT_CONSTANTS)
    elif constants is not None and constants != level.constants:
        raise ValidationError(f"constants differ from those level {level.label} "
                              f"was built with")
    # via the class: 3.11 specializes no method lookup on a tuple subclass with a dict
    f = Level.report_fields(level)
    fields = list(f)
    fields[_THETA] = theta
    fields[_SHIFTS_EV] = tuple([c * theta for c in f.coefficients])
    return ShiftReport._make(fields)


def transition_element_2s2p(theta: float,
                            constants: PhysicalConstants = DEFAULT_CONSTANTS,
                            method: str = "closed_form") -> float:
    """Magnitude of the 2S1/2 <-> 2P1/2 vector-channel element in eV.

    Evaluates (e^4/4) times the 2/3 entry of the angular cross block times
    the radial cross integral (by the requested method).  Linear in theta.
    """
    check_theta(theta)
    if method == "closed_form":
        rho = cross_radial_integral_closed(constants)
    elif method == "quadrature":
        rho = cross_radial_integral_quadrature(constants).value
    else:
        raise ValidationError(f"method must be 'closed_form' or 'quadrature', got {method!r}")
    alpha = constants.alpha
    return (alpha * alpha / 4.0) * (2.0 / 3.0) * abs(rho) * theta

"""Independent brute-force validators.

Every closed form that the rest of the package evaluates is recomputed here
from its defining integral and compared:

* radial integrals: radial_integral_quadrature (or its 2S-2P cross
  counterpart) runs once; the closed form is recorded alongside.  The
  library's |kappa| >= 2 values and every state's normalization are exact
  Laguerre series, checked against an independent route: the n_r + 2 node
  Gauss rule (gauss_laguerre) for each integral's own weight x^beta e^-x,
  beta = 2nu - 3 for the radial integral and 2nu for the norm (also
  norm_self_consistency, every state), with the integrand from
  radial_polynomials; the rule is exact for these polynomials, so the gap
  between the routes is rounding.  For |kappa| = 1 and the 2S-2P cross
  element the endpoint-substituted plain rule (tested against numpy's
  Golub-Welsch rule) is sampled at orders 80 and 160 and the drift is the gap
  between the two samples; those integrals diverge at the origin, which
  is detected rather than hidden, and reported as a flagged inconsistency
  because the closed forms quote finite values there.
* angular blocks: the 16 x 16 sphere rule (specfun.sphere_rule, exact for
  these blocks) against the closed-form blocks, including the parity
  zeros.
* inverse-radius moments: closed forms against direct quadrature on the
  n-node Gauss-Laguerre rule, which is exact for every finite moment; the
  divergent (n, l, k) combinations must be detected on both paths, the
  numerical one by the gap between samples at 16 and 32 nodes.  A divergent
  moment's report has closed_form, quadrature and quad_drift None, not inf.

Every route here is pure Python and never loads numpy: the Gauss rules
and the sphere rule are float tuples, each quadrature sum is the math.fsum
of per-node floats, and a block is a tuple of complex rows.

Verdicts: "match" when everything agrees at tolerance, "mismatch" for an
unexpected failure, and "flagged_paper_inconsistency" for the documented
cases where the printed closed forms cannot agree with their definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .dirac import _exact_series, make_state, radial_polynomials
from .errors import DivergenceError, ValidationError
from .nonrel import r_inverse_moment, r_inverse_moment_quadrature
from .shifts import (Level, cross_radial_integral_closed, cross_radial_integral_quadrature,
                     lz_block, lz_block_numeric, radial_integral_closed,
                     radial_integral_quadrature, sigma_cross_block)
from .specfun import gauss_laguerre

__all__ = [
    "ValidationReport",
    "validate_radial",
    "validate_angular",
    "validate_moments",
    "run_all",
    "RADIAL_TOL",
    "ANGULAR_TOL",
    "MOMENT_TOL",
    "VERDICTS",
]

RADIAL_TOL = 1e-8
ANGULAR_TOL = 1e-10
MOMENT_TOL = 1e-9

VERDICT_MATCH = "match"
VERDICT_MISMATCH = "mismatch"
VERDICT_FLAGGED = "flagged_paper_inconsistency"
VERDICTS = (VERDICT_MATCH, VERDICT_FLAGGED, VERDICT_MISMATCH)


@dataclass(frozen=True)
class ValidationReport:
    """One validated quantity: the two routes, their disagreement, a verdict."""

    name: str
    closed_form: float | None
    quadrature: float | None
    rel_error: float
    quad_drift: float | None
    verdict: str
    note: str = ""


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Radial validators
# ---------------------------------------------------------------------------


def _gauss_integral(state, beta: float, sign: float) -> float:
    """int x^beta e^-x (P_f^2 + sign P_g^2) dx on the n_r + 2 node Gauss
    rule for its own weight x^beta e^-x, exact for the degree-2 n_r
    polynomials of radial_polynomials, summed by math.fsum."""
    def integrand(x):
        pf, pg = radial_polynomials(state, x)
        return pf * pf + sign * pg * pg

    return gauss_laguerre(state.n_r + 2, beta).integrate(integrand)


def _gauss_route(state, sign: float) -> float:
    """int (f^2 + sign g^2)/r dr in eV^3 on Gauss rules instead of the
    library's Laguerre series, for nu > 1: the defining integral
    (beta = 2 nu - 3) over the norm integral (beta = 2 nu)."""
    return ((2.0 * state.lam) ** 3 * _gauss_integral(state, 2.0 * state.nu - 3.0, sign)
            / _gauss_integral(state, 2.0 * state.nu, 1.0))


def validate_radial(n_r: int, kappa: int, kind: str = "sum",
                    constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ValidationReport:
    """Validate one radial integral by a second quadrature route.

    The quadrature runs once.  For |kappa| >= 2 its value, the Laguerre
    series, is compared with _gauss_route, and the relative gap between
    the two is the drift; for |kappa| = 1 and the cross element the drift
    is the gap between the samples at orders 80 and 160 of an integral that
    diverges at the origin.

    kind is "sum", "diff" or "cross" (the 2S-2P element; n_r/kappa ignored).
    The verdict reflects the robustness of the *quadrature* value; the
    closed form is recorded and its disagreement noted, since for several
    levels it cannot reproduce its own defining integral.
    """
    if kind == "cross":
        name = "radial cross 2S1/2-2P1/2"
        closed = cross_radial_integral_closed(constants)
        quad = cross_radial_integral_quadrature(constants)
        diverges = True  # |kappa| = 1 endpoint, same nonintegrable power
    else:
        state = make_state(n_r, kappa, 0.5, constants)
        name = f"radial {kind} {state.label}"
        closed = radial_integral_closed(state, kind)
        quad = radial_integral_quadrature(state, kind)
        diverges = not _exact_series(state)
    drift, converged = quad.drift, quad.converged
    if not diverges:
        drift = _rel(quad.value, _gauss_route(state, 1.0 if kind == "sum" else -1.0))
        converged = converged and drift <= RADIAL_TOL
    closed_gap = _rel(closed, quad.value)

    if converged and closed_gap <= RADIAL_TOL:
        verdict, note = VERDICT_MATCH, ""
    elif converged:
        verdict = VERDICT_FLAGGED
        note = (f"the closed form differs from the quadrature by {closed_gap:.2e}; "
                f"closed form kept verbatim")
    elif diverges:
        verdict = VERDICT_FLAGGED
        note = ("defining integral diverges at the origin (|kappa| = 1, "
                "2 nu - 3 < -1); sampled value reported, closed form quotes "
                "a finite number")
    else:
        verdict = VERDICT_MISMATCH
        note = (f"Laguerre series and Gauss rule disagree by {drift:.2e} "
                f"(series rounding bound {quad.drift:.2e})")
    return ValidationReport(name=name, closed_form=closed, quadrature=quad.value,
                            rel_error=closed_gap, quad_drift=drift,
                            verdict=verdict, note=note)


def radial_ratio_small_alpha(n_r: int = 0, kappa: int = -2,
                             alpha: float = 5.0e-4) -> float:
    """diff/sum quadrature ratio at small alpha; tends to 1 as g -> 0."""
    constants = DEFAULT_CONSTANTS.with_(alpha=alpha)
    state = make_state(n_r, kappa, 0.5, constants)
    num = radial_integral_quadrature(state, "diff").value
    den = radial_integral_quadrature(state, "sum").value
    return num / den


# ---------------------------------------------------------------------------
# Angular validators
# ---------------------------------------------------------------------------


def _block_report(name: str, numeric, reference) -> ValidationReport:
    """Compare two blocks given as tuples of complex rows."""
    gap = max(abs(a - b) for row_n, row_r in zip(numeric, reference)
              for a, b in zip(row_n, row_r))
    hermit = max(abs(numeric[i][k] - numeric[k][i].conjugate())
                 for i in range(len(numeric)) for k in range(len(numeric)))
    ok = gap <= ANGULAR_TOL and hermit <= 1e-12
    note = "" if ok else f"max entry deviation {gap:.2e}, hermiticity {hermit:.2e}"
    return ValidationReport(name=name, closed_form=max(abs(v) for row in reference for v in row),
                            quadrature=max(abs(v) for row in numeric for v in row),
                            rel_error=gap, quad_drift=hermit,
                            verdict=VERDICT_MATCH if ok else VERDICT_MISMATCH, note=note)


def validate_angular(label_a: str, label_b: str | None = None,
                     operator: str = "theta_L",
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ValidationReport:
    """Compare a sphere-quadrature angular block against its closed form.

    operator "theta_L" validates the z-axis orbital block of a level;
    "sigma_cross" validates the vector-channel block between two levels
    (or the parity zero within one level when label_b is omitted or equal).
    A sigma_cross pair with no closed-form reference raises ValidationError,
    as does any other operator.
    """
    level_a = Level.from_label(label_a, constants)
    if operator == "theta_L":
        numeric = lz_block_numeric(level_a.j, level_a.l).matrix
        reference = lz_block(level_a.j, level_a.l).matrix
        return _block_report(f"angular theta_L {label_a}", numeric, reference)
    if operator == "sigma_cross":
        level_b = Level.from_label(label_b, constants) if label_b else level_a
        numeric = sigma_cross_block(level_a, level_b).matrix
        if level_a.l == level_b.l:
            reference = tuple((0j,) * len(row) for row in numeric)
        elif {level_a.l, level_b.l} == {0, 1} and abs(level_a.j - 0.5) < 1e-9:
            # the S <-> P channel: 2/3 diag(1, -1) over increasing M,
            # sign set by which side is the S state
            entry = (1.0 if level_a.l == 0 else -1.0) * (2.0 / 3.0)
            reference = ((complex(entry), 0j), (0j, complex(-entry)))
        else:
            raise ValidationError(f"no closed-form sigma_cross block for {label_a} -> "
                                  f"{label_b}")
        name = f"angular sigma_cross {label_a}" + (f"->{label_b}" if label_b else " (within)")
        return _block_report(name, numeric, reference)
    raise ValidationError(f"operator must be 'theta_L' or 'sigma_cross', got {operator!r}")


# ---------------------------------------------------------------------------
# Moment validators
# ---------------------------------------------------------------------------


def _moment_diverges_numerically(n: int, l: int, k: int,
                                 constants: PhysicalConstants) -> bool:
    # positive drift between two quadrature orders marks a divergent moment
    lo = r_inverse_moment_quadrature(n, l, k, constants, order=16, check=False)
    hi = r_inverse_moment_quadrature(n, l, k, constants, order=32, check=False)
    return _rel(lo, hi) > MOMENT_TOL


def validate_moments(n: int, l: int,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> list[ValidationReport]:
    """Validate <r^-k> for k = 3, 4, 5 at one (n, l).

    Finite moments must match quadrature at tolerance; the integrand
    x^(2l+2-k) L^2 is a polynomial of degree 2n - k, so the n-node
    Gauss-Laguerre rule is exact for it.  Divergent ones must be rejected
    by the closed form and non-convergent numerically: their samples at 16
    and 32 nodes must differ by more than the tolerance.
    """
    reports = []
    for k in (3, 4, 5):
        name = f"moment <r^-{k}> (n={n}, l={l})"
        try:
            closed = r_inverse_moment(n, l, k, constants)
        except DivergenceError:
            detected = _moment_diverges_numerically(n, l, k, constants)
            reports.append(ValidationReport(
                name=name, closed_form=None, quadrature=None,
                rel_error=0.0, quad_drift=None,
                verdict=VERDICT_MATCH if detected else VERDICT_MISMATCH,
                note="divergent moment detected on both paths" if detected
                else "closed form rejected the moment but quadrature converged"))
            continue
        quad = r_inverse_moment_quadrature(n, l, k, constants)
        gap = _rel(closed, quad)
        reports.append(ValidationReport(
            name=name, closed_form=closed, quadrature=quad, rel_error=gap,
            quad_drift=0.0,
            verdict=VERDICT_MATCH if gap <= MOMENT_TOL else VERDICT_MISMATCH,
            note="" if gap <= MOMENT_TOL else f"closed vs quadrature gap {gap:.2e}"))
    return reports


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def run_all(constants: PhysicalConstants = DEFAULT_CONSTANTS) -> list[ValidationReport]:
    """Run every validator: radial integrals for n_r <= 3 and |kappa| <= 3,
    the angular blocks, and the moments for n <= 6.  The CLI's verify
    command serializes this."""
    reports: list[ValidationReport] = []
    for kappa in range(-3, 4):
        if kappa == 0:
            continue
        for n_r in range(0, 4):
            if n_r == 0 and kappa > 0:
                continue
            for kind in ("sum", "diff"):
                reports.append(validate_radial(n_r, kappa, kind, constants))
    reports.append(validate_radial(0, 0, "cross", constants))
    for label in ("2P1/2", "2P3/2", "3D3/2"):
        reports.append(validate_angular(label, operator="theta_L", constants=constants))
    reports.append(validate_angular("2P1/2", "2P1/2", "sigma_cross", constants))
    reports.append(validate_angular("2P3/2", "2P3/2", "sigma_cross", constants))
    reports.append(validate_angular("2S1/2", "2P1/2", "sigma_cross", constants))
    for n in range(1, 7):
        for l in range(0, n):
            reports.extend(validate_moments(n, l, constants))
    return reports


def norm_self_consistency(n_r: int, kappa: int,
                          constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """int (f^2 + g^2) r^2 dr of the normalized pair, which must be 1 to
    rounding: the norm integral that the library sums as an exact Laguerre
    series, here on the n_r + 2 node Gauss rule for its weight x^(2 nu) e^-x
    (exact for it, and independent of the series)."""
    state = make_state(n_r, kappa, 0.5, constants)
    return (state.norm ** 2 * _gauss_integral(state, 2.0 * state.nu, 1.0)
            / (2.0 * state.lam) ** 3)

"""Independent brute-force validators.

Every closed form that the rest of the package evaluates is recomputed here
from its defining integral and compared:

* radial integrals: radial_integral_quadrature (or its 2S-2P cross
  counterpart) runs once and its reported drift must be small; the closed
  form is recorded alongside.  For |kappa| >= 2 that is the exact
  generalized-weight rule, whose drift is the gap to one more node; it is
  not an independent route.  For |kappa| = 1 and the 2S-2P cross element
  the endpoint-substituted plain rule is sampled at orders 80 and 160 and
  the drift is the gap between the two samples; those integrals diverge at
  the origin, which is detected rather than hidden, and reported as a
  flagged inconsistency because the closed forms quote finite values
  there.
* angular blocks: the 16 x 16 sphere rule (specfun.sphere_rule, exact for
  these blocks) against the closed-form blocks, including the parity
  zeros.
* inverse-radius moments: closed forms against direct quadrature on the
  n-node Gauss-Laguerre rule, which is exact for every finite moment; the
  divergent (n, l, k) combinations must be detected on both paths, the
  numerical one by the gap between samples at 16 and 32 nodes.

Verdicts: "match" when everything agrees at tolerance, "mismatch" for an
unexpected failure, and "flagged_paper_inconsistency" for the documented
cases where the printed closed forms cannot agree with their definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .dirac import make_state, radial_polynomials
from .errors import DivergenceError
from .nonrel import r_inverse_moment, r_inverse_moment_quadrature
from .shifts import (Level, cross_radial_integral_closed, cross_radial_integral_quadrature,
                     lz_block, lz_block_numeric, radial_integral_closed,
                     radial_integral_quadrature, sigma_cross_block)
from .specfun import adaptive_weighted

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
    quad_drift: float
    verdict: str
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "closed_form": self.closed_form,
            "quadrature": self.quadrature,
            "rel_error": self.rel_error,
            "quad_drift": self.quad_drift if math.isfinite(self.quad_drift) else None,
            "verdict": self.verdict,
            "note": self.note,
        }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Radial validators
# ---------------------------------------------------------------------------


def validate_radial(n_r: int, kappa: int, kind: str = "sum",
                    constants: PhysicalConstants = DEFAULT_CONSTANTS,
                    tol: float = RADIAL_TOL) -> ValidationReport:
    """Validate one radial integral by its quadrature's own drift.

    The quadrature runs once.  For |kappa| >= 2 its drift is the gap
    between the exact n_r + 1 and n_r + 2 node rules; for |kappa| = 1 and
    the cross element it is the gap between the samples at orders 80 and
    160 of an integral that diverges at the origin.

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
        diverges = state.nu < 1.0
    closed_gap = _rel(closed, quad.value)

    if quad.converged and closed_gap <= tol:
        verdict, note = VERDICT_MATCH, ""
    elif quad.converged:
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
        note = f"quadrature failed to self-converge (drift {quad.drift:.2e})"
    return ValidationReport(name=name, closed_form=closed, quadrature=quad.value,
                            rel_error=closed_gap, quad_drift=quad.drift,
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


def _block_report(name: str, numeric: np.ndarray, reference: np.ndarray,
                  tol: float) -> ValidationReport:
    gap = float(np.max(np.abs(numeric - reference)))
    hermit = float(np.max(np.abs(numeric - numeric.conj().T)))
    ok = gap <= tol and hermit <= 1e-12
    note = "" if ok else f"max entry deviation {gap:.2e}, hermiticity {hermit:.2e}"
    return ValidationReport(name=name, closed_form=float(np.max(np.abs(reference))),
                            quadrature=float(np.max(np.abs(numeric))),
                            rel_error=gap, quad_drift=hermit,
                            verdict=VERDICT_MATCH if ok else VERDICT_MISMATCH, note=note)


def validate_angular(label_a: str, label_b: str | None = None,
                     operator: str = "theta_L",
                     constants: PhysicalConstants = DEFAULT_CONSTANTS,
                     tol: float = ANGULAR_TOL) -> ValidationReport:
    """Compare a sphere-quadrature angular block against its closed form.

    operator "theta_L" validates the z-axis orbital block of a level;
    "sigma_cross" validates the vector-channel block between two levels
    (or the parity zero within one level when label_b is omitted or equal).
    """
    level_a = Level.from_label(label_a, constants)
    if operator == "theta_L":
        numeric = lz_block_numeric(level_a.j, level_a.l).matrix
        reference = lz_block(level_a.j, level_a.l).matrix
        return _block_report(f"angular theta_L {label_a}", numeric, reference, tol)
    if operator == "sigma_cross":
        level_b = Level.from_label(label_b, constants) if label_b else level_a
        numeric = sigma_cross_block(level_a, level_b).matrix
        if level_a.l == level_b.l:
            reference = np.zeros_like(numeric)
        elif {level_a.l, level_b.l} == {0, 1} and abs(level_a.j - 0.5) < 1e-9:
            # the S <-> P channel: 2/3 diag(1, -1) over increasing M,
            # sign set by which side is the S state
            sign = 1.0 if level_a.l == 0 else -1.0
            reference = sign * (2.0 / 3.0) * np.diag([1.0, -1.0]).astype(complex)
        else:
            reference = sigma_cross_block(level_b, level_a).matrix.conj().T
        name = f"angular sigma_cross {label_a}" + (f"->{label_b}" if label_b else " (within)")
        return _block_report(name, numeric, reference, tol)
    raise ValueError(f"operator must be 'theta_L' or 'sigma_cross', got {operator!r}")


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
                     constants: PhysicalConstants = DEFAULT_CONSTANTS,
                     tol: float = MOMENT_TOL) -> list[ValidationReport]:
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
                rel_error=0.0, quad_drift=math.inf,
                verdict=VERDICT_MATCH if detected else VERDICT_MISMATCH,
                note="divergent moment detected on both paths" if detected
                else "closed form rejected the moment but quadrature converged"))
            continue
        quad = r_inverse_moment_quadrature(n, l, k, constants)
        gap = _rel(closed, quad)
        reports.append(ValidationReport(
            name=name, closed_form=closed, quadrature=quad, rel_error=gap,
            quad_drift=0.0,
            verdict=VERDICT_MATCH if gap <= tol else VERDICT_MISMATCH,
            note="" if gap <= tol else f"closed vs quadrature gap {gap:.2e}"))
    return reports


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def run_all(constants: PhysicalConstants = DEFAULT_CONSTANTS,
            max_n_r: int = 3, max_abs_kappa: int = 3,
            max_n_moments: int = 6) -> list[ValidationReport]:
    """Run every validator; the CLI's verify command serializes this."""
    reports: list[ValidationReport] = []
    for kappa in range(-max_abs_kappa, max_abs_kappa + 1):
        if kappa == 0:
            continue
        for n_r in range(0, max_n_r + 1):
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
    for n in range(1, max_n_moments + 1):
        for l in range(0, n):
            reports.extend(validate_moments(n, l, constants))
    return reports


def norm_self_consistency(n_r: int, kappa: int,
                          constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Norm of the normalized radial pair recomputed on an independent rule.

    Returns the norm integral, which must be 1 to high accuracy; uses the
    plain-weight route so it does not share discretization with the
    generalized-weight normalization.
    """
    state = make_state(n_r, kappa, 0.5, constants)
    nu = state.nu

    def integrand(x):
        pf, pg = radial_polynomials(state, x)
        with np.errstate(under="ignore"):
            return np.exp(2.0 * nu * np.log(x)) * (pf * pf + pg * pg)

    res = adaptive_weighted(integrand, beta=0.0, tol=1e-12, start=96, max_order=768)
    return state.norm ** 2 * res.value / (2.0 * state.lam) ** 3

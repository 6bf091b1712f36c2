"""Independent brute-force validators.

Every closed form that the rest of the package evaluates is recomputed here
from its defining integral and compared:

* radial integrals: shifts._radial_pair (or the 2S-2P cross quadrature)
  runs once per state, for the sum and diff kinds together; the closed
  form is recorded alongside.  The library's |kappa| >= 2 values and
  every state's normalization are exact Laguerre series, checked against
  an independent route: the n_r + 2 node
  Gauss rule (gauss_laguerre) for each integral's own weight x^beta e^-x,
  beta = 2nu - 3 for the radial integral and 2nu for the norm (also
  norm_self_consistency, every state), with the integrand from
  radial_polynomials evaluated once per node for the sum and the diff, and
  the norm integral taken once per state; the rule is exact for these
  polynomials, so the gap between the routes is rounding.  For |kappa| = 1
  and the 2S-2P cross element the endpoint-substituted plain rule (tested
  against numpy's Golub-Welsch rule) is sampled at orders 80 and 160 and
  the drift is the gap between the two samples; those integrals diverge
  at the origin, which is detected rather than hidden, and reported as a
  flagged inconsistency because the closed forms quote finite values
  there.
* angular blocks: sums over the 16-node Gauss-Legendre rule in cos(theta)
  (specfun._SPHERE_RULE), with the phi integral taken exactly, against the
  closed-form blocks, including the parity zeros; the rule is exact for
  these blocks.
* inverse-radius moments: closed forms against direct quadrature on the
  n-node Gauss-Laguerre rule, which is exact for every finite moment; the
  divergent (n, l, k) combinations must be detected on both paths, the
  numerical one by the gap between the endpoint samples at 80 and 160
  nodes (adaptive_sampled_endpoint, the same tables as the |kappa| = 1
  integrals).  Each rule evaluates the Laguerre polynomial of an (n, l)
  once per node for all its k.  A divergent moment's report has
  closed_form, quadrature and quad_drift None, not inf.

Every route here is pure Python and never loads numpy: the Gauss rules
and the sphere rule are float tuples, each quadrature sum is the math.fsum
of per-node floats, and a block is rows of real sums.

Verdicts: "match" when everything agrees at tolerance, "mismatch" for an
unexpected failure, and "flagged_paper_inconsistency" for the documented
cases where the printed closed forms cannot agree with their definitions.
"""

from __future__ import annotations

import math
from functools import partial
from collections import namedtuple
from operator import mul

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .dirac import _exact_series, make_state, radial_polynomials
from .errors import DivergenceError, ValidationError
from .nonrel import _moment_integrands, _moment_quadratures, r_inverse_moment
from .shifts import (Level, _radial_pair, cross_radial_integral_closed,
                     cross_radial_integral_quadrature, lz_block, lz_block_numeric,
                     radial_integral_closed, sigma_cross_block)
from .specfun import adaptive_sampled_endpoint, gauss_laguerre

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


class ValidationReport(namedtuple("ValidationReport", (
        "name closed_form quadrature rel_error quad_drift verdict note"), defaults=("",))):
    """One validated quantity: the two routes (closed_form and quadrature,
    floats or None), their disagreement (rel_error, a float; quad_drift, a
    float or None), a verdict and a note (strs)."""

    __slots__ = ()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Radial validators
# ---------------------------------------------------------------------------


def _gauss_sums(state, beta: float) -> tuple[float, float]:
    """(sum, diff): int x^beta e^-x (P_f^2 +/- P_g^2) dx on the n_r + 2 node
    Gauss rule for its own weight x^beta e^-x, exact for the degree-2 n_r
    polynomials of radial_polynomials, from one evaluation of them per
    node; each sum is math.fsum."""
    rule = gauss_laguerre(state.n_r + 2, beta)
    at = partial(radial_polynomials, state)
    squares = [(pf * pf, pg * pg) for pf, pg in map(at, rule.nodes)]
    return (math.fsum(map(mul, rule.weights, [f + g for f, g in squares])),
            math.fsum(map(mul, rule.weights, [f - g for f, g in squares])))


def _gauss_pair(state) -> tuple[float, float]:
    """(sum, diff): int (f^2 +/- g^2)/r dr in eV^3 on Gauss rules instead of
    the library's Laguerre series, for nu > 1: the defining integrals
    (beta = 2 nu - 3) over the norm integral (beta = 2 nu), taken once."""
    scale, norm = (2.0 * state.lam) ** 3, _gauss_sums(state, 2.0 * state.nu)[0]
    return tuple(scale * value / norm for value in _gauss_sums(state, 2.0 * state.nu - 3.0))


def validate_radial(n_r: int, kappa: int, kind: str = "sum",
                    constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ValidationReport:
    """Validate one radial integral by a second quadrature route.

    The quadrature runs once per state.  For |kappa| >= 2 its value, the
    Laguerre series, is compared with _gauss_pair, and the relative gap
    between the two is the drift; for |kappa| = 1 and the cross element
    the drift is the gap between the samples at orders 80 and 160 of an
    integral that diverges at the origin.

    kind is "sum", "diff" or "cross" (the 2S-2P element; n_r/kappa ignored).
    The verdict reflects the robustness of the *quadrature* value; the
    closed form is recorded and its disagreement noted, since for several
    levels it cannot reproduce its own defining integral.
    """
    if kind == "cross":
        return _radial_report("radial cross 2S1/2-2P1/2", cross_radial_integral_closed(constants),
                              cross_radial_integral_quadrature(constants), None)
    return _state_reports(make_state(n_r, kappa, 0.5, constants), (kind,))[0]


def _state_reports(state, kinds=("sum", "diff")) -> list[ValidationReport]:
    # validate_radial's report of each kind, all from one _radial_pair
    pair = _radial_pair(state)
    gauss = _gauss_pair(state) if _exact_series(state) else (None, None)
    return [_radial_report(f"radial {kind} {state.label}", radial_integral_closed(state, kind),
                           pair[kind == "diff"], gauss[kind == "diff"])
            for kind in kinds]


def _radial_report(name: str, closed: float, quad, gauss: float | None) -> ValidationReport:
    # gauss: the Gauss-rule value of a |kappa| >= 2 integral; None if it diverges
    drift, converged = quad.drift, quad.converged
    if gauss is not None:
        drift = _rel(quad.value, gauss)
        converged = converged and drift <= RADIAL_TOL
    closed_gap = _rel(closed, quad.value)

    if converged and closed_gap <= RADIAL_TOL:
        verdict, note = VERDICT_MATCH, ""
    elif converged:
        verdict = VERDICT_FLAGGED
        note = (f"the closed form differs from the quadrature by {closed_gap:.2e}; "
                f"closed form kept verbatim")
    elif gauss is None:
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


# ---------------------------------------------------------------------------
# Angular validators
# ---------------------------------------------------------------------------


def _block_report(name: str, numeric, reference) -> ValidationReport:
    """Compare two blocks given as tuples of rows of floats."""
    gap = max(abs(a - b) for row_n, row_r in zip(numeric, reference)
              for a, b in zip(row_n, row_r))
    asymmetry = max(abs(numeric[i][k] - numeric[k][i])
                    for i in range(len(numeric)) for k in range(len(numeric)))
    ok = gap <= ANGULAR_TOL and asymmetry <= 1e-12
    note = "" if ok else f"max entry deviation {gap:.2e}, asymmetry {asymmetry:.2e}"
    return ValidationReport(name=name, closed_form=max(abs(v) for row in reference for v in row),
                            quadrature=max(abs(v) for row in numeric for v in row),
                            rel_error=gap, quad_drift=asymmetry,
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
            reference = tuple((0.0,) * len(row) for row in numeric)
        elif {level_a.l, level_b.l} == {0, 1} and abs(level_a.j - 0.5) < 1e-9:
            # the S <-> P channel: 2/3 diag(1, -1) over increasing M,
            # sign set by which side is the S state
            entry = (1.0 if level_a.l == 0 else -1.0) * (2.0 / 3.0)
            reference = ((entry, 0.0), (0.0, -entry))
        else:
            raise ValidationError(f"no closed-form sigma_cross block for {label_a} -> "
                                  f"{label_b}")
        name = f"angular sigma_cross {label_a}" + (f"->{label_b}" if label_b else " (within)")
        return _block_report(name, numeric, reference)
    raise ValidationError(f"operator must be 'theta_L' or 'sigma_cross', got {operator!r}")


# ---------------------------------------------------------------------------
# Moment validators
# ---------------------------------------------------------------------------


def validate_moments(n: int, l: int,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> list[ValidationReport]:
    """Validate <r^-k> for k = 3, 4, 5 at one (n, l).

    Finite moments must match quadrature at tolerance; the integrand
    x^(2l+2-k) L^2 is a polynomial of degree 2n - k, so the n-node
    Gauss-Laguerre rule is exact for it.  Divergent ones must be rejected
    by the closed form and non-convergent numerically: their endpoint
    samples at 80 and 160 nodes (adaptive_sampled_endpoint) must differ by
    more than the tolerance.  Each rule evaluates L once per node for all
    the k it serves.
    """
    closed = {}
    for k in (3, 4, 5):
        try:
            closed[k] = r_inverse_moment(n, l, k, constants)
        except DivergenceError:
            pass
    finite, divergent = list(closed), [k for k in (3, 4, 5) if k not in closed]
    quads = dict(zip(finite, _moment_quadratures(n, l, finite, constants) if finite else ()))
    drifts = dict(zip(divergent, (adaptive_sampled_endpoint(integrand).drift
                                  for integrand in _moment_integrands(n, l, divergent))))
    reports = []
    for k in (3, 4, 5):
        name = f"moment <r^-{k}> (n={n}, l={l})"
        if k in drifts:
            detected = drifts[k] > MOMENT_TOL
            reports.append(ValidationReport(
                name=name, closed_form=None, quadrature=None,
                rel_error=0.0, quad_drift=None,
                verdict=VERDICT_MATCH if detected else VERDICT_MISMATCH,
                note="divergent moment detected on both paths" if detected
                else "closed form rejected the moment but quadrature converged"))
            continue
        gap = _rel(closed[k], quads[k])
        reports.append(ValidationReport(
            name=name, closed_form=closed[k], quadrature=quads[k], rel_error=gap,
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
    for kappa in (-3, -2, -1, 1, 2, 3):
        for n_r in range(0 if kappa < 0 else 1, 4):
            reports.extend(_state_reports(make_state(n_r, kappa, 0.5, constants)))
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
    return (state.norm ** 2 * _gauss_sums(state, 2.0 * state.nu)[0]
            / (2.0 * state.lam) ** 3)

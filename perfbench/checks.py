"""Output checks for every benchmark operation.

Each check returns None when the output is correct and a one-line reason
otherwise.  Values are compared with the reference recorded at the seed
commit (reference.json) to a relative tolerance of REL_TOL; theta-linear
fields are scaled by the request's theta.  The |kappa| = 1 quadrature
samples, the `flagged` flags and the verify verdict split are not pinned:
they depend on the quadrature order of a divergent integral.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-10
QUAD_REL_TOL = 1e-8   # convergent (|kappa| >= 2) quadrature route
GEV = 1.0e9

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

# Exponents (theta, lambda_qcd) of each nonrel JSON field; missing means (0, 0).
NONREL_SCALING = {
    "theta_eV2": (1, 0),
    "nc_shift_eV": (1, 0),
    "nc_shift_r3_eV": (1, 0),
    "nc_shift_r4_eV": (1, 0),
    "nc_shift_r5_eV": (1, 0),
    "theta_L_over_r3": (1, 0),
    "theta_L_over_r4": (1, 0),
    "theta_L_over_r5": (1, 0),
    "sigma_theta_over_r4": (1, 0),
    "sigma_r_theta_r_over_r6": (1, 0),
    "thetaL_sigmaL_over_r5": (1, 0),
    "thetaL_p2_over_r3": (1, 0),
    "lambda_qcd_eV": (0, 1),
    "s_state_shift_eV": (1, 1),
    "default_bound_theta_eV2": (0, -1),
    "default_bound_gev_scale": (0, 0.5),
}

VERDICTS = {"match", "flagged_paper_inconsistency"}


class _NonFinite:
    def __repr__(self):
        return "<non-finite>"


NON_FINITE = _NonFinite()


def parse_json(text: str):
    """Parse JSON; NaN and +/-Infinity become NON_FINITE so callers see them."""
    return json.loads(text, parse_constant=lambda _: NON_FINITE)


def _nonfinite_paths(obj, path=""):
    if obj is NON_FINITE:
        yield path
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _nonfinite_paths(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _nonfinite_paths(v, f"{path}[{i}]")


def close(a, b, rel=REL_TOL) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _compare(expected, got, path="") -> str | None:
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return f"{path}: keys differ"
        for k in expected:
            err = _compare(expected[k], got[k], f"{path}.{k}")
            if err:
                return err
        return None
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return f"{path}: length differs"
        for i, (e, g) in enumerate(zip(expected, got)):
            err = _compare(e, g, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(got, (int, float)) and not isinstance(got, bool) and close(expected, got):
            return None
        return f"{path}: {got!r} != reference {expected!r}"
    return None if expected == got else f"{path}: {got!r} != reference {expected!r}"


def _process_error(code: int, stderr: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    return None


def _json_payload(stdout: str, tolerated=lambda path: False):
    """(payload, reason, count of tolerated non-finite fields) of a schema-1 output."""
    try:
        payload = parse_json(stdout)
    except ValueError as exc:
        return None, f"output is not JSON ({exc})", 0
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        return None, "missing \"schema\": 1", 0
    bad = list(_nonfinite_paths(payload))
    kept = [p for p in bad if not tolerated(p)]
    if kept:
        return None, f"non-finite value at {kept[0]}", 0
    return payload, None, len(bad)


def _coefficients_bound(coefficients, accuracy_hz: float) -> float:
    return REFERENCE["ev_per_hz"] * accuracy_hz / max(abs(c) for c in coefficients)


def check_shift_dict(d: dict, label: str, theta: float) -> str | None:
    """A ShiftReport.as_dict() for `label` at `theta`."""
    ref = REFERENCE["levels"][label]
    if d["label"] != label or d["theta_eV2"] != theta:
        return f"shift {label}: label/theta echo wrong"
    expected = {"eigenvalues": ref["eigenvalues"],
                "rho1_closed_eV3": ref["rho1_closed_eV3"],
                "rho2_closed_eV3": ref["rho2_closed_eV3"],
                "coefficients_eV3": ref["coefficients_eV3"]}
    err = _compare(expected, {k: d[k] for k in expected}, f"shift {label}")
    if err:
        return err
    for key in ("rho1_quadrature_eV3", "rho2_quadrature_eV3"):
        if key in ref and not close(ref[key], d[key], QUAD_REL_TOL):
            return f"shift {label}: {key} {d[key]!r} != reference {ref[key]!r}"
    if len(d["shifts_eV"]) != len(d["coefficients_eV3"]):
        return f"shift {label}: shifts and coefficients differ in length"
    for c, s in zip(d["coefficients_eV3"], d["shifts_eV"]):
        if not close(c * theta, s):
            return f"shift {label}: shift {s!r} != coefficient x theta {c * theta!r}"
    if not any(ref["coefficients_eV3"]):  # S levels: no splitting, so no bound
        return None if "theta_bound_eV2" not in d else f"shift {label}: unexpected bound"
    bound = _coefficients_bound(ref["coefficients_eV3"], REFERENCE["shift_accuracy_hz"])
    if not close(d.get("theta_bound_eV2"), bound):
        return f"shift {label}: theta bound {d.get('theta_bound_eV2')!r} != {bound!r}"
    if not close(d.get("theta_bound_gev_scale"), 1.0 / (math.sqrt(bound) * GEV)):
        return f"shift {label}: GeV scale of the bound is wrong"
    return None


def check_cli(argv: list[str], code: int, stdout: str, stderr: str) -> str | None:
    """Check one cli_oneshot request's exit code and output."""
    err = _process_error(code, stderr)
    if err:
        return f"{argv[0]}: {err}"
    if argv[0] == "sweep":
        return _check_sweep(argv, stdout)
    payload, err, _ = _json_payload(stdout)
    if err:
        return f"{argv[0]}: {err}"
    if argv[0] == "levels":
        ref = REFERENCE["levels"][argv[1]]
        expected = {k: ref[k] for k in ("n_r", "kappa", "j", "l", "nu", "energy_eV",
                                        "binding_eV", "a")}
        expected["label"] = argv[1]
        return _compare(expected, {k: payload.get(k) for k in expected}, f"levels {argv[1]}")
    if argv[0] == "shift":
        return check_shift_dict(payload, argv[1], float(argv[3]))
    if argv[0] == "bound":
        return _check_bound(argv[1], float(argv[3]), payload)
    return _check_nonrel(argv, payload)


def _check_bound(label: str, accuracy_khz: float, payload: dict) -> str | None:
    mags = []
    for c in REFERENCE["levels"][label]["coefficients_eV3"]:
        if c and not any(close(abs(c), m, 1e-9) for m in mags):
            mags.append(abs(c))
    acc_hz = accuracy_khz * 1e3
    expected = []
    for m in mags:
        theta_max = REFERENCE["ev_per_hz"] * acc_hz / m
        expected.append({"coefficient_eV3": m, "theta_max_eV2": theta_max,
                         "gev_scale": 1.0 / (math.sqrt(theta_max) * GEV)})
    if payload.get("label") != label or payload.get("accuracy_khz") != accuracy_khz:
        return f"bound {label}: label/accuracy echo wrong"
    return _compare(expected, payload.get("bounds"), f"bound {label}")


def _check_nonrel(argv: list[str], payload: dict) -> str | None:
    opts = dict(a[2:].split("=", 1) for a in argv[1:] if a.startswith("--") and "=" in a)
    n, l = int(opts["n"]), int(opts["l"])
    two_j, two_mj = (int(opts[k].split("/")[0]) for k in ("j", "mj"))
    theta = float(opts["theta"])
    lam = float(opts.get("lambda-qcd", 1.0))
    ref = REFERENCE["nonrel"][f"{n},{l},{two_j},{two_mj}"]

    def scaled(key, value):
        if isinstance(value, dict):
            return {k: scaled(k, v) for k, v in value.items()}
        if value is None or isinstance(value, (bool, list, str)):
            return value
        a, b = NONREL_SCALING.get(key, (0, 0))
        return value * theta ** a * lam ** b if (a or b) else value

    expected = {k: scaled(k, v) for k, v in ref.items()}
    return _compare(expected, {k: v for k, v in payload.items() if k != "schema"},
                    f"nonrel {n},{l},{two_j}/2,{two_mj}/2")


def _check_sweep(argv: list[str], stdout: str) -> str | None:
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    lo, hi = float(opt["--theta-min"]), float(opt["--theta-max"])
    steps = int(opt["--steps"])
    labels = opt["--levels"].split(",")
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["theta_eV2", "level", "eigenvalue", "shift_eV"]:
        return "sweep: bad CSV header"
    expected = []
    for i in range(steps):
        theta = lo + (hi - lo) * i / (steps - 1)
        for label in labels:
            ref = REFERENCE["levels"][label]
            for eig, coeff in zip(ref["eigenvalues"], ref["coefficients_eV3"]):
                expected.append((theta, label, eig, coeff * theta))
    if len(rows) - 1 != len(expected):
        return f"sweep: {len(rows) - 1} rows, expected {len(expected)}"
    for row, (theta, label, eig, shift) in zip(rows[1:], expected):
        try:
            values = [float(row[0]), float(row[2]), float(row[3])]
        except (ValueError, IndexError):
            return f"sweep: unparsable row {row}"
        if not all(map(math.isfinite, values)):
            return f"sweep: non-finite value in row {row}"
        if row[1] != label or not (close(values[0], theta) and close(values[1], eig)
                                   and close(values[2], shift)):
            return f"sweep: row {row} != ({theta!r}, {label}, {eig!r}, {shift!r})"
    return None


def check_verify(code: int, stdout: str, stderr: str) -> tuple[str | None, int]:
    """Check one `verify --format json` run.

    Returns (reason or None, number of non-finite quad_drift fields).  The
    verify JSON writes `Infinity` as the quad_drift of divergent moments;
    that field is the only place a non-finite value is tolerated, and the
    count is reported so the defect stays visible.
    """
    err = _process_error(code, stderr)
    if not err:
        payload, err, tolerated = _json_payload(
            stdout, lambda p: p.startswith(".reports[") and p.endswith("].quad_drift"))
    if err:
        return f"verify: {err}", 0
    if payload.get("mismatches") != 0:
        return f"verify: {payload.get('mismatches')} mismatches", tolerated
    got = {}
    for r in payload["reports"]:
        if r["verdict"] not in VERDICTS:
            return f"verify: verdict {r['verdict']!r} for {r['name']}", tolerated
        got[r["name"]] = r["closed_form"]
    ref = REFERENCE["verify_closed_forms"]
    missing = sorted(set(ref) - set(got))
    if missing:
        return f"verify: report {missing[0]!r} missing", tolerated
    for name, value in ref.items():
        if not close(value, got[name]):
            return f"verify: closed form of {name!r} {got[name]!r} != {value!r}", tolerated
    return None, tolerated

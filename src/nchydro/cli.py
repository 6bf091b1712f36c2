"""Command-line interface.

Subcommands: levels, shift, bound, nonrel, sweep, verify.  Each handler
returns its exit code, its payload and, where the two-column table does not
fit, its own table text; only `main` reads --format and --out and writes.
Output formats are table (default; the CSV for sweep) and json
(schema-versioned).  Exit codes: 0 ok, 1 usage or validation problem or
inputs out of range (a payload holding inf or NaN is never written), 2
unexpected validation mismatch from the verify suite.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .constants import (DEFAULT_CONSTANTS, DEFAULT_LAMBDA_QCD_EV, GEV, LAMB_ACCURACY_2P_HZ,
                        PhysicalConstants, check_lambda_qcd, check_theta, finite_real)
from .dirac import dirac_binding_energy, make_state, parse_level_label
from .errors import ValidationError
from .nonrel import (SchrodingerState, expectation_table, fine_structure_shift,
                     nc_hyperfine_shift, s_state_bound, s_state_shift, schrodinger_energy)
from .oracle import VERDICTS, run_all
from .shifts import Level, level_shift, theta_bound

JSON_SCHEMA_VERSION = 1
SWEEP_HEADER = ["theta_eV2", "level", "eigenvalue", "shift_eV"]

_THETA_GEV_RE = re.compile(r"^\(?\s*([0-9.eE+-]+)\s*GeV\s*\)?\s*\^?\s*-2$")


@dataclass
class RunConfig:
    """Run-wide configuration, overridable from a JSON constants file."""

    m_e: float = DEFAULT_CONSTANTS.m_e
    alpha: float = DEFAULT_CONSTANTS.alpha
    lambda_qcd: float = DEFAULT_LAMBDA_QCD_EV

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError("constants file must hold a JSON object")
        unknown = set(data) - {"m_e", "alpha", "lambda_qcd"}
        if unknown:
            raise ValidationError(f"unknown constants keys: {sorted(unknown)}")
        cfg = cls()
        for key, value in data.items():
            if not finite_real(value):
                raise ValidationError(f"constants key {key!r} must be a finite number, "
                                      f"got {value!r}")
            setattr(cfg, key, value)
        return cfg

    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(m_e=self.m_e, alpha=self.alpha,
                                 hbar_eV_s=DEFAULT_CONSTANTS.hbar_eV_s)


def parse_theta(text: str) -> float:
    """theta in eV^-2, either a float or the shorthand '(X GeV)^-2'."""
    match = _THETA_GEV_RE.match(text.strip())
    try:
        value = float(match.group(1) if match else text)
    except ValueError:
        raise ValidationError(f"cannot parse theta {text!r}") from None
    if match:
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"GeV scale must be finite and positive in {text!r}")
        try:
            value = 1.0 / (value * GEV) ** 2
        except (OverflowError, ZeroDivisionError):
            raise ValidationError(f"GeV scale out of range in {text!r}") from None
    check_theta(value)
    return value


def parse_half_integer(text: str) -> float:
    """A number like '5/2' or '0.5'; argparse reports the ValidationError."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{text!r} is not finite")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract is 1.  A
    # negative fraction or exponent form such as -3/2 or -1e-19 is a value,
    # as -1.5 is, not an option.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?(/\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _global_flags() -> argparse.ArgumentParser:
    # No defaults here: the subcommand's copy of a flag that is not given
    # must not overwrite the value given before the subcommand.
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--constants-file", help="JSON file overriding m_e/alpha/lambda_qcd")
    common.add_argument("--format", choices=("table", "json"))
    common.add_argument("--out", help="write output to this path instead of stdout")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nchydro", parents=[_global_flags()],
                     description="Hydrogen levels and their noncommutative-space shifts")
    parser.set_defaults(constants_file=None, format="table", out=None)
    common = _global_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p_levels = sub.add_parser("levels", parents=[common], help="exact level energies")
    p_levels.add_argument("label", nargs="?", help="spectroscopic label like 2P3/2")
    p_levels.add_argument("--n-r", type=int, help="radial quantum number (with --kappa)")
    p_levels.add_argument("--kappa", type=int, help="angular quantum number (with --n-r)")

    p_shift = sub.add_parser("shift", parents=[common],
                             help="first-order theta shifts of a level")
    p_shift.add_argument("label")
    p_shift.add_argument("--theta", required=True,
                         help="theta in eV^-2 or '(X GeV)^-2'")

    p_bound = sub.add_parser("bound", parents=[common],
                             help="theta bound from a level splitting")
    p_bound.add_argument("label")
    p_bound.add_argument("--accuracy-khz", type=float, default=LAMB_ACCURACY_2P_HZ / 1e3)

    p_nonrel = sub.add_parser("nonrel", parents=[common], help="nonrelativistic corrections")
    p_nonrel.add_argument("--n", type=int, required=True)
    p_nonrel.add_argument("--l", type=int, required=True)
    p_nonrel.add_argument("--j", type=parse_half_integer, required=True)
    p_nonrel.add_argument("--mj", type=parse_half_integer, required=True)
    p_nonrel.add_argument("--theta", required=True)
    p_nonrel.add_argument("--lambda-qcd", type=float, default=None,
                          help="cutoff in eV for the l = 0 channel")

    p_sweep = sub.add_parser("sweep", parents=[common], help="shift table over a theta range")
    p_sweep.add_argument("--theta-min", required=True)
    p_sweep.add_argument("--theta-max", required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--levels", default="2P1/2,2P3/2",
                         help="comma-separated level labels")

    sub.add_parser("verify", parents=[common], help="run the validation suite")
    return parser


class Output(NamedTuple):
    """A handler's result: the JSON payload, the table text (None for the
    two-column table of the payload) and the exit code."""

    payload: dict
    table: str | None = None
    code: int = 0


def _table(payload: dict) -> str:
    """Key and repr(value) per row; the entries of a nested dict follow as
    '  <key>' rows."""
    rows = [(k, repr(v)) for k, v in payload.items() if not isinstance(v, dict)]
    rows += [(f"  <{k}>", repr(v)) for sub in payload.values() if isinstance(sub, dict)
             for k, v in sub.items()]
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in rows)


def cmd_levels(args, cfg: RunConfig) -> Output:
    constants = cfg.constants()
    if args.label is not None:
        n_r, kappa = parse_level_label(args.label)
    elif args.n_r is not None and args.kappa is not None:
        n_r, kappa = args.n_r, args.kappa
    else:
        raise ValidationError("give a label like 2P3/2, or both --n-r and --kappa")
    state = make_state(n_r, kappa, 0.5, constants)
    binding = dirac_binding_energy(n_r, kappa, constants)
    return Output({
        "label": state.label,
        "n_r": n_r,
        "kappa": kappa,
        "j": state.j,
        "l": state.l,
        "nu": state.nu,
        "energy_eV": state.energy,
        "binding_eV": binding,
        "a": state.a,
    })


def cmd_shift(args, cfg: RunConfig) -> Output:
    theta = parse_theta(args.theta)
    return Output(level_shift(args.label, theta, cfg.constants()).as_dict())


def cmd_bound(args, cfg: RunConfig) -> Output:
    if not (math.isfinite(args.accuracy_khz) and args.accuracy_khz > 0.0):
        raise ValidationError(f"accuracy-khz must be finite and positive, "
                              f"got {args.accuracy_khz}")
    constants = cfg.constants()
    accuracy_hz = args.accuracy_khz * 1e3
    report = level_shift(args.label, 0.0, constants)
    bounds = []
    for mag in dict.fromkeys(abs(c) for c in report.coefficients if c):
        b = theta_bound(mag, accuracy_hz, constants)
        bounds.append({
            "coefficient_eV3": mag,
            "theta_max_eV2": b.theta_max_ev2,
            "gev_scale": b.gev_scale,
        })
    payload = {"label": report.label, "accuracy_khz": args.accuracy_khz, "bounds": bounds,
               "flagged": report.flagged, "notes": list(report.notes)}
    lines = [f"level {report.label}, accuracy {args.accuracy_khz} kHz"]
    for b in bounds:
        lines.append(f"  coefficient {b['coefficient_eV3']:.6e} eV^3 -> "
                     f"theta <= {b['theta_max_eV2']:.6e} eV^-2  "
                     f"(= ({b['gev_scale']:.3f} GeV)^-2)")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return Output(payload, "\n".join(lines) + "\n")


def cmd_nonrel(args, cfg: RunConfig) -> Output:
    constants = cfg.constants()
    theta = parse_theta(args.theta)
    lam = args.lambda_qcd if args.lambda_qcd is not None else cfg.lambda_qcd
    check_lambda_qcd(lam)  # checked even where l > 0 leaves it unused
    state = SchrodingerState(n=args.n, l=args.l, j=args.j, m_j=args.mj,
                             constants=constants)
    head = {"n": args.n, "l": args.l, "j": args.j, "m_j": args.mj,
            "energy_eV": schrodinger_energy(args.n, constants), "theta_eV2": theta}
    if args.l == 0:
        bound = s_state_bound(lambda_qcd=lam, constants=constants)
        return Output({
            **head,
            "lambda_qcd_eV": lam,
            "s_state_shift_eV": s_state_shift(theta, lam, constants),
            "default_bound_theta_eV2": bound.theta_max_ev2,
            "default_bound_gev_scale": bound.gev_scale,
        })
    table = expectation_table(state, theta)
    hyper = nc_hyperfine_shift(state, theta)
    return Output({
        **head,
        "fine_structure_eV": fine_structure_shift(args.n, args.l, args.j, constants),
        "fine_structure_standard_eV": fine_structure_shift(
            args.n, args.l, args.j, constants, p4_sign_corrected=True),
        "nc_shift_eV": hyper.total,
        "nc_shift_r3_eV": hyper.r3_term,
        "nc_shift_r4_eV": hyper.r4_term,
        "nc_shift_r5_eV": hyper.r5_term,
        "nc_shift_r5_divergent": hyper.r5_divergent,
        "expectations": asdict(table),
        "divergent_entries": list(table.divergent),
    })


def cmd_sweep(args, cfg: RunConfig) -> Output:
    """Rows of shift = coefficient * theta from each level's closed-form
    eigenvalues and coefficients (Level.closed_form), which do not depend on
    theta; no quadrature runs."""
    constants = cfg.constants()
    theta_min = parse_theta(args.theta_min)
    theta_max = parse_theta(args.theta_max)
    if args.steps < 2:
        raise ValidationError("sweep needs steps >= 2")
    if theta_max < theta_min:
        raise ValidationError("theta-max must be >= theta-min")
    labels = [s.strip() for s in args.levels.split(",") if s.strip()]
    if not labels:
        raise ValidationError(f"--levels names no level: {args.levels!r}")
    levels = [Level.from_label(lbl, constants) for lbl in labels]
    rows = []
    for i in range(args.steps):
        theta = theta_min + (theta_max - theta_min) * i / (args.steps - 1)
        for level in levels:
            eigenvalues, _, _, coefficients, _ = level.closed_form
            for eig, coeff in zip(eigenvalues, coefficients):
                rows.append((theta, level.label, eig, coeff * theta))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    writer.writerows([repr(theta), label, repr(eig), repr(shift)]
                     for theta, label, eig, shift in rows)
    return Output({"rows": [dict(zip(SWEEP_HEADER, row)) for row in rows]}, buf.getvalue())


def cmd_verify(args, cfg: RunConfig) -> Output:
    reports = run_all(cfg.constants())
    counts = dict.fromkeys(VERDICTS, 0)
    for r in reports:
        counts[r.verdict] += 1
    mismatches = counts["mismatch"]
    lines = [f"[{r.verdict:>28}] {r.name}" + (f"  ({r.note})" if r.note else "")
             for r in reports]
    split = ", ".join(f"{n} {v}" for v, n in counts.items())
    lines.append(f"{len(reports)} checks, {mismatches} unexpected mismatches ({split})")
    payload = {"reports": [asdict(r) for r in reports],
               "mismatches": mismatches, "verdict_counts": counts}
    return Output(payload, "\n".join(lines) + "\n", 2 if mismatches else 0)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.constants_file) if args.constants_file else RunConfig()
        handler = {
            "levels": cmd_levels,
            "shift": cmd_shift,
            "bound": cmd_bound,
            "nonrel": cmd_nonrel,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
        }[args.command]
        result = handler(args, cfg)
        try:  # a result that overflowed is an error in either format
            json.dumps(result.payload, allow_nan=False)
        except ValueError:
            raise ArithmeticError("a result is not finite") from None
        if args.format == "json":
            text = json.dumps({"schema": JSON_SCHEMA_VERSION, **result.payload}, indent=2,
                              allow_nan=False) + "\n"
        else:
            text = result.table if result.table is not None else _table(result.payload)
        with (open(args.out, "w", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.write(text)
        return result.code
    except (ValidationError, OSError, ValueError) as exc:
        print(f"nchydro: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # overflow, underflow to 0 in a divisor, inf or NaN
        print(f"nchydro: error: the inputs are out of range ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

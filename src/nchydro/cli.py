"""Command-line interface.

Subcommands: levels, shift, bound, nonrel, sweep, verify.  Each handler
returns its exit code, its payload and, where the two-column table does not
fit, its own table text; only `main` reads --format and --out and writes.
Output formats are table (default; the CSV for sweep) and json
(schema-versioned).  Exit codes: 0 ok, 1 usage or validation problem or
inputs out of range (a payload holding inf or NaN is never written), 2
unexpected validation mismatch from the verify suite.

A handler imports the modules it computes with, so a request loads only
those: levels needs constants, errors, specfun and dirac; shift, bound and
sweep add shifts; nonrel adds shifts and nonrel; only verify loads oracle.
One option table parses the command line; no request imports a parser library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from .constants import (DEFAULT_CONSTANTS, DEFAULT_LAMBDA_QCD_EV, GEV, LAMB_ACCURACY_2P_HZ,
                        PhysicalConstants, check_lambda_qcd, check_positive, check_theta,
                        read_constants_file, shown)
from .dirac import dirac_binding_energy, make_state, parse_level_label
from .errors import ValidationError

JSON_SCHEMA_VERSION = 1
SWEEP_HEADER = ["theta_eV2", "level", "eigenvalue", "shift_eV"]

# compiled on first use (re's cache): only shift, nonrel and sweep parse a theta
_THETA_GEV_RE = r"^\(?\s*([0-9.eE+-]+)\s*GeV\s*\)?\s*\^?\s*-2$"


def parse_theta(text: str) -> float:
    """theta in eV^-2, either a float or the shorthand '(X GeV)^-2'."""
    match = re.match(_THETA_GEV_RE, text.strip())
    try:
        value = float(match.group(1) if match else text)
    except ValueError:
        raise ValidationError(f"cannot parse theta {shown(text)}") from None
    if match:
        check_positive("the GeV scale", value)
        try:
            value = 1.0 / (value * GEV) ** 2
        except (OverflowError, ZeroDivisionError):
            value = 0.0
        if not 0.0 < value < math.inf:  # theta is not a finite float > 0
            raise ValidationError(f"GeV scale out of range in {shown(text)}")
    check_theta(value)
    return value


def parse_half_integer(text: str) -> float:
    """A number like '5/2' or '0.5'; raises ValidationError otherwise."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {shown(text)}") from None
    except ValueError:
        raise ValidationError(f"cannot parse {shown(text)}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{shown(text)} is not finite")
    return value


def _format(text: str) -> str:
    if text not in ("table", "json"):
        raise ValidationError(f"invalid choice: {shown(text)} (choose from 'table', 'json')")
    return text


# The command line.  An option is flag -> (conversion, default or REQUIRED,
# help); a subcommand is name -> (summary, its label as usage writes it: "",
# "[LABEL]" or "LABEL", options).  Every subcommand takes the global flags too.
REQUIRED = ...
THETA_HELP = "theta in eV^-2 or '(X GeV)^-2'"
GLOBAL_FLAGS = {
    "--constants-file": (str, None, "JSON file overriding m_e/alpha/lambda_qcd"),
    "--format": (_format, "table", "output format: table (default) or json"),
    "--out": (str, None, "write output to this path instead of stdout")}
SUBCOMMANDS = {
    "levels": ("exact level energies", "[LABEL]", {
        "--n-r": (int, None, "radial quantum number (with --kappa)"),
        "--kappa": (int, None, "angular quantum number (with --n-r)")}),
    "shift": ("first-order theta shifts of a level", "LABEL", {
        "--theta": (str, REQUIRED, THETA_HELP)}),
    "bound": ("theta bound from a level splitting", "LABEL", {
        "--accuracy-khz": (float, LAMB_ACCURACY_2P_HZ / 1e3, "accuracy of the splitting, kHz")}),
    "nonrel": ("nonrelativistic corrections", "", {
        "--n": (int, REQUIRED, "principal quantum number, >= 1"),
        "--l": (int, REQUIRED, "orbital quantum number, 0 <= l < n"),
        "--j": (parse_half_integer, REQUIRED, "total angular momentum l +/- 1/2, as 5/2 or 2.5"),
        "--mj": (parse_half_integer, REQUIRED, "magnetic quantum number, |mj| <= j"),
        "--theta": (str, REQUIRED, THETA_HELP),
        "--lambda-qcd": (float, None, "cutoff in eV for the l = 0 channel")}),
    "sweep": ("shift table over a theta range", "", {
        "--theta-min": (str, REQUIRED, "first theta, " + THETA_HELP),
        "--theta-max": (str, REQUIRED, "last theta, " + THETA_HELP),
        "--steps": (int, REQUIRED, "number of theta values, >= 2"),
        "--levels": (str, "2P1/2,2P3/2", "comma-separated level labels")}),
    "verify": ("run the validation suite", "", {})}


def _help(command) -> str:
    """The usage line, then one row per subcommand (top level) or per option."""
    summary, label, options = SUBCOMMANDS.get(command) or (
        "Hydrogen levels and their noncommutative-space shifts", "",
        {name: (None, None, entry[0]) for name, entry in SUBCOMMANDS.items()})
    usage = ["usage: nchydro", command or "{" + ",".join(SUBCOMMANDS) + "}", label, "[options]"]
    rows = {label: (None, None, "spectroscopic label like 2P3/2")} if label else {}
    rows = {**rows, **options, **GLOBAL_FLAGS, "-h, --help": (None, None, "print this help")}
    width = max(map(len, rows))
    return f"{' '.join(filter(None, usage))}\n\n{summary}\n\n" + "".join(
        f"  {key:<{width}}  {text}{' (required)' * (default is REQUIRED)}\n"
        for key, (_, default, text) in rows.items())


def _usage_error(command, message: str):
    print(f"{_help(command).splitlines()[0]}\nnchydro: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def parse_args(argv=None) -> SimpleNamespace:
    """argv (sys.argv[1:] for None) as the handlers' namespace, over SUBCOMMANDS."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    command, kind, label, values, options = None, "", None, {}, GLOBAL_FLAGS
    while tokens:
        token = tokens.pop(0)
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        if token.startswith("--"):
            flag, equals, text = token.partition("=")
            if flag not in options:
                _usage_error(command, f"unrecognized option: {flag}")
            if not equals:  # the value is the next token, unless that is an option
                if not tokens or tokens[0].startswith("--"):
                    _usage_error(command, f"argument {flag}: expected one argument")
                text = tokens.pop(0)
            try:
                values[flag] = options[flag][0](text)
            except ValidationError as exc:
                _usage_error(command, f"argument {flag}: {exc}")
            except ValueError:  # from int or float
                name = options[flag][0].__name__
                _usage_error(command, f"argument {flag}: invalid {name} value: {shown(text)}")
        elif command is None:
            if token not in SUBCOMMANDS:
                _usage_error(None, f"argument command: invalid choice: {shown(token)}")
            command, kind = token, SUBCOMMANDS[token][1]
            options = {**GLOBAL_FLAGS, **SUBCOMMANDS[token][2]}
        elif label is not None or not kind:
            _usage_error(command, f"unrecognized argument: {token}")
        else:
            label = token
    missing = ["command"] * (command is None) + ["label"] * (kind == "LABEL" and label is None)
    missing += [flag for flag, (_, default, _) in options.items()
                if default is REQUIRED and flag not in values]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(command=command, label=label, **{
        flag[2:].replace("-", "_"): values.get(flag, entry[1]) for flag, entry in options.items()})


class Output(namedtuple("Output", "payload table code", defaults=(None, 0))):
    """A handler's result: the JSON payload (a dict), the table text (None
    for the two-column table of the payload) and the exit code."""

    __slots__ = ()


def _table(payload: dict) -> str:
    """Key and repr(value) per row; the entries of a nested dict follow as
    '  <key>' rows."""
    rows = [(k, repr(v)) for k, v in payload.items() if not isinstance(v, dict)]
    rows += [(f"  <{k}>", repr(v)) for sub in payload.values() if isinstance(sub, dict)
             for k, v in sub.items()]
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in rows)


def cmd_levels(args, constants: PhysicalConstants) -> Output:
    if args.label is not None and args.n_r is None and args.kappa is None:
        n_r, kappa = parse_level_label(args.label)
    elif args.label is None and args.n_r is not None and args.kappa is not None:
        n_r, kappa = args.n_r, args.kappa
    else:
        raise ValidationError("give either a label like 2P3/2 or both --n-r and --kappa")
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


def cmd_shift(args, constants: PhysicalConstants) -> Output:
    from .shifts import level_shift
    theta = parse_theta(args.theta)
    return Output(level_shift(args.label, theta, constants).as_dict())


def cmd_bound(args, constants: PhysicalConstants) -> Output:
    """One bound per distinct |coefficient| of the level, with its flag and
    notes, from the level's report at theta = 0 (Level.report_fields); no
    level_shift runs."""
    from .shifts import Level, theta_bound
    check_positive("accuracy-khz", args.accuracy_khz)
    accuracy_hz = args.accuracy_khz * 1e3
    report = Level.from_label(args.label, constants).report_fields()
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


def cmd_nonrel(args, constants: PhysicalConstants) -> Output:
    from .nonrel import (SchrodingerState, expectation_table, fine_structure_shift,
                         nc_hyperfine_shift, s_state_bound, s_state_shift, schrodinger_energy)
    theta = parse_theta(args.theta)
    lam = args.lambda_qcd  # --lambda-qcd, or the constants file's cutoff
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
        "expectations": table._asdict(),
        "divergent_entries": list(table.divergent),
    })


def cmd_sweep(args, constants: PhysicalConstants) -> Output:
    """Rows of shift = coefficient * theta from each level's closed-form
    eigenvalues and coefficients, read from its report at theta = 0
    (Level.closed_form); no quadrature runs."""
    import csv

    from .shifts import Level
    theta_min = parse_theta(args.theta_min)
    theta_max = parse_theta(args.theta_max)
    if args.steps < 2:
        raise ValidationError("sweep needs steps >= 2")
    if theta_max < theta_min:
        raise ValidationError("theta-max must be >= theta-min")
    labels = [s.strip() for s in args.levels.split(",") if s.strip()]
    if not labels:
        raise ValidationError(f"--levels names no level: {shown(args.levels)}")
    levels = [Level.from_label(lbl, constants) for lbl in labels]
    rows = []
    for i in range(args.steps):
        theta = theta_min + (theta_max - theta_min) * i / (args.steps - 1)
        for level in levels:
            report = level.closed_form
            for eig, coeff in zip(report.eigenvalues, report.coefficients):
                rows.append((theta, level.label, eig, coeff * theta))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    writer.writerows([repr(theta), label, repr(eig), repr(shift)]
                     for theta, label, eig, shift in rows)
    return Output({"rows": [dict(zip(SWEEP_HEADER, row)) for row in rows]}, buf.getvalue())


def cmd_verify(args, constants: PhysicalConstants) -> Output:
    from .oracle import VERDICTS, run_all
    reports = run_all(constants)
    counts = dict.fromkeys(VERDICTS, 0)
    for r in reports:
        counts[r.verdict] += 1
    mismatches = counts["mismatch"]
    lines = [f"[{r.verdict:>28}] {r.name}" + (f"  ({r.note})" if r.note else "")
             for r in reports]
    split = ", ".join(f"{n} {v}" for v, n in counts.items())
    lines.append(f"{len(reports)} checks, {mismatches} unexpected mismatches ({split})")
    payload = {"reports": [r._asdict() for r in reports],
               "mismatches": mismatches, "verdict_counts": counts}
    return Output(payload, "\n".join(lines) + "\n", 2 if mismatches else 0)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        constants, lambda_qcd = (read_constants_file(args.constants_file) if args.constants_file
                                 else (DEFAULT_CONSTANTS, DEFAULT_LAMBDA_QCD_EV))
        if args.command == "nonrel" and args.lambda_qcd is None:
            args.lambda_qcd = lambda_qcd
        handler = {
            "levels": cmd_levels,
            "shift": cmd_shift,
            "bound": cmd_bound,
            "nonrel": cmd_nonrel,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
        }[args.command]
        result = handler(args, constants)
        try:  # the JSON text; a result that overflowed is an error in either format
            encoded = json.dumps({"schema": JSON_SCHEMA_VERSION, **result.payload}, indent=2,
                                 allow_nan=False)
        except ValueError:
            raise ArithmeticError("a result is not finite") from None
        text = encoded + "\n" if args.format == "json" else result.table or _table(result.payload)
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

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nchydro
from nchydro.cli import GLOBAL_FLAGS, SUBCOMMANDS, main, parse_half_integer, parse_theta
from nchydro.constants import read_constants_file
from nchydro.errors import ValidationError
from nchydro.shifts import level_shift

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestThetaParsing:
    def test_plain_float(self):
        assert parse_theta("1e-19") == 1e-19

    def test_gev_shorthand(self):
        assert parse_theta("(4GeV)^-2") == pytest.approx(1.0 / (4e9) ** 2, rel=1e-14)
        assert parse_theta("(1.2 GeV)^-2") == pytest.approx(1.0 / (1.2e9) ** 2, rel=1e-14)

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_theta("four")
        with pytest.raises(ValidationError):
            parse_theta("-1e-19")

    def test_rejects_non_finite(self):
        for text in ("nan", "inf", "-inf", "1e999", "(0 GeV)^-2", "(1e-300 GeV)^-2"):
            with pytest.raises(ValidationError):
                parse_theta(text)


class TestHalfIntegerParsing:
    def test_values(self):
        assert parse_half_integer("5/2") == 2.5
        assert parse_half_integer("0.5") == 0.5

    def test_zero_denominator_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            parse_half_integer("1/0")

    @pytest.mark.parametrize("flag", ["--j", "--mj"])
    def test_zero_denominator_exits_1(self, capsys, flag):
        values = {"--j": "5/2", "--mj": "1/2", flag: "1/0"}
        with pytest.raises(SystemExit) as exc:
            main(["nonrel", "--n", "3", "--l", "2", "--j", values["--j"],
                  "--mj", values["--mj"], "--theta", "1e-19"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}" in captured.err

    @pytest.mark.parametrize("flag", ["--j", "--mj"])
    def test_non_finite_exits_1(self, capsys, flag):
        values = {"--j": "5/2", "--mj": "1/2", flag: "1e999"}
        with pytest.raises(SystemExit) as exc:
            main(["nonrel", "--n", "3", "--l", "2", "--j", values["--j"],
                  "--mj", values["--mj"], "--theta", "1e-19"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}" in captured.err

    @pytest.mark.parametrize("text, message", [("1e999", "'1e999' is not finite"),
                                               ("1/0", "zero denominator in '1/0'")])
    def test_argparse_prints_the_validation_error(self, capsys, text, message):
        with pytest.raises(SystemExit) as exc:
            main(["nonrel", "--n", "3", "--l", "2", "--j", text, "--mj", "1/2",
                  "--theta", "1e-19"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"error: argument --j: {message}\n" in captured.err

    @pytest.mark.parametrize("text", ["x", "5/x", "1/2/3", ""])
    def test_text_that_is_no_number_is_a_validation_error(self, text):
        with pytest.raises(ValidationError, match=f"cannot parse {text!r}"):
            parse_half_integer(text)

    @pytest.mark.parametrize("text", ["1e999", "-1e999", "nan", "inf/2"])
    def test_non_finite_is_a_validation_error(self, text):
        with pytest.raises(ValidationError, match="is not finite"):
            parse_half_integer(text)


class TestGlobalFlags:
    def test_flags_before_the_subcommand(self, capsys, tmp_path):
        out_file = tmp_path / "levels.json"
        code, out, _ = run_cli(capsys, "--format", "json", "--out", str(out_file),
                               "levels", "1S1/2")
        assert code == 0 and out == ""
        assert json.loads(out_file.read_text())["label"] == "1S1/2"

    def test_readme_documents_exactly_the_parser_flags(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("Global flags work before or after the subcommand:")[1]
        section = section.split("Exit codes:")[0]
        documented = set(re.findall(r"^\* `(--[a-z-]+)", section, re.MULTILINE))
        assert documented == set(GLOBAL_FLAGS)

    @pytest.mark.parametrize("first, last", [("table", "json"), ("json", "table")])
    def test_the_last_one_given_wins(self, capsys, first, last):
        code, out, _ = run_cli(capsys, "--format", first, "levels", "1S1/2", "--format", last)
        assert code == 0
        assert out.startswith("{") == (last == "json")

    def test_main_reads_sys_argv_without_an_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["nchydro", "levels", "1S1/2", "--format", "json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["label"] == "1S1/2"


USAGE_LINE = re.compile(r"usage: nchydro \S+( \[?LABEL\]?)? \[options\]")
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["levels", "2P3/2", "--bogus", "1"], "unrecognized option: --bogus"),
    # options are spelled in full: a unique prefix is not the option
    (["bound", "2P3/2", "--acc", "0.08"], "unrecognized option: --acc"),
    (["bound", "2P3/2", "--acc=0.08"], "unrecognized option: --acc"),
    (["shift", "2P3/2"], "the following arguments are required: --theta"),
    (["shift", "--theta", "1e-19"], "the following arguments are required: label"),
    (["nonrel", "--n", "3", "--l", "2", "--theta", "1e-19"],
     "the following arguments are required: --j, --mj"),
    (["levels", "2P3/2", "3D5/2"], "unrecognized argument: 3D5/2"),
    (["verify", "all"], "unrecognized argument: all"),
    (["shift", "2P3/2", "--theta"], "argument --theta: expected one argument"),
    # a token that begins with -- is never taken as a value
    (["shift", "2P3/2", "--theta", "--format", "json"], "argument --theta: expected one argument"),
    (["nonrel", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["nonrel", "--n", "3", "--l", "2", "--j", "x", "--mj", "1/2", "--theta", "1e-19"],
     "argument --j: cannot parse 'x'"),
    (["bound", "2P3/2", "--accuracy-khz", "fast"],
     "argument --accuracy-khz: invalid float value: 'fast'"),
    (["--format=csv", "levels", "2P3/2"],
     "argument --format: invalid choice: 'csv' (choose from 'table', 'json')"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no-arguments" for argv, _ in USAGE_ERRORS])
def test_usage_error_prints_usage_and_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert USAGE_LINE.fullmatch(usage), usage
    assert error == f"nchydro: error: {message}"


# A 1000-character value wherever a request quotes the value it rejects
# (--format's cut message, one byte longer, is in test_conventions.py)
LONG = "x" * 1000
LONG_VALUE_REQUESTS = {
    "label": ["levels", LONG],
    "label-letter": ["levels", "1" * 1000 + "X1/2"],
    "theta": ["shift", "2P3/2", "--theta", LONG],
    "theta-gev": ["shift", "2P3/2", "--theta", "(" + "0" * 1000 + "1e-200 GeV)^-2"],
    "half-integer": ["nonrel", "--n", "3", "--l", "2", "--j", LONG, "--mj", "1/2",
                     "--theta", "1e-19"],
    "int": ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", LONG],
    "float": ["bound", "2P3/2", "--accuracy-khz", LONG],
    "levels": ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "3",
               "--levels", "," * 1000],
    "command": [LONG],
}


@pytest.mark.parametrize("argv", LONG_VALUE_REQUESTS.values(), ids=LONG_VALUE_REQUESTS)
def test_long_value_is_cut_in_the_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("nchydro: error:")]
    assert code == 1 and captured.out == ""
    assert len(errors) == 1 and "..." in errors[0] and len(errors[0].encode()) <= 120, errors


@pytest.mark.parametrize("argv", [
    ["levels", "--n-r", "1", "--kappa", "-1"],
    ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "-5/2", "--theta", "1e-19"],
    ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "-2.5", "--theta", "1e-19"],
], ids=" ".join)
def test_a_value_may_begin_with_a_minus(capsys, argv):
    joined = [f"{a}={b}" for a, b in zip(argv[1::2], argv[2::2])]
    separate = run_cli(capsys, *argv, "--format", "json")
    assert separate == run_cli(capsys, argv[0], *joined, "--format", "json")
    assert separate[0] == 0 and separate[2] == ""


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_lists_the_subcommands(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: nchydro ")
    listed = re.findall(r"^  ([a-z]+)  +(.*)$", captured.out, re.MULTILINE)
    assert listed == [(name, entry[0]) for name, entry in SUBCOMMANDS.items()]
    assert len(listed) == 6


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_subcommand_help_lists_every_option(capsys, command, flag):
    # -h after the subcommand, after a global flag or an option's value, and
    # before an unknown option that is never read
    argv = (["--format", "json", command, flag] if command != "shift"
            else ["shift", "2P3/2", "--theta", "1e-19", flag, "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    summary, label, options = SUBCOMMANDS[command]
    assert captured.out.startswith(f"usage: nchydro {command} ")
    assert f"\n{summary}\n" in captured.out
    listed = dict(re.findall(r"^  (--[a-z-]+)  +(.*)$", captured.out, re.MULTILINE))
    assert set(listed) == set(options) | set(GLOBAL_FLAGS)
    for name, (_, _, text) in {**options, **GLOBAL_FLAGS}.items():
        assert listed[name].startswith(text)
    assert (f"\n  {label} " in captured.out) == bool(label)


@pytest.mark.parametrize("argv", [
    ["shift", "2P3/2", "--theta", "nan"],
    ["shift", "2P3/2", "--theta", "(1e999 GeV)^-2"],
    ["bound", "2P3/2", "--accuracy-khz", "nan"],
    ["sweep", "--theta-min", "0", "--theta-max", "inf", "--steps", "3"],
    ["nonrel", "--n", "1", "--l", "0", "--j", "1/2", "--mj", "1/2", "--theta", "1e-19",
     "--lambda-qcd", "inf"],
    ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "1/2", "--theta", "1e-19",
     "--lambda-qcd", "inf"],
    ["bound", "2P3/2", "--accuracy-khz", "inf"],
    ["bound", "2P3/2", "--accuracy-khz", "0"],
    ["bound", "2P3/2", "--accuracy-khz", "-1"],
    ["bound", "1S1/2", "--accuracy-khz", "nan"],
    ["bound", "1S1/2", "--accuracy-khz", "inf"],
    ["bound", "1S1/2", "--accuracy-khz", "0"],
    ["bound", "1S1/2", "--accuracy-khz", "-1"],
    ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "3", "--levels", ","],
    ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "3", "--levels", " , "],
    ["shift", "2P3/2", "--theta", "1e307"],
    ["sweep", "--theta-min", "0", "--theta-max", "1e307", "--steps", "2", "--levels", "3D5/2"],
    ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "1/2", "--theta", "1e307"],
    ["sweep", "--theta-min", "1e-19", "--theta-max", "0", "--steps", "3"],
    ["levels", "--n-r", "0", "--kappa", "-9"],
    # entries whose moments exist but overflow are an error, not moments
    # reported as null
    ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "1/2", "--theta", "1e300"],
    ["nonrel", "--n", "2", "--l", "1", "--j", "3/2", "--mj", "1/2", "--theta", "1e300"],
    # 1 / (1e300 GeV)^2 underflows to 0: a GeV scale out of range, not theta = 0
    ["shift", "2P3/2", "--theta", "(1e300 GeV)^-2"],
    # a label names the level alone: --n-r or --kappa beside it is an error
    ["levels", "2P3/2", "--n-r", "3", "--kappa", "2"],
    ["levels", "2P3/2", "--kappa", "-2"],
])
def test_non_finite_input_exits_1_without_output(capsys, argv):
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1, fmt
        assert out == "", fmt
        assert "nchydro: error:" in err, fmt


NONREL_3D52 = ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "1/2", "--theta", "1e-19"]
SWEEP_3D52 = ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "2",
              "--levels", "3D5/2"]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("constants,argv", [
    ({"m_e": 1e300}, ["levels", "2P3/2"]),
    ({"m_e": 1e300}, ["shift", "3D5/2", "--theta", "1e-19"]),
    ({"m_e": 1e300}, SWEEP_3D52),
    ({"m_e": 1e300}, NONREL_3D52),
    ({"m_e": 1e-300}, ["shift", "3D5/2", "--theta", "1e-19"]),
    ({"m_e": 1e-300}, ["bound", "3D5/2"]),
    ({"m_e": 1e-300}, SWEEP_3D52),
    ({"m_e": 1e-300}, NONREL_3D52),
    ({"alpha": 1e-300}, NONREL_3D52),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else " ".join(v))
def test_out_of_range_constants_exit_1_without_output(capsys, tmp_path, constants, argv, fmt):
    # finite constants whose results overflow, or divide by an underflowed
    # zero: one error line, no traceback, nothing on stdout or in --out
    constants_file, out_file = tmp_path / "constants.json", tmp_path / "out"
    constants_file.write_text(json.dumps(constants))
    code, out, err = run_cli(capsys, "--constants-file", str(constants_file), *argv,
                             "--format", fmt, "--out", str(out_file))
    assert code == 1 and out == ""
    assert not out_file.exists()
    assert err.startswith("nchydro: error:") and err.count("\n") == 1


ONE_REQUEST_PER_SUBCOMMAND = {
    "levels": ["levels", "2P3/2"],
    "shift": ["shift", "2P3/2", "--theta", "1e-19"],
    "bound": ["bound", "3D5/2"],
    "nonrel": ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "1/2",
               "--theta", "1e-19"],
    "sweep": ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "3"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", sorted(ONE_REQUEST_PER_SUBCOMMAND))
def test_one_complete_output_in_one_place(capsys, tmp_path, command, fmt):
    argv = [*ONE_REQUEST_PER_SUBCOMMAND[command], "--format", fmt]
    code, printed, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if fmt == "json":
        assert strict_json(printed)["schema"] == 1
    else:
        assert printed.endswith("\n") and not printed.startswith("{")
    out_file = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0 and out == "" and err == ""
    assert out_file.read_text(encoding="utf-8") == printed


def test_csv_format_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "3",
              "--format", "csv"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


class TestLevels:
    def test_binding_energy_1s(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "1S1/2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["binding_eV"] == pytest.approx(13.6058, abs=2e-4)

    def test_2p32_maps_to_expected_quantum_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "2P3/2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["n_r"] == 0
        assert abs(payload["kappa"]) == 2
        assert payload["j"] == 1.5

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "levels", "2Q1/2")
        assert code == 1
        assert "error" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_quantum_number_input(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--n-r", "1", "--kappa", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["label"] == "2P1/2"

    def test_levels_requires_some_input(self, capsys):
        code, _, err = run_cli(capsys, "levels")
        assert code == 1 and "label" in err


class TestShift:
    def test_json_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "shift", "2P3/2", "--theta", "1e-19",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        coeffs = payload["coefficients_eV3"]
        assert max(abs(c) for c in coeffs) == pytest.approx(1.578e6, rel=0.01)
        assert payload["flagged"] is True

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "shift", "2P1/2", "--theta", "1e-19")
        assert code == 0
        assert "coefficients" in out


class TestBound:
    def test_2p32_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "2P3/2", "--accuracy-khz", "0.08",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        scales = sorted(b["gev_scale"] for b in payload["bounds"])
        assert scales[0] == pytest.approx(1.2, rel=0.15)
        assert scales[1] == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("label, count", [("1S1/2", 0), ("2P3/2", 2), ("3D5/2", 3)])
    def test_distinct_magnitudes_in_first_appearance_order(self, capsys, label, count):
        code, out, _ = run_cli(capsys, "bound", label, "--format", "json")
        assert code == 0
        expected = []
        for c in level_shift(label, 0.0).coefficients:
            if c and abs(c) not in expected:
                expected.append(abs(c))
        magnitudes = [b["coefficient_eV3"] for b in json.loads(out)["bounds"]]
        assert magnitudes == expected
        assert len(magnitudes) == count


class TestNonrel:
    def test_d_state(self, capsys):
        code, out, _ = run_cli(capsys, "nonrel", "--n", "3", "--l", "2", "--j", "5/2",
                               "--mj", "1/2", "--theta", "1e-19", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["nc_shift_r5_divergent"] is False
        assert payload["expectations"]["pi_delta3"] == 0.0

    def test_s_state_channel(self, capsys):
        code, out, _ = run_cli(capsys, "nonrel", "--n", "1", "--l", "0", "--j", "1/2",
                               "--mj", "1/2", "--theta", "1e-19", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["s_state_shift_eV"] > 0.0
        assert payload["default_bound_gev_scale"] == pytest.approx(1.76, rel=0.02)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("argv", [
        ["--n", "2", "--l", "0", "--j", "1/2", "--mj=7"],
        ["--n", "2", "--l", "0", "--j", "3/2", "--mj", "1/2"],
        ["--n", "2", "--l", "1", "--j", "3/2", "--mj=1"],
    ], ids=["l0-mj-7", "l0-j-3/2", "integer-mj"])
    def test_quantum_numbers_checked_for_every_l(self, capsys, argv, fmt):
        code, out, err = run_cli(capsys, "nonrel", *argv, "--theta", "1e-19", "--format", fmt)
        assert code == 1 and out == ""
        assert "nchydro: error:" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_negative_fraction_is_its_own_argument(self, capsys, fmt):
        head = ["nonrel", "--n", "3", "--l", "2", "--j", "5/2"]
        tail = ["--theta", "1e-19", "--format", fmt]
        separate = run_cli(capsys, *head, "--mj", "-3/2", *tail)
        joined = run_cli(capsys, *head, "--mj=-3/2", *tail)
        assert separate == joined
        assert separate[0] == 0 and separate[1]

    def test_negative_theta_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "nonrel", "--n", "3", "--l", "2", "--j", "5/2",
                                 "--mj", "1/2", "--theta", "-1e-19")
        assert code == 1 and out == ""
        assert "nchydro: error: theta must be finite and >= 0" in err


class TestSweep:
    def test_zero_row_and_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--theta-min", "0", "--theta-max", "1e-19",
                             "--steps", "3", "--out", str(out_file))
        assert code == 0
        with open(out_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"theta_eV2", "level", "eigenvalue", "shift_eV"}
        zero_rows = [r for r in rows if float(r["theta_eV2"]) == 0.0]
        assert zero_rows and all(float(r["shift_eV"]) == 0.0 for r in zero_rows)
        # bit-identical round trip against a recomputation
        from nchydro.shifts import level_shift
        for row in rows:
            report = level_shift(row["level"], float(row["theta_eV2"]))
            idx = report.eigenvalues.index(float(row["eigenvalue"]))
            assert float(row["shift_eV"]) == report.shifts_eV[idx]

    def test_json_rows_equal_csv_rows(self, capsys):
        argv = ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "4",
                "--levels", "2P1/2,3D5/2"]
        _, table, _ = run_cli(capsys, *argv)
        _, text, _ = run_cli(capsys, *argv, "--format", "json")
        csv_rows = [list(row.values()) for row in csv.DictReader(io.StringIO(table))]
        json_rows = strict_json(text)["rows"]
        assert len(json_rows) == 4 * (2 + 6)
        assert csv_rows == [[repr(r["theta_eV2"]), r["level"], repr(r["eigenvalue"]),
                             repr(r["shift_eV"])] for r in json_rows]

    def test_bad_steps(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--theta-min", "0",
                               "--theta-max", "1e-19", "--steps", "1")
        assert code == 1
        assert "steps" in err


class TestConstantsFile:
    def test_override(self, capsys, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"alpha": 1e-3}))
        code, out, _ = run_cli(capsys, "levels", "1S1/2", "--format", "json",
                               "--constants-file", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["binding_eV"] == pytest.approx(510998.95 * 1e-6 / 2.0, rel=1e-3)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"alpha": 1e-3, "speed_of_light": 3e8}))
        code, _, err = run_cli(capsys, "levels", "1S1/2", "--constants-file", str(path))
        assert code == 1
        assert "unknown" in err

    @pytest.mark.parametrize("content", [
        '{"alpha": "0.007"}', '{"m_e": Infinity}', '{"lambda_qcd": NaN}',
        '{"alpha": true}', '[0.007]',
    ])
    def test_bad_value_is_a_validation_error(self, capsys, tmp_path, content):
        path = tmp_path / "constants.json"
        path.write_text(content)
        with pytest.raises(ValidationError):
            read_constants_file(str(path))
        code, out, err = run_cli(capsys, "levels", "1S1/2", "--constants-file", str(path))
        assert code == 1
        assert out == ""
        assert "nchydro: error:" in err

    def test_huge_value_gives_a_short_error_line(self, capsys, tmp_path):
        # m_e = 10**400, a 401-digit int: the error line quotes it cut short
        path = tmp_path / "constants.json"
        path.write_text('{"m_e": 1' + "0" * 400 + "}")
        code, out, err = run_cli(capsys, "levels", "2P3/2", "--constants-file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("nchydro: error: m_e must be finite and positive, got 1000")
        assert err.count("\n") == 1 and len(err) <= 100

    @pytest.mark.parametrize("content", ['{"lambda_qcd": -1}', '{"lambda_qcd": 0}'])
    @pytest.mark.parametrize("command", sorted(ONE_REQUEST_PER_SUBCOMMAND))
    def test_bad_cutoff_fails_every_subcommand(self, capsys, tmp_path, command, content):
        # the cutoff is checked where the file is read, not only by nonrel
        path = tmp_path / "constants.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, *ONE_REQUEST_PER_SUBCOMMAND[command],
                                 "--constants-file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("nchydro: error:") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "levels", "1S1/2", "--constants-file", "/no/such.json")
        assert code == 1


class TestVerify:
    def test_exit_zero_with_expected_flags(self, capsys):
        # flagged inconsistencies are expected and documented; exit stays 0
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["mismatches"] == 0
        verdicts = {r["verdict"] for r in payload["reports"]}
        assert "flagged_paper_inconsistency" in verdicts
        assert "match" in verdicts

    def test_exit_two_on_unexpected_mismatch(self, capsys, monkeypatch):
        from nchydro import oracle
        from nchydro.oracle import ValidationReport
        fake = [ValidationReport(name="forced", closed_form=1.0, quadrature=2.0,
                                 rel_error=1.0, quad_drift=0.0, verdict="mismatch")]
        # cmd_verify imports run_all from nchydro.oracle on each call
        monkeypatch.setattr(oracle, "run_all", lambda constants: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 2
        assert out.endswith("1 checks, 1 unexpected mismatches "
                            "(0 match, 0 flagged_paper_inconsistency, 1 mismatch)\n")

    def test_verdict_counts_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["schema"] == 1
        counts = payload["verdict_counts"]
        assert counts == {"match": 75, "flagged_paper_inconsistency": 37, "mismatch": 0}
        assert list(counts) == ["match", "flagged_paper_inconsistency", "mismatch"]
        tally = {v: 0 for v in counts}
        for r in payload["reports"]:
            tally[r["verdict"]] += 1
        assert tally == counts
        assert payload["mismatches"] == counts["mismatch"]

    def test_verdict_counts_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 113
        assert lines[-1] == ("112 checks, 0 unexpected mismatches "
                             "(75 match, 37 flagged_paper_inconsistency, 0 mismatch)")
        assert sum(line.startswith(f"[{'match':>28}]") for line in lines) == 75


def _readme_block(heading, fence):
    """The first fenced block after a README heading, without its fences."""
    section = README.read_text(encoding="utf-8").split(heading + "\n")[1]
    return section.split(fence + "\n")[1].split("```")[0]


README_COMMANDS = [shlex.split(line, comments=True)[1:]
                   for line in _readme_block("## Command line", "```").splitlines()
                   if line.startswith("nchydro ")]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if "--out" in argv:
        assert out == "" and (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert out


def test_readme_library_snippet_runs():
    exec(_readme_block("## Library entry points", "```python"), {})


# Every request: scalar arithmetic, the exact Laguerre series, the pure-Python
# |kappa| = 1 endpoint samples (2P1/2, 1S1/2), and verify's pure-Python Gauss
# rules and sphere blocks.
NUMPY_FREE_REQUESTS = [
    ["levels", "2P3/2"],
    ["nonrel", "--n", "3", "--l", "2", "--j", "5/2", "--mj", "1/2", "--theta", "1e-19"],
    ["shift", "3D5/2", "--theta", "1e-19"],
    ["bound", "4F7/2"],
    ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "3",
     "--levels", "2P3/2,3D5/2"],
    ["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "3",
     "--levels", "2P1/2,1S1/2"],
    ["shift", "2P1/2", "--theta", "1e-19"],
    ["bound", "1S1/2"],
    ["verify"],
]
KAPPA_1_LEVELS = ["1S1/2", "2S1/2", "2P1/2", "3S1/2", "3P1/2", "4S1/2", "4P1/2", "5S1/2",
                  "5P1/2"]


def _run_python(script: str, *args: str, options: tuple = ()) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter, started with options, that imports
    nchydro from this tree."""
    src = str(Path(nchydro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *options, "-c", script, *args], env=env,
                          capture_output=True, text=True)


def _loaded_modules(*argvs, prelude: str = "", options: tuple = ()) -> set[str]:
    """Run CLI requests in one fresh interpreter, started with options, after
    prelude; the names in sys.modules afterwards."""
    script = (prelude + "import contextlib, io, json, sys\n"
              "from nchydro.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(sys.modules)]))\n")
    result = _run_python(script, json.dumps(argvs), options=options)
    assert result.returncode == 0, result.stderr
    codes, modules = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs), argvs
    return set(modules)


@pytest.mark.parametrize("argv", NUMPY_FREE_REQUESTS, ids=" ".join)
def test_scalar_request_does_not_import_numpy(argv):
    assert "numpy" not in _loaded_modules(argv)


def test_kappa_1_shift_and_bound_do_not_import_numpy():
    # every |kappa| = 1 level, whose shift and bound take the endpoint samples
    assert "numpy" not in _loaded_modules(*[argv for label in KAPPA_1_LEVELS for argv in (
        ["shift", label, "--theta", "1e-19"], ["bound", label])])


def test_no_request_loads_dataclasses_or_inspect():
    # every value type is a named tuple; dataclasses would pull in inspect,
    # ast, dis and tokenize, milliseconds of every CLI process.  The
    # positive control: a script that imports dataclasses itself is seen to
    modules = {"dataclasses", "inspect"}
    assert not modules & _loaded_modules(*NUMPY_FREE_REQUESTS, [
        "nonrel", "--n", "2", "--l", "0", "--j", "1/2", "--mj", "1/2", "--theta", "1e-19"])
    assert modules <= _loaded_modules(["levels", "2P3/2"], prelude="import dataclasses\n")


def test_no_request_loads_typing_or_numbers():
    # every value type is a collections.namedtuple subclass, and the integer
    # and real checks take ints and floats without the numbers ABCs.  Under
    # -S, because a site-packages .pth file may import typing itself.  The
    # positive control: a prelude that imports each module is seen to
    modules = {"typing", "numbers"}
    assert not modules & _loaded_modules(*NUMPY_FREE_REQUESTS, [
        "nonrel", "--n", "2", "--l", "0", "--j", "1/2", "--mj", "1/2", "--theta", "1e-19"],
        options=("-S",))
    for module in modules:
        assert module in _loaded_modules(["levels", "2P3/2"], prelude=f"import {module}\n",
                                         options=("-S",))


def test_numpy_imported_first_is_detected():
    # the positive control: a script that imports numpy itself is seen to
    assert "numpy" in _loaded_modules(["levels", "2P3/2"], prelude="import numpy\n")


def test_import_does_not_load_argparse():
    # cli parses its own option table; argparse would pull in gettext and,
    # on its first message, locale.  The positive controls: a prelude that
    # imports argparse is seen to load it, and one that parses with it all three.
    result = _run_python("import sys\nimport nchydro.cli\nprint('argparse' in sys.modules)\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
    assert "argparse" in _loaded_modules(["levels", "2P3/2"], prelude="import argparse\n")
    modules = {"argparse", "gettext", "locale"}
    assert not modules & _loaded_modules(*NUMPY_FREE_REQUESTS, [
        "nonrel", "--n", "2", "--l", "0", "--j", "1/2", "--mj", "1/2", "--theta", "1e-19"])
    assert modules <= _loaded_modules(["levels", "2P3/2"], prelude=(
        "import argparse\nargparse.ArgumentParser().parse_args([])\n"))


# The nchydro modules a request loads: the CLI and what levels computes with,
# plus the modules of its subcommand.  verify, which loads every module, is
# the positive control.
LEVELS_MODULES = {"nchydro", "nchydro.cli", "nchydro.constants", "nchydro.errors",
                  "nchydro.specfun", "nchydro.dirac"}
SUBCOMMAND_MODULES = {"levels": set(), "shift": {"shifts"}, "bound": {"shifts"},
                      "sweep": {"shifts"}, "nonrel": {"shifts", "nonrel"},
                      "verify": {"shifts", "nonrel", "oracle"}}


@pytest.mark.parametrize("argv", NUMPY_FREE_REQUESTS + [
    ["nonrel", "--n", "2", "--l", "0", "--j", "1/2", "--mj", "1/2", "--theta", "1e-19"]],
    ids=" ".join)
def test_request_loads_only_its_modules(argv):
    loaded = {m for m in _loaded_modules(argv) if m == "nchydro" or m.startswith("nchydro.")}
    assert loaded == LEVELS_MODULES | {f"nchydro.{m}" for m in SUBCOMMAND_MODULES[argv[0]]}


# Every name nchydro exports, by defining module.
PUBLIC_NAMES = {
    "constants": ["DEFAULT_CONSTANTS", "DEFAULT_LAMBDA_QCD_EV", "LAMB_ACCURACY_1S_HZ",
                  "LAMB_ACCURACY_2P_HZ", "PhysicalConstants", "ev2_to_gev_scale",
                  "hz_to_ev"],
    "dirac": ["RelativisticState", "dirac_binding_energy", "dirac_energy", "kappa_to_lj",
              "level_label", "lj_to_kappa", "make_state", "parse_level_label", "radial_fg"],
    "errors": ["DivergenceError", "DomainError", "ValidationError"],
    "nonrel": ["ExpectationTable", "HyperfineShift", "SchrodingerState", "expectation_table",
               "fine_structure_shift", "nc_hyperfine_shift", "r_inverse_moment",
               "r_inverse_moment_quadrature", "s_state_bound", "s_state_shift",
               "schrodinger_energy"],
    "oracle": ["ValidationReport", "run_all", "validate_angular", "validate_moments",
               "validate_radial"],
    "shifts": ["AngularBlock", "Level", "ShiftReport", "ThetaBound",
               "cross_radial_integral_closed", "cross_radial_integral_quadrature",
               "level_shift", "lz_block", "lz_block_numeric", "radial_integral_closed",
               "radial_integral_quadrature", "sigma_cross_block", "theta_bound",
               "transition_element_2s2p"],
    "specfun": ["IntegrationResult", "QuadratureRule", "gauss_laguerre", "laguerre_general",
                "spherical_harmonic", "spinor_harmonic"],
}


def test_public_names_resolve_on_first_use():
    # a fresh interpreter, so each name goes through the module __getattr__;
    # a submodule's own name resolves to the submodule, and every name that
    # dir() lists resolves, so the lazy table names no deleted definition
    script = ("import importlib, json, sys\n"
              "import nchydro\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('nchydro.'))\n"
              "listed = dir(nchydro)\n"
              "wrong = []\n"
              "for module, names in json.loads(sys.argv[1]).items():\n"
              "    for name in [module, *names]:\n"
              "        ns = {}\n"
              "        exec(f'from nchydro import {name} as value', ns)\n"
              "        defining = importlib.import_module(f'nchydro.{module}')\n"
              "        expected = defining if name == module else getattr(defining, name)\n"
              "        if ns['value'] is not expected or getattr(nchydro, name) is not expected:\n"
              "            wrong.append(name)\n"
              "        if name not in listed:\n"
              "            wrong.append(f'{name} not in dir')\n"
              "for name in listed:\n"
              "    if not hasattr(nchydro, name):\n"
              "        wrong.append(f'{name} in dir but not resolved')\n"
              "print(json.dumps([loaded, wrong]))\n")
    result = _run_python(script, json.dumps(PUBLIC_NAMES))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], []]


def test_version_is_a_plain_attribute():
    assert vars(nchydro)["__version__"] == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nchydro.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from nchydro import no_such_name", {})
    assert not hasattr(nchydro, "_no_such_name")


def test_verify_runs_with_numpy_blocked():
    # sys.modules["numpy"] = None makes any import of numpy raise ImportError
    result = _run_python("import sys\nsys.modules['numpy'] = None\n"
                         "from nchydro.cli import main\n"
                         "sys.exit(main(['verify', '--format', 'json']))\n")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert len(payload["reports"]) == 112
    assert payload["verdict_counts"] == {"match": 75, "flagged_paper_inconsistency": 37,
                                         "mismatch": 0}

"""cli.to_json, the CLI's JSON writer, against json.dumps(value, indent=2,
allow_nan=False) as the reference: the same text, byte for byte, on the
payload of every request of a fixed set that runs each subcommand, and on a
table of edge cases.  A float that is not finite raises ValueError, as json
does; anything but the payload types raises TypeError."""

import importlib.util
import itertools
import json
import math
from pathlib import Path

import pytest

from nchydro import cli
from nchydro.cli import SUBCOMMANDS, to_json

OPS = Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"


def _ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops", OPS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _requests() -> list[list[str]]:
    """levels, shift at two thetas and bound at two accuracies for each of
    the 25 levels with n <= 5, two sweeps, nonrel for every nonrelativistic
    state with n <= 5, the first 60 benchmark requests of three seeds, and
    verify."""
    ops = _ops()
    requests = [argv for label in ops.LABELS for argv in (
        ["levels", label], ["shift", label, "--theta", "1e-19"],
        ["shift", label, "--theta", "(4 GeV)^-2"], ["bound", label],
        ["bound", label, "--accuracy-khz", "3.5"])]
    requests += [["sweep", "--theta-min", "0", "--theta-max", "1e-19", "--steps", "5"],
                 ["sweep", "--theta-min", "1e-20", "--theta-max", "1e-18", "--steps", "7",
                  "--levels", "2P3/2,3D5/2,1S1/2"]]
    requests += [["nonrel", f"--n={n}", f"--l={l}", f"--j={two_j}/2", f"--mj={two_mj}/2",
                  "--theta=1e-19"] for n, l, two_j, two_mj in ops.NONREL_STATES]
    requests += [argv for seed in (11, 271, 272)
                 for argv in itertools.islice(ops.cli_requests(seed), 60)]
    return requests + [["verify"]]


def test_every_payload_is_written_as_json_writes_it(capsys, monkeypatch):
    payloads = []

    def recording(handler):
        def run(args, constants):
            result = handler(args, constants)
            payloads.append(result.payload)
            return result
        return run

    for command in SUBCOMMANDS:
        monkeypatch.setattr(cli, f"cmd_{command}", recording(getattr(cli, f"cmd_{command}")))
    requests = _requests()
    assert {argv[0] for argv in requests} == set(SUBCOMMANDS)
    for argv in requests:
        code = cli.main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        expected = json.dumps({"schema": 1, **payloads[-1]}, indent=2, allow_nan=False)
        assert code == 0 and out == expected + "\n", argv
    assert len(payloads) == len(requests)


EDGE_CASES = {
    "quote": '"',
    "backslash": "\\",
    "controls": [chr(code) for code in range(0x20)],
    "all-controls": "".join(map(chr, range(0x20))),
    "delete": "\x7f",
    "ascii": "".join(map(chr, range(0x20, 0x7f))),
    "latin-1": "caf\xe9 \xff \xb1 \x80 \xa0",
    "bmp": "\u03b8 \u20ac \ud7ff \ue000 \ufffd \uffff",
    "astral": "\U00010000 \U0001d703 \U0001f600 \U0010ffff",
    "lone-surrogate": "\ud800",
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "empty-str": "",
    "nested": {"a": [{"b": ()}, [[]], {}], "c": {"d": {"e": [1, [2, [3]]]}}},
    "tuples": (1, (2.5, "x"), ()),
    "keys": {"\xe9\n": 1, "": 2, '"': 3, "\U0001f600": 4},
    "negative-zero": -0.0,
    "subnormal": 5e-324,
    "largest": 1e308,
    "float-max": 1.7976931348618157e308,
    "floats": [0.1, -2.5e-300, 1e16, 123456789.0, 1e-7],
    "huge-int": 10**400,
    "negative-int": -(2**70),
    "true-and-1": [True, 1, False, 0, None, 1.0],
    "scalar-none": None,
    "scalar-true": True,
}


@pytest.mark.parametrize("value", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_case_is_written_as_json_writes_it(value):
    assert to_json(value) == json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, {"x": (math.nan,)}]],
                         ids=["nan", "inf", "-inf", "nested-nan"])
def test_non_finite_float_raises_value_error(value):
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        to_json(value)


# json itself takes int, float, bool and None keys; the writer takes only the
# str keys of the payloads
NOT_PAYLOADS = {"bytes": b"x", "set": {1.5}, "object": object(), "complex": 1j,
                "nested-frozenset": [frozenset()], "int-key": {1: "x"}, "none-key": {None: 1}}


@pytest.mark.parametrize("value", NOT_PAYLOADS.values(), ids=NOT_PAYLOADS)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        to_json(value)

"""The package's value types, every one a named tuple: a constants.Record.

Each named tuple's field names, order and defaults are pinned here; it
compares, hashes, iterates, unpacks and matches as the tuple of its fields,
and rejects the arguments collections.namedtuple rejects.  A
Level also keeps its closed_form memo, outside the fields.
PhysicalConstants and SchrodingerState check their fields on every
construction path: the constructor, with_, _replace, _make, copy,
deepcopy and pickle (protocol 2 and up).
"""

import copy
import dataclasses
import math
import pickle
import re
from functools import partial
from pathlib import Path

import pytest

import nchydro
from nchydro.constants import DEFAULT_CONSTANTS, PhysicalConstants
from nchydro.dirac import make_state
from nchydro.errors import ValidationError
from nchydro.nonrel import SchrodingerState, expectation_table, nc_hyperfine_shift
from nchydro.oracle import validate_radial
from nchydro.shifts import Level, lz_block, radial_integral_quadrature, theta_bound
from nchydro.specfun import gauss_laguerre

README = Path(__file__).resolve().parents[1] / "README.md"

# one instance of each named tuple but ShiftReport (tests/test_shifts.py),
# its fields and their defaults
INSTANCES = {
    "PhysicalConstants": (lambda: DEFAULT_CONSTANTS, ("m_e", "alpha", "hbar_eV_s"),
                          {"m_e": 510998.95, "alpha": 7.2973525693e-3,
                           "hbar_eV_s": 6.582119569e-16}),
    "QuadratureRule": (lambda: gauss_laguerre(3, 0.5), ("nodes", "weights", "beta"),
                       {"beta": 0.0}),
    "IntegrationResult": (lambda: radial_integral_quadrature(make_state(1, -2, 0.5)),
                          ("value", "order", "drift", "converged"), {}),
    "AngularBlock": (lambda: lz_block(1.5, 1), ("label", "basis", "matrix"), {}),
    "ThetaBound": (lambda: theta_bound(1.0, 80.0),
                   ("theta_max_ev2", "gev_scale", "coefficient_ev3", "accuracy_hz"), {}),
    "SchrodingerState": (lambda: SchrodingerState(n=3, l=2, j=2.5, m_j=0.5),
                         ("n", "l", "j", "m_j", "constants"),
                         {"constants": DEFAULT_CONSTANTS}),
    "ExpectationTable": (lambda: expectation_table(SchrodingerState(3, 2, 2.5, 0.5), 1.0e-19),
                         ("p4_printed", "p4_physical", "theta_L_over_r3", "theta_L_over_r4",
                          "theta_L_over_r5", "sigma_theta_over_r4", "sigma_r_theta_r_over_r6",
                          "sigma_L_over_r3", "thetaL_sigmaL_over_r5", "pi_delta3",
                          "thetaL_p2_over_r3", "l_z", "s_z"), {}),
    "HyperfineShift": (lambda: nc_hyperfine_shift(SchrodingerState(2, 1, 1.5, 0.5), 1.0e-19),
                       ("total", "r3_term", "r4_term", "r5_term"), {}),
    "ValidationReport": (lambda: validate_radial(0, -2),
                         ("name", "closed_form", "quadrature", "rel_error", "quad_drift",
                          "verdict", "note"), {"note": ""}),
    "RelativisticState": (lambda: make_state(1, -2, 0.5),
                          ("n_r", "kappa", "M", "constants", "j", "l", "nu", "energy", "a",
                           "lam", "shape", "norm"), {}),
    "Level": (lambda: Level.from_label("2P3/2"),
              ("label", "n_r", "kappa", "j", "l", "states"), {}),
}


def test_readme_names_every_named_tuple():
    # the sentence that lists them, against every exported class with _fields
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"These value types are named tuples: (.*?)\.", text).group(1)
    named = set(re.findall(r"`(\w+)`", sentence))
    exported = {name for name in dir(nchydro) if isinstance(getattr(nchydro, name), type)
                and issubclass(getattr(nchydro, name), tuple)}
    assert named == exported == {*INSTANCES, "ShiftReport"}


@pytest.mark.parametrize("name", INSTANCES)
def test_named_tuple_keeps_its_fields(name):
    make, fields, defaults = INSTANCES[name]
    value = make()
    assert type(value) is getattr(nchydro, name)
    assert type(value)._fields == fields
    assert type(value)._field_defaults == defaults
    assert repr(value).startswith(f"{name}({fields[0]}=")


@pytest.mark.parametrize("name", INSTANCES)
def test_named_tuple_behaves_as_its_tuple(name):
    value = INSTANCES[name][0]()
    first, *rest = value
    assert (first, *rest) == tuple(value) == tuple(getattr(value, f) for f in value._fields)
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    assert value == copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value))
    assert value._replace() == value and list(value._asdict()) == list(value._fields)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], first)
    if name == "Level":  # its one instance dict, for the closed_form memo
        assert vars(value) == {}
    else:
        with pytest.raises(AttributeError):
            value.__dict__
    with pytest.raises(TypeError):
        dataclasses.replace(value)
    with pytest.raises(TypeError):
        dataclasses.asdict(value)
    record_type = type(value)
    match value:  # a positional pattern binds the fields in order
        case record_type(one, two, three):
            assert (one, two, three) == value[:3]
        case _:
            pytest.fail("no positional match")


@pytest.mark.parametrize("name", INSTANCES)
def test_named_tuple_rejects_what_namedtuple_rejects(name):
    value = INSTANCES[name][0]()
    cls, fields = type(value), value._fields
    required = len(fields) - len(cls._field_defaults)
    calls = {
        "too-many": lambda: cls(*value, None),
        "unknown-keyword": lambda: cls(*value, bogus=1),
        "duplicate": lambda: cls(*value[:1], **{fields[0]: value[0]}),
        "duplicate-last": lambda: cls(*value, **{fields[-1]: value[-1]}),
        "_make-long": lambda: cls._make([*value, None]),
        "_make-short": lambda: cls._make(value[:-1]),
    }
    if required:  # PhysicalConstants has a default for every field
        calls["too-few"] = lambda: cls(*value[:required - 1])
    for call_name, call in calls.items():
        try:
            call()
        except TypeError:
            continue
        pytest.fail(f"{call_name}: no TypeError")
    with pytest.raises(ValueError, match="unexpected field names: \\['bogus'\\]"):
        value._replace(bogus=1)


def test_level_memo_stays_outside_eq_hash_and_repr():
    warm, cold = Level.from_label("2P3/2"), Level.from_label("2P3/2")
    memo = warm.closed_form
    assert vars(warm) == {"closed_form": memo} and vars(cold) == {}
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert tuple(warm) == tuple(cold) and len(warm) == len(Level._fields)
    assert "closed_form" not in repr(warm)
    # a copy is the same tuple; a pickle carries the memo along
    assert copy.copy(warm) == warm
    assert pickle.loads(pickle.dumps(warm)).closed_form == memo
    with pytest.raises(AttributeError):
        warm.label = "1S1/2"


# (a valid instance, fields that make it invalid, the error the constructor
# raises)
INVALID = [
    (DEFAULT_CONSTANTS, {"alpha": 2.0}, ValidationError),
    (DEFAULT_CONSTANTS, {"alpha": math.nan}, ValidationError),
    (DEFAULT_CONSTANTS, {"m_e": -1.0}, ValidationError),
    (DEFAULT_CONSTANTS, {"hbar_eV_s": True}, ValidationError),
    (DEFAULT_CONSTANTS, {"alpha": 1.0, "m_e": "1"}, ValidationError),
    (SchrodingerState(3, 2, 2.5, 0.5), {"l": 3}, ValidationError),
    (SchrodingerState(3, 2, 2.5, 0.5), {"n": 3.0}, ValidationError),
    (SchrodingerState(3, 2, 2.5, 0.5), {"j": 3.5}, ValidationError),
    (SchrodingerState(3, 2, 2.5, 0.5), {"m_j": 1.0}, ValidationError),
    (SchrodingerState(1, 0, 0.5, 0.5), {"j": 1.5, "m_j": 1.5}, ValidationError),
]
INVALID_IDS = [f"{type(valid).__name__}-{'-'.join(map(str, fields.values()))}"
               for valid, fields, _ in INVALID]


def _round_trip(value, protocol):
    return pickle.loads(pickle.dumps(value, protocol=protocol))


def _paths(valid, fields):
    """Every way to build valid with fields replaced, by name."""
    values = {**valid._asdict(), **fields}
    cls = type(valid)
    # a tuple of the invalid fields that no check has seen, for the
    # round trips that rebuild an instance from its fields
    unchecked = tuple.__new__(cls, values.values())
    paths = {
        "constructor": lambda: cls(**values),
        "positional": lambda: cls(*values.values()),
        "_replace": lambda: valid._replace(**fields),
        "_make": lambda: cls._make(values.values()),
        "copy": lambda: copy.copy(unchecked),
        "deepcopy": lambda: copy.deepcopy(unchecked),
    }
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):  # 0 and 1 skip __new__
        paths[f"pickle-{protocol}"] = partial(_round_trip, unchecked, protocol)
    if cls is PhysicalConstants:
        paths["with_"] = lambda: valid.with_(**fields)
    return paths


@pytest.mark.parametrize("valid,fields,error", INVALID, ids=INVALID_IDS)
def test_every_construction_path_checks(valid, fields, error):
    with pytest.raises(error) as constructor:
        type(valid)(**{**valid._asdict(), **fields})
    message = str(constructor.value)
    for path, build in _paths(valid, fields).items():
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value) == message, path


@pytest.mark.parametrize("valid", [DEFAULT_CONSTANTS, SchrodingerState(3, 2, 2.5, 0.5)],
                         ids=lambda v: type(v).__name__)
def test_valid_round_trips_are_equal(valid):
    for path, build in _paths(valid, {}).items():
        rebuilt = build()
        assert type(rebuilt) is type(valid) and rebuilt == valid, path


def test_with_rejects_an_unknown_field():
    with pytest.raises(TypeError, match="unexpected keyword argument 'lambda_qcd'"):
        DEFAULT_CONSTANTS.with_(lambda_qcd=1.0)

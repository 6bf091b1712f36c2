"""The benchmark's tracer rebinds nchydro functions by name.

perfbench/tracer.py wraps every name in its WRAPPED table with getattr, so
deleting or renaming one breaks every traced benchmark run, and its
_keyify keys a level or a state, named tuples, by its fields.  These tests
keep the package, that table and those attributes in step.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _wrapped():
    return [(short, name) for short, names in _tracer().WRAPPED.items() for name in names]


@pytest.mark.parametrize("short,name", _wrapped())
def test_wrapped_name_resolves(short, name):
    module = importlib.import_module(f"nchydro.{short}")
    assert callable(getattr(module, name, None)), f"nchydro.{short}.{name}"


def test_adaptive_samplers_keep_start():
    # the tracer reads args["start"] and result.order of these calls
    specfun = importlib.import_module("nchydro.specfun")
    for name in ("adaptive_sampled_endpoint", "adaptive_weighted"):
        assert "start" in inspect.signature(getattr(specfun, name)).parameters, name


def test_keyify_names_levels_and_states():
    # A Level and a state are named tuples, keyed by their fields, which
    # (label, constants) and (n_r, kappa, M, constants) fix.  Over the 25
    # levels with n <= 5, two sets of constants and every M, each built
    # twice, the keys are hashable and group the values exactly as those
    # literal names do: equal for equal values, different otherwise.
    from nchydro.constants import DEFAULT_CONSTANTS
    from nchydro.dirac import make_state
    from nchydro.nonrel import SchrodingerState
    from nchydro.shifts import Level

    keyify = _tracer()._keyify
    labels = [f"{n}{'SPDFG'[l]}{2 * l + sign}/2" for n in range(1, 6) for l in range(n)
              for sign in (-1, 1) if 2 * l + sign > 0]
    assert len(labels) == 25
    named = []
    for constants in (DEFAULT_CONSTANTS, DEFAULT_CONSTANTS.with_(alpha=1.0 / 137.0)):
        for label in labels:
            level, again = (Level.from_label(label, constants) for _ in range(2))
            named += [(level, ("level", label, constants)), (again, ("level", label, constants))]
            for state in level.states:
                rebuilt = make_state(state.n_r, state.kappa, state.M, constants)
                name = ("state", state.n_r, state.kappa, state.M, constants)
                named += [(state, name), (rebuilt, name)]
    keys = [keyify(value) for value, _ in named]
    names = [name for _, name in named]
    assert len(set(keys)) == len(set(names)) == len(set(zip(keys, names)))
    assert len(set(names)) == 2 * (25 + sum(int(label[-3]) + 1 for label in labels))
    hash(keyify(SchrodingerState(n=3, l=2, j=2.5, m_j=0.5)))

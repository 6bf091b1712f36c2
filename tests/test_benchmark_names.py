"""The benchmark's tracer rebinds nchydro functions by name.

perfbench/tracer.py wraps every name in its WRAPPED table with getattr, so
deleting or renaming one breaks every traced benchmark run, and its
_keyify reads the attributes that name a level or a state.  These tests
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
    # a Level by states/label/constants, a state by n_r/kappa/M/constants
    from nchydro.dirac import make_state
    from nchydro.nonrel import SchrodingerState
    from nchydro.shifts import Level

    keyify = _tracer()._keyify
    level, state = Level.from_label("2P3/2"), make_state(1, -2, 0.5)
    assert keyify(level) == ("level", "2P3/2", level.constants)
    assert keyify(state) == ("state", 1, -2, 0.5, state.constants)
    for value in (level, state, SchrodingerState(n=3, l=2, j=2.5, m_j=0.5)):
        hash(keyify(value))

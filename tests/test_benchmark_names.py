"""The benchmark's tracer rebinds nchydro functions by name.

perfbench/tracer.py wraps every name in its WRAPPED table with getattr, so
deleting or renaming one breaks every traced benchmark run.  These tests
keep the package and that table in step.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(short, name) for short, names in tracer.WRAPPED.items() for name in names]


@pytest.mark.parametrize("short,name", _wrapped())
def test_wrapped_name_resolves(short, name):
    module = importlib.import_module(f"nchydro.{short}")
    assert callable(getattr(module, name, None)), f"nchydro.{short}.{name}"


def test_adaptive_samplers_keep_start():
    # the tracer reads args["start"] and result.order of these calls
    specfun = importlib.import_module("nchydro.specfun")
    for name in ("adaptive_sampled_endpoint", "adaptive_weighted"):
        assert "start" in inspect.signature(getattr(specfun, name)).parameters, name

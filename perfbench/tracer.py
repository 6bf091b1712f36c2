"""Spans around nchydro's public functions, recorded from outside the package.

`Tracer.install()` wraps each function in WRAPPED and rebinds the name in
every loaded nchydro module that holds it, so calls between modules go
through the wrapper too.  A span is (id, parent id, name, cold, start,
end, op id, extra); `cold` marks the first call for the span's argument key
in the process; theta is left out of the key because no cache depends on
it.  Spans stay in memory until `dump()` writes them out.

`layer_sums()` turns one process's spans into additive per-layer sums and
`finish()` turns merged sums into the reported per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

WRAPPED = {
    "specfun": ("gauss_laguerre", "adaptive_weighted", "adaptive_sampled_endpoint"),
    "dirac": ("make_state",),
    "shifts": ("level_shift", "radial_integral_quadrature", "radial_integral_closed",
               "lz_block_numeric", "sigma_cross_block", "cross_radial_integral_quadrature"),
    "nonrel": ("schrodinger_energy", "r_inverse_moment", "r_inverse_moment_quadrature",
               "expectation_table", "fine_structure_shift", "nc_hyperfine_shift",
               "s_state_shift", "s_state_bound"),
    "oracle": ("run_all", "validate_radial", "validate_angular", "validate_moments"),
    "cli": ("main",),
}


def _keyify(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_keyify(v) for v in value)
    if callable(value) or type(value).__module__ == "numpy":
        return None  # integrands and quadrature grids do not name a cache entry
    if hasattr(value, "states") and hasattr(value, "label"):
        return ("level", value.label, value.constants)
    if dataclasses.is_dataclass(value):
        if hasattr(value, "n_r"):
            return ("state", value.n_r, value.kappa, value.M, value.constants)
        return value
    return type(value).__name__


def _extra(name: str, args, result):
    if name == "specfun.gauss_laguerre":
        return {"n": int(args["n"]), "beta": float(args["beta"])}
    if name.startswith("specfun.adaptive_"):
        return {"doublings": round(math.log2(result.order / args["start"])),
                "converged": bool(result.converged)}
    if name == "oracle.run_all":
        verdicts = defaultdict(int)
        for report in result:
            verdicts[report.verdict] += 1
        return {"verdicts": dict(verdicts)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._seen = set()
        self.op = None

    def record(self, name: str, start: float, end: float, cold: bool, extra=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append((len(self.spans), parent, name, cold, start, end, self.op, extra))

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (name, _keyify(tuple(v for k, v in bound.arguments.items()
                                       if k != "theta")))
            cold = key not in tracer._seen
            tracer._seen.add(key)
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id so children can point at it
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                extra = _extra(name, bound.arguments, result) if result is not None else None
                tracer.spans[span_id] = (span_id, parent, name, cold, start, end,
                                         tracer.op, extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every WRAPPED function of the already imported package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nchydro" or n.startswith("nchydro.")]
        for short, names in WRAPPED.items():
            module = importlib.import_module(f"nchydro.{short}")
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


COUNT_METRICS = (
    "specfun.gauss_laguerre.calls", "specfun.rule_builds", "specfun.rule_nodes_built",
    "specfun.adaptive.calls", "specfun.adaptive.doublings", "dirac.make_state.calls",
    "shifts.level_shift.calls", "shifts.radial_quadrature.calls", "nonrel.calls",
    "oracle.reports", "oracle.verdict.match", "oracle.verdict.flagged_paper_inconsistency",
    "oracle.verdict.mismatch", "cli.output_bytes",
)
TIME_METRICS = (
    "import.s", "specfun.rule_build_s", "specfun.adaptive_s", "dirac.make_state_s",
    "shifts.level_shift_s", "shifts.radial_quadrature_s", "shifts.radial_closed_s",
    "shifts.angular_numeric_s", "shifts.cross_quadrature_s", "nonrel_s",
    "nonrel.moment_quadrature_s", "oracle.run_all_s", "oracle.validate_radial_s",
    "oracle.validate_angular_s", "oracle.validate_moments_s", "cli.self_s",
)

# span name -> (time metric, use self time instead of the whole span)
_TIMED = {
    "import": ("import.s", False),
    "specfun.gauss_laguerre": ("specfun.rule_build_s", False),
    "specfun.adaptive_weighted": ("specfun.adaptive_s", False),
    "specfun.adaptive_sampled_endpoint": ("specfun.adaptive_s", False),
    "dirac.make_state": ("dirac.make_state_s", False),
    "shifts.level_shift": ("shifts.level_shift_s", True),
    "shifts.radial_integral_quadrature": ("shifts.radial_quadrature_s", False),
    "shifts.radial_integral_closed": ("shifts.radial_closed_s", False),
    "shifts.lz_block_numeric": ("shifts.angular_numeric_s", False),
    "shifts.sigma_cross_block": ("shifts.angular_numeric_s", False),
    "shifts.cross_radial_integral_quadrature": ("shifts.cross_quadrature_s", False),
    "nonrel.r_inverse_moment_quadrature": ("nonrel.moment_quadrature_s", False),
    "oracle.run_all": ("oracle.run_all_s", False),
    "oracle.validate_radial": ("oracle.validate_radial_s", False),
    "oracle.validate_angular": ("oracle.validate_angular_s", False),
    "oracle.validate_moments": ("oracle.validate_moments_s", False),
    "cli.main": ("cli.self_s", True),
}
_CALLS = {
    "specfun.gauss_laguerre": "specfun.gauss_laguerre.calls",
    "specfun.adaptive_weighted": "specfun.adaptive.calls",
    "specfun.adaptive_sampled_endpoint": "specfun.adaptive.calls",
    "dirac.make_state": "dirac.make_state.calls",
    "shifts.level_shift": "shifts.level_shift.calls",
    "shifts.radial_integral_quadrature": "shifts.radial_quadrature.calls",
}


def layer_sums(spans) -> dict:
    """Additive per-layer sums over the spans of one process."""
    spans = [s for s in spans if s]  # a process that died mid-call leaves open slots
    sums = defaultdict(float)
    child_time = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    for span_id, _, name, cold, start, end, _, extra in spans:
        duration = end - start
        if name in _TIMED:
            metric, self_only = _TIMED[name]
            sums[f"{metric}.{'cold' if cold else 'warm'}"] += (
                duration - child_time[span_id] if self_only else duration)
        if name in _CALLS:
            sums[_CALLS[name]] += 1
        if name.startswith("nonrel."):
            sums["nonrel.calls"] += 1
            sums[f"nonrel_s.{'cold' if cold else 'warm'}"] += duration - child_time[span_id]
        if name == "specfun.gauss_laguerre" and extra and cold:
            sums["specfun.rule_builds"] += 1
            sums["specfun.rule_nodes_built"] += extra["n"]
        if name.startswith("specfun.adaptive_") and extra:
            sums["specfun.adaptive.doublings"] += extra["doublings"]
            sums["specfun.adaptive.converged"] += extra["converged"]
        if name == "oracle.run_all" and extra:
            for verdict, count in extra["verdicts"].items():
                sums["oracle.reports"] += count
                sums[f"oracle.verdict.{verdict}"] += count
    return dict(sums)


def rule_keys(spans) -> set:
    """Distinct (n, beta) Gauss-Laguerre rules requested in one process."""
    return {(s[7]["n"], s[7]["beta"]) for s in spans
            if s[2] == "specfun.gauss_laguerre" and s[7]}


def merge(total: dict, part: dict):
    for k, v in part.items():
        total[k] = total.get(k, 0.0) + v


def finish(sums: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics {name: {"value", "unit"}} from merged sums."""
    metrics = {}
    for name in COUNT_METRICS:
        metrics[name] = {"value": int(sums.get(name, 0)), "unit": "count"}
    for name in TIME_METRICS:
        for phase in ("cold", "warm"):
            metrics[f"{name}.{phase}"] = {"value": sums.get(f"{name}.{phase}", 0.0),
                                          "unit": "s"}
    calls = sums.get("specfun.gauss_laguerre.calls", 0)
    hits = calls - sums.get("specfun.rule_builds", 0)
    adaptive = sums.get("specfun.adaptive.calls", 0)
    metrics["specfun.rule_hit_ratio"] = {"value": hits / calls if calls else 0.0,
                                         "unit": "ratio"}
    metrics["specfun.adaptive.converged_ratio"] = {
        "value": sums.get("specfun.adaptive.converged", 0) / adaptive if adaptive else 0.0,
        "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics

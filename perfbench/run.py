"""nchydro benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload cli_oneshot|theta_scan|verify_suite \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is taken from ./src (compiled
to bytecode first).  Human-readable lines (run header, input properties,
metrics, deltas against the previous recorded run) come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run over a fixed op prefix plus the layer
probe (see README.md).  Untraced time metrics are scaled to a nominal
host speed by a paired reference kernel (refclock.py).  Scratch files and
the run history go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# One BLAS thread in this process and every child: with two vCPUs, threaded
# eigensolvers would time the scheduler and the neighbours, not nchydro.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import ops  # noqa: E402
import tracer  # noqa: E402
from checks import check_cli, check_verify  # noqa: E402
from refclock import PROCESS_NOMINAL_S  # noqa: E402  (imports numpy: settings first)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = str(HERE / "child.py")
REFCLOCK = str(HERE / "refclock.py")
# What the installed `nchydro` console script runs.
ENTRY = "import sys; from nchydro.cli import main; sys.exit(main())"

SETUP_REPEATS = 9          # fresh set-ups per run; setup_s is their median
TRACE_CLI_REQUESTS = 24    # cli_oneshot op prefix in a traced run
TRACE_SCAN_CALLS = 2000    # theta_scan op prefix in a traced run
TRACE_VERIFY_RUNS = 2      # verify_suite op prefix in a traced run
CHILD_TIMEOUT_S = 120
MIN_OPS = 10               # ops measured even when --seconds runs out first
REF_INTERVAL_S = 1.5       # least time between two reference processes during requests

END_TO_END = ("setup_s", "latency_p50_s", "latency_p90_s", "throughput_ops_s",
              "peak_rss_mib")
UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_p90_s": "s",
         "throughput_ops_s": "ops/s", "peak_rss_mib": "MiB"}


class Child:
    """Environment and bookkeeping for the processes a run starts."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.spans = []

    def run(self, args: list[str]) -> tuple[int, str, str, float]:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start

    def json(self, args: list[str]) -> dict:
        code, out, err, _ = self.run(args)
        if code != 0:
            raise RuntimeError(f"child {args[:2]} exited {code}: {err.strip()[-400:]}")
        return json.loads(out.strip().splitlines()[-1])

    def spans_path(self) -> str:
        path = str(WORK / f"spans-{len(self.spans)}.json")
        self.spans.append(path)
        return path

    def layer_sums(self) -> tuple[dict, int]:
        total, rules = {}, 0
        for path in self.spans:
            spans = json.loads(Path(path).read_text())
            tracer.merge(total, tracer.layer_sums(spans))
            rules = max(rules, len(tracer.rule_keys(spans)))
        return total, rules


def peak_children_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def latency_metrics(latencies: list[float], busy_s: float) -> dict:
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
        "throughput_ops_s": len(latencies) / busy_s,
    }


def setup_probe(child: Child) -> float:
    """Wall time of a fresh process that imports the CLI and exits."""
    code, _, err, wall = child.run([CHILD, "ready"])
    if code != 0:
        raise RuntimeError(f"the package does not import: {err.strip()[-400:]}")
    return wall


class ProcessClock:
    """Reference processes (refclock.py) paired with the benchmark's children.

    A reference process starts the interpreter, imports numpy and runs the
    reference kernel, as the CLI's cost is mostly start-up and import.
    `scale()` is PROCESS_NOMINAL_S over the median of their wall times.
    """

    def __init__(self, child: "Child"):
        self.child = child
        self.walls = []
        self.last = None

    def sample(self, every_s: float = 0.0):
        if self.last is not None and time.perf_counter() - self.last < every_s:
            return
        code, _, err, wall = self.child.run([REFCLOCK])
        if code != 0:
            raise RuntimeError(f"reference process exited {code}: {err.strip()[-400:]}")
        self.walls.append(wall)
        self.last = time.perf_counter()

    def scale(self) -> float:
        return PROCESS_NOMINAL_S / statistics.median(self.walls)

    def properties(self) -> dict:
        return {"ref_process_median_s": statistics.median(self.walls),
                "ref_processes": len(self.walls), "ref_scale": self.scale()}


def scaled(raw: dict, scale: float) -> dict:
    """End-to-end metrics with every time multiplied by `scale`."""
    return {**raw, "setup_s": raw["setup_s"] * scale,
            "latency_p50_s": raw["latency_p50_s"] * scale,
            "latency_p90_s": raw["latency_p90_s"] * scale,
            "throughput_ops_s": raw["throughput_ops_s"] / scale}


# ---------------------------------------------------------------------------
# Subprocess workloads: cli_oneshot and verify_suite
# ---------------------------------------------------------------------------


def _check(argv, code, out, err) -> tuple[str | None, int]:
    if argv[0] == "verify":
        return check_verify(code, out, err)
    return check_cli(argv, code, out, err), 0


def subprocess_untraced(child: Child, requests, seconds: float) -> dict:
    """Closed loop of fresh CLI processes for `seconds`.

    The SETUP_REPEATS set-up samples are spread evenly over the run, the
    first before the first request, so a slow spell of the host moves the
    median less; their time is added to the deadline.  A reference process
    runs before every set-up and, at most every REF_INTERVAL_S, before a
    request; every time is scaled by the run's clock.scale().
    """
    clock = ProcessClock(child)
    clock.sample()
    setups = [setup_probe(child)]
    latencies, sent, failures, tolerated = [], [], [], 0
    start = time.perf_counter()
    deadline = start + seconds
    for argv in requests:
        now = time.perf_counter()
        if now >= deadline and len(sent) >= MIN_OPS:
            break
        if (now - start) * SETUP_REPEATS >= len(setups) * seconds:
            clock.sample()
            setups.append(setup_probe(child))
            deadline += setups[-1]
        clock.sample(REF_INTERVAL_S)
        code, out, err, wall = child.run(["-c", ENTRY, *argv])
        latencies.append(wall)
        sent.append(argv)
        reason, infinities = _check(argv, code, out, err)
        tolerated = max(tolerated, infinities)
        if reason:
            failures.append(reason)
    while len(setups) < SETUP_REPEATS:
        clock.sample()
        setups.append(setup_probe(child))
    raw = {"setup_s": statistics.median(setups),
           **latency_metrics(latencies, sum(latencies)),
           "peak_rss_mib": peak_children_rss_mib()}
    return {"metrics": scaled(raw, clock.scale()), "attempted": len(sent),
            "failures": failures, "requests": sent, "tolerated_infinities": tolerated,
            "ref": {**clock.properties(), "unscaled": raw}}


def subprocess_traced(child: Child, requests: list[list[str]]) -> dict:
    """Untraced then traced pass over the same requests, then the probe."""
    failures, untraced_s, traced_s, output_bytes = [], 0.0, 0.0, 0
    for op, argv in enumerate(requests):
        plain = child.run(["-c", ENTRY, *argv])
        traced = child.run([CHILD, "cli", child.spans_path(), str(op), *argv])
        untraced_s += plain[3]
        traced_s += traced[3]
        output_bytes += len(traced[1].encode())
        reasons = [_check(argv, code, out, err)[0] for code, out, err, _ in (plain, traced)]
        if plain[:2] != traced[:2]:
            reasons.append(f"{argv[0]}: traced output differs from untraced output")
        reasons = [r for r in reasons if r]
        if reasons:
            failures.append(reasons[0])
    return finish_traced(child, failures, len(requests), traced_s / untraced_s,
                         output_bytes, ops.cli_properties(requests))


def finish_traced(child: Child, failures, attempted, overhead, output_bytes, props) -> dict:
    probe = child.json([CHILD, "probe", child.spans_path()])
    if probe["failed"]:
        failures.append(f"probe: {probe['first_failure']}")
    sums, rules = child.layer_sums()
    sums["cli.output_bytes"] = output_bytes + probe["output_bytes"]
    props["distinct_rules_per_process"] = rules
    return {"metrics": tracer.finish(sums, overhead), "attempted": attempted,
            "failures": failures, "properties": props}


def cli_oneshot(child: Child, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        stream = ops.cli_requests(seed)
        return subprocess_traced(child, [next(stream) for _ in range(TRACE_CLI_REQUESTS)])
    result = subprocess_untraced(child, ops.cli_requests(seed), seconds)
    result["properties"] = {**ops.cli_properties(result.pop("requests")),
                            **result.pop("ref")}
    return result


def verify_suite(child: Child, seed: int, seconds: float, trace: bool) -> dict:
    # verify takes no input, so the seed has no effect on this workload
    if trace:
        result = subprocess_traced(child, [ops.VERIFY_ARGV] * TRACE_VERIFY_RUNS)
    else:
        result = subprocess_untraced(child, iter(lambda: ops.VERIFY_ARGV, None), seconds)
        result["properties"] = {**ops.cli_properties(result.pop("requests")),
                                **result.pop("ref")}
        result["properties"]["verify_infinity_fields"] = result.pop("tolerated_infinities")
    result["properties"]["seed_effect"] = "none: verify takes no input"
    return result


# ---------------------------------------------------------------------------
# In-process workload: theta_scan
# ---------------------------------------------------------------------------


def theta_scan(child: Child, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        plain = child.json([CHILD, "scan", str(seed), "1e9", str(TRACE_SCAN_CALLS), "-"])
        traced = child.json([CHILD, "scan", str(seed), "1e9", str(TRACE_SCAN_CALLS),
                             child.spans_path()])
        failures = [r["first_failure"] for r in (plain, traced) if r["failed"]]
        if plain["digest"] != traced["digest"]:
            failures.append("level_shift: traced output differs from untraced output")
        return finish_traced(child, failures, traced["attempted"],
                             traced["busy_s"] / plain["busy_s"], 0, traced["properties"])

    # Set-up-only processes before and after the measuring process, which
    # adds its own; setup_s is scaled by reference processes started between
    # them, the calls block by block inside the measuring process.
    clock = ProcessClock(child)

    def setup_only() -> float:
        clock.sample()
        return child.json([CHILD, "scan", str(seed), "0", "0", "-"])["setup_s"]

    setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
    clock.sample()
    run = child.json([CHILD, "scan", str(seed), str(seconds), str(10 ** 9), "-"])
    setups.append(run["setup_s"])
    setups += [setup_only() for _ in range(SETUP_REPEATS - len(setups))]
    failures = [run["first_failure"]] * run["failed"]
    raw = {"setup_s": statistics.median(setups), "latency_p50_s": run["latency_p50_s"],
           "latency_p90_s": run["latency_p90_s"],
           "throughput_ops_s": run["calls"] / run["busy_s"],
           "peak_rss_mib": run["peak_rss_mib"]}
    metrics = {**raw, "setup_s": raw["setup_s"] * clock.scale(), **run["scaled"]}
    metrics["throughput_ops_s"] = run["calls"] / metrics.pop("busy_s")
    return {"metrics": metrics, "attempted": run["attempted"], "failures": failures,
            "properties": {**run["properties"], **run["ref"],
                           "setup_ref": clock.properties(), "unscaled": raw}}


WORKLOADS = {"cli_oneshot": cli_oneshot, "theta_scan": theta_scan,
             "verify_suite": verify_suite}


# ---------------------------------------------------------------------------
# Header, history and output
# ---------------------------------------------------------------------------


def run_header() -> dict:
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "commit": commit,
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def print_deltas(history_path: Path, record: dict):
    previous = None
    if history_path.exists():
        for line in history_path.read_text().splitlines():
            entry = json.loads(line)
            if (entry["workload"], entry["trace"]) == (record["workload"], record["trace"]):
                previous = entry
    if previous is None:
        print("deltas: no previous recorded run of this workload")
        return
    print(f"deltas vs previous run (seed {previous['seed']}, "
          f"commit {previous['header']['commit']}, src_lines "
          f"{previous['header']['src_lines']} -> {record['header']['src_lines']}):")
    for name, m in record["metrics"].items():
        old = previous["metrics"].get(name, {}).get("value")
        if old:
            print(f"  {name:<48} {old:.6g} -> {m['value']:.6g} "
                  f"({100.0 * (m['value'] - old) / old:+.1f}%)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nchydro" / "__init__.py").is_file():
        print(f"run.py: no nchydro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("spans-*.json"):
        stale.unlink()
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                           capture_output=True, text=True)
    if build.returncode != 0:
        print(f"run.py: byte-compiling src failed:\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    header = run_header()
    print("header: " + json.dumps(header))
    child = Child()
    try:
        result = WORKLOADS[args.workload](child, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {args.workload} could not run: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        result["metrics"] = {k: {"value": result["metrics"][k], "unit": UNITS[k]}
                             for k in END_TO_END}
    failures = result["failures"]
    attempted = result["attempted"]
    print("input properties: " + json.dumps(result["properties"]))
    print(f"error_rate: {len(failures) / attempted:.4g} ({len(failures)} of {attempted} ops)")
    for reason in failures[:5]:
        print(f"  failed: {reason}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")

    record = {"workload": args.workload, "trace": args.trace, "seed": args.seed,
              "header": header, "metrics": result["metrics"]}
    history = WORK / "history.jsonl"
    print_deltas(history, record)
    with history.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

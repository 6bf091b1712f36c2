"""Child processes of the benchmark; run.py starts them with PYTHONPATH=src.

    child.py ready                                   import the CLI and exit
    child.py cli SPANS OP ARGV...                    traced nchydro CLI request
    child.py scan SEED SECONDS MAX_CALLS SPANS|-     theta_scan worker
    child.py probe SPANS                             traced cold/warm layer probe

`cli` installs the tracer and then calls nchydro.cli.main, so its stdout
and exit code are those of the plain CLI.  `scan` and `probe` print one
JSON object as their last line.  A SPANS path of "-" means untraced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import checks
import ops
from refclock import RefClock
from tracer import Tracer

MIN_CALLS = 10  # calls measured even when the time runs out first
REF_EVERY = 25  # scan calls between two reference-kernel samples


def _import_cli(tracer: Tracer | None, cold: bool = True):
    start = time.perf_counter()
    import nchydro.cli
    if tracer is not None:
        tracer.record("import", start, time.perf_counter(), cold)
    return nchydro.cli


def cli(spans_path: str, op: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op = op
    cli_module = _import_cli(tracer)
    tracer.install()
    try:
        return cli_module.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


def scan(seed: int, seconds: float, max_calls: int, spans_path: str) -> dict:
    """Set up as cmd_sweep does, then call level_shift on a seeded stream.

    The reference kernel (refclock.py) runs before the first call and
    after every REF_EVERY calls, outside the timed calls; `scaled` holds
    the latencies scaled by it.
    """
    tracer = Tracer() if spans_path != "-" else None
    t0 = time.perf_counter()
    _import_cli(tracer)
    if tracer is not None:
        tracer.install()
    from nchydro import shifts

    levels = [shifts.Level.from_label(label) for label in ops.LABELS]
    failures = []
    for label, level in zip(ops.LABELS, levels):
        err = checks.check_shift_dict(shifts.level_shift(level, 1e-20).as_dict(), label, 1e-20)
        if err:
            failures.append(err)
    setup_s = time.perf_counter() - t0
    clock = RefClock()
    clock.sample()

    latencies, scaled, block = [], [], []

    def close_block():
        factor = clock.factor()
        scaled.extend(t * factor for t in block)
        latencies.extend(block)
        block.clear()

    calls = []
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    for index, theta in ops.scan_calls(seed):
        if len(calls) >= max_calls or (time.perf_counter() >= deadline
                                        and len(calls) >= MIN_CALLS):
            break
        if len(block) == REF_EVERY:
            close_block()
        if tracer is not None:
            tracer.op = len(calls)
        calls.append((index, theta))
        start = time.perf_counter()
        try:
            report = shifts.level_shift(levels[index], theta)
        except Exception as exc:  # counted as a failed op, the loop keeps running
            block.append(time.perf_counter() - start)
            failures.append(f"level_shift {ops.LABELS[index]}: {exc!r}")
            continue
        block.append(time.perf_counter() - start)
        d = report.as_dict()
        digest.update(repr(d).encode())
        err = checks.check_shift_dict(d, ops.LABELS[index], theta)
        if err:
            failures.append(err)
    if block:
        close_block()
    if tracer is not None:
        tracer.dump(spans_path)
    result = {
        "setup_s": setup_s,
        "attempted": len(levels) + len(calls),  # warm-up calls are checked ops too
        "calls": len(calls),
        "failed": len(failures),
        "first_failure": failures[0] if failures else None,
        "busy_s": sum(latencies),
        "ref": clock.properties(),
        "digest": digest.hexdigest(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "properties": ops.scan_properties(calls),
    }
    if len(latencies) >= 2:
        result["latency_p50_s"] = statistics.median(latencies)
        result["latency_p90_s"] = statistics.quantiles(latencies, n=10)[8]
        result["scaled"] = {"busy_s": sum(scaled), "latency_p50_s": statistics.median(scaled),
                            "latency_p90_s": statistics.quantiles(scaled, n=10)[8]}
    return result


PROBE_REPEATS = 3  # calls per key: the first is cold, the rest warm


def probe(spans_path: str) -> dict:
    """Call each layer cold (first call in this fresh process) and warm."""
    tracer = Tracer()
    _import_cli(tracer, cold=True)
    for _ in range(PROBE_REPEATS - 1):
        for name in [n for n in sys.modules if n == "nchydro" or n.startswith("nchydro.")]:
            del sys.modules[name]
        _import_cli(tracer, cold=False)
    tracer.install()
    from nchydro import cli, dirac, nonrel, oracle, shifts, specfun

    failures = []
    state_p32 = dirac.make_state(1, -2, 0.5)
    state_p12 = dirac.make_state(1, 1, 0.5)
    level_2s = shifts.Level.from_label("2S1/2")
    level_2p = shifts.Level.from_label("2P1/2")
    schrodinger = nonrel.SchrodingerState(n=3, l=2, j=2.5, m_j=0.5)
    output_bytes = 0
    for repeat in range(PROBE_REPEATS):
        tracer.op = f"probe.{repeat}"
        specfun.gauss_laguerre(200, 0.25)
        dirac.make_state(3, -3, 1.5)
        for state in (state_p32, state_p12):
            shifts.radial_integral_closed(state, "sum")
            shifts.radial_integral_quadrature(state, "sum")
        shifts.lz_block_numeric(1.5, 1)
        shifts.sigma_cross_block(level_2s, level_2p)
        shifts.cross_radial_integral_quadrature()
        report = shifts.level_shift(shifts.Level.from_label("3D3/2"), 1e-19)
        failures.append(checks.check_shift_dict(report.as_dict(), "3D3/2", 1e-19))
        nonrel.expectation_table(schrodinger, 1e-19)
        nonrel.nc_hyperfine_shift(schrodinger, 1e-19)
        nonrel.r_inverse_moment_quadrature(3, 2, 3)
        if repeat < 2:  # run_all is the slowest layer: one cold and one warm call
            reports = oracle.run_all()
            if any(r.verdict == "mismatch" for r in reports):
                failures.append("run_all: unexpected mismatch")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["levels", "2P3/2", "--format", "json"])
        output_bytes += len(buf.getvalue().encode())
        failures.append(checks.check_cli(["levels", "2P3/2"], code, buf.getvalue(), ""))
    tracer.dump(spans_path)
    failures = [f for f in failures if f]
    return {"attempted": PROBE_REPEATS, "failed": len(failures),
            "first_failure": failures[0] if failures else None,
            "output_bytes": output_bytes}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "ready":
        _import_cli(None)
        return 0
    if mode == "cli":
        return cli(argv[1], argv[2], argv[3:])
    if mode == "scan":
        result = scan(int(argv[1]), float(argv[2]), int(argv[3]), argv[4])
    elif mode == "probe":
        result = probe(argv[1])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

Checks that one seed gives one op sequence, that the output checks reject
wrong outputs, that every workload reports the metrics BENCHMARK.json names, that two
traced runs at one seed repeat their work counts exactly (traced runs also
fail unless traced and untraced outputs are identical), and that the
command refuses to run without the sources.  Takes about two minutes.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("specfun.rule_builds", "specfun.rule_nodes_built",
                "specfun.adaptive.doublings", "oracle.verdict.match",
                "oracle.verdict.flagged_paper_inconsistency", "oracle.verdict.mismatch")


def test_seeded_sequences():
    for stream in (ops.cli_requests, ops.scan_calls):
        first = list(itertools.islice(stream(7), 500))
        assert first == list(itertools.islice(stream(7), 500)), stream.__name__
        assert first != list(itertools.islice(stream(8), 500)), stream.__name__
    assert len(ops.LABELS) == 25 and len(ops.KAPPA1) == 9


def test_checks_reject_wrong_outputs():
    ref = checks.REFERENCE["levels"]["2P3/2"]
    good = {"schema": 1, "label": "2P3/2", "n_r": ref["n_r"], "kappa": ref["kappa"],
            "j": ref["j"], "l": ref["l"], "nu": ref["nu"], "energy_eV": ref["energy_eV"],
            "binding_eV": ref["binding_eV"], "a": ref["a"]}
    argv = ["levels", "2P3/2", "--format", "json"]
    assert checks.check_cli(argv, 0, json.dumps(good), "") is None
    assert checks.check_cli(argv, 1, json.dumps(good), "")
    assert checks.check_cli(argv, 0, json.dumps(good), "Traceback (most recent call last)")
    assert checks.check_cli(argv, 0, json.dumps({**good, "schema": 2}), "")
    assert checks.check_cli(argv, 0, json.dumps({**good, "nu": float("nan")}), "")
    assert checks.check_cli(argv, 0, json.dumps({**good, "energy_eV": ref["energy_eV"]
                                                 * (1 + 1e-8)}), "")
    theta = 3e-19
    shift = {"label": "2P3/2", "theta_eV2": theta, "eigenvalues": ref["eigenvalues"],
             "rho1_closed_eV3": ref["rho1_closed_eV3"], "rho2_closed_eV3": ref["rho2_closed_eV3"],
             "rho1_quadrature_eV3": ref["rho1_quadrature_eV3"],
             "rho2_quadrature_eV3": ref["rho2_quadrature_eV3"],
             "coefficients_eV3": ref["coefficients_eV3"],
             "shifts_eV": [c * theta for c in ref["coefficients_eV3"]]}
    bound = checks._coefficients_bound(ref["coefficients_eV3"],
                                       checks.REFERENCE["shift_accuracy_hz"])
    shift.update(theta_bound_eV2=bound, theta_bound_gev_scale=1.0 / (bound ** 0.5 * 1e9))
    assert checks.check_shift_dict(shift, "2P3/2", theta) is None
    wrong = dict(shift, shifts_eV=[2 * s for s in shift["shifts_eV"]])
    assert checks.check_shift_dict(wrong, "2P3/2", theta)
    verify = {"schema": 1, "mismatches": 0, "reports": [
        {"name": n, "closed_form": v, "verdict": "match", "quad_drift": 0.0}
        for n, v in checks.REFERENCE["verify_closed_forms"].items()]}
    assert checks.check_verify(0, json.dumps(verify), "") == (None, 0)
    verify["reports"][0]["verdict"] = "mismatch"
    assert checks.check_verify(0, json.dumps(verify), "")[0]


def run_bench(workload: str, seed: int, cwd: Path = ROOT, trace: int = 1, seconds: int = 2):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_untraced_reports_end_to_end_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("cli_oneshot", "theta_scan", "verify_suite"):
        proc = run_bench(workload, 5, trace=0, seconds=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["attempted"] >= 10, (workload, result)
        assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
        assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_traced_counts_repeat():
    for workload in ("cli_oneshot", "theta_scan", "verify_suite"):
        results = []
        for _ in range(2):
            proc = run_bench(workload, 3)
            assert proc.returncode == 0, proc.stderr
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for result in results:
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert list(result["metrics"]) == [m["name"] for m in bench["per_layer"]]
        for name in EXACT_COUNTS:
            values = [r["metrics"][name]["value"] for r in results]
            assert values[0] == values[1], (workload, name, values)


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench("theta_scan", 1, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    tests = [test_seeded_sequences, test_checks_reject_wrong_outputs,
             test_refuses_without_sources, test_untraced_reports_end_to_end_metrics,
             test_traced_counts_repeat]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

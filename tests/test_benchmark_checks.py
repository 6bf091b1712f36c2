"""The benchmark's output check holds on level_shift reports.

perfbench/checks.py compares each theta_scan report with the reference
recorded in perfbench/reference.json.  Running it here on cold and warm
reports of the 25 levels at seeded theta makes a change to level_shift's
output fail the tests, not only a benchmark run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from nchydro.shifts import Level, level_shift

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


CHECK = _checks()
LABELS = sorted(CHECK.REFERENCE["levels"])
# theta drawn log-uniform over the benchmark's range, 1e-24 to 1e-16 eV^-2
RNG = random.Random(20)
THETAS = [0.0] + [10.0 ** RNG.uniform(-24.0, -16.0) for _ in range(4)]


def test_reference_names_the_25_levels():
    assert len(LABELS) == 25


@pytest.mark.parametrize("label", LABELS)
def test_cold_and_warm_reports_pass_the_benchmark_check(label):
    level = Level.from_label(label)
    for theta in THETAS:
        cold = level_shift(Level.from_label(label), theta)
        warm = level_shift(level, theta)
        for report in (cold, warm):
            assert CHECK.check_shift_dict(report.as_dict(), label, theta) is None


def test_the_check_sees_a_wrong_shift():
    # the negative control: one shift off by a part in 1e8 fails
    d = level_shift("2P3/2", 1.0e-19).as_dict()
    d["shifts_eV"][0] *= 1.0 + 1.0e-8
    assert "coefficient x theta" in CHECK.check_shift_dict(d, "2P3/2", 1.0e-19)

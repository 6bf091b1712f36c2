"""Seeded inputs of the three workloads.

Every generator is a pure function of its seed: the same seed yields the
same operation sequence, which the self-tests check.  The program under
test only ever sees the generated arguments.
"""

from __future__ import annotations

import math
import random
from collections import Counter

LETTERS = "SPDFG"

# The 25 bound fine-structure levels with principal number n <= 5, as
# (label, |kappa|).  |kappa| = j + 1/2.
LEVELS = tuple(
    (f"{n}{LETTERS[l]}{int(2 * j)}/2", int(j + 0.5))
    for n in range(1, 6)
    for l in range(n)
    for j in ((l - 0.5, l + 0.5) if l else (0.5,))
)
LABELS = tuple(label for label, _ in LEVELS)
KAPPA1 = frozenset(label for label, kappa in LEVELS if kappa == 1)

# (n, l, two_j, two_mj) for every nonrelativistic state with n <= 5.
NONREL_STATES = tuple(
    (n, l, two_j, two_mj)
    for n in range(1, 6)
    for l in range(n)
    for two_j in ((2 * l - 1, 2 * l + 1) if l else (1,))
    for two_mj in range(-two_j, two_j + 1, 2)
)

THETA_RANGE = (1e-24, 1e-16)        # eV^-2, drawn log-uniform
ACCURACY_KHZ_RANGE = (0.01, 100.0)  # bound accuracies, log-uniform
LAMBDA_QCD_RANGE = (5e7, 2e9)       # eV, cutoff for l = 0 nonrel requests

# Request mix of cli_oneshot: requests per block of 20, shuffled in each block,
# so every run sends the same mix (levels 25 %, shift 30 %, bound 20 %,
# nonrel 20 %, sweep 5 %) whatever the seed.
CLI_BLOCK = (("levels", 5), ("shift", 6), ("bound", 4), ("nonrel", 4), ("sweep", 1))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _half(two_x: int) -> str:
    return f"{two_x}/2"


def cli_request(rng: random.Random, command: str) -> list[str]:
    """One nchydro argv for `command`; global flags follow the subcommand."""
    if command == "levels":
        return ["levels", rng.choice(LABELS), "--format", "json"]
    if command == "shift":
        theta = _log_uniform(rng, *THETA_RANGE)
        return ["shift", rng.choice(LABELS), "--theta", repr(theta), "--format", "json"]
    if command == "bound":
        acc = _log_uniform(rng, *ACCURACY_KHZ_RANGE)
        return ["bound", rng.choice(LABELS), "--accuracy-khz", repr(acc), "--format", "json"]
    if command == "nonrel":
        n, l, two_j, two_mj = rng.choice(NONREL_STATES)
        theta = _log_uniform(rng, *THETA_RANGE)
        argv = ["nonrel", f"--n={n}", f"--l={l}", f"--j={_half(two_j)}",
                f"--mj={_half(two_mj)}", f"--theta={theta!r}"]
        if l == 0:
            argv.append(f"--lambda-qcd={_log_uniform(rng, *LAMBDA_QCD_RANGE)!r}")
        return argv + ["--format", "json"]
    lo, hi = sorted(_log_uniform(rng, *THETA_RANGE) for _ in range(2))
    levels = rng.sample(LABELS, rng.randint(1, 3))
    return ["sweep", "--theta-min", repr(lo), "--theta-max", repr(hi),
            "--steps", str(rng.randint(2, 20)), "--levels", ",".join(levels)]


def cli_requests(seed: int):
    """Endless cli_oneshot request stream for one seed."""
    rng = random.Random(seed)
    block = [command for command, count in CLI_BLOCK for _ in range(count)]
    while True:
        rng.shuffle(block)
        for command in block:
            yield cli_request(rng, command)


def scan_calls(seed: int):
    """Endless theta_scan stream of (level index, theta) for one seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(len(LABELS)), _log_uniform(rng, *THETA_RANGE)


VERIFY_ARGV = ["verify", "--format", "json"]


def request_levels(argv: list[str]) -> list[str]:
    """Relativistic level labels a cli request touches."""
    if argv[0] in ("levels", "shift", "bound"):
        return [argv[1]]
    if argv[0] == "sweep":
        return argv[argv.index("--levels") + 1].split(",")
    return []


def cli_properties(requests: list[list[str]]) -> dict:
    mix = Counter(argv[0] for argv in requests)
    touched = [request_levels(argv) for argv in requests]
    on_level = [labels for labels in touched if labels]
    return {
        "requests": len(requests),
        "subcommand_mix": dict(sorted(mix.items())),
        "kappa1_share": round(sum(any(lb in KAPPA1 for lb in labels) for labels in on_level)
                              / max(len(on_level), 1), 4),
        "distinct_levels": len({lb for labels in touched for lb in labels}),
        "nonrel_l0": sum(1 for argv in requests if "--l=0" in argv),
    }


def scan_properties(calls: list[tuple[int, float]]) -> dict:
    return {
        "calls": len(calls),
        "subcommand_mix": {"level_shift": len(calls)},
        "kappa1_share": round(sum(LABELS[i] in KAPPA1 for i, _ in calls)
                              / max(len(calls), 1), 4),
        "distinct_levels": len({i for i, _ in calls}),
    }

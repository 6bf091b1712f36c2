"""The builders of specfun's fixed quadrature tables, and their check.

specfun keeps the rules that depend on no input as float literals:
_ENDPOINT_RULES (the 80- and 160-node endpoint rules of
adaptive_sampled_endpoint) and _SPHERE_RULE (the 16-node Gauss-Legendre
rule in cos(theta)).  This module rebuilds them: endpoint_rule by Halley
steps on the roots of L_n, sphere_rule by specfun._golub_welsch on the
Legendre Jacobi matrix.

    python tests/rule_tables.py           print the tables as specfun holds them
    python tests/rule_tables.py --check   exit 1 unless every bit matches

Run from the repository root with src on PYTHONPATH (or the package
installed).  The check needs no pytest, so it runs on every supported
Python; the tests import the builders from here.
"""

from __future__ import annotations

import math
import sys

from nchydro import specfun

ENDPOINT_ORDERS = (80, 160)
WIDTH = 99  # the longest line printed


def endpoint_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-node plain Gauss-Laguerre rule after x = t^2, in floats: x = t^2
    and w = 2 t w_t e^(t - t^2), w_t = 1 / (t L_n'(t)^2), for the ascending
    roots t of L_n up to the first w that underflows to 0.  Each root is
    found by Halley steps on the three-term recurrence (L'' from Laguerre's
    equation), started from Tricomi's t ~ j^2 / v (1 + (j^2 - 2) / (3 v^2)),
    v = 4n + 2, with McMahon's i-th zero j of the Bessel J_0; the guesses
    need n >= 16."""
    # L_{k+1} = (a_k - b_k t) L_k - c_k L_{k-1}
    steps = [((2.0 * k + 1.0) / (k + 1.0), 1.0 / (k + 1.0), k / (k + 1.0))
             for k in range(1, n)]
    v = 4.0 * n + 2.0
    rule = []
    for i in range(1, n + 1):
        b = (i - 0.25) * math.pi
        j = b + 1.0 / (8.0 * b) - 124.0 / (3.0 * (8.0 * b) ** 3)
        t = j * j / v * (1.0 + (j * j - 2.0) / (3.0 * v * v))
        for _ in range(8):
            prev, cur = 1.0, 1.0 - t  # L_0, L_1
            for a_k, b_k, c_k in steps:
                prev, cur = cur, (a_k - b_k * t) * cur - c_k * prev
            d1 = n * (cur - prev) / t  # L_n' = n (L_n - L_{n-1}) / t
            d2 = ((t - 1.0) * d1 - n * cur) / t
            step = cur / d1 / (1.0 - cur * d2 / (2.0 * d1 * d1))
            t -= step
            if abs(step) <= 1e-10 * t:
                break
        d1 -= d2 * step  # L_n' at the final t
        w = 2.0 * math.exp(t - t * t) / (d1 * d1)  # 2 t w_t e^(t - t^2)
        if w == 0.0:
            break
        rule.append((t * t, w))
    return tuple(zip(*rule))


def sphere_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The 16-node Gauss-Legendre rule (cos_theta, weights) on (-1, 1) by
    specfun._golub_welsch: zero diagonal, off-diagonal k / sqrt(4k^2 - 1),
    mass 2."""
    n = 16
    return specfun._golub_welsch([0.0] * n,
                                 [k / math.sqrt(4.0 * k * k - 1.0) for k in range(1, n)],
                                 2.0, lambda x: 0.0)


def built_tables() -> dict:
    """Each table's name in specfun -> its rebuilt value."""
    return {"_ENDPOINT_RULES": {n: endpoint_rule(n) for n in ENDPOINT_ORDERS},
            "_SPHERE_RULE": sphere_rule()}


def _hex(value):
    # every float as float.hex, so a comparison is bit for bit
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    return tuple(_hex(item) for item in value)


def differences() -> list[str]:
    """The names of the tables whose bits differ from the rebuilt ones."""
    return [name for name, value in built_tables().items()
            if _hex(getattr(specfun, name)) != _hex(value)]


def _floats(values, indent: str) -> list[str]:
    # the reprs of values, filled into lines of at most WIDTH characters
    lines, line = [], indent
    for text in map(repr, values):
        if line != indent and len(line) + len(text) + 2 > WIDTH:
            lines.append(line.rstrip())
            line = indent
        line += text + ", "
    return lines + [line.rstrip()]


def source() -> str:
    """The two assignments as specfun's source holds them."""
    tables = built_tables()
    lines = ["_ENDPOINT_RULES = {"]
    for n, (nodes, weights) in tables["_ENDPOINT_RULES"].items():
        lines += [f"    {n}: (("] + _floats(nodes, " " * 8) + ["    ), ("]
        lines += _floats(weights, " " * 8) + ["    )),"]
    cos_theta, weights = tables["_SPHERE_RULE"]
    lines += ["}", "", "_SPHERE_RULE = (("] + _floats(cos_theta, " " * 4) + ["), ("]
    lines += _floats(weights, " " * 4) + ["))"]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        wrong = differences()
        for name in wrong:
            print(f"specfun.{name} differs from its rebuilt value", file=sys.stderr)
        if not wrong:
            print("specfun's rule tables match their builders bit for bit")
        return 1 if wrong else 0
    if argv:
        print("usage: python tests/rule_tables.py [--check]", file=sys.stderr)
        return 2
    print(source())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Record the reference values the output checks compare against.

    python3 perfbench/make_reference.py

Runs the CLI in-process on every level and nonrelativistic state the
workloads can draw, at theta = 1 eV^-2 (and lambda_qcd = 1 eV for l = 0),
and writes perfbench/reference.json.  The checks scale theta-linear fields
by the request's theta.  |kappa| = 1 quadrature samples and verify verdicts
are deliberately not recorded: they are order-dependent samples of
divergent integrals, not values.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nchydro import cli  # noqa: E402
from nchydro.constants import LAMB_ACCURACY_2P_HZ, hz_to_ev  # noqa: E402

from ops import KAPPA1, LABELS, NONREL_STATES  # noqa: E402


def run_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(buf.getvalue())


def main() -> None:
    levels = {}
    for label in LABELS:
        lev = run_json(["levels", label])
        shift = run_json(["shift", label, "--theta", "1"])
        entry = {k: lev[k] for k in ("n_r", "kappa", "j", "l", "nu", "energy_eV",
                                     "binding_eV", "a")}
        entry.update(eigenvalues=shift["eigenvalues"],
                     rho1_closed_eV3=shift["rho1_closed_eV3"],
                     rho2_closed_eV3=shift["rho2_closed_eV3"],
                     coefficients_eV3=shift["coefficients_eV3"])
        if label not in KAPPA1:
            entry.update(rho1_quadrature_eV3=shift["rho1_quadrature_eV3"],
                         rho2_quadrature_eV3=shift["rho2_quadrature_eV3"])
        levels[label] = entry
    nonrel = {}
    for n, l, two_j, two_mj in NONREL_STATES:
        argv = ["nonrel", f"--n={n}", f"--l={l}", f"--j={two_j}/2", f"--mj={two_mj}/2",
                "--theta=1"]
        if l == 0:
            argv.append("--lambda-qcd=1")
        payload = run_json(argv)
        del payload["schema"]
        nonrel[f"{n},{l},{two_j},{two_mj}"] = payload
    verify = run_json(["verify"])
    ref = {
        "ev_per_hz": hz_to_ev(1.0),
        "shift_accuracy_hz": LAMB_ACCURACY_2P_HZ,
        "levels": levels,
        "nonrel": nonrel,
        "verify_closed_forms": {r["name"]: r["closed_form"] for r in verify["reports"]},
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(levels)} levels, {len(nonrel)} nonrel states, "
          f"{len(ref['verify_closed_forms'])} verify reports")


if __name__ == "__main__":
    main()

"""Re-measure the timings ROADMAP.md quotes, to see which of them reproduce.

    python3 perfbench/roadmap_check.py

Prints one JSON object: the per-stage split of the pipeline at N=400 for
d=1 (or the error it raises) and for the log limit, and the wall time of
``wigmol verify``, ``scan-k --n 2..30 --d log,0.5,1,2,6`` and
``scan-k --n 2..100 --d log,0.5,1``, each run in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wigmol import cli, equilibrium, modes, rdm  # noqa: E402
from wigmol.potential import Interaction, SystemSpec  # noqa: E402


def stage_split(n: int, interaction: Interaction) -> dict:
    spec = SystemSpec(n, interaction)
    split = {}
    start = time.perf_counter()
    try:
        config = equilibrium.solve_equilibrium(spec)
    except Exception as exc:  # the quoted point may not converge; report how it fails
        return {"error": f"{type(exc).__name__}: {exc}", "after_s": time.perf_counter() - start}
    split["solve_s"] = time.perf_counter() - start
    start = time.perf_counter()
    normal_modes = modes.compute_modes(spec, config)
    split["modes_s"] = time.perf_counter() - start
    start = time.perf_counter()
    kernels = rdm.all_site_kernels(normal_modes, config)
    split["kernels_s"] = time.perf_counter() - start
    start = time.perf_counter()
    rdm.occupancy_spectrum(kernels)
    split["spectrum_s"] = time.perf_counter() - start
    return split


def command_seconds(argv: list[str]) -> dict:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "wall_s": time.perf_counter() - start}


def main() -> int:
    stage_split(40, Interaction.log_limit())  # warm-up
    report = {
        "stage_split_n400_d1": stage_split(400, Interaction.power_law(1.0)),
        "stage_split_n400_log": stage_split(400, Interaction.log_limit()),
        "verify": command_seconds(["verify"]),
        "scan_k_2..30_x5": command_seconds(["scan-k", "--n", "2..30", "--d", "log,0.5,1,2,6"]),
        "scan_k_2..100_x3": command_seconds(["scan-k", "--n", "2..100", "--d", "log,0.5,1"]),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

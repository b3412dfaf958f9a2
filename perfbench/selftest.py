"""Tests of the benchmark itself, on the tiny inputs of ``--quick``.

    python3 perfbench/selftest.py

Checks that every workload runs and passes its output checks, that the
result line carries exactly the metrics BENCHMARK.json names, that two
traced runs on one seed give identical counts, that the output checks
reject wrong values, and that the benchmark refuses to run without the
wigmol sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, trace: int) -> dict:
    code, lines = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick")
    expect(code == 0, f"{workload} trace {trace} exited {code}")
    final = json.loads(lines[-1])
    expect(set(final) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(final)}")
    expect(final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1, f"{workload}: {final}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expect(
        {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in final["metrics"].items()},
        f"{workload} trace {trace} reports other metrics than BENCHMARK.json",
    )
    return final["metrics"]


def test_workloads():
    for entry in SPEC["workloads"]:
        name = entry["name"]
        end_to_end = result(name, 0)
        expect(all(m["value"] > 0 for m in end_to_end.values()), f"{name}: an end-to-end metric is not positive")
        first, second = result(name, 1), result(name, 1)
        counts = [k for k, m in first.items() if m["unit"] in ("count", "B")]
        expect(all(first[k] == second[k] for k in counts), f"{name}: counts differ between two traced runs")
        print(f"ok  {name}")


def test_checks_reject_wrong_output():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import checks
    from wigmol import Interaction, SystemSpec, compute_modes, solve_equilibrium

    spec = SystemSpec(12, Interaction.log_limit())
    config = solve_equilibrium(spec)
    normal_modes = compute_modes(spec, config)
    freqs, rows = normal_modes.frequencies, normal_modes.mode_matrix
    k = checks.closed_form_k(freqs, rows)
    expect(checks.harmonic_point(freqs, rows, k) is None, "a right K was rejected")
    expect(checks.harmonic_point(freqs, rows, k * (1 + 1e-8)) is not None, "a wrong K was accepted")
    expect(checks.harmonic_point(freqs * 1.001, rows, k) is not None, "a missing trap mode was accepted")
    expect(checks.log_limit_minimum(config.positions, freqs) is None, "the log-limit minimum was rejected")
    expect(checks.log_limit_minimum(config.positions + 1e-7, freqs) is not None, "shifted positions were accepted")
    grid = np.linspace(-8, 8, 2001)
    gauss = np.exp(-(grid**2)) / np.sqrt(np.pi)
    expect(checks.sampled_unit_integral(np.stack([grid, gauss], 1)) is None, "a unit Gaussian was rejected")
    expect(checks.sampled_unit_integral(np.stack([grid, 1.01 * gauss], 1)) is not None, "a wrong norm was accepted")
    expect(checks.within("cross_solver", 2e-8) is not None, "an error above the threshold was accepted")
    print("ok  checks reject wrong output")


def test_refuses_without_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines), "ran without the wigmol sources")
    print("ok  refuses to run without the sources")


if __name__ == "__main__":
    test_checks_reject_wrong_output()
    test_refuses_without_sources()
    test_workloads()

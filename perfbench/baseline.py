"""Run every workload on several seeds and record the medians as a baseline.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

Each workload runs once per seed untraced (end-to-end metrics) and once
traced on the first seed (per-layer metrics), with the run length of
BENCHMARK.json.  For every end-to-end metric the file records the median,
the quartiles and the spread (interquartile distance over the median),
and this script prints the spread next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=180, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent / "baseline.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    baseline = {"run_seconds": SPEC["run_seconds"], "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for entry in SPEC["workloads"]:
        name = entry["name"]
        runs = [_run(name, seed, 0) for seed in baseline["seeds"]]
        summary = {}
        for metric in bounds:
            values = [result["metrics"][metric]["value"] for _, result in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {
                "unit": runs[0][1]["metrics"][metric]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "values": values,
            }
            print(f"{name:<8} {metric:<12} median {median:<10.5g} spread {(q3 - q1) / median:.4f} bound {bounds[metric]}")
        meta, traced = _run(name, baseline["seeds"][0], 1)
        baseline["workloads"][name] = {
            "meta": runs[0][0],
            "ops_per_run": [meta_["ops_per_run"] for meta_, _ in runs],
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_meta": meta,
        }
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

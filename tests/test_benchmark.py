"""Every workload that BENCHMARK.json declares runs on tiny inputs under the tracer."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_quick_run_exits_cleanly(workload):
    # the tracer looks library functions up by name, so a deleted or renamed one fails here
    command = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--quick", "--seconds", "1", "--trace", "1"]
    result = subprocess.run([sys.executable, *command], cwd=ROOT, capture_output=True, text=True, timeout=120)
    # run.py exits 0 only when every op succeeded and passed its check
    assert result.returncode == 0, result.stderr[-2000:]

"""Run one wigmol benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 24 --trace 0

One process, one closed-loop client: the next op starts when the previous
one has finished, and the loop repeats whole passes over the seeded inputs
until the timed ops add up to ``--seconds``.  Every op's output is checked
outside the timed region.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead (see tracing.py).  ``--quick``
runs the same code on tiny inputs.  The exit code is 0 only when every op
succeeded and passed its check.  The library is imported from ``src/`` of
the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 7


def _import_wigmol():
    if not (SRC / "wigmol" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wigmol sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import wigmol

    if Path(wigmol.__file__).resolve().parent != SRC / "wigmol":
        sys.exit(f"perfbench: imported wigmol from {wigmol.__file__}, not from {SRC}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "large_n", "tables", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0, help="timed op time per run (untraced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _build(args, workdir):
    """Input generation and warm-up: everything a run does before its first timed op."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
    for op in workload.warmup_ops:
        failure = workload.check(op, workload.run(op))
        if failure:
            sys.exit(f"perfbench: warm-up op {op!r} failed its check: {failure}")
    return workload


class SetupProbes:
    """Fresh processes timed from start to their first op, spread over the measured run.

    Each probe starts the interpreter, imports numpy and wigmol, generates
    the inputs, runs the warm-up and reports the host's monotonic clock.
    Spreading the probes over the run samples the machine's speed at
    several moments instead of one.
    """

    def __init__(self, args, count: int, seconds: float):
        self.command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
        self.command += ["--seed", str(args.seed), "--setup-probe"] + (["--quick"] if args.quick else [])
        self.due = [seconds * k / count for k in range(count)]
        self.samples: list[float] = []

    def poll(self, timed_s: float):
        while self.due and timed_s >= self.due[0]:
            self.due.pop(0)
            start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes on the host
            probe = subprocess.run(self.command, capture_output=True, text=True, timeout=170, cwd=ROOT)
            if probe.returncode != 0:
                sys.exit(f"perfbench: setup probe failed:\n{probe.stderr}")
            self.samples.append(float(probe.stdout.split()[-1]) - start)

    def finish(self) -> list[float]:
        self.poll(float("inf"))
        return self.samples


class Outcome:
    """Latencies and failures of the ops of one measured stretch."""

    def __init__(self):
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.raised = 0
        self.wrong = 0
        self.passes = 0
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def record(self, seconds: float):
        self.latencies.append(seconds)
        self.timed_s += seconds

    def absorb(self, other: "Outcome"):
        self.latencies += other.latencies
        self.timed_s += other.timed_s
        self.raised += other.raised
        self.wrong += other.wrong
        self.passes += other.passes
        self.messages += other.messages


def _measure(workload, outcome: Outcome, *, seconds=None, passes=None, tracer=None, between_ops=None):
    """Run whole passes until ``passes`` are done, or the timed ops reach ``seconds``.

    ``between_ops(timed_s)`` runs after each op and its check, outside the timed region.
    """
    while True:
        done = outcome.passes >= (passes if passes is not None else workload.min_passes)
        if done and (seconds is None or outcome.timed_s >= seconds):
            return
        for op in workload.ops:
            if tracer is not None:
                tracer.op_id = outcome.attempted
            start = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception:  # a failed op is counted and the run goes on
                outcome.record(time.perf_counter() - start)
                outcome.raised += 1
                outcome.messages.append(f"{op!r} raised:\n{traceback.format_exc()}")
                continue
            outcome.record(time.perf_counter() - start)
            failure = workload.check(op, result)
            if failure:
                outcome.wrong += 1
                outcome.messages.append(f"{op!r}: {failure}")
            if between_ops is not None:
                between_ops(outcome.timed_s)
        outcome.passes += 1


def _ops_per_s(outcome: Outcome) -> float:
    return (outcome.attempted - outcome.raised) / outcome.timed_s


def _blas_threads():
    """OpenBLAS's own thread count, asked from the library numpy loaded; None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # a plain source checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _metadata(args, workload, outcome: Outcome) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops_per_pass": len(workload.ops),
        "passes": outcome.passes,
        "ops_per_run": outcome.attempted,
        "timed_s": outcome.timed_s,
    }


def _end_to_end(outcome: Outcome, setup: list[float]) -> tuple[dict, list[str]]:
    latencies_ms = sorted(1e3 * t for t in outcome.latencies)
    metrics = {
        "ops_per_s": (_ops_per_s(outcome), "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"{name:<14} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines[2] += f" (median of {len(setup)} fresh processes)"
    count = len(latencies_ms)
    if count >= 100:
        p90 = statistics.quantiles(latencies_ms, n=10)[-1]
        lines.append(f"{'op_p90_ms':<14} {p90:.6g} ms ({count} samples, {sum(t > p90 for t in latencies_ms)} beyond)")
    else:
        lines.append(f"{'op_p90_ms':<14} n/a ({count} samples; needs 100)")
    lines.append(f"{'failed_frac':<14} {outcome.failed / outcome.attempted:.6g} 1 ({outcome.failed} of {outcome.attempted})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


def _per_layer(args, workload) -> tuple[dict, list[str], Outcome]:
    from tracing import LAYER_METRICS, Tracer, calls_per_op, layer_metrics

    plain = Outcome()
    _measure(workload, plain, passes=workload.trace_passes)
    traced = Outcome()
    tracer = Tracer()
    tracer.install()
    try:
        _measure(workload, traced, passes=workload.trace_passes, tracer=tracer)
    finally:
        tracer.restore()
    overhead = _ops_per_s(plain) / _ops_per_s(traced) - 1.0
    values = layer_metrics(tracer.spans, traced.attempted, overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
    lines = [f"{name:<42} {values[name]:.6g} {unit}" for name, (unit, _) in LAYER_METRICS.items()]
    lines.append(f"untraced {_ops_per_s(plain):.6g} ops/s, traced {_ops_per_s(traced):.6g} ops/s")
    if workload.sites(workload.ops[0]) is not None:
        counts = calls_per_op(tracer.spans, "modes.ground_state_precision")
        ops = [op for _ in range(workload.trace_passes) for op in workload.ops]
        matches = sum(counts.get(i, 0) == (workload.sites(op) + 1) // 2 for i, op in enumerate(ops))
        lines.append(f"ops whose ground_state_precision calls equal (N+1)//2: {matches} of {len(ops)}")
    spans_file = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_file)
    lines.append(f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    plain.absorb(traced)
    return metrics, lines, plain


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_wigmol()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as scratch:
        workload = _build(args, Path(scratch))
        if args.setup_probe:
            print(time.monotonic())
            return 0
        if args.trace:
            metrics, lines, outcome = _per_layer(args, workload)
        else:
            outcome = Outcome()
            probes = SetupProbes(args, SETUP_PROBES, args.seconds)
            _measure(workload, outcome, seconds=args.seconds, between_ops=probes.poll)
            metrics, lines = _end_to_end(outcome, probes.finish())
    for message in outcome.messages[:5]:
        print(message, file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {outcome.attempted} ops in {outcome.passes} passes")
    print("\n".join(lines))
    print(json.dumps({"meta": _metadata(args, workload, outcome)}))
    correct = outcome.wrong == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads: seeded inputs, one timed op, and its output check.

Every workload is a list of ops (one pass) that the runner repeats; the
seed draws the inputs and wigmol only ever sees the drawn points.  All
points lie where the default solve (tol=1e-12) converges today, because a
failed solve's time says nothing about useful work; see NOTES.md.

Library calls go through module attributes (``equilibrium.solve_equilibrium``
rather than a name imported here), so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
from wigmol import cli, equilibrium, modes, observables, oracle, potential, rdm
from wigmol.potential import Interaction, SystemSpec


class Point(NamedTuple):
    """Particle number and exponent; ``d`` is None for the log limit."""

    n: int
    d: float | None


def _interaction(d: float | None) -> Interaction:
    return Interaction.log_limit() if d is None else Interaction.power_law(d)


def _strata(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from each of ``count`` equal log-width strata of [lo, hi].

    Stratifying keeps the mix of cheap and expensive exponents the same on
    every seed, so that seeds change the points but not the cost of a pass.
    """
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    return [float(math.exp(rng.uniform(a, b))) for a, b in zip(edges[:-1], edges[1:])]


def _shuffled(rng: np.random.Generator, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


class Workload:
    """One pass of ops plus warm-up ops; subclasses say how to run and check an op."""

    name = ""
    trace_passes = 1
    min_passes = 1

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.ops = self.make_ops(rng, quick)
        self.warmup_ops = self.make_warmup(quick)

    def make_ops(self, rng, quick) -> list:
        raise NotImplementedError

    def make_warmup(self, quick) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        raise NotImplementedError

    def sites(self, op) -> int | None:
        """Particle number of a pipeline op, for the per-op call-count report."""
        return None


class _Pipeline(Workload):
    """solve_equilibrium -> compute_modes -> all_site_kernels -> occupancy_spectrum."""

    def make_warmup(self, quick):
        return [Point(8, None), Point(8, 1.0)]

    def run(self, op: Point):
        spec = SystemSpec(op.n, _interaction(op.d))
        config = equilibrium.solve_equilibrium(spec)
        normal_modes = modes.compute_modes(spec, config)
        kernels = rdm.all_site_kernels(normal_modes, config)
        return config, normal_modes, rdm.occupancy_spectrum(kernels)

    def check(self, op: Point, result):
        config, normal_modes, spectrum = result
        failure = checks.harmonic_point(normal_modes.frequencies, normal_modes.mode_matrix, spectrum.degree_of_correlation)
        if failure is None and op.d is None:
            failure = checks.log_limit_minimum(config.positions, normal_modes.frequencies)
        return failure

    def sites(self, op: Point):
        return op.n


class Scan(_Pipeline):
    """The paper's K / delta_K tables: many small pipeline ops, N = 2..31."""

    name = "scan"
    trace_passes = 2

    def make_ops(self, rng, quick):
        n_values = range(2, 7) if quick else range(2, 32)
        per_n = 2 if quick else 4
        points = []
        for n in n_values:
            points.append(Point(n, None))
            points.extend(Point(n, d) for d in _strata(rng, 0.25, 4.0, per_n))
        return _shuffled(rng, points)


class LargeN(_Pipeline):
    """A few large points, where per-site kernel marginalization dominates."""

    name = "large_n"

    def make_ops(self, rng, quick):
        # The log-limit points at N=240..260 cost more than the four cheaper
        # points and less than the two dearer ones, so the median op is always
        # one of them and does not depend on the drawn exponents.
        log_n = (20, 24, 25, 26, 30, 40) if quick else (200, 240, 250, 260, 300, 400)
        power_n = (16, 20) if quick else (150, 200)
        exponents = _strata(rng, 0.25, 0.5, len(power_n))
        points = [Point(n, None) for n in log_n]
        points += [Point(n, exponents[i]) for n, i in zip(power_n, rng.permutation(len(power_n)))]
        return _shuffled(rng, points)

    def make_warmup(self, quick):
        return [Point(12, None), Point(12, 0.3)] if quick else [Point(40, None), Point(40, 0.3)]


class Tables(Workload):
    """In-process ``wigmol`` CLI commands writing CSV tables to a file."""

    name = "tables"
    trace_passes = 2
    min_passes = 2  # every command runs twice, so the repeat check sees each one
    K_GRID = "-20:20:0.005"
    K_ROWS = 8001
    X_ROWS = 2001

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.output = workdir / "table.csv"
        self.digests: dict[tuple[str, ...], str] = {}

    @staticmethod
    def _commands(n: int, d: float | None, g: float) -> list[tuple[str, ...]]:
        token = "log" if d is None else format(d, ".17g")
        nd = ("--n", str(n), "--d", token)
        placement = ("--g", format(g, ".17g")) + (("--d-aux", "0.1") if d is None else ())
        return [
            ("density", *nd),
            ("density", *nd, *placement),
            ("density", "--n", str(n), "--d", "inf"),
            ("momentum", *nd, "--k", Tables.K_GRID),
            ("spectrum", *nd),
            ("kernel", *nd),
            ("scan-k", "--n", f"{n - 2}..{n}", "--d", token),
        ]

    def make_ops(self, rng, quick):
        lo, hi, points = (6, 10, 2) if quick else (20, 60, 6)
        edges = np.linspace(lo, hi + 1, points + 1).astype(int)
        n_values = [int(rng.integers(a, b)) for a, b in zip(edges[:-1], edges[1:])]
        exponents = _strata(rng, 0.25, 2.0, points // 2)
        tokens = [None] * (points - len(exponents)) + exponents
        tokens = [tokens[i] for i in rng.permutation(points)]
        ops = []
        for n, d in zip(n_values, tokens):
            ops.extend(self._commands(n, d, float(math.exp(rng.uniform(math.log(10.0), math.log(1000.0))))))
        return _shuffled(rng, ops)

    def make_warmup(self, quick):
        return self._commands(6, None, 100.0) + self._commands(6, 1.0, 100.0)

    def run(self, op):
        return cli.main([*op, "--output", str(self.output)])

    def check(self, op, result):
        if result != 0:
            return f"exit code {result}"
        data = self.output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(op, digest) != digest:
            return "repeating the command changed its output"
        rows = checks.table_rows(data.decode())
        command = op[0]
        if command == "scan-k":  # over n - 2 .. n
            if len(rows) != 3 or any(float(row[2]) < int(row[0]) for row in rows):
                return "scan-k table has the wrong rows or K < N"
            return None
        n = int(op[2])
        if command in ("density", "momentum"):
            expected = self.K_ROWS if command == "momentum" else self.X_ROWS
            if len(rows) != expected:
                return f"{len(rows)} rows, expected {expected}"
            return checks.sampled_unit_integral(rows)
        if command == "kernel":
            if [int(r[0]) for r in rows] != list(range(1, n + 1)):
                return "kernel table does not list sites 1..N once each"
            return None
        if command == "spectrum":
            ladders: dict[int, list[int]] = {}
            for row in rows:
                ladders.setdefault(int(row[0]), []).append(int(row[1]))
            if sorted(ladders) != list(range(1, n + 1)):
                return "spectrum table does not cover sites 1..N"
            if any(rungs != list(range(len(rungs))) for rungs in ladders.values()):
                return "spectrum ladders are not contiguous from l = 0"
            total = math.fsum(float(row[2]) for row in rows)
            if not abs(total - 1.0) <= 1e-9:
                return f"occupancies sum to {total!r}, not 1"
            return None


class Verify(Workload):
    """Brute-force oracle checks through the public ``wigmol.oracle`` functions."""

    name = "verify"

    def make_ops(self, rng, quick):
        tokens = [*_strata(rng, 0.5, 2.0, 1 if quick else 2), None]
        cross_n = range(2, 4) if quick else range(2, 7)
        kernel_n = (2,) if quick else (2, 3)
        draws = 2 if quick else 5
        ops = [("cross_solver", n, d) for n in cross_n for d in tokens]
        ops += [(kind, n, d) for kind in ("quadrature", "nystrom", "momentum") for n in kernel_n for d in tokens]
        for d in tokens:
            for _ in range(draws):
                n = int(rng.integers(2, 7))
                ops.append(("fd", n, d, tuple(oracle.random_admissible_positions(rng, n))))
        return _shuffled(rng, ops)

    def make_warmup(self, quick):
        kinds = ("cross_solver", "quadrature", "nystrom", "momentum")
        return [(kind, 2, 1.0) for kind in kinds] + [("fd", 3, None, (-1.0, 0.0, 1.0))]

    def run(self, op):
        kind, n, d = op[:3]
        spec = SystemSpec(n, _interaction(d))
        if kind == "fd":
            return _fd_errors(spec, np.array(op[3]))
        if kind == "cross_solver":
            newton = equilibrium.solve_equilibrium(spec)
            direct = oracle.independent_minimum(spec)
            return float(np.max(np.abs(newton.positions - direct.positions)))
        config = equilibrium.solve_equilibrium(spec)
        normal_modes = modes.compute_modes(spec, config)
        kernels = rdm.all_site_kernels(normal_modes, config)
        if kind == "quadrature":
            return _quadrature_error(normal_modes, config, kernels)
        if kind == "nystrom":
            return _nystrom_error(kernels)
        return _momentum_error(kernels)

    def check(self, op, result):
        if op[0] == "fd":
            return checks.within("fd_gradient", result[0]) or checks.within("fd_hessian", result[1])
        return checks.within(op[0], result)


def _quadrature_error(normal_modes, config, kernels) -> float:
    worst = 0.0
    for kernel in kernels:
        grid = np.linspace(kernel.center - 3 * kernel.width, kernel.center + 3 * kernel.width, 9)
        for x in grid:
            for x_prime in grid:
                direct = oracle.quadrature_kernel(normal_modes, config, kernel.site, x, x_prime)
                worst = max(worst, abs(direct - float(rdm.kernel_value(kernel, x, x_prime))))
    return worst


def _nystrom_error(kernels) -> float:
    worst = 0.0
    for kernel in kernels:
        top = oracle.nystrom_occupancies(
            lambda x, x_prime, k=kernel: rdm.kernel_value(k, x, x_prime), oracle.nystrom_grid(kernel), 5
        )
        ladder = np.array([rdm.occupancy(kernel, l) for l in range(5)])
        worst = max(worst, float(np.max(np.abs(top - ladder))))
    return worst


def _momentum_error(kernels) -> float:
    worst = 0.0
    for k in np.linspace(-8.0, 8.0, 17):
        analytic = float(observables.momentum_distribution(kernels, [k]).values[0])
        worst = max(worst, abs(analytic - oracle.momentum_quadrature(kernels, k)))
    return worst


def _fd_errors(spec: SystemSpec, positions: np.ndarray) -> tuple[float, float]:
    grad = potential.potential_gradient(spec, positions)
    grad_fd = oracle.fd_gradient(lambda p: potential.potential_value(spec, p), positions)
    hess = potential.potential_hessian(spec, positions)
    hess_fd = oracle.fd_jacobian(lambda p: potential.potential_gradient(spec, p), positions)
    if spec.interaction.is_log_limit:
        hess_fd = 0.5 * hess_fd  # the log-limit curvature is half the raw second derivative
    grad_error = float(np.max(np.abs(grad - grad_fd)) / max(1.0, np.max(np.abs(grad))))
    hess_error = float(np.max(np.abs(hess - hess_fd)) / max(1.0, np.max(np.abs(hess))))
    return grad_error, hess_error


WORKLOADS = {cls.name: cls for cls in (Scan, LargeN, Tables, Verify)}

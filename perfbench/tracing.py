"""Span tracing of wigmol's public functions, installed from outside the package.

A traced run replaces each public function listed in ``TRACED`` with a
wrapper on every module binding that points at it (``wigmol.rdm`` calls
``ground_state_precision`` through its own import, ``wigmol.cli`` calls
``potential_value`` through its own, and so on), records one span per
call, and restores the originals afterwards.  Spans stay in memory until
the run ends; :func:`layer_metrics` then folds them into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from time import perf_counter

from wigmol import cli, equilibrium, modes, observables, oracle, potential, rdm


def _kernel_grid_evals(args, kwargs, result):
    return len(args[0]) * result.abscissae.size


def _hardcore_grid_evals(args, kwargs, result):
    return args[0] * result.abscissae.size


def _quadrature_nodes(args, kwargs, result):
    quad = kwargs.get("quad", args[5] if len(args) > 5 else None)
    points = oracle.QuadratureSpec().points_per_dim if quad is None else quad.points_per_dim
    return points ** (args[1].n_particles - 1)


def _ladder_rungs(args, kwargs, result):
    return sum(ladder.size for ladder in result.ladders)


def _output_bytes(args, kwargs, result):
    argv = list(args[0])
    return os.path.getsize(argv[argv.index("--output") + 1])


# span name -> (defining module, function name, optional payload(args, kwargs, result))
TRACED = {
    "potential.value": (potential, "potential_value", None),
    "potential.gradient": (potential, "potential_gradient", None),
    "potential.hessian": (potential, "potential_hessian", None),
    "equilibrium.solve": (equilibrium, "solve_equilibrium", None),
    "modes.compute": (modes, "compute_modes", None),
    "modes.ground_state_precision": (modes, "ground_state_precision", None),
    "rdm.all_site_kernels": (rdm, "all_site_kernels", None),
    "rdm.site_kernel": (rdm, "site_kernel", None),
    "rdm.occupancy_spectrum": (rdm, "occupancy_spectrum", _ladder_rungs),
    "observables.density": (observables, "density_profile", _kernel_grid_evals),
    "observables.hardcore_density": (observables, "hardcore_density", _hardcore_grid_evals),
    "observables.momentum": (observables, "momentum_distribution", _kernel_grid_evals),
    "cli.main": (cli, "main", _output_bytes),
    "oracle.independent_minimum": (oracle, "independent_minimum", None),
    "oracle.quadrature": (oracle, "quadrature_kernel", _quadrature_nodes),
    "oracle.nystrom": (oracle, "nystrom_occupancies", None),
    "oracle.momentum_quadrature": (oracle, "momentum_quadrature", None),
    "oracle.fd_gradient": (oracle, "fd_gradient", None),
    "oracle.fd_jacobian": (oracle, "fd_jacobian", None),
}

# per-layer metric -> unit, better; the order here is the order of BENCHMARK.json
LAYER_METRICS = {
    "potential.value.calls": ("count", "lower"),
    "potential.gradient.calls": ("count", "lower"),
    "potential.hessian.calls": ("count", "lower"),
    "potential.self_s": ("s", "lower"),
    "equilibrium.solve.calls": ("count", "lower"),
    "equilibrium.solve.self_s": ("s", "lower"),
    "equilibrium.newton_iters": ("count", "lower"),
    "equilibrium.line_search_evals": ("count", "lower"),
    "equilibrium.step_accept_ratio": ("1", "higher"),
    "modes.compute.self_s": ("s", "lower"),
    "modes.ground_state_precision.calls": ("count", "lower"),
    "modes.ground_state_precision.calls_per_op": ("count", "lower"),
    "modes.ground_state_precision.self_s": ("s", "lower"),
    "rdm.all_site_kernels.self_s": ("s", "lower"),
    "rdm.site_kernel.calls": ("count", "lower"),
    "rdm.site_kernel.self_s": ("s", "lower"),
    "rdm.occupancy_spectrum.self_s": ("s", "lower"),
    "rdm.ladder_rungs": ("count", "lower"),
    "observables.density.self_s": ("s", "lower"),
    "observables.momentum.self_s": ("s", "lower"),
    "observables.site_grid_evals": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "oracle.independent_minimum.self_s": ("s", "lower"),
    "oracle.value_evals": ("count", "lower"),
    "oracle.quadrature.self_s": ("s", "lower"),
    "oracle.quadrature_nodes": ("count", "lower"),
    "oracle.nystrom.self_s": ("s", "lower"),
    "oracle.momentum_quadrature.self_s": ("s", "lower"),
    "oracle.fd.self_s": ("s", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.overhead_frac": ("1", "lower"),
}


class Tracer:
    """Records one span per traced call: name, start, end, parent span, op id, payload."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, payload):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if payload is not None:
                span[5] = payload(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Swap every module binding of each traced function for its wrapper."""
        package_modules = [m for name, m in sys.modules.items() if name == "wigmol" or name.startswith("wigmol.")]
        for name, (module, attr, payload) in TRACED.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, payload)
            for mod in package_modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def restore(self):
        for mod, binding, original in reversed(self._saved):
            setattr(mod, binding, original)
        self._saved.clear()

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "op", "payload")
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, ops: int, overhead_frac: float) -> dict[str, float]:
    """Fold a traced run's spans into the per-layer metrics of ``LAYER_METRICS``."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    payload: dict[str, int] = {}
    from_solve = {"potential.value": 0, "potential.hessian": 0}
    oracle_values = 0
    for span, seconds in zip(spans, own):
        name, parent = span[0], span[3]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + seconds
        payload[name] = payload.get(name, 0) + span[5]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name == "equilibrium.solve" and name in from_solve:
            from_solve[name] += 1
        if name == "potential.value" and parent_name.startswith("oracle."):
            oracle_values += 1

    def total(mapping, *names):
        return sum(mapping.get(n, 0) for n in names)

    solves = calls.get("equilibrium.solve", 0)
    # every successful solve ends with one positive-definiteness Hessian check
    newton_iters = from_solve["potential.hessian"] - solves
    line_search = from_solve["potential.value"]
    gsp_calls = calls.get("modes.ground_state_precision", 0)
    return {
        "potential.value.calls": calls.get("potential.value", 0),
        "potential.gradient.calls": calls.get("potential.gradient", 0),
        "potential.hessian.calls": calls.get("potential.hessian", 0),
        "potential.self_s": total(self_s, "potential.value", "potential.gradient", "potential.hessian"),
        "equilibrium.solve.calls": solves,
        "equilibrium.solve.self_s": self_s.get("equilibrium.solve", 0.0),
        "equilibrium.newton_iters": newton_iters,
        "equilibrium.line_search_evals": line_search,
        "equilibrium.step_accept_ratio": newton_iters / line_search if line_search else 0.0,
        "modes.compute.self_s": self_s.get("modes.compute", 0.0),
        "modes.ground_state_precision.calls": gsp_calls,
        "modes.ground_state_precision.calls_per_op": gsp_calls / ops if ops else 0.0,
        "modes.ground_state_precision.self_s": self_s.get("modes.ground_state_precision", 0.0),
        "rdm.all_site_kernels.self_s": self_s.get("rdm.all_site_kernels", 0.0),
        "rdm.site_kernel.calls": calls.get("rdm.site_kernel", 0),
        "rdm.site_kernel.self_s": self_s.get("rdm.site_kernel", 0.0),
        "rdm.occupancy_spectrum.self_s": self_s.get("rdm.occupancy_spectrum", 0.0),
        "rdm.ladder_rungs": payload.get("rdm.occupancy_spectrum", 0),
        "observables.density.self_s": total(self_s, "observables.density", "observables.hardcore_density"),
        "observables.momentum.self_s": self_s.get("observables.momentum", 0.0),
        "observables.site_grid_evals": total(
            payload, "observables.density", "observables.hardcore_density", "observables.momentum"
        ),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.bytes_out": payload.get("cli.main", 0),
        "oracle.independent_minimum.self_s": self_s.get("oracle.independent_minimum", 0.0),
        "oracle.value_evals": oracle_values,
        "oracle.quadrature.self_s": self_s.get("oracle.quadrature", 0.0),
        "oracle.quadrature_nodes": payload.get("oracle.quadrature", 0),
        "oracle.nystrom.self_s": self_s.get("oracle.nystrom", 0.0),
        "oracle.momentum_quadrature.self_s": self_s.get("oracle.momentum_quadrature", 0.0),
        "oracle.fd.self_s": total(self_s, "oracle.fd_gradient", "oracle.fd_jacobian"),
        "trace.ops": ops,
        "trace.overhead_frac": overhead_frac,
    }


def calls_per_op(spans, name: str) -> dict[int, int]:
    """Number of spans called ``name`` inside each op."""
    counts: dict[int, int] = {}
    for span in spans:
        if span[0] == name:
            counts[span[4]] = counts.get(span[4], 0) + 1
    return counts


"""Command-line front end: tables, scans, and the brute-force verification suite."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import equilibrium, modes, observables, oracle, rdm
from .errors import (
    DegenerateHessian,
    InfiniteDegeneracy,
    InvalidScale,
    NoConvergence,
    UnsupportedLimit,
)
from .potential import Interaction, SystemSpec, potential_gradient, potential_hessian, potential_value

LOG_TOKEN = "log"
INF_TOKEN = "inf"

_DEFAULTS = {"format": "csv", "output": "-", "tol": 1e-12, "max_iter": 200, "tail_tol": 1e-12}


class _BadRequest(Exception):
    """Invalid command-line request (exit status 2)."""


# ---------------------------------------------------------------------------
# argument parsing


def _parse_int_list(text: str) -> list[int]:
    values: list[int] = []
    try:
        for token in text.split(","):
            token = token.strip()
            if ".." in token:
                lo, hi = token.split("..")
                values.extend(range(int(lo), int(hi) + 1))
            else:
                values.append(int(token))
    except ValueError:
        raise _BadRequest(f"could not parse particle numbers from {text!r}")
    if not values:
        raise _BadRequest("empty particle-number list")
    if min(values) < 2:
        raise _BadRequest("particle numbers must be at least 2")
    return sorted(set(values))


def _parse_real_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _BadRequest(f"grids use start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise _BadRequest(f"bad grid bounds in {text!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _d_sort_key(token):
    if token == LOG_TOKEN:
        return (0, 0.0)
    if token == INF_TOKEN:
        return (2, 0.0)
    return (1, token)


def _parse_d_list(text: str) -> list:
    values: list = []
    for token in text.split(","):
        token = token.strip()
        if token in (LOG_TOKEN, INF_TOKEN):
            values.append(token)
        elif ":" in token:
            values.extend(_parse_real_grid(token))
        else:
            try:
                d = float(token)
            except ValueError:
                raise _BadRequest(f"could not parse exponent token {token!r}")
            if d <= 0:
                raise _BadRequest("power-law exponents must be positive")
            values.append(d)
    if not values:
        raise _BadRequest("empty exponent list")
    return sorted(set(values), key=_d_sort_key)


def _single(values, label):
    if len(values) != 1:
        raise _BadRequest(f"this command takes exactly one {label}")
    return values[0]


def _interaction(token) -> Interaction:
    if token == LOG_TOKEN:
        return Interaction.log_limit()
    if token == INF_TOKEN:
        return Interaction.hard_core()
    return Interaction.power_law(float(token))


def _d_token(token) -> str:
    return token if isinstance(token, str) else format(float(token), ".17g")


# ---------------------------------------------------------------------------
# output


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _emit(rows: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        payload = []
        for row in rows:
            entry = {}
            for col in columns:
                val = row[col]
                if isinstance(val, (int, np.integer)):
                    entry[col] = int(val)
                elif isinstance(val, str):
                    entry[col] = val
                else:
                    entry[col] = float(val)
            payload.append(entry)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(row[col]) for col in columns])
        text = buffer.getvalue()
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# shared pipeline


def _solve(n: int, token, tol: float, max_iter: int):
    spec = SystemSpec(n, _interaction(token))
    config = equilibrium.solve_equilibrium(spec, tol=tol, max_iter=max_iter)
    return spec, config


def _kernel_pipeline(n: int, token, tol: float, max_iter: int):
    if token == INF_TOKEN:
        raise InfiniteDegeneracy(
            "occupancies collapse to zero in the hard-core limit; use the density command instead"
        )
    spec, config = _solve(n, token, tol, max_iter)
    normal_modes = modes.compute_modes(spec, config)
    kernels = rdm.all_site_kernels(normal_modes, config)
    return spec, config, normal_modes, kernels


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_equilibrium(args) -> int:
    n = _single(_parse_int_list(args.n), "particle number")
    token = _single(_parse_d_list(args.d), "exponent")
    _, config = _solve(n, token, args.tol, args.max_iter)
    rows = [{"site": i + 1, "position": p} for i, p in enumerate(config.positions)]
    _emit(rows, ["site", "position"], args)
    return 0


def _cmd_modes(args) -> int:
    n = _single(_parse_int_list(args.n), "particle number")
    token = _single(_parse_d_list(args.d), "exponent")
    if token == INF_TOKEN:
        raise _BadRequest("normal modes are undefined in the hard-core limit")
    spec, config = _solve(n, token, args.tol, args.max_iter)
    normal_modes = modes.compute_modes(spec, config)
    rows = [{"mode": i + 1, "frequency": f} for i, f in enumerate(normal_modes.frequencies)]
    _emit(rows, ["mode", "frequency"], args)
    return 0


def _cmd_kernel(args) -> int:
    n = _single(_parse_int_list(args.n), "particle number")
    token = _single(_parse_d_list(args.d), "exponent")
    _, _, _, kernels = _kernel_pipeline(n, token, args.tol, args.max_iter)
    rows = [
        {
            "site": k.site,
            "center": k.center,
            "A": k.amplitude,
            "a": k.a,
            "b": k.b,
            "eta": k.eta,
            "y": k.y,
            "lambda0": rdm.leading_occupancy(k),
        }
        for k in kernels
    ]
    _emit(rows, ["site", "center", "A", "a", "b", "eta", "y", "lambda0"], args)
    return 0


def _cmd_spectrum(args) -> int:
    n = _single(_parse_int_list(args.n), "particle number")
    token = _single(_parse_d_list(args.d), "exponent")
    _, _, _, kernels = _kernel_pipeline(n, token, args.tol, args.max_iter)
    spectrum = rdm.occupancy_spectrum(kernels, tail_tol=args.tail_tol)
    rows = []
    for kernel, ladder in zip(kernels, spectrum.ladders):
        for l, lam in enumerate(ladder):
            rows.append({"site": kernel.site, "l": l, "lambda": lam})
    _emit(rows, ["site", "l", "lambda"], args)
    return 0


def _scan_point(n: int, token, tol: float, max_iter: int) -> dict:
    _, _, _, kernels = _kernel_pipeline(n, token, tol, max_iter)
    spectrum = rdm.occupancy_spectrum(kernels)
    return {"n": n, "d": _d_token(token), "K": spectrum.degree_of_correlation, "delta_K": spectrum.delta_k}


def _cmd_scan_k(args) -> int:
    n_list = _parse_int_list(args.n)
    d_list = _parse_d_list(args.d)
    rows = [_scan_point(n, token, args.tol, args.max_iter) for n in n_list for token in d_list]
    _emit(rows, ["n", "d", "K", "delta_K"], args)
    return 0


def _cmd_density(args) -> int:
    n = _single(_parse_int_list(args.n), "particle number")
    token = _single(_parse_d_list(args.d), "exponent")
    x_grid = np.array(_parse_real_grid(args.x)) if args.x else None
    if token == INF_TOKEN:
        profile = observables.hardcore_density(n, x_grid)
    else:
        if args.g is not None and args.spacing is not None:
            raise _BadRequest("give either --g or --spacing, not both")
        spec, _, _, kernels = _kernel_pipeline(n, token, args.tol, args.max_iter)
        profile = observables.density_profile(
            kernels, spec, x_grid, g=args.g, spacing=args.spacing, d_aux=args.d_aux
        )
    rows = [{"abscissa": x, "value": v} for x, v in zip(profile.abscissae, profile.values)]
    _emit(rows, ["abscissa", "value"], args)
    return 0


def _cmd_momentum(args) -> int:
    n = _single(_parse_int_list(args.n), "particle number")
    token = _single(_parse_d_list(args.d), "exponent")
    if token == INF_TOKEN:
        raise _BadRequest("the momentum distribution is not defined in the hard-core limit")
    k_grid = np.array(_parse_real_grid(args.k)) if args.k else None
    _, _, _, kernels = _kernel_pipeline(n, token, args.tol, args.max_iter)
    distribution = observables.momentum_distribution(kernels, k_grid)
    rows = [{"abscissa": k, "value": v} for k, v in zip(distribution.abscissae, distribution.values)]
    _emit(rows, ["abscissa", "value"], args)
    return 0


# ---------------------------------------------------------------------------
# verification suite


def _verify_derivatives(variants, rng) -> list[tuple[str, bool, str]]:
    results = []
    for label, interaction in variants:
        worst_grad = 0.0
        worst_hess = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            spec = SystemSpec(n, interaction)
            pos = oracle.random_admissible_positions(rng, n)
            grad = potential_gradient(spec, pos)
            grad_fd = oracle.fd_gradient(lambda p: potential_value(spec, p), pos)
            worst_grad = max(worst_grad, np.max(np.abs(grad - grad_fd)) / max(1.0, np.max(np.abs(grad))))
            hess = potential_hessian(spec, pos)
            hess_fd = oracle.fd_jacobian(lambda p: potential_gradient(spec, p), pos)
            if interaction.is_log_limit:
                hess_fd = 0.5 * hess_fd
            worst_hess = max(worst_hess, np.max(np.abs(hess - hess_fd)) / max(1.0, np.max(np.abs(hess))))
        results.append((f"gradient vs finite differences [{label}]", worst_grad <= 1e-6, f"max rel {worst_grad:.2e}"))
        results.append((f"hessian vs finite differences [{label}]", worst_hess <= 1e-5, f"max rel {worst_hess:.2e}"))
    return results


def _verify_kernels() -> list[tuple[str, bool, str]]:
    results = []
    for n, d in [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)]:
        spec, config = _solve(n, d, 1e-12, 200)
        normal_modes = modes.compute_modes(spec, config)
        kernels = rdm.all_site_kernels(normal_modes, config)
        worst = 0.0
        for kernel in kernels:
            grid = np.linspace(kernel.center - 3 * kernel.width, kernel.center + 3 * kernel.width, 9)
            for x in grid:
                for xp in grid:
                    direct = oracle.quadrature_kernel(normal_modes, config, kernel.site, x, xp)
                    worst = max(worst, abs(direct - float(rdm.kernel_value(kernel, x, xp))))
        results.append((f"kernel quadrature N={n} d={d:g}", worst <= 1e-6, f"max abs {worst:.2e}"))

        worst_nystrom = 0.0
        for kernel in kernels:
            grid = oracle.nystrom_grid(kernel)
            top = oracle.nystrom_occupancies(lambda x, xp, k=kernel: rdm.kernel_value(k, x, xp), grid, 5)
            ladder = np.array([rdm.occupancy(kernel, l) for l in range(5)])
            worst_nystrom = max(worst_nystrom, float(np.max(np.abs(top - ladder))))
        results.append((f"nystrom ladder N={n} d={d:g}", worst_nystrom <= 1e-5, f"max abs {worst_nystrom:.2e}"))

        worst_momentum = 0.0
        for k in np.linspace(-8.0, 8.0, 17):
            analytic = float(observables.momentum_distribution(kernels, [k]).values[0])
            direct = oracle.momentum_quadrature(kernels, k)
            worst_momentum = max(worst_momentum, abs(analytic - direct))
        results.append((f"momentum quadrature N={n} d={d:g}", worst_momentum <= 1e-6, f"max abs {worst_momentum:.2e}"))
    return results


def _verify_convergence() -> list[tuple[str, bool, str]]:
    spec, config = _solve(3, 2.0, 1e-12, 200)
    normal_modes = modes.compute_modes(spec, config)
    coarse = oracle.quadrature_kernel(normal_modes, config, 2, 0.1, -0.2, oracle.QuadratureSpec(points_per_dim=20))
    fine = oracle.quadrature_kernel(normal_modes, config, 2, 0.1, -0.2, oracle.QuadratureSpec(points_per_dim=40))
    drift = abs(fine - coarse)
    return [("quadrature order doubling", drift < 1e-8, f"drift {drift:.2e}")]


def _verify_cross_solver() -> list[tuple[str, bool, str]]:
    results = []
    for token in (1.0, 2.0, LOG_TOKEN):
        worst = 0.0
        for n in range(2, 9):
            spec = SystemSpec(n, _interaction(token))
            newton = equilibrium.solve_equilibrium(spec)
            derivative_free = oracle.independent_minimum(spec)
            worst = max(worst, float(np.max(np.abs(newton.positions - derivative_free.positions))))
        results.append((f"cross-solver agreement d={_d_token(token)}", worst <= 1e-8, f"max abs {worst:.2e}"))
    return results


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(20240817)
    variants = [
        ("d=0.5", Interaction.power_law(0.5)),
        ("d=1", Interaction.power_law(1.0)),
        ("d=2", Interaction.power_law(2.0)),
        ("d=6", Interaction.power_law(6.0)),
        ("log", Interaction.log_limit()),
    ]
    checks = []
    checks.extend(_verify_derivatives(variants, rng))
    checks.extend(_verify_kernels())
    checks.extend(_verify_convergence())
    checks.extend(_verify_cross_solver())
    all_passed = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
        all_passed &= passed
    return 0 if all_passed else 3


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, with_nd=True):
    if with_nd:
        parser.add_argument("--n", help="particle numbers: 4, 2,3,5 or 2..30")
        parser.add_argument("--d", help="exponents: 2, 0.5:2:0.5, or the tokens log / inf")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    parser.add_argument("--output", default=None, help="output path, '-' for stdout (default)")
    parser.add_argument("--config", default=None, help="JSON file supplying any of these options")
    parser.add_argument("--tol", type=float, default=None, help="solver tolerance on the gradient max-norm")
    parser.add_argument("--max-iter", type=int, default=None, help="solver iteration budget")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wigmol", description="Wigner-molecule tables and scans")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", help="ordered equilibrium positions")
    _add_common(p)
    p.set_defaults(handler=_cmd_equilibrium)

    p = sub.add_parser("modes", help="normal-mode frequencies")
    _add_common(p)
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("kernel", help="per-site kernel parameters and leading occupancies")
    _add_common(p)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("spectrum", help="per-site occupancy ladders")
    _add_common(p)
    p.add_argument("--tail-tol", type=float, default=None, help="ladder truncation tolerance")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("scan-k", help="degree of correlation over an (n, d) grid")
    _add_common(p)
    p.set_defaults(handler=_cmd_scan_k)

    p = sub.add_parser("density", help="one-particle density profile")
    _add_common(p)
    p.add_argument("--x", help="abscissa grid start:stop:step (default: automatic)")
    p.add_argument("--g", type=float, default=None, help="place peaks at physical centers for this coupling")
    p.add_argument("--spacing", type=float, default=None, help="place peaks on a fictitious lattice")
    p.add_argument("--d-aux", type=float, default=None, help="small exponent accompanying --g in the log limit")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("momentum", help="momentum distribution")
    _add_common(p)
    p.add_argument("--k", help="momentum grid start:stop:step (default: -8:8:0.02)")
    p.set_defaults(handler=_cmd_momentum)

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    _add_common(p, with_nd=False)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _apply_config(args) -> None:
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"could not read config file: {exc}")
        for key, value in config.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise _BadRequest(f"unknown config field {key!r}")
            if getattr(args, attr) is None:
                if isinstance(value, list):
                    value = ",".join(str(v) for v in value)
                elif attr in ("n", "d", "k", "x") and not isinstance(value, str):
                    value = str(value)
                setattr(args, attr, value)
    for attr, default in _DEFAULTS.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, default)
    for attr in ("n", "d"):
        if hasattr(args, attr) and getattr(args, attr) is None:
            raise _BadRequest(f"--{attr} is required for this command")


_VALUE_FLAGS = frozenset(
    {"--n", "--d", "--k", "--x", "--g", "--spacing", "--d-aux", "--tol", "--max-iter", "--tail-tol", "--output", "--config", "--format"}
)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Turn ['--k', '-5:5:0.01'] into ['--k=-5:5:0.01'] so argparse accepts it."""
    merged: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if token in _VALUE_FLAGS and nxt is not None and nxt.startswith("-") and nxt not in _VALUE_FLAGS:
            merged.append(f"{token}={nxt}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_negative_values(list(argv)))
    try:
        _apply_config(args)
        return args.handler(args)
    except (_BadRequest, InfiniteDegeneracy, UnsupportedLimit, InvalidScale, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, DegenerateHessian, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())

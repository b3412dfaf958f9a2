"""Command-line front end: tables, scans, and the brute-force verification suite."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import equilibrium, modes, observables, rdm, verification
from .errors import (
    DegenerateHessian,
    InfiniteDegeneracy,
    InvalidScale,
    NoConvergence,
    UnsupportedLimit,
)
from .potential import Interaction, SystemSpec

LOG_TOKEN = "log"
INF_TOKEN = "inf"

_DEFAULTS = {"format": "csv", "output": "-", "tol": 1e-12, "max_iter": 200, "tail_tol": 1e-12}
_MAX_GRID_POINTS = 1_000_000


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
    if not all(np.isfinite((start, stop, step))):
        raise _BadRequest(f"grid bounds must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise _BadRequest(f"bad grid bounds in {text!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not count <= _MAX_GRID_POINTS:
        raise _BadRequest(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    count = int(count)
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
    spec = SystemSpec(n, Interaction.from_token(token))
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


def _cmd_verify(args) -> int:
    checks = verification.all_checks()
    for check in checks:
        print(check.line())
    return 0 if all(check.passed for check in checks) else 3


# ---------------------------------------------------------------------------
# parser


def _add_common(parser):
    parser.add_argument("--n", help="particle numbers: 4, 2,3,5 or 2..30")
    parser.add_argument("--d", help="exponents: 2, 0.5:2:0.5, or the tokens log / inf")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    parser.add_argument("--output", default=None, help="output path, '-' for stdout (default)")
    parser.add_argument("--config", default=None, help="JSON file supplying any of these options")
    parser.add_argument("--tol", type=float, default=None, help="solver tolerance on the gradient max-norm")
    parser.add_argument("--max-iter", type=int, default=None, help="solver iteration budget")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name."""
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
    p.set_defaults(handler=_cmd_verify)

    return parser, sub.choices


def _config_value(action, key, value):
    """A --config value checked like its flag's text; numeric options take JSON numbers."""
    if isinstance(value, list):
        value = ",".join(str(v) for v in value)
    if action.type is None:
        value = str(value)
    else:
        allowed = (int, float) if action.type is float else (int,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise _BadRequest(f"config field {key!r} must be a JSON {action.type.__name__}, got {value!r}")
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise _BadRequest(f"config field {key!r} must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def _apply_config(args, command: argparse.ArgumentParser) -> None:
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"could not read config file: {exc}")
        actions = {action.dest: action for action in command._actions}
        for key, value in config.items():
            attr = key.replace("-", "_")
            if attr not in actions or not hasattr(args, attr):
                raise _BadRequest(f"unknown config field {key!r}")
            value = _config_value(actions[attr], key, value)
            if getattr(args, attr) is None:
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
    parser, commands = _build_parser()
    args = parser.parse_args(_join_negative_values(list(argv)))
    try:
        _apply_config(args, commands[args.command])
        return args.handler(args)
    except (_BadRequest, InfiniteDegeneracy, UnsupportedLimit, InvalidScale, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, DegenerateHessian, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())

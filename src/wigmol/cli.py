"""Command-line front end: tables, scans, and the brute-force verification suite."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from . import equilibrium, modes, observables, rdm, verification
from .errors import InvalidScale, UnsupportedLimit, WigmolError
from .potential import Interaction, SystemSpec

_DEFAULTS = dict(format="csv", output="-", tail_tol=rdm.DEFAULT_TAIL_TOL,
                 tol=equilibrium.DEFAULT_TOL, max_iter=equilibrium.DEFAULT_MAX_ITER)
_MAX_GRID_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# argument parsing; bad requests raise ValueError, which main turns into exit 2


def _parse_int_list(text: str) -> list[int]:
    """Sorted distinct integers from ``4``, ``2,3,5`` or ``2..30``; SystemSpec checks each."""
    ranges = []
    try:
        for token in text.split(","):
            lo, dots, hi = token.strip().partition("..")
            ranges.append(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise ValueError(f"could not parse particle numbers from {text!r}")
    if sum(max(r.stop - r.start, 0) for r in ranges) > _MAX_GRID_POINTS:
        raise ValueError(f"particle-number list {text!r} has more than {_MAX_GRID_POINTS} values")
    values = sorted(set(itertools.chain.from_iterable(ranges)))
    if not values:
        raise ValueError("empty particle-number list")
    return values


def _parse_real_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grids use start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(np.isfinite((start, stop, step))):
        raise ValueError(f"grid bounds must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid bounds in {text!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not count <= _MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    # float(i) is exact, so point i is bitwise the scalar start + i * step
    return start + np.arange(int(count)) * step


def _parse_d_list(text: str) -> list[Interaction]:
    """Distinct interactions from tokens and start:stop:step grids: the log limit, ascending d, the hard core."""
    interactions = set()
    for token in text.split(","):
        token = token.strip()
        if ":" in token:
            interactions.update(map(Interaction.power_law, _parse_real_grid(token).tolist()))
        else:
            interactions.add(Interaction.from_token(token))
    return sorted(interactions)


def _one_point(args) -> SystemSpec:
    """The one (N, d) point of a single-point command."""
    sizes, interactions = _parse_int_list(args.n), _parse_d_list(args.d)
    if len(sizes) * len(interactions) != 1:
        raise ValueError(f"this command takes one (N, d) point, got {len(sizes) * len(interactions)}")
    return SystemSpec(sizes[0], interactions[0])


def _d_token(token) -> str:
    return token if isinstance(token, str) else format(float(token), ".17g")


# ---------------------------------------------------------------------------
# output


def _render(table: dict, fmt: str) -> str:
    """The table as CSV, or as ``json.dumps(rows, indent=2)`` of its row objects.

    CSV fields are numbers and d tokens, which ``csv.writer`` never quotes,
    so the body is one ``%`` call: a row template (``%.17g`` for float
    columns, ``%s`` for the rest) repeated once per row, applied to the
    cells in row-major order.
    """
    names = list(table)
    columns = [np.asarray(table[name]) for name in names]
    if fmt == "csv":
        template = ",".join("%.17g" if column.dtype.kind == "f" else "%s" for column in columns) + "\n"
        cells = np.array([column.tolist() for column in columns], dtype=object).T.ravel().tolist()
        return ",".join(names) + "\n" + (template * len(columns[0])) % tuple(cells)
    rows = [dict(zip(names, values)) for values in zip(*(column.tolist() for column in columns))]
    return json.dumps(rows, indent=2) + "\n"


def _emit(table: dict, args) -> None:
    """Write a table given as named columns, in order, to stdout or ``args.output``."""
    text = _render(table, args.format)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# shared pipeline


def _solve(spec: SystemSpec, args) -> equilibrium.Configuration:
    return equilibrium.solve_equilibrium(spec, tol=args.tol, max_iter=args.max_iter)


def _molecule(spec: SystemSpec, args) -> rdm.Molecule:
    return rdm.pipeline(spec, tol=args.tol, max_iter=args.max_iter)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_equilibrium(args) -> dict:
    config = _solve(_one_point(args), args)
    return {"site": np.arange(1, config.n_particles + 1), "position": config.positions}


def _cmd_modes(args) -> dict:
    spec = _one_point(args)
    frequencies = modes.compute_modes(spec, _solve(spec, args)).frequencies
    return {"mode": np.arange(1, frequencies.size + 1), "frequency": frequencies}


def _cmd_kernel(args) -> dict:
    k = _molecule(_one_point(args), args).kernels
    return {
        "site": np.arange(1, k.center.size + 1), "center": k.center, "A": k.amplitude, "a": k.a,
        "b": k.b, "eta": k.eta, "y": k.y, "lambda0": rdm.leading_occupancy(k),
    }


def _cmd_spectrum(args) -> dict:
    spec = _one_point(args)
    n = spec.n_particles
    ladders = rdm.occupancy_spectrum(_molecule(spec, args).kernels, tail_tol=args.tail_tol).ladders
    lengths = np.fromiter(map(len, ladders), dtype=int, count=n)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    rungs = np.arange(starts.size) - starts
    return {"site": np.repeat(np.arange(1, n + 1), lengths), "l": rungs, "lambda": np.concatenate(ladders)}


def _cmd_scan_k(args) -> dict:
    points = []
    for n, interaction in itertools.product(_parse_int_list(args.n), _parse_d_list(args.d)):
        spectrum = rdm.occupancy_spectrum(_molecule(SystemSpec(n, interaction), args).kernels)
        points.append((n, _d_token(interaction.d or "log"), spectrum.degree_of_correlation, spectrum.delta_k))
    return dict(zip(("n", "d", "K", "delta_K"), zip(*points)))


def _cmd_density(args) -> dict:
    spec = _one_point(args)
    x_grid = _parse_real_grid(args.x) if args.x else None
    if spec.interaction.is_hard_core:
        # the hard-core profile reads none of the solver or placement flags; they
        # are checked all the same, as at finite d
        _solve(spec, args)
        observables.placement_factor(spec, args.g, args.spacing, args.d_aux)
        profile = observables.hardcore_density(spec.n_particles, x_grid)
    else:
        molecule = _molecule(spec, args)
        profile = observables.density_profile(
            molecule.kernels, molecule.spec, x_grid, g=args.g, spacing=args.spacing, d_aux=args.d_aux
        )
    return {"abscissa": profile.abscissae, "value": profile.values}


def _cmd_momentum(args) -> dict:
    spec = _one_point(args)
    k_grid = _parse_real_grid(args.k) if args.k else None
    distribution = observables.momentum_distribution(_molecule(spec, args).kernels, k_grid)
    return {"abscissa": distribution.abscissae, "value": distribution.values}


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


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name.

    Built on the first :func:`main` call and kept for the process: parsing
    leaves no state in a parser, and configs and defaults go onto each
    call's own namespace.
    """
    parser = argparse.ArgumentParser(prog="wigmol", description="Wigner-molecule tables and scans")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in (
        ("equilibrium", _cmd_equilibrium, "ordered equilibrium positions"),
        ("modes", _cmd_modes, "normal-mode frequencies"),
        ("kernel", _cmd_kernel, "per-site kernel parameters and leading occupancies"),
        ("spectrum", _cmd_spectrum, "per-site occupancy ladders"),
        ("scan-k", _cmd_scan_k, "degree of correlation over an (n, d) grid"),
        ("density", _cmd_density, "one-particle density profile"),
        ("momentum", _cmd_momentum, "momentum distribution"),
        ("verify", _cmd_verify, "run the brute-force verification suite"),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        if name != "verify":
            _add_common(p)
    sub.choices["spectrum"].add_argument("--tail-tol", type=float, default=None, help="ladder truncation tolerance")
    p = sub.choices["density"]
    p.add_argument("--x", help="abscissa grid start:stop:step (default: automatic)")
    p.add_argument("--g", type=float, default=None, help="place peaks at physical centers for this coupling")
    p.add_argument("--spacing", type=float, default=None, help="place peaks on a fictitious lattice")
    p.add_argument("--d-aux", type=float, default=None, help="small exponent accompanying --g in the log limit")
    sub.choices["momentum"].add_argument("--k", help="momentum grid start:stop:step (default: -8:8:0.02)")
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
            raise ValueError(f"config field {key!r} must be a JSON {action.type.__name__}, got {value!r}")
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config field {key!r} must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def _apply_config(args, command: argparse.ArgumentParser) -> None:
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"could not read config file: {exc}")
        actions = {action.dest: action for action in command._actions}
        for key, value in config.items():
            attr = key.replace("-", "_")
            if attr not in actions or not hasattr(args, attr):
                raise ValueError(f"unknown config field {key!r}")
            value = _config_value(actions[attr], key, value)
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    for attr, default in _DEFAULTS.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, default)
    for attr in ("n", "d"):
        if hasattr(args, attr) and getattr(args, attr) is None:
            raise ValueError(f"--{attr} is required for this command")


def _value_flags(commands: dict[str, argparse.ArgumentParser]) -> frozenset[str]:
    """Every option string of every command that takes one value."""
    actions = (action for command in commands.values() for action in command._actions if action.nargs is None)
    return frozenset(flag for action in actions for flag in action.option_strings)


def _join_negative_values(argv: list[str], value_flags: frozenset[str]) -> list[str]:
    """Turn ['--k', '-5:5:0.01'] into ['--k=-5:5:0.01'] so argparse accepts it."""
    merged: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if token in value_flags and nxt is not None and nxt.startswith("-") and nxt not in value_flags:
            merged.append(f"{token}={nxt}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    args = parser.parse_args(_join_negative_values(list(argv), _value_flags(commands)))
    try:
        _apply_config(args, commands[args.command])
        table = args.handler(args)  # verify prints its lines and returns its status
        if not isinstance(table, dict):
            return table
        _emit(table, args)
        return 0
    except np.linalg.LinAlgError as exc:  # a ValueError, but not one the request causes
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedLimit, InvalidScale, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WigmolError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

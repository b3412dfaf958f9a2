"""The column table writer, the command columns and the per-process parser.

The reference writer here is the row writer the command line used before
it formatted whole columns: one dict per row, ``csv.writer`` with the
value formatting below, or ``json.dumps`` of the row dicts.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import kernel_set
from wigmol import cli, observables, rdm


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def reference_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
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
        return json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row[col]) for col in columns])
    return buffer.getvalue()


def reference_table(table: dict, fmt: str) -> str:
    """The row writer on a column table, iterating each column as the row-building handlers did."""
    names = list(table)
    return reference_rows([dict(zip(names, values)) for values in zip(*table.values())], names, fmt)


SPECIAL = [-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, 0.1, 1.0, -19.995000000000001]
TOKENS = ["log", "inf", *(cli._d_token(d) for d in (0.25, 2.0, 1e-3, 0.1, 1e5, 0.30000000000000004, 1.5))]

GOLDEN = {
    "mixed": {
        "n": list(range(2, 2 + len(SPECIAL))),  # Python ints
        "l": np.arange(len(SPECIAL)),  # numpy int64
        "site": np.arange(1, len(SPECIAL) + 1, dtype=np.int32),
        "steps": [np.int64(v) for v in range(len(SPECIAL))],  # numpy int scalars in a list
        "d": TOKENS,
        "value": np.array(SPECIAL),
        "K": SPECIAL[::-1],  # Python floats
        "delta_K": [np.float64(v) for v in SPECIAL],
    },
    "two_floats": {"abscissa": -20.0 + np.arange(2001) * 0.02, "value": np.exp(-np.linspace(-8.0, 8.0, 2001) ** 2)},
    "empty": {"abscissa": np.array([]), "value": np.array([])},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(GOLDEN))
def test_column_writer_matches_the_row_writer(name, fmt, tmp_path, capsys):
    table = GOLDEN[name]
    expected = reference_table(table, fmt)
    for output in (None, "-"):
        cli._emit(table, argparse.Namespace(format=fmt, output=output))
        assert capsys.readouterr().out == expected
    target = tmp_path / f"{name}.{fmt}"
    cli._emit(table, argparse.Namespace(format=fmt, output=str(target)))
    assert target.read_bytes() == expected.encode()
    assert capsys.readouterr().out == ""


def test_csv_is_the_per_value_join_byte_for_byte():
    floats = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e17, 0.1]
    tokens = [cli._d_token(d) for d in ("log", "inf", 0.5, 1e-3, 2.0, 1e5, 0.30000000000000004, 1.5)]
    table = {"site": np.arange(1, len(floats) + 1), "d": tokens, "value": np.array(floats)}
    rows = zip(table["site"].tolist(), tokens, floats)
    expected = "site,d,value\n" + "".join(f"{str(i)},{str(d)},{format(v, '.17g')}\n" for i, d, v in rows)
    assert cli._render(table, "csv") == expected
    empty = {"site": np.array([], dtype=int), "d": [], "value": np.array([])}
    assert cli._render(empty, "csv") == "site,d,value\n"


@pytest.mark.parametrize("text", ["-20:20:0.005", "-8:8:0.02", "0.1:0.7:0.1", "-5:5:0.5", "3:3:1", "1e-3:2e-3:1e-5"])
def test_real_grid_is_bitwise_the_list_of_start_plus_i_step(text):
    start, _, step = (float(p) for p in text.split(":"))
    grid = cli._parse_real_grid(text)
    expected = [start + i * step for i in range(grid.size)]
    assert grid.dtype == float
    assert grid.tolist() == expected
    assert grid.tobytes() == np.array(expected).tobytes()


def run(argv, capsys):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_kernel_and_spectrum_columns_match_the_per_site_rows(capsys):
    _, _, _, kernels = kernel_set(20, 1.0)
    rows = [
        {"site": k.site, "center": k.center, "A": k.amplitude, "a": k.a, "b": k.b, "eta": k.eta, "y": k.y}
        | {"lambda0": rdm.leading_occupancy(k)}
        for k in kernels
    ]
    spectrum = rdm.occupancy_spectrum(kernels, tail_tol=1e-9)
    ladder_rows = [
        {"site": kernel.site, "l": l, "lambda": lam}
        for kernel, ladder in zip(kernels, spectrum.ladders)
        for l, lam in enumerate(ladder)
    ]
    assert len({ladder.size for ladder in spectrum.ladders}) > 1
    for fmt in ("csv", "json"):
        status, out, _ = run(["kernel", "--n", "20", "--d", "1", "--format", fmt], capsys)
        assert status == 0
        assert out == reference_rows(rows, ["site", "center", "A", "a", "b", "eta", "y", "lambda0"], fmt)
        status, out, _ = run(["spectrum", "--n", "20", "--d", "1", "--tail-tol", "1e-9", "--format", fmt], capsys)
        assert status == 0
        assert out == reference_rows(ladder_rows, ["site", "l", "lambda"], fmt)


def test_leading_occupancy_of_a_set_is_each_sites_value():
    for n, token in ((3, 1.0), (61, "log"), (40, 0.5)):
        _, _, _, kernels = kernel_set(n, token)
        values = rdm.leading_occupancy(kernels)
        assert values.tolist() == [rdm.leading_occupancy(k) for k in kernels]


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--n", "7", "--d", "0.5"],
        ["density", "--n", "7", "--d", "log", "--g", "40", "--d-aux", "0.1"],
        ["momentum", "--n", "7", "--d", "1", "--k", "-2:2:0.5"],
        ["kernel", "--n", "7", "--d", "1"],
        ["spectrum", "--n", "7", "--d", "log"],
    ],
)
def test_table_commands_build_no_site_kernels(argv, monkeypatch, capsys):
    built = []
    original = rdm.SiteKernel.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(rdm.SiteKernel, "__init__", counting)
    assert run(argv, capsys)[0] == 0
    assert built == []


def test_stdout_and_output_file_carry_the_same_bytes(tmp_path, capsys):
    _, _, _, kernels = kernel_set(3, 1.0)
    grid = cli._parse_real_grid("-1:1:0.25")
    distribution = observables.momentum_distribution(kernels, grid)
    rows = [{"abscissa": k, "value": v} for k, v in zip(distribution.abscissae, distribution.values)]
    for fmt in ("csv", "json"):
        argv = ["momentum", "--n", "3", "--d", "1", "--k", "-1:1:0.25", "--format", fmt]
        status, out, _ = run(argv, capsys)
        assert status == 0
        assert out == reference_rows(rows, ["abscissa", "value"], fmt)
        target = tmp_path / f"table.{fmt}"
        assert run([*argv, "--output", str(target)], capsys) == (0, "", "")
        assert target.read_bytes() == out.encode()


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def fresh_parser():
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_parser_is_built_once_per_process(fresh_parser, monkeypatch, capsys):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argvs = [
        ["equilibrium", "--n", "3", "--d", "1"],
        ["modes", "--n", "3", "--d", "2"],
        ["scan-k", "--n", "2", "--d", "log"],
        ["kernel", "--n", "2", "--d", "inf"],
    ]
    assert run(argvs[0], capsys)[0] == 0
    first_call = list(built)
    for argv in argvs[1:]:
        run(argv, capsys)
    with pytest.raises(SystemExit):
        cli.main(["kernel", "--no-such-flag"])
    assert built.count("wigmol") == 1
    assert built == first_call
    assert len(first_call) == 1 + len(cli._build_parser()[1])


def test_config_run_leaves_no_defaults_behind(tmp_path, monkeypatch, capsys):
    seen = []
    original = cli._apply_config

    def recording(args, command):
        original(args, command)
        seen.append(vars(args).copy())

    monkeypatch.setattr(cli, "_apply_config", recording)
    config = tmp_path / "request.json"
    config.write_text(json.dumps({"n": 3, "d": 1, "format": "json", "tol": 1e-9, "max_iter": 50, "tail_tol": 1e-6}))
    plain = ["spectrum", "--n", "3", "--d", "1"]
    status, before, _ = run(plain, capsys)
    assert status == 0
    status, configured, _ = run(["spectrum", "--config", str(config)], capsys)
    assert status == 0
    assert json.loads(configured)
    status, after, _ = run(plain, capsys)
    assert status == 0
    assert after == before
    assert seen[1]["format"] == "json" and seen[1]["tail_tol"] == 1e-6
    for args in (seen[0], seen[2]):
        assert {key: args[key] for key in cli._DEFAULTS} == cli._DEFAULTS
        assert args["config"] is None


def subprocess_env():
    source = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))


def test_bad_request_then_good_request_prints_a_fresh_process_output(capsys):
    good = ["kernel", "--n", "3", "--d", "1"]
    fresh = subprocess.run([sys.executable, "-m", "wigmol", *good], capture_output=True, env=subprocess_env(), check=False)
    assert fresh.returncode == 0
    status, _, err = run(["kernel", "--n", "2", "--d", "inf"], capsys)
    assert status == 2 and err
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*good, "--no-such-flag"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    status, out, err = run(good, capsys)
    assert status == 0
    assert out.encode() == fresh.stdout
    assert err.encode() == fresh.stderr == b""


@pytest.mark.parametrize(
    "argv",
    [["equilibrium", "--n", "3", "--d", "1"], ["kernel", "--n", "2", "--d", "inf"], ["kernel", "--n", "2", "--no-such-flag"]],
    ids=["good", "bad_request", "bad_flag"],
)
def test_python_dash_m_wigmol_cli_runs_the_command_line(argv):
    runs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=subprocess_env(), check=False)
        for module in ("wigmol.cli", "wigmol")
    ]
    assert runs[0].returncode == runs[1].returncode == (0 if argv[0] == "equilibrium" else 2)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stdout if argv[0] == "equilibrium" else runs[0].stderr

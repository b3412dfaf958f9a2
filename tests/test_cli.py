import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wigmol import cli, verification


def run(argv, capsys):
    status = cli.main(argv)
    output = capsys.readouterr()
    return status, output.out, output.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_scan_k_table(capsys):
    status, out, _ = run(["scan-k", "--n", "2..4", "--d", "log,2"], capsys)
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["n", "d", "K", "delta_K"]
    assert [r[:2] for r in rows] == [
        ["2", "log"],
        ["2", "2"],
        ["3", "log"],
        ["3", "2"],
        ["4", "log"],
        ["4", "2"],
    ]
    by_key = {(r[0], r[1]): float(r[3]) for r in rows}
    assert abs(by_key[("2", "2")] - 0.0607) < 1e-3
    assert abs(by_key[("4", "2")] - 0.1300) < 1e-3


def test_csv_is_deterministic_and_newline_terminated(capsys):
    argv = ["scan-k", "--n", "2,3", "--d", "0.5,2"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    assert first.endswith("\n")
    assert "\r" not in first


def test_floats_carry_full_precision(capsys):
    _, out, _ = run(["scan-k", "--n", "2", "--d", "2"], capsys)
    _, rows = parse_csv(out)
    # K for two particles at d = 2 is 3/sqrt(2), rendered with 17 significant digits
    assert rows[0][2] == format(3.0 / np.sqrt(2.0), ".17g")


def test_kernel_table(capsys):
    status, out, _ = run(["kernel", "--n", "3", "--d", "1"], capsys)
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["site", "center", "A", "a", "b", "eta", "y", "lambda0"]
    lambda0 = [float(r[-1]) for r in rows]
    assert abs(lambda0[0] - 0.3249) < 5e-4
    assert abs(lambda0[1] - 0.3193) < 5e-4
    assert lambda0[0] == lambda0[2]


def test_equilibrium_and_modes_tables(capsys):
    status, out, _ = run(["equilibrium", "--n", "2", "--d", "1"], capsys)
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["site", "position"]
    assert abs(float(rows[1][1]) - 2.0 ** (-2.0 / 3.0)) < 1e-10

    status, out, _ = run(["modes", "--n", "2", "--d", "2"], capsys)
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["mode", "frequency"]
    assert [float(r[1]) for r in rows] == pytest.approx([1.0, 2.0])


def test_equilibrium_hard_core(capsys):
    status, out, _ = run(["equilibrium", "--n", "3", "--d", "inf"], capsys)
    assert status == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [-1.0, 0.0, 1.0]


def test_spectrum_table(capsys):
    status, out, _ = run(["spectrum", "--n", "2", "--d", "log", "--tail-tol", "1e-10"], capsys)
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["site", "l", "lambda"]
    total = sum(float(r[2]) for r in rows)
    assert abs(total - 1.0) < 1e-9
    leading = [float(r[2]) for r in rows if r[1] == "0"]
    assert abs(leading[0] - 0.496) < 1e-3


def test_momentum_grid_and_value(capsys):
    status, out, _ = run(["momentum", "--n", "2", "--d", "2", "--k", "-5:5:0.5"], capsys)
    assert status == 0
    header, rows = parse_csv(out)
    assert header == ["abscissa", "value"]
    assert len(rows) == 21
    center = [float(r[1]) for r in rows if float(r[0]) == 0.0]
    assert abs(center[0] - 0.46066) < 1e-4


def test_density_hard_core(capsys):
    status, out, _ = run(["density", "--n", "2", "--d", "inf", "--x", "-0.5:0.5:0.5"], capsys)
    assert status == 0
    _, rows = parse_csv(out)
    expected = (1.0 + np.exp(-2.0)) / np.sqrt(2.0 * np.pi)
    assert abs(float(rows[0][1]) - expected) < 1e-12


def test_every_value_option_takes_a_value_starting_with_a_dash(capsys):
    # argparse reads "-1e0" as a flag, not a negative number, so it reaches an
    # option only joined to it; an option whose type or choices refuse it must
    # then name the value rather than ask for one
    parser, commands = cli._build_parser()
    value_flags = cli._value_flags(commands)
    flags = set()
    for name, command in commands.items():
        for action in command._actions:
            if action.nargs is not None:
                continue
            for flag in action.option_strings:
                argv = cli._join_negative_values([name, flag, "-1e0"], value_flags)
                try:
                    args = parser.parse_args(argv)
                except SystemExit:
                    assert "'-1e0'" in capsys.readouterr().err, (name, flag)
                else:
                    assert getattr(args, action.dest) == (action.type or str)("-1e0"), (name, flag)
                flags.add(flag)
    assert {"--n", "--d", "--k", "--x", "--tail-tol", "--format"} <= flags


def test_density_with_coupling(capsys):
    status, out, _ = run(["density", "--n", "2", "--d", "2", "--g", "16"], capsys)
    assert status == 0
    _, rows = parse_csv(out)
    values = np.array([[float(r[0]), float(r[1])] for r in rows])
    top = values[np.argmax(values[:, 1]), 0]
    assert abs(abs(top) - np.sqrt(2.0)) < 0.01


def test_json_output(capsys):
    status, out, _ = run(["kernel", "--n", "2", "--d", "2", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert [row["site"] for row in payload] == [1, 2]
    assert payload[0]["lambda0"] == pytest.approx(2.0 * np.sqrt(2.0) / (1.0 + np.sqrt(2.0)) ** 2)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    status, out, _ = run(["scan-k", "--n", "2", "--d", "2", "--output", str(target)], capsys)
    assert status == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    assert header == ["n", "d", "K", "delta_K"]
    assert len(rows) == 1


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "request.json"
    config.write_text(json.dumps({"n": 3, "d": 1, "format": "json"}))
    status, out, _ = run(["kernel", "--config", str(config)], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload[0]["lambda0"] == pytest.approx(0.3249, abs=5e-4)


def test_explicit_flags_override_config(tmp_path, capsys):
    config = tmp_path / "request.json"
    config.write_text(json.dumps({"n": 3, "d": 1, "format": "json"}))
    status, out, _ = run(["kernel", "--config", str(config), "--format", "csv"], capsys)
    assert status == 0
    header, _ = parse_csv(out)
    assert header[0] == "site"


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--n", "2", "--d", "inf"],
        ["spectrum", "--n", "2", "--d", "inf"],
        ["scan-k", "--n", "2,3", "--d", "log,inf"],
        ["momentum", "--n", "2", "--d", "inf"],
        ["modes", "--n", "2", "--d", "inf"],
        ["scan-k", "--n", "1", "--d", "2"],
        ["scan-k", "--n", "2", "--d", "-1"],
        ["scan-k", "--n", "2", "--d", "banana"],
        ["kernel", "--n", "2,3", "--d", "2"],
        ["kernel", "--d", "2"],
        ["density", "--n", "2", "--d", "2", "--g", "1", "--spacing", "1"],
        ["density", "--n", "2", "--d", "2", "--g", "-3"],
        ["scan-k", "--n", "2", "--d", "1e400"],
        ["scan-k", "--n", "2", "--d", "infinity"],
        ["momentum", "--n", "2", "--d", "2", "--k", "0:inf:1"],
        ["density", "--n", "2", "--d", "2", "--x", "-inf:0:1"],
        ["momentum", "--n", "2", "--d", "2", "--k", "0:1e300:1e-300"],
        ["momentum", "--n", "2", "--d", "2", "--k", "0:1e9:1"],
    ],
)
def test_invalid_requests_exit_2(argv, capsys):
    status, _, err = run(argv, capsys)
    assert status == 2
    assert err.strip()


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_solver_failure_exits_3(capsys):
    status, _, err = run(["scan-k", "--n", "10", "--d", "6", "--max-iter", "1"], capsys)
    assert status == 3
    assert "numerical failure" in err


def test_solver_failure_names_its_state(capsys):
    status, out, err = run(["scan-k", "--n", "2,7", "--d", "1.5", "--max-iter", "1"], capsys)
    assert status == 3
    assert out == ""
    # N = 2 converges from its exact start; N = 7 runs out of iterations
    assert "N=7, d=1.5" in err
    assert "gradient max-norm" in err
    assert "after 1 Newton iterations" in err


def test_overflowing_start_fails_without_warnings():
    source = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-W", "default", "-m", "wigmol", "density", "--n", "2", "--d", "1e300"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("numerical failure: N=2, d=1e+300:")
    assert "gradient max-norm inf" in done.stderr
    assert "Warning" not in done.stderr


def test_missing_config_file_exits_2(capsys):
    status, _, err = run(["kernel", "--n", "2", "--d", "2", "--config", "/nonexistent.json"], capsys)
    assert status == 2


@pytest.mark.parametrize("field", [{"tol": "abc"}, {"max_iter": "5"}, {"format": "xml"}])
def test_bad_config_values_exit_2(field, tmp_path, capsys):
    config = tmp_path / "request.json"
    config.write_text(json.dumps({"n": 2, "d": 2, **field}))
    status, out, err = run(["kernel", "--config", str(config)], capsys)
    assert status == 2
    assert out == ""
    assert next(iter(field)) in err


def test_verify_reports_all_checks(capsys):
    status, out, _ = run(["verify"], capsys)
    assert status == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
    text = out.lower()
    for fragment in ("gradient", "hessian", "kernel quadrature", "nystrom", "momentum", "cross-solver", "doubling"):
        assert fragment in text


def test_verify_takes_no_options(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--format", "json"])
    assert excinfo.value.code == 2


def test_verify_failure_exits_3(monkeypatch, capsys):
    failing = verification.Check("synthetic check", False, 1.0, 1e-6)
    monkeypatch.setattr(verification, "all_checks", lambda: [failing])
    status, out, _ = run(["verify"], capsys)
    assert status == 3
    assert out == "FAIL synthetic check (max abs 1.00e+00)\n"


def test_python_dash_m_runs_the_same_command_line(capsys):
    source = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    argv = ["equilibrium", "--n", "3", "--d", "1"]
    done = subprocess.run([sys.executable, "-m", "wigmol", *argv], capture_output=True, env=env, check=False)
    status, out, _ = run(argv, capsys)
    assert done.returncode == status == 0
    assert done.stdout == out.encode()
    bad_argv = [sys.executable, "-m", "wigmol", *argv, "--no-such-flag"]
    bad = subprocess.run(bad_argv, capture_output=True, env=env, check=False)
    assert bad.returncode == 2
    assert b"--no-such-flag" in bad.stderr

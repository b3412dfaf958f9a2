"""Every script in demos/ runs as a program and prints its table."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# demo file -> lines its table must print (a figure is drawn only when matplotlib is installed)
TABLES = {
    "correlation_scan.py": [
        "  N        log      d=0.5        d=1        d=2        d=6",
        "  2     2.0301     2.0527     2.0759     2.1213     2.2764",
        "smallest N with delta_K > 0.2 (the N-orbital truncation threshold):",
    ],
    "density_truncation.py": [
        "N=2 d=2    delta_K=0.061  peak-relative truncation gap 2.182%",
        "N=2 d=10   delta_K=0.199  peak-relative truncation gap 6.815%",
        "N=3 d=2    delta_K=0.100  peak-relative truncation gap 4.843%",
        "N=3 d=6    delta_K=0.208  peak-relative truncation gap 9.344%",
        "N=4 d=2    delta_K=0.130  peak-relative truncation gap 5.839%",
        "N=4 d=4    delta_K=0.202  peak-relative truncation gap 8.723%",
    ],
    "limits_tour.py": ["== small-d limit, N=4, physical centers at g=1e+06 ==", "== hard-core limit, N="],
    "momentum_broadening.py": [
        "    d       n(0)   variance   integral",
        "    2    0.46066    0.75000   1.000000",
    ],
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_demo_prints_its_table(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in TABLES[name]:
        assert line in out

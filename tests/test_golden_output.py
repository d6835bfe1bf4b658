"""The CLI's standard output on three reference runs, byte for byte.

The files under ``golden/`` hold the output of ``tdual fixtures --all``
and of ``tdual tables`` in JSON for sigma(4) and crosscap(6) at
j = k = 1.  Every line there is a group, a check result or a count, so
they hold still while the generators behind them change.
"""

from pathlib import Path

import pytest

from tdual.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = {
    "fixtures_all.txt": ["fixtures", "--all"],
    "tables_sigma_g4_j1_k1.json":
        ["tables", "sigma", "--g", "4", "--j", "1", "--k", "1", "--format", "json"],
    "tables_crosscap_n6_j1_k1.json":
        ["tables", "crosscap", "--n", "6", "--j", "1", "--k", "1", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden_file(name, capsys):
    assert main(RUNS[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()

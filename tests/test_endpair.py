"""tools/endpair.py, the table of large-M end-pair checks that CI runs."""
import dataclasses
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "endpair.py")
sys.path.insert(0, os.path.dirname(SCRIPT))

import endpair  # noqa: E402


@pytest.mark.parametrize("row", ["n40", "n100"])
def test_the_cheapest_rows_pass_in_a_fresh_process(row):
    # the rows CI runs, through the script as CI calls it
    run = subprocess.run([sys.executable, SCRIPT, row], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert "E_N" in run.stdout and "sweep-path rho" in run.stdout, run.stdout


def test_a_shifted_reference_fails(monkeypatch, capsys):
    row = endpair.ROWS["n40"]
    monkeypatch.setitem(endpair.ROWS, "n40", dataclasses.replace(row, e_n=row.e_n + 1e-3))
    assert endpair.main(["n40"]) == 1
    assert "failed E_N" in capsys.readouterr().err


def test_ci_runs_every_row_once():
    # so no row's bounds can drop out of CI unnoticed
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as fh:
        called = re.findall(r"python3 tools/endpair\.py (\S+)", fh.read())
    assert sorted(called) == sorted(endpair.ROWS)

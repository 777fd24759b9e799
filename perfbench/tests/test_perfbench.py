"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from passes import prepare  # noqa: E402

cli = run.import_bosefold()


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _tiny(monkeypatch, main=None):
    monkeypatch.setitem(run.WORKLOADS, "tiny", lambda seed: workloads.warmup())
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    if main is not None:
        monkeypatch.setattr(cli, "main", main)


def _result(capsys, trace):
    assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("failed_frac") for line in lines)
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(monkeypatch, capsys, trace, section):
    _tiny(monkeypatch)
    result = _result(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _corrupt_first_sweep_fraction(out_dir):
    path = os.path.join(out_dir, "sweep.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)  # collection_fraction of the first point
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_corrupted_output_counts_in_failed_frac(monkeypatch, capsys):
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == "sweep" and os.sep + "jobs" + os.sep in argv[-1] + os.sep:
            _corrupt_first_sweep_fraction(argv[-1])
        return code

    _tiny(monkeypatch, corrupting_main)
    result = _result(capsys, 0)
    passes = result["attempted"] // 3  # tiny pass: 2 sweep points + 1 snapshot
    assert result["attempted"] == 3 * passes
    assert result["failed"] == passes
    assert result["correct"] is False


def test_each_check_flags_only_its_own_state(tmp_path):
    sweep, quench = prepared = prepare(workloads.warmup(), str(tmp_path))
    errors = [None, None]
    for p in prepared:
        assert cli.main(p.argv) == 0
    oracles = {sweep.job.label: run.sweep_oracle(sweep.job)}
    assert all(c.ok for c in run.check_pass(prepared, errors, oracles))

    _corrupt_first_sweep_fraction(sweep.out_dir)
    path = os.path.join(quench.out_dir, "occupations_mps.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("\n1,1,", "\n1,1,9", 1))
    checks = run.check_pass(prepared, errors, oracles)
    assert [c.ok for c in checks] == [False, True, False]

    checks = run.check_pass(prepared, ["boom", None], oracles)
    assert [c.ok for c in checks] == [False, False, False]


def test_seed_zero_is_the_reference_grid_and_seeds_repeat():
    (m16,) = workloads.sweep_m16(0)
    assert m16.mu_values == (0.0, 6.0, 20.0, 40.0, 60.0)
    assert len(m16.ref_e_n) == m16.n_states
    assert workloads.sweep_m16(7) == workloads.sweep_m16(7)
    (jittered,) = workloads.sweep_m16(7)
    assert jittered.ref_e_n is None
    assert jittered.mu_values[0] == 0.0
    for mu, ref in zip(jittered.mu_values[1:], m16.mu_values[1:]):
        assert mu != ref and abs(mu - ref) <= 0.02 * 20

    (release,) = workloads.quench_snapshots(7)
    dt = release.t_end / (release.steps - 1)
    assert len(release.snapshot_times) == 21
    assert all(t == round(t / dt) * dt for t in release.snapshot_times)
    assert 950 <= release.barrier[2] <= 1050


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

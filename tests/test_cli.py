import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bosefold import cli
from bosefold.cli import main
from bosefold.errors import ValidationError
from bosefold.folding import plan_from_text

SWEEP_CFG = """\
[scenario]
kind = collision_sweep
m1 = 1
m2 = 1
mu_values = 0 2 6

[model]
n_sites = 6
base = jx
"""

GROUND_CFG = """\
[scenario]
kind = ground_state
m = 2

[model]
n_sites = 5
base = inverse_distance
j1 = 0.3
trap_omega = 0.05
"""

QUENCH_CFG = """\
[scenario]
kind = quench_release
m = 3
t_start = 0
t_end = 2
steps = 5
snapshot_times = 1.0

[model]
n_sites = 6
base = inverse_distance
j1 = 0.3
barrier = 3 4 50
"""

TRANSFER_CFG = """\
[scenario]
kind = transfer_report
epsilon = 0.001
beta = 0.5

[model]
n_sites = 7
base = jx
"""


def _write(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


def test_sweep_command_and_determinism(tmp_path):
    cfg = _write(tmp_path, SWEEP_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out-dir", str(out2)]) == 0
    b1 = (out1 / "sweep.csv").read_bytes()
    b2 = (out2 / "sweep.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "mu,mu_over_N,E_N_bits,collection_fraction,discarded_weight"
    assert len(lines) == 4


def test_sweep_verbose_reports_each_point_on_stderr(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CFG)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["sweep", "--config", cfg, "--out-dir", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["sweep", "--config", cfg, "--out-dir", str(loud), "--verbose"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert (loud / "sweep.csv").read_bytes() == (quiet / "sweep.csv").read_bytes()
    assert [line.split()[0] for line in err] == ["mu=0", "mu=2", "mu=6"]
    assert all("E_N=" in line and "wall=" in line for line in err)


def test_ground_command_outputs(tmp_path):
    cfg = _write(tmp_path, GROUND_CFG)
    out = tmp_path / "out"
    assert main(["ground", "--config", cfg, "--out-dir", str(out)]) == 0
    occ = (out / "occupations.csv").read_text().splitlines()
    assert occ[0] == "t,site,n"
    total = sum(float(ln.split(",")[2]) for ln in occ[1:])
    assert abs(total - 2.0) < 1e-8
    schmidt = (out / "schmidt.csv").read_text().splitlines()
    assert schmidt[0] == "bond,index,lambda"
    rows = [ln.split(",") for ln in schmidt[1:]]
    for bond in range(1, 5):
        lams = [float(lam) for b, _, lam in rows if int(b) == bond]
        assert lams and lams == sorted(lams, reverse=True)


def test_quench_command_with_plan_dump(tmp_path):
    cfg = _write(tmp_path, QUENCH_CFG)
    out = tmp_path / "out"
    plan_path = tmp_path / "plan.txt"
    assert main(["quench", "--config", cfg, "--out-dir", str(out),
                 "--dump-plan", str(plan_path)]) == 0
    assert (out / "occupations.csv").exists()
    assert (out / "occupations_mps.csv").exists()
    plan = plan_from_text(plan_path.read_text())
    assert plan.n_modes == 6
    assert len(plan.ops) == 11


def test_transfer_command(tmp_path):
    cfg = _write(tmp_path, TRANSFER_CFG)
    out = tmp_path / "out"
    assert main(["transfer", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "transfer.csv").read_text().splitlines()
    assert rows[0].startswith("k,exact_re,exact_im")
    assert len(rows) == 8
    last = rows[-1].split(",")
    amp = complex(float(last[1]), float(last[2]))
    assert abs(abs(amp) - 1.0) < 0.01


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "[scenario]\nkind = nope\n")
    assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    # non-finite times and negative boson counts are config errors too, not
    # nan rows or a numeric error at run time
    bad = [QUENCH_CFG.replace("snapshot_times = 1.0", f"snapshot_times = {t}")
           for t in ("nan", "inf")]
    bad += [QUENCH_CFG.replace("t_end = 2", "t_end = nan"),
            QUENCH_CFG.replace("m = 3", "m = -1"),
            QUENCH_CFG.replace("n_sites = 6", "n_sites = 1"),
            # a 6-site mode released into an 8-site chain
            QUENCH_CFG.replace("[model]", "[model_pre]")
            + "\n[model_post]\nn_sites = 8\nbase = inverse_distance\nj1 = 0.3\n"]
    for i, text in enumerate(bad):
        out = tmp_path / f"quench-{i}"
        assert main(["quench", "--config", _write(tmp_path, text), "--out-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
    for key in ("m1", "m2"):
        text = SWEEP_CFG.replace(f"{key} = 1", f"{key} = -1")
        assert main(["sweep", "--config", _write(tmp_path, text), "--out-dir",
                     str(tmp_path / key)]) == 2
        assert f"{key} must be >= 0" in capsys.readouterr().err
    # a packet with no boson is a config error, not a numeric one from the fold
    for counts in ("m1 = 0\nm2 = 2", "m1 = 2\nm2 = 0"):
        out = tmp_path / counts.replace("\n", "-").replace(" = ", "")
        text = SWEEP_CFG.replace("m1 = 1\nm2 = 1", counts)
        assert main(["sweep", "--config", _write(tmp_path, text), "--out-dir", str(out)]) == 2
        assert "m1 >= 1 and m2 >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_malformed_custom_matrix_is_a_config_error(tmp_path, capsys):
    # an odd number of values in a row, a non-numeric cell and ragged rows,
    # each in the third line of a 3-site matrix, name their line; an empty
    # file, a 2 x 3 matrix, a non-Hermitian one and a 2-site matrix under
    # n_sites = 4 name the file
    good = "0,0,1,0,0,0\n1,0,0,0,1,0\n"
    cases = [("odd", good + "0,0,1,0,0\n", 3, ", line 3"),
             ("text", good + "0,0,1,x,0,0\n", 3, ", line 3"),
             ("ragged", good + "0,0,1,0\n", 3, ", line 3"),
             ("empty", "", 3, ":"), ("wide", good, 3, ":"),
             ("skew", "0,0,1,0\n2,0,0,0\n", 2, ":"), ("small", "0,0,1,0\n1,0,0,0\n", 4, ":")]
    for name, rows, n, where in cases:
        matrix = tmp_path / f"{name}.csv"
        matrix.write_text(rows)
        text = SWEEP_CFG.replace("n_sites = 6\nbase = jx",
                                 f"n_sites = {n}\nbase = custom\ncustom_matrix = {matrix}")
        out = tmp_path / name
        assert main(["sweep", "--config", _write(tmp_path, text), "--out-dir", str(out)]) == 2, name
        err = capsys.readouterr().err
        assert "config error" in err and f"{matrix}{where}" in err, err
        assert not out.exists(), name


def test_kind_must_match_subcommand(tmp_path, capsys):
    configs = {"sweep": SWEEP_CFG, "quench": QUENCH_CFG, "ground": GROUND_CFG,
               "transfer": TRANSFER_CFG}
    for command in configs:
        for kind_of, text in configs.items():
            if kind_of == command:
                continue
            out = tmp_path / f"{command}-{kind_of}"
            cfg = _write(tmp_path, text)
            assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
            assert "config has kind" in capsys.readouterr().err
            assert not out.exists()


def test_missing_config_is_io_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.ini"),
                 "--out-dir", str(tmp_path)]) == 4


def test_numeric_error_exit_code(tmp_path):
    # a barrier outside the chain trips a ModelError at run time
    cfg = _write(tmp_path, QUENCH_CFG.replace("barrier = 3 4 50",
                                              "barrier = 5 9 50"))
    assert main(["quench", "--config", cfg, "--out-dir", str(tmp_path)]) == 3


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "PASS condensate occupations vs m |c_k|^2" in out
    assert "FAIL" not in out


def test_selftest_reports_a_raising_check_as_fail(monkeypatch, capsys):
    def broken(state, k, l):
        raise ValidationError(f"rho_{{{k},{l}}} left the charge blocks")

    monkeypatch.setattr(cli, "reduced_density_two_sites", broken)
    assert main(["selftest"]) == 3
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert out.count("FAIL two-sum rho_") == 2
    # each pair is measured as sites 1-2 of a state built with it moved there
    assert "FAIL two-sum rho_{1,5} vs reduced pair oracle: ValidationError: " \
        "rho_{1,2} left the charge blocks" in out


# Runs in a fresh interpreter, since the test modules themselves import scipy.
# With sys.modules["scipy"] = None any import of scipy raises ImportError.
RUNTIME_DEPS_SCRIPT = """\
import json, sys
sys.modules["scipy"] = None
from bosefold.cli import main
sweep_cfg, quench_cfg, out = sys.argv[1:]
codes = [main(["selftest"]),
         main(["sweep", "--config", sweep_cfg, "--out-dir", out + "/sweep", "--threads", "1"]),
         main(["quench", "--config", quench_cfg, "--out-dir", out + "/quench"])]
loaded = sorted(name for name, mod in sys.modules.items() if mod is not None
                and (name.split(".")[0] == "scipy"
                     or name in ("concurrent.futures.process", "numpy.ma")))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_runs_without_scipy_or_the_process_pool(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    configs = {"sweep.ini": SWEEP_CFG, "quench.ini": QUENCH_CFG}
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_DEPS_SCRIPT]
        + [str(tmp_path / name) for name in configs] + [str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "loaded": []}
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert (tmp_path / "quench" / "occupations_mps.csv").exists()


def test_only_selftest_loads_the_dense_oracles(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    (tmp_path / "quench.ini").write_text(QUENCH_CFG)
    script = ("import sys\nfrom bosefold.cli import main\n"
              "code = main(['quench', '--config', sys.argv[1], '--out-dir', sys.argv[2]])\n"
              "before = 'bosefold.dense' in sys.modules\n"
              "print(code, before, main(['selftest']), 'bosefold.dense' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "quench.ini"),
                           str(tmp_path / "out")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False 0 True"


def test_sweep_threads_flag(tmp_path):
    # worker processes fill their own plan caches, so this also compares a
    # warm cache with fresh ones; each worker builds one contiguous batch of
    # the barrier heights, and a point's record must not depend on its
    # batch: 3 workers split the 4 points unevenly, 6 leave none to spare
    cfg = _write(tmp_path, SWEEP_CFG.replace("m1 = 1\nm2 = 1", "m1 = 4\nm2 = 4")
                 .replace("mu_values = 0 2 6", "mu_values = 0 2 3 6")
                 .replace("n_sites = 6", "n_sites = 12"))
    csv = {}
    for threads in ("1", "2", "3", "6"):
        out = tmp_path / f"thr{threads}"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out),
                     "--threads", threads]) == 0
        csv[threads] = (out / "sweep.csv").read_bytes()
    assert csv["1"].count(b"\n") == 5
    assert csv["1"] == csv["2"]
    assert csv["1"] == csv["3"] == csv["6"]


def test_threads_and_verbose_belong_to_sweep_only(tmp_path, capsys):
    configs = {"quench": QUENCH_CFG, "ground": GROUND_CFG, "transfer": TRANSFER_CFG}
    for command, text in configs.items():
        cfg = _write(tmp_path, text)
        for flag in (["--threads", "2"], ["--verbose"]):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", cfg, "--out-dir", str(tmp_path / command)] + flag)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
    for flag in (["--threads", "2"], ["--verbose"]):
        with pytest.raises(SystemExit) as exc:
            main(["selftest"] + flag)
        assert exc.value.code == 2


def test_sweep_rejects_thread_counts_below_one(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CFG)
    for count in ("0", "-1"):
        out = tmp_path / f"thr{count}"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out-dir", str(out), "--threads", count])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_parser_is_built_once_and_keeps_no_flags():
    # one parser serves every main() of a process, so a flag given to one
    # parse must not carry over to the next
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    loud = parser.parse_args(["sweep", "--config", "c.ini", "--threads", "2", "--verbose"])
    assert (loud.threads, loud.verbose) == (2, True)
    quiet = parser.parse_args(["sweep", "--config", "c.ini"])
    assert quiet.threads == 1 and quiet.verbose is False


def _reference_occupations_csv(times, occ):
    """The rows of write_occupations_csv, each value through format(x, ".17g")."""
    rows = ["t,site,n\n"]
    for t, row in zip(times, occ):
        rows.extend(f"{format(float(t), '.17g')},{site},{format(float(n), '.17g')}\n"
                    for site, n in enumerate(row, start=1))
    return "".join(rows).encode()


def test_occupations_csv_formats_each_value_as_17_digits(tmp_path):
    # one `%` format per file; '%.17g' % x must write what format(x, ".17g")
    # writes, byte for byte, edge values included
    rng = np.random.default_rng(7)
    edge = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, np.nan, np.inf,
            -np.inf, 0.1, 1 / 3, 123456789.0, 1e16, 1e17]
    cases = [([0.0], [edge]),  # the ground state's one row
             ([0.0], [np.array([1.5, 2.5])]),
             ([0.0, 12.5, 1e-300], [rng.normal(size=5) * 10.0 ** rng.integers(-30, 30, 5)
                                    for _ in range(3)]),  # snapshot rows, one per time
             (np.linspace(0.0, 200.0, 201), rng.random((201, 40))),
             ([], [])]
    for times, occ in cases:
        path = tmp_path / "occ.csv"
        cli.write_occupations_csv(path, times, occ)
        assert path.read_bytes() == _reference_occupations_csv(times, occ)
    assert path.read_bytes() == b"t,site,n\n"


def test_occupations_csv_rejects_times_that_miss_rows(tmp_path):
    for times, rows in (([0.0, 1.0], 3), ([0.0, 1.0, 2.0], 2)):
        with pytest.raises(ValidationError, match=f"{len(times)} times for {rows} rows"):
            cli.write_occupations_csv(tmp_path / "occ.csv", times, np.ones((rows, 4)))
    assert not (tmp_path / "occ.csv").exists()

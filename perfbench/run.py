"""bosefold benchmark: whole CLI scenarios, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of sweep_m16, sweep_small, quench_snapshots, or `all` (each
workload in its own process, one after the other, then a summary table).

Each pass drives `bosefold.cli.main` in-process on generated configs
(config -> scenarios -> model/heisenberg/folding/mps/entanglement -> CSV) and
checks every produced state against a closed form (see `checks`).  BLAS and
OpenMP are pinned to one thread.  Passes repeat until their times add up to
at least S seconds.

--trace 0 reports the end-to-end metrics:
  wall_s       median seconds of one pass in a warm process
  setup_s      median over fresh processes, spread between the passes, of
               `import bosefold` plus a tiny pass that reaches every layer
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and reports per-layer metrics
(see `spans`), with the tracing overhead.  Both print failed_frac (states that
raised or failed their check, over states attempted) and, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import glob
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

from checks import StateCheck, check_quench, check_sweep, sweep_oracle  # noqa: E402
from passes import clear_outputs, prepare, run_jobs  # noqa: E402
from workloads import WORKLOADS, warmup  # noqa: E402

SETUP_REPS = 10  # counted fresh-process set-ups per run, after one uncounted
MIN_PASSES = 3  # untraced passes per run, however long they take
SETUP_TIMEOUT_S = 60


def import_bosefold():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bosefold", "__init__.py")):
        sys.exit(f"error: no bosefold sources under {SRC}")
    sys.path.insert(0, SRC)
    import bosefold
    from bosefold import cli
    if os.path.dirname(os.path.dirname(os.path.abspath(bosefold.__file__))) != SRC:
        sys.exit(f"error: imported bosefold from {bosefold.__file__}, not {SRC}")
    return cli


def cache_sizes() -> dict:
    """CPU caches from sysfs, e.g. {"L2": "2048K x2"} (size per instance)."""
    seen = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*"):
        try:
            fields = [open(os.path.join(index, f)).read().strip()
                      for f in ("level", "type", "size", "shared_cpu_list")]
        except OSError:
            continue
        level, kind, size, shared = fields
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        seen.setdefault((name, size), set()).add(shared)
    return {name: f"{size} x{len(shared)}" for (name, size), shared in sorted(seen.items())}


def run_context() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "caches": cache_sizes(), "processes": 1}


def probe_setup(work_dir, tag) -> float:
    """Seconds of set-up in one fresh process (see `setup_probe`)."""
    probe_dir = os.path.join(work_dir, f"setup-{tag}")
    os.makedirs(probe_dir)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), probe_dir],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    shutil.rmtree(probe_dir)
    return float(proc.stdout.strip().splitlines()[-1])


def check_pass(prepared, errors, oracles) -> list:
    """StateChecks of one pass, one per state attempted."""
    results = []
    for p, err in zip(prepared, errors):
        if err is not None:
            results.extend([StateCheck(ok=False, occ_dev=float("inf"), detail=err)]
                           * p.job.n_states)
        elif p.job.command == "sweep":
            results.extend(check_sweep(p.job, p.out_dir, oracles[p.job.label]))
        else:
            results.extend(check_quench(p.job, p.out_dir))
    return results


class Run:
    """Passes of one workload with their timings and state checks."""

    def __init__(self, main, prepared, oracles):
        self.main = main
        self.prepared = prepared
        self.oracles = oracles
        self.checks = []

    def one_pass(self, tracer=None) -> float:
        clear_outputs(self.prepared)
        if tracer is not None:
            tracer.begin_pass()
            tracer.enabled = True
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        start = time.perf_counter()
        errors = run_jobs(main, self.prepared)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
            wall -= tracer.hook_s
        results = check_pass(self.prepared, errors, self.oracles)
        self.checks.append(results)
        for r in results:
            if not r.ok:
                print(f"state failed: {r.detail}", file=sys.stderr)
        return wall

    @property
    def attempted(self) -> int:
        return sum(len(c) for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(not r.ok for c in self.checks for r in c)


def run_untraced(run, seconds, work_dir) -> dict:
    """Passes until they add up to `seconds`, with SETUP_REPS set-up probes spread
    between them in proportion to pass time, so both sample the same host load."""
    probe_setup(work_dir, "uncounted")  # the first import writes bytecode caches
    setup, walls = [], []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        done = min(1.0, sum(walls) / seconds) if seconds > 0 else 1.0
        while len(setup) < max(1, math.ceil(SETUP_REPS * done)):
            setup.append(probe_setup(work_dir, len(setup)))
        walls.append(run.one_pass())
    while len(setup) < SETUP_REPS:
        setup.append(probe_setup(work_dir, len(setup)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"wall_s       {statistics.median(walls):.6f} s   median of {len(walls)} passes: "
          + " ".join(f"{w:.4f}" for w in walls))
    print(f"setup_s      {statistics.median(setup):.6f} s   median of {len(setup)} fresh "
          f"processes (min {min(setup):.6f}, max {max(setup):.6f})")
    print(f"peak_rss_mb  {rss_mb:.3f} MB")
    return reported({"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                     "peak_rss_mb": rss_mb}, "end_to_end")


def run_traced(run, seconds, spans_path, context) -> dict:
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    try:
        while not traced or time.perf_counter() < deadline:
            plain.append(run.one_pass())
            traced.append(run.one_pass(tracer))
            layers.append(tracer.pass_metrics())
    finally:
        tracer.uninstall()
    for r, c in zip(layers, run.checks[1::2]):
        r["mps.occ_dev_max"] = max((x.occ_dev for x in c), default=0.0)
    metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["tracing.overhead_s"] = overhead
    tracer.write(spans_path, context)
    print(f"tracing      untraced {statistics.median(plain):.6f} s, traced "
          f"{statistics.median(traced):.6f} s, overhead {overhead:.6f} s "
          f"(medians of {len(plain)} passes each); spans in {spans_path}")
    print(f"  {'span (last traced pass)':40s} {'calls':>6s} {'total s':>10s} {'self s':>10s}")
    for name, (calls, total, self_s) in sorted(tracer.pass_times().items(),
                                               key=lambda kv: -kv[1][2]):
        print(f"  {name:40s} {calls:6d} {total:10.4f} {self_s:10.4f}")
    for name in sorted(metrics):
        print(f"  {name:42s} {metrics[name]!r}")
    return reported(metrics, "per_layer")


def reported(metrics: dict, section: str) -> dict:
    """metrics in the order and with the units BENCHMARK.json declares for section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[section]
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared}


def run_workload(args) -> int:
    cli = import_bosefold()
    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        context = run_context()
        print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
              f"{args.seconds} s")
        print("# context " + json.dumps(context, sort_keys=True))
        jobs = WORKLOADS[args.workload](args.seed)
        prepared = prepare(jobs, os.path.join(work_dir, "jobs"))
        oracles = {j.label: sweep_oracle(j) for j in jobs if j.command == "sweep"}
        warm = run_jobs(cli.main, prepare(warmup(), os.path.join(work_dir, "warmup")))
        if any(warm):
            sys.exit("error: warm-up pass failed:\n" + "\n".join(e for e in warm if e))
        run = Run(cli.main, prepared, oracles)
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            metrics = run_traced(run, args.seconds, spans_path, context)
        else:
            metrics = run_untraced(run, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"failed_frac  {run.failed / run.attempted!r}   ({run.failed} of {run.attempted} "
          f"states)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    cols = ("tracing.overhead_s",) if args.trace else ("wall_s", "setup_s", "peak_rss_mb")
    print(f"\n{'workload':18s} {'failed_frac':>12s} " + " ".join(f"{c:>18s}" for c in cols))
    for name, result in rows:
        metrics = result["metrics"]
        print(f"{name:18s} {result['failed'] / result['attempted']:12.6g} " + " ".join(
            f"{metrics[c]['value']:15.6g} {metrics[c]['unit']:2s}" for c in cols))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

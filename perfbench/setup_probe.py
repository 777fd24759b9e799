"""Set-up probe: `import bosefold` plus one warm-up pass, in a fresh process.

Usage: python3 perfbench/setup_probe.py WORK_DIR

Prints the seconds from the start of `import bosefold` to the end of the
warm-up pass (which also triggers the lazy `scipy.sparse` import in the MPS
SVD).  Interpreter start-up is not included.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(work_dir: str) -> None:
    from workloads import warmup
    from passes import prepare, run_jobs

    jobs = warmup()
    prepared = prepare(jobs, work_dir)
    start = time.perf_counter()
    from bosefold import cli
    errors = run_jobs(cli.main, prepared)
    elapsed = time.perf_counter() - start
    if any(errors):
        sys.exit("warm-up pass failed:\n" + "\n".join(e for e in errors if e))
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1])

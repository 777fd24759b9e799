"""One pass of a workload: every job through `bosefold.cli.main`, in-process.

Standard library only, like `workloads`, so the set-up probe can import it
before starting its clock.
"""
from __future__ import annotations

import os
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Prepared:
    job: object
    config: str
    out_dir: str

    @property
    def argv(self):
        return [self.job.command, "--config", self.config, "--out-dir", self.out_dir]


def prepare(jobs, work_dir) -> list:
    """Write each job's config under work_dir; outputs go to work_dir/<label>/."""
    prepared = []
    for job in jobs:
        out_dir = os.path.join(work_dir, job.label)
        os.makedirs(out_dir, exist_ok=True)
        config = os.path.join(work_dir, job.label + ".ini")
        with open(config, "w") as fh:
            fh.write(job.config_text())
        prepared.append(Prepared(job=job, config=config, out_dir=out_dir))
    return prepared


def clear_outputs(prepared) -> None:
    """Remove the previous pass's CSVs, so a stale file cannot pass a check."""
    for p in prepared:
        for name in os.listdir(p.out_dir):
            os.remove(os.path.join(p.out_dir, name))


def run_jobs(main, prepared) -> list:
    """Run every job; per job None on success, else a description of the failure."""
    errors = []
    for p in prepared:
        try:
            code = main(p.argv)
        except Exception:  # a failing job counts its states as failed; the run goes on
            errors.append(traceback.format_exc())
            continue
        errors.append(None if code == 0 else f"bosefold {p.job.command} exited {code}")
    return errors

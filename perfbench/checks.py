"""Per-state output checks against references independent of the MPS path.

A state is one sweep point or one quench snapshot.  Each check returns one
`StateCheck` per state the job attempted, so a missing or corrupted row fails
only its own state and the run goes on.

- Sweeps: the collection fraction (n_1 + n_N)/M in `sweep.csv` must match the
  closed form `heisenberg.occupations_oracle` on columns 1 and N of A(pi) to
  `OCC_TOL`; on the reference seed, E_N must match the recorded value to
  `E_N_TOL` bits.
- Quenches: each row of `occupations_mps.csv` must match the closed-form row
  of `occupations.csv` at the same t to `OCC_TOL`.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

OCC_TOL = 1e-8
E_N_TOL = 1e-6


@dataclass(frozen=True)
class StateCheck:
    ok: bool
    occ_dev: float  # largest occupation deviation from the closed form
    detail: str = ""


def _fail(detail: str) -> StateCheck:
    return StateCheck(ok=False, occ_dev=math.inf, detail=detail)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_oracle(job) -> list:
    """Closed-form end-pair occupation n_1 + n_N for every mu of a sweep job."""
    from bosefold.heisenberg import (occupations_oracle, packet_modes, propagate,
                                     spectral_decompose)
    from bosefold.model import ModelSpec, add_onsite_barrier, build_coupling

    n = job.n_sites
    out = []
    for mu in job.mu_values:
        r = build_coupling(ModelSpec(n_sites=n, base="jx"))
        if mu != 0.0:
            r = add_onsite_barrier(r, n // 2, n // 2 + 1, mu)
        a = propagate(spectral_decompose(r), math.pi)
        occ = occupations_oracle(packet_modes([(1, job.m1), (n, job.m2)], a))
        out.append(float(occ[0] + occ[-1]))
    return out


def check_sweep(job, out_dir, oracle) -> list:
    m = job.m1 + job.m2
    try:
        rows = _read_rows(os.path.join(out_dir, "sweep.csv"))
    except (OSError, csv.Error) as exc:
        return [_fail(f"sweep.csv unreadable: {exc}")] * job.n_states
    results = []
    for i, mu in enumerate(job.mu_values):
        try:
            row = rows[i]
            mu_out = float(row["mu"])
            frac = float(row["collection_fraction"])
            e_n = float(row["E_N_bits"])
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            results.append(_fail(f"row {i + 1}: {exc!r}"))
            continue
        dev = abs(frac * m - oracle[i])
        if not math.isfinite(dev):
            dev = math.inf
        problems = []
        if mu_out != mu:
            problems.append(f"mu {mu_out!r} != {mu!r}")
        if not dev <= OCC_TOL:
            problems.append(f"end-pair occupation off by {dev:.3e}")
        if not (math.isfinite(e_n) and e_n >= -E_N_TOL):
            problems.append(f"E_N {e_n!r}")
        if job.ref_e_n is not None and not abs(e_n - job.ref_e_n[i]) <= E_N_TOL:
            problems.append(f"E_N {e_n!r} != reference {job.ref_e_n[i]!r}")
        results.append(StateCheck(ok=not problems, occ_dev=dev, detail="; ".join(problems)))
    return results


def _occupation_table(path, n_sites):
    """{t: [n_1 .. n_N]} from an occupations CSV (rows t, site, n)."""
    table = {}
    for row in _read_rows(path):
        table.setdefault(float(row["t"]), {})[int(row["site"])] = float(row["n"])
    return {t: [sites.get(k, math.nan) for k in range(1, n_sites + 1)]
            for t, sites in table.items()}


def check_quench(job, out_dir) -> list:
    try:
        closed = _occupation_table(os.path.join(out_dir, "occupations.csv"), job.n_sites)
        mps = _occupation_table(os.path.join(out_dir, "occupations_mps.csv"), job.n_sites)
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        return [_fail(f"occupation CSVs unreadable: {exc!r}")] * job.n_states
    results = []
    for t in job.snapshot_times:
        if t not in closed or t not in mps:
            results.append(_fail(f"no rows at t = {t!r}"))
            continue
        devs = [abs(a - b) for a, b in zip(closed[t], mps[t])]
        dev = max(devs) if all(map(math.isfinite, devs)) else math.inf
        ok = dev <= OCC_TOL
        results.append(StateCheck(ok=ok, occ_dev=dev,
                                  detail="" if ok else f"t = {t!r}: off by {dev:.3e}"))
    return results

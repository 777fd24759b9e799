"""Benchmark workloads: generated `bosefold` configs and the states they produce.

A workload is a tuple of jobs; each job is one `bosefold` CLI invocation
(`sweep` or `quench`) on a generated config.  Inputs are derived from a seed:
seed 0 gives the reference grids below, any other seed jitters barrier heights
and snapshot times inside fixed bands, so every point keeps its cost class
(bond dimension reached, number of gates) while the inputs stay unseen.

This module uses only the standard library, so importing it costs nothing
inside the timed set-up probe.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

REFERENCE_SEED = 0
TRUNC_TOL = 1e-12
_HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class SweepJob:
    """`bosefold sweep`: two packets of m1, m2 bosons collide at a barrier."""

    label: str
    n_sites: int
    m1: int
    m2: int
    chi_max: int
    mu_values: tuple
    ref_e_n: tuple | None = None  # E_N bits per mu, known for the reference seed

    command = "sweep"

    @property
    def n_states(self) -> int:
        return len(self.mu_values)

    def config_text(self) -> str:
        mus = " ".join(repr(float(mu)) for mu in self.mu_values)
        return (f"[scenario]\nkind = collision_sweep\nm1 = {self.m1}\nm2 = {self.m2}\n"
                f"mu_values = {mus}\n\n[model]\nn_sites = {self.n_sites}\nbase = jx\n\n"
                f"[numerics]\nchi_max = {self.chi_max}\ntrunc_tol = {TRUNC_TOL!r}\n")


@dataclass(frozen=True)
class QuenchJob:
    """`bosefold quench`: a trapped condensate released from a central barrier."""

    label: str
    n_sites: int
    m: int
    j1: float
    trap_omega: float
    barrier: tuple  # (first, last, height)
    t_end: float
    steps: int
    snapshot_times: tuple

    command = "quench"

    @property
    def n_states(self) -> int:
        return len(self.snapshot_times)

    def config_text(self) -> str:
        first, last, height = self.barrier
        snaps = " ".join(repr(float(t)) for t in self.snapshot_times)
        return (f"[scenario]\nkind = quench_release\nm = {self.m}\nt_start = 0.0\n"
                f"t_end = {self.t_end!r}\nsteps = {self.steps}\nsnapshot_times = {snaps}\n\n"
                f"[model]\nn_sites = {self.n_sites}\nbase = inverse_distance\n"
                f"j1 = {self.j1!r}\ntrap_omega = {self.trap_omega!r}\n"
                f"barrier = {first} {last} {height!r}\n\n"
                f"[numerics]\ntrunc_tol = {TRUNC_TOL!r}\n")


def _reference_e_n() -> dict:
    with open(os.path.join(_HERE, "reference_e_n.json")) as fh:
        return json.load(fh)


def _sweep(label, n, m, chi_max, grid, seed, rng):
    """grid: (reference mu/N, band low, band high) triples, in units of mu/N."""
    if seed == REFERENCE_SEED:
        mus = tuple(ref * n for ref, _, _ in grid)
        ref_e_n = tuple(_reference_e_n()[label])
    else:
        mus = tuple(rng.uniform(lo, hi) * n for _, lo, hi in grid)
        ref_e_n = None
    return SweepJob(label=label, n_sites=n, m1=m // 2, m2=m // 2, chi_max=chi_max,
                    mu_values=mus, ref_e_n=ref_e_n)


def _band(ref: float, half_width: float):
    """mu = 0 (no barrier, chi = 1) is its own cost class and is never moved."""
    return (ref, ref, ref) if ref == 0.0 else (ref, ref - half_width, ref + half_width)


def sweep_m16(seed: int):
    """N = 20 jx, M = 16, chi_max = 81: mu = 0, the entanglement peak, the tail.

    The peak band mu/N in [0.300, 0.305] keeps chi = 68 and the same bond
    profile throughout; chi steps to 70 just below 0.2997.
    """
    rng = random.Random(seed)
    grid = (_band(0.0, 0.01), (0.3, 0.3, 0.305),
            *(_band(x, 0.01) for x in (1.0, 2.0, 3.0)))
    return (_sweep("m16", 20, 16, 81, grid, seed, rng),)


def sweep_small(seed: int):
    """N = 20 jx, M in {4, 8}, chi_max = (M/2+1)^2, mu/N = 0..3 in steps of 0.1."""
    rng = random.Random(seed)
    grid = tuple(_band(round(0.1 * i, 10), 0.01) for i in range(31))
    return tuple(_sweep(f"m{m}", 20, m, (m // 2 + 1) ** 2, grid, seed, rng)
                 for m in (4, 8))


def quench_snapshots(seed: int):
    """N = 40 inverse-distance release quench, M = 20, 21 MPS snapshots on [0, 200]."""
    n, steps, t_end = 40, 201, 200.0
    snap_steps = list(range(0, steps, 10))
    height = 1000.0
    if seed != REFERENCE_SEED:
        rng = random.Random(seed)
        height = rng.uniform(950.0, 1050.0)
        # shift snapshots by whole grid steps so each lands on a closed-form row
        snap_steps = [min(steps - 1, max(0, s + rng.randint(-3, 3))) for s in snap_steps]
    dt = t_end / (steps - 1)
    return (QuenchJob(label="release", n_sites=n, m=20, j1=0.3,
                      trap_omega=0.00046 * (100 / n) ** 2, barrier=(19, 22, height),
                      t_end=t_end, steps=steps,
                      snapshot_times=tuple(s * dt for s in snap_steps)),)


def warmup():
    """A pass small enough for set-up that still reaches every layer."""
    return (SweepJob(label="tiny_sweep", n_sites=4, m1=1, m2=1, chi_max=4,
                     mu_values=(0.0, 2.0)),
            QuenchJob(label="tiny_quench", n_sites=6, m=2, j1=0.3, trap_omega=0.01,
                      barrier=(3, 4, 10.0), t_end=2.0, steps=3, snapshot_times=(1.0,)))


WORKLOADS = {
    "sweep_m16": sweep_m16,
    "sweep_small": sweep_small,
    "quench_snapshots": quench_snapshots,
}

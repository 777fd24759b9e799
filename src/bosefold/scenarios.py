"""Scenario runners: quenches, collision sweeps, ground states, transfer."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .entanglement import collection_fraction, logneg_partial_transpose
from .errors import ConfigError
from .heisenberg import ground_mode, mode_trajectory, propagate, spectral_decompose
from .model import ModelSpec, add_onsite_barrier, build_coupling
from .mps import (condensate_occupations, condensate_state, occupations,
                  reduced_density_two_sites, schmidt_values, two_sum_states)
# No scenario calls two_sum_state or evolve_mode; perfbench's tracer patches
# them here by name, and Tracer.install() stops on a name the module lacks.
from .heisenberg import evolve_mode  # noqa: F401
from .mps import two_sum_state  # noqa: F401
from .perturbation import TransferReport, transfer_report

SCENARIO_KINDS = ("quench_release", "quench_raise", "collision_sweep",
                  "ground_state", "transfer_report")


@dataclass(frozen=True)
class NumericsSpec:
    chi_max: int | None = None  # default 4*(M+1)
    trunc_tol: float = 1e-12


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    model: ModelSpec | None = None
    model_pre: ModelSpec | None = None
    model_post: ModelSpec | None = None
    m: int | None = None
    m1: int | None = None
    m2: int | None = None
    t_start: float = 0.0
    t_end: float = 0.0
    steps: int = 1
    snapshot_times: tuple = ()
    mu_values: tuple = ()
    epsilon: float | None = None
    beta: float | None = None
    numerics: NumericsSpec = field(default_factory=NumericsSpec)


@dataclass(frozen=True)
class SweepRecord:
    mu: float
    e_n_bits: float
    collection_fraction: float
    discarded_weight: float
    # seconds since the previous record of its batch; the first absorbs the
    # work its batch shares (packets, the keep pass of every state), so a
    # batch's records add up to its time
    wall_time: float


@dataclass(frozen=True)
class QuenchResult:
    times: np.ndarray
    occupations: np.ndarray  # (steps, n_sites), closed form
    snapshots: tuple  # (t, closed_form_occ, mps_occ) triples
    m: int


@dataclass(frozen=True)
class GroundStateResult:
    occupations: np.ndarray
    closed_form_occupations: np.ndarray
    schmidt_spectra: tuple  # per bond, descending
    discarded_weight: float
    degenerate_ground: bool


def _total_bosons(spec: ScenarioSpec) -> int:
    if spec.m is not None:
        return spec.m
    if spec.m1 is not None and spec.m2 is not None:
        return spec.m1 + spec.m2
    raise ConfigError("scenario needs m (or m1 and m2)")


def _packet_counts(spec: ScenarioSpec):
    """Bosons (m1, m2) of a collision's two packets: as given, else m split in half."""
    m = _total_bosons(spec)
    m1 = spec.m1 if spec.m1 is not None else m // 2
    return m1, spec.m2 if spec.m2 is not None else m - m1


def validate_spec(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {spec.kind!r}")
    if spec.steps < 1:
        raise ConfigError(f"steps must be >= 1, got {spec.steps}")
    num = spec.numerics
    if num.chi_max is not None and num.chi_max < 1:
        raise ConfigError(f"chi_max must be >= 1, got {num.chi_max}")
    if not 0.0 <= num.trunc_tol < 1.0:  # also rejects nan
        raise ConfigError(f"trunc_tol must be finite and in [0, 1), got {num.trunc_tol}")
    if not all(math.isfinite(t) for t in (spec.t_start, spec.t_end, *spec.snapshot_times)):
        raise ConfigError("t_start, t_end and snapshot_times must be finite")
    for key in ("m", "m1", "m2"):
        count = getattr(spec, key)
        if count is not None and count < 0:
            raise ConfigError(f"{key} must be >= 0, got {count}")
    for key in ("model", "model_pre", "model_post"):
        model = getattr(spec, key)
        if model is not None and model.n_sites < 2:
            raise ConfigError(f"[{key}] chain needs at least 2 sites, got {model.n_sites}")
    if spec.kind == "transfer_report":
        if spec.model is None or spec.epsilon is None or spec.beta is None:
            raise ConfigError("transfer_report needs a model plus epsilon and beta")
        if not spec.beta >= 0.0:  # also rejects nan
            raise ConfigError(f"beta must be >= 0, got {spec.beta}")
        return spec
    m = _total_bosons(spec)
    if spec.kind == "collision_sweep":
        if spec.model is None:
            raise ConfigError("collision_sweep needs a model")
        if spec.model.n_sites % 2 != 0:
            raise ConfigError(f"collision_sweep needs even N, got {spec.model.n_sites}")
        if m % 2 != 0:
            raise ConfigError(f"collision_sweep needs even M, got {m}")
        m1, m2 = _packet_counts(spec)
        if min(m1, m2) < 1:
            raise ConfigError(f"collision_sweep needs m1 >= 1 and m2 >= 1, got {m1} and {m2}")
        if not spec.mu_values:
            raise ConfigError("collision_sweep needs mu_values")
        if not all(math.isfinite(mu) for mu in spec.mu_values):
            raise ConfigError("mu values must be finite")
    elif spec.kind in ("quench_release", "quench_raise"):
        pre, post = spec.model_pre, spec.model_post
        if spec.model is None and (pre is None or post is None):
            raise ConfigError("quench needs a model (or explicit model_pre/model_post)")
        if pre is not None and post is not None and pre.n_sites != post.n_sites:
            raise ConfigError(f"[model_pre] has {pre.n_sites} sites but [model_post] has "
                              f"{post.n_sites}: a quench keeps its chain")
    elif spec.kind == "ground_state":
        if spec.model is None:
            raise ConfigError("ground_state needs a model")
    return spec


def resolve_quench_models(spec: ScenarioSpec):
    """Pre/post coupling specs: release drops the barriers, raise adds them."""
    if spec.model_pre is not None and spec.model_post is not None:
        return spec.model_pre, spec.model_post
    model = spec.model
    if not model.barriers:
        raise ConfigError("quench model must declare the barrier being switched")
    if spec.kind == "quench_release":
        return model, model.without_barriers()
    return model.without_barriers(), model


def _time_grid(spec: ScenarioSpec) -> np.ndarray:
    if spec.steps == 1:
        return np.array([spec.t_start])
    return np.linspace(spec.t_start, spec.t_end, spec.steps)


def run_quench(spec: ScenarioSpec) -> QuenchResult:
    """Ground mode of the pre-quench couplings evolved under the post ones.

    Occupations come from the closed form M |c_k(t)|^2, the mode evolved to
    every grid time in one product (`mode_trajectory`); at snapshot times the
    MPS occupations of the evolved mode's condensate state are an independent
    cross-check.  They are read for every snapshot together off the keep pass
    of the states' bonds (`condensate_occupations`), so no state's matrices
    are written.
    """
    validate_spec(spec)
    pre, post = resolve_quench_models(spec)
    m = _total_bosons(spec)
    c0 = ground_mode(spectral_decompose(build_coupling(pre)))
    post_spec = spectral_decompose(build_coupling(post))
    times = _time_grid(spec)
    occ = m * np.abs(mode_trajectory(post_spec, c0.coefficients, times)) ** 2
    modes = mode_trajectory(post_spec, c0.coefficients, spec.snapshot_times)
    num = spec.numerics
    mps_occ = condensate_occupations(modes, m, chi_max=num.chi_max, trunc_tol=num.trunc_tol)
    snapshots = [(t, m * np.abs(ct) ** 2, occ)
                 for t, ct, occ in zip(spec.snapshot_times, modes, mps_occ)]
    return QuenchResult(times=times, occupations=occ, snapshots=tuple(snapshots), m=m)


def _end_pair(state, m: int):
    """E_N of rho_{1,N} and the collection fraction read off its diagonal, for
    a state built with site N moved to position 2 (see `_sweep_batch`)."""
    rho = reduced_density_two_sites(state, 1, 2)
    e_n = logneg_partial_transpose(rho).value
    # <n_1> and <n_N> from the block diagonals of rho_{1,N}: p[n, i] is the
    # weight of n_1 = i, n_N = n - i
    p = rho.diagonal(axis1=1, axis2=2).real
    n, i = np.arange(state.local_dim)[:, None], np.arange(state.local_dim)
    return e_n, collection_fraction([np.sum(i * p), np.sum((n - i) * p)], m)


def _sweep_batch(args):
    """Records of a run of barrier heights whose states are built together.

    Both packet modes are permuted to the site order (1, N, 2, ..., N-1)
    before the build, so the end pair is the first two sites of the chain
    and rho_{1,N} needs no transfer through the sites between them.
    """
    base, mus, m1, m2, num = args
    start = time.perf_counter()
    n = base.n_sites
    order = [0, n - 1, *range(1, n - 1)]
    pairs = []
    for mu in mus:
        r = add_onsite_barrier(base, n // 2, n // 2 + 1, mu) if mu != 0.0 else base
        a = propagate(spectral_decompose(r), math.pi)
        pairs.append((a.entries[order, 0], a.entries[order, n - 1]))
    states = two_sum_states(pairs, m1, m2, chi_max=num.chi_max, trunc_tol=num.trunc_tol)
    records = []
    for mu, state in zip(mus, states):
        e_n, frac = _end_pair(state, m1 + m2)
        now = time.perf_counter()
        records.append(SweepRecord(mu=mu, e_n_bits=e_n, collection_fraction=frac,
                                   discarded_weight=state.discarded_weight,
                                   wall_time=now - start))
        start = now
    return records


def run_collision_sweep(spec: ScenarioSpec, threads: int = 1):
    """Two packets launched from the ends collide at a central barrier.

    For each mu: couplings are the model plus a diagonal barrier of height mu
    on the two central sites; the packets are rows 1 and N of A(pi); records
    keep the input mu order.  The base couplings are built once.  The states
    of a batch of barrier heights are built together (`two_sum_states`) and
    measured one at a time: one batch, or with threads = K > 1 one
    contiguous batch of the mu values per worker process.  A state does not
    depend on the states built with it, so neither does its record.
    """
    validate_spec(spec)
    m1, m2 = _packet_counts(spec)
    base = build_coupling(spec.model)
    mus = [float(mu) for mu in spec.mu_values]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # runs without a pool skip this import
        size, extra = divmod(len(mus), threads)
        cuts = [i * size + min(i, extra) for i in range(threads + 1)]
        jobs = [(base, mus[a:b], m1, m2, spec.numerics) for a, b in zip(cuts, cuts[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            return [rec for batch in pool.map(_sweep_batch, jobs) for rec in batch]
    return _sweep_batch((base, mus, m1, m2, spec.numerics))


def run_ground_state(spec: ScenarioSpec) -> GroundStateResult:
    validate_spec(spec)
    m = _total_bosons(spec)
    c = ground_mode(spectral_decompose(build_coupling(spec.model)))
    num = spec.numerics
    state = condensate_state(c, m, chi_max=num.chi_max, trunc_tol=num.trunc_tol)
    spectra = tuple(schmidt_values(state, b) for b in range(1, state.n_sites))
    return GroundStateResult(
        occupations=occupations(state),
        closed_form_occupations=m * np.abs(c.coefficients) ** 2,
        schmidt_spectra=spectra,
        discarded_weight=state.discarded_weight,
        degenerate_ground=c.degenerate_ground,
    )


def run_transfer(spec: ScenarioSpec) -> TransferReport:
    validate_spec(spec)
    return transfer_report(spec.model.n_sites, spec.epsilon, spec.beta)

import numpy as np
import pytest

from bosefold import mps, scenarios
from bosefold.errors import ConfigError
from bosefold.heisenberg import propagate, spectral_decompose
from bosefold.model import ModelSpec, add_onsite_barrier, build_coupling
from bosefold.scenarios import (NumericsSpec, ScenarioSpec, resolve_quench_models,
                                run_collision_sweep, run_ground_state, run_quench,
                                run_transfer, validate_spec)


def _quench_spec(kind="quench_release", **kw):
    model = ModelSpec(n_sites=8, base="inverse_distance", j1=0.3,
                      trap_omega=0.01, barriers=((4, 5, 100.0),))
    defaults = dict(kind=kind, model=model, m=4, t_start=0.0, t_end=4.0,
                    steps=9, snapshot_times=(0.0, 2.0))
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def test_validate_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        validate_spec(ScenarioSpec(kind="nope"))


def test_validate_needs_boson_count():
    with pytest.raises(ConfigError):
        validate_spec(ScenarioSpec(kind="ground_state",
                                   model=ModelSpec(n_sites=4, base="jx")))


def test_resolve_quench_models_release_and_raise():
    spec = _quench_spec()
    pre, post = resolve_quench_models(spec)
    assert pre.barriers and not post.barriers
    pre, post = resolve_quench_models(_quench_spec(kind="quench_raise"))
    assert not pre.barriers and post.barriers
    bare = _quench_spec(model=ModelSpec(n_sites=8, base="jx"))
    with pytest.raises(ConfigError):
        resolve_quench_models(bare)


def test_run_quench_conserves_bosons_and_matches_mps():
    res = run_quench(_quench_spec())
    assert res.occupations.shape == (9, 8)
    assert np.allclose(res.occupations.sum(axis=1), 4.0, atol=1e-10)
    for t, closed, mps in res.snapshots:
        assert np.max(np.abs(closed - mps)) < 1e-9


def test_run_quench_writes_no_state(monkeypatch):
    # the snapshot occupations come off the keep pass: no condensate state is
    # written or measured
    def no_state(*args, **kwargs):
        raise AssertionError("a quench snapshot wrote a state")

    monkeypatch.setattr(mps, "_vacuum_rotations", no_state)
    monkeypatch.setattr(scenarios, "condensate_states", no_state, raising=False)
    monkeypatch.setattr(scenarios, "occupations", no_state)
    res = run_quench(_quench_spec())
    assert len(res.snapshots) == 2
    for t, closed, occ in res.snapshots:
        assert np.max(np.abs(closed - occ)) < 1e-9, t


def test_run_collision_sweep_orders_and_measures():
    spec = ScenarioSpec(kind="collision_sweep", model=ModelSpec(n_sites=6, base="jx"),
                        m1=1, m2=1, mu_values=(3.0, 0.0))
    recs = run_collision_sweep(spec)
    assert [r.mu for r in recs] == [3.0, 0.0]
    free = recs[1]
    # no barrier: both bosons arrive at the far ends, no end-to-end negativity
    assert free.collection_fraction == pytest.approx(1.0, abs=1e-8)
    assert free.e_n_bits == pytest.approx(0.0, abs=1e-8)
    assert recs[0].e_n_bits > 0.1  # barrier scatters into entanglement


def test_collision_fraction_matches_closed_form_for_unequal_packets():
    # m1 != m2 breaks the mirror symmetry, so <n_1> and <n_N> differ
    n, mu, m1, m2 = 6, 3.0, 3, 1
    model = ModelSpec(n_sites=n, base="jx")
    spec = ScenarioSpec(kind="collision_sweep", model=model, m1=m1, m2=m2,
                        mu_values=(mu,), numerics=NumericsSpec(trunc_tol=0.0))
    rec, = run_collision_sweep(spec)
    r = add_onsite_barrier(build_coupling(model), n // 2, n // 2 + 1, mu)
    a = propagate(spectral_decompose(r), np.pi).entries
    occ = m1 * np.abs(a[:, 0]) ** 2 + m2 * np.abs(a[:, n - 1]) ** 2
    assert abs(occ[0] - occ[-1]) > 0.1
    assert rec.collection_fraction == pytest.approx((occ[0] + occ[-1]) / (m1 + m2), abs=1e-12)


def test_run_ground_state():
    spec = ScenarioSpec(kind="ground_state",
                        model=ModelSpec(n_sites=6, base="inverse_distance",
                                        j1=0.3, trap_omega=0.05),
                        m=3)
    res = run_ground_state(spec)
    assert np.max(np.abs(res.occupations - res.closed_form_occupations)) < 1e-9
    assert len(res.schmidt_spectra) == 5
    assert not res.degenerate_ground


def test_run_transfer():
    spec = ScenarioSpec(kind="transfer_report",
                        model=ModelSpec(n_sites=7, base="jx"),
                        epsilon=1e-3, beta=0.5)
    rep = run_transfer(spec)
    assert rep.n_sites == 7
    assert abs(abs(exact_end(rep)) - 1.0) < 0.01  # small eps barely disturbs transfer


def exact_end(rep):
    return rep.exact_row[-1]

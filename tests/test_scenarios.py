import numpy as np
import pytest

from bosefold import mps, scenarios
from bosefold.entanglement import logneg_partial_transpose
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


def _sweep_spec(mus, m, chi_max):
    return ScenarioSpec(kind="collision_sweep", model=ModelSpec(n_sites=20, base="jx"),
                        m1=m // 2, m2=m // 2, mu_values=tuple(mus),
                        numerics=NumericsSpec(chi_max=chi_max))


def test_run_collision_sweep_writes_no_state(monkeypatch):
    # rho_{1,N} comes off the keep pass: no site past the end pair is
    # written, no right environment contracted and no state made, yet each
    # record matches the one measured on the state that `two_sum_states`
    # writes, up to what bonds 3..N-1 discard
    n, m, mus = 20, 8, (0.0, 6.0, 20.0, 40.0, 60.0)
    order = [0, n - 1, *range(1, n - 1)]
    base, pairs = build_coupling(ModelSpec(n_sites=n, base="jx")), []
    for mu in mus:
        r = add_onsite_barrier(base, n // 2, n // 2 + 1, mu) if mu else base
        a = propagate(spectral_decompose(r), np.pi).entries
        pairs.append((a[order, 0], a[order, n - 1]))
    expected = []
    for st in mps.two_sum_states(pairs, m // 2, m // 2, chi_max=25):
        rho = mps.reduced_density_two_sites(st, 1, 2)
        weight = np.einsum("nii->ni", rho).real
        level, i = np.arange(m + 1)[:, None], np.arange(m + 1)
        expected.append((logneg_partial_transpose(rho).value,
                         np.sum(weight * np.where(i <= level, level, 0)) / m, st.discarded_weight))

    def no_state(*args, **kwargs):
        raise AssertionError("a sweep point wrote a state")

    for name in ("_frame_sites", "_right_envs", "BlockDecimationState"):
        monkeypatch.setattr(mps, name, no_state)
    recs = run_collision_sweep(_sweep_spec(mus, m, 25))
    assert [r.mu for r in recs] == list(mus)
    for rec, (e_n, frac, weight) in zip(recs, expected):
        assert abs(rec.e_n_bits - e_n) < 1e-10, rec.mu
        assert abs(rec.collection_fraction - frac) < 1e-11, rec.mu
        assert rec.discarded_weight == weight, rec.mu
    assert recs[2].e_n_bits > 1.0


def test_sweep_points_do_not_depend_on_their_batch():
    # the M = 8 grid (N = 20, mu / N = 0..3 in steps of 0.1, chi_max 25):
    # each point's E_N, collection fraction and discarded weight must be the
    # same floats built alone, in the contiguous batches of 2 and of 5
    # worker processes, and in one batch
    spec = _sweep_spec([round(0.1 * i, 10) * 20 for i in range(31)], 8, 25)
    base = build_coupling(spec.model)
    mus = list(spec.mu_values)

    def batches(cuts):
        return [rec for a, b in zip(cuts, cuts[1:])
                for rec in scenarios._sweep_batch((base, mus[a:b], 4, 4, spec.numerics))]

    def numbers(recs):
        return [(r.mu, r.e_n_bits, r.collection_fraction, r.discarded_weight) for r in recs]

    one = numbers(batches([0, 31]))
    assert len({e_n for _, e_n, _, _ in one}) > 25
    assert numbers(batches(list(range(32)))) == one
    assert numbers(batches([0, 16, 31])) == one
    assert numbers(batches([0, 7, 13, 19, 25, 31])) == one


def test_sweep_points_do_not_depend_on_their_gather_groups(monkeypatch):
    # E_N groups of 1 and of 3 points on the M = 8 grid give the floats of
    # one group holding the whole batch
    spec = _sweep_spec([round(0.1 * i, 10) * 20 for i in range(31)], 8, 25)
    args = (build_coupling(spec.model), list(spec.mu_values), 4, 4, spec.numerics)

    def numbers():
        return [(r.mu, r.e_n_bits, r.collection_fraction, r.discarded_weight)
                for r in scenarios._sweep_batch(args)]

    one = numbers()
    point = (2 * 9 - 1) * 9 * 9 * 16  # one point's gather at d = 9
    assert scenarios._GATHER_BYTES >= 31 * point
    for size in (1, 3):
        monkeypatch.setattr(scenarios, "_GATHER_BYTES", size * point)
        assert numbers() == one


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

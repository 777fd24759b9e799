import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from bosefold import dense, mps
from bosefold.entanglement import logneg_partial_transpose, lognegs_partial_transpose
from bosefold.errors import ValidationError
from bosefold.folding import PhaseOp, fold_single, fold_two, invert_plan
from bosefold.heisenberg import (ground_mode, mode_trajectory, occupations_oracle,
                                 packet_modes, propagate, spectral_decompose)
from bosefold.model import ModelSpec, add_onsite_barrier, build_coupling
from bosefold.mps import (SingleModeGate, TwoModeGate, _sector_eigh, amplitude, apply_single,
                          apply_two, build_pair_rotation_gate, build_phase_gate, canonical_defect,
                          condensate_state, from_fock, lift_first_site, occupations,
                          reduced_density_two_sites, replay_plan_gates, schmidt_values,
                          state_norm, two_sum_state)


def _random_mode(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return c / np.linalg.norm(c)


def _all_amplitudes(state, n, m):
    return np.array([amplitude(state, cfg) for cfg in dense.fock_configs(n, m)])


def _unit_trace(rho):
    """Number blocks rho[n] divided by their summed trace."""
    return rho / np.trace(rho, axis1=1, axis2=2).sum().real


def test_from_fock_amplitudes():
    st = from_fock([2, 0, 1], chi_max=8, trunc_tol=1e-12)
    assert amplitude(st, (2, 0, 1)) == pytest.approx(1.0)
    assert amplitude(st, (1, 1, 1)) == 0.0
    assert state_norm(st) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        from_fock([2, -1], chi_max=8, trunc_tol=1e-12)


def test_gates_are_unitary_and_number_conserving():
    for d in (5, 6):
        # a phase gate is stored as its diagonal, so it cannot change boson number
        phases = build_phase_gate(1, 0.7, d).phases
        assert phases.shape == (d,)
        assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-12
        # a pair-rotation gate is stored as one read-only real block per
        # sector n_k + n_{k+1} = n, so it cannot mix two sectors
        blocks = build_pair_rotation_gate(1, 1.3, d).blocks
        assert len(blocks) == d
        for n, blk in enumerate(blocks):
            assert blk.shape == (n + 1, n + 1)
            assert blk.dtype == np.float64 and not blk.flags.writeable
            assert np.max(np.abs(blk @ blk.conj().T - np.eye(n + 1))) < 1e-12


def _sector_generator(n):
    """Q = (a_2^dag a_1 - a_1^dag a_2) / 2i on the n-boson pair sector, from ladder operators."""
    a = np.diag(np.sqrt(np.arange(1.0, n + 1)), 1)
    a1, a2 = np.kron(a, np.eye(n + 1)), np.kron(np.eye(n + 1), a)
    idx = [n1 * (n + 1) + (n - n1) for n1 in range(n + 1)]
    # the sector's rows and columns of Q
    return (a2.T[idx] @ a1[:, idx] - a1.T[idx] @ a2[:, idx]) / 2j


def test_pair_rotation_blocks_match_expm_of_sector_generator():
    for d in (2, 5, 21):
        for phi in (-6.5, 0.7, 3.0, 9.0):
            blocks = build_pair_rotation_gate(1, phi, d).blocks
            for n in range(d):
                ref = expm(-1j * phi * _sector_generator(n))
                assert np.max(np.abs(blocks[n] - ref)) < 1e-13, (d, phi, n)


def test_frame_rotation_matches_expm_and_rotates_each_vector_alone():
    # vectors over the frame states |q - m, m> of random charges, several of
    # one charge in one frame; entry m sits at n_1 = q - m of sector q
    rng = np.random.default_rng(11)
    for width in range(2, 34):
        frames = rng.uniform(-np.pi, np.pi, size=2)
        charges = np.concatenate([rng.integers(0, width, size=6), np.full(3, width - 1),
                                  np.full(3, width // 2)])
        frame = np.concatenate([rng.integers(0, 2, size=6), np.zeros(3, int), np.ones(3, int)])
        vecs = rng.normal(size=(charges.shape[0], width)) * (1 + 1j * rng.normal(size=width))
        vecs[np.arange(width) > charges[:, None]] = 0.0
        out = mps._frame_rotation(vecs, charges, frames[frame])
        refs = {}
        for j, (q, f) in enumerate(zip(charges.tolist(), frame.tolist())):
            if (q, f) not in refs:
                refs[q, f] = expm(-1j * frames[f] * _sector_generator(q))
            ref = np.zeros(width, dtype=complex)
            ref[q::-1] = refs[q, f] @ vecs[j, q::-1]
            assert np.max(np.abs(out[j] - ref)) < 1e-13, (width, q)
            alone = mps._frame_rotation(vecs[j:j + 1], charges[j:j + 1], frames[frame[j:j + 1]])
            assert alone.tobytes() == out[j].tobytes(), (width, q)


def test_sector_eigenbasis_is_cached(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _sector_eigh.cache_clear()
    for phi in np.linspace(-3.0, 3.0, 50):
        build_pair_rotation_gate(1, phi, 9)
    assert len(calls) <= 9


def _collision_modes(n, mu):
    r = add_onsite_barrier(build_coupling(ModelSpec(n_sites=n, base="jx")),
                           n // 2, n // 2 + 1, mu)
    a = propagate(spectral_decompose(r), np.pi)
    return a.entries[:, 0], a.entries[:, n - 1]


def _front(n, k, l):
    """Site order with sites k and l (1-based) moved to positions 1 and 2,
    the others in chain order."""
    return [k - 1, l - 1, *(s for s in range(n) if s not in (k - 1, l - 1))]


def _gate_two_sum(z, c, m1, m2, chi_max=None, trunc_tol=1e-12):
    """The two-sum state by the gate path: seed |M1, 0, ...>, rotate by the
    bridging angle, lift by M2, rotate back, then replay both inverse plans,
    every rotation an `apply_two` and every phase an `apply_single`, each
    gate built for the state's local dimension (M1 + 1 before the lift)."""
    z, c = z / np.linalg.norm(z), c / np.linalg.norm(c)
    plan = fold_two(z, c, m1, m2)
    st = from_fock([m1] + [0] * (z.shape[0] - 1), chi_max=chi_max or 4 * (m1 + m2 + 1),
                   trunc_tol=trunc_tol)
    apply_two(st, build_pair_rotation_gate(1, plan.bridging_angle, st.local_dim))
    lift_first_site(st, m2)
    apply_two(st, build_pair_rotation_gate(1, -plan.bridging_angle, st.local_dim))
    replay_plan_gates(st, invert_plan(plan.plan2_partial))
    replay_plan_gates(st, invert_plan(plan.plan1))
    site1_phase, = [op.angle for op in plan.plan2_partial.ops
                    if isinstance(op, PhaseOp) and op.site == 1]
    st.ws[0] = st.ws[0] * np.exp(-1j * site1_phase * m1)
    return st


def test_pair_rotation_gate_matches_mode_rotation():
    # one boson on two sites transforms exactly like the mode coefficients
    st = from_fock([1, 0], chi_max=4, trunc_tol=1e-15)
    phi = 0.9
    gate = build_pair_rotation_gate(1, phi, st.local_dim)
    apply_two(st, gate)
    half = phi / 2
    assert amplitude(st, (1, 0)) == pytest.approx(np.cos(half), abs=1e-12)
    assert amplitude(st, (0, 1)) == pytest.approx(-np.sin(half), abs=1e-12)


def test_apply_bounds_checked():
    st = from_fock([1, 0], chi_max=4, trunc_tol=1e-12)
    with pytest.raises(ValidationError):
        apply_single(st, build_phase_gate(3, 0.1, 2))
    with pytest.raises(ValidationError):
        apply_two(st, build_pair_rotation_gate(2, 0.1, 2))
    with pytest.raises(ValidationError, match="dimension"):
        apply_two(st, build_pair_rotation_gate(1, 0.1, 3))


def test_gates_must_conserve_boson_number():
    st = from_fock([1, 0], chi_max=4, trunc_tol=1e-12)
    with pytest.raises(ValidationError, match="dimension"):
        apply_single(st, SingleModeGate(site=1, phases=np.ones(3, dtype=complex)))
    good = build_pair_rotation_gate(1, 0.3, 2).blocks
    assert [blk.shape for blk in good] == [(1, 1), (2, 2)]
    for blocks in (good + good, (good[0], good[1][:1, :1]), np.eye(2), good[:1]):
        with pytest.raises(ValidationError, match="gate blocks have shapes"):
            apply_two(st, TwoModeGate(bond=1, blocks=blocks))


def test_every_writer_keeps_w_inside_its_charge_levels():
    # each site is stored as W[a, b] = B[a, qL[a] - qR[b], b]; an entry whose
    # implied level lies outside 0..d-1 has no place in B and must be exactly 0
    n = 5
    states = [(condensate_state(_random_mode(n, 40 + s), 3), 3) for s in range(2)]
    states += [(two_sum_state(_random_mode(n, 42), _random_mode(n, 43), 2, 2), 4),
               (two_sum_state(_random_mode(n, 44), _random_mode(n, 45), 1, 3), 4)]
    lifted = two_sum_state(_random_mode(n, 46), _random_mode(n, 47), 2, 1)
    states.append((lift_first_site(lifted, 2), 5))
    # from_fock, then every gate writer and the lift
    gated = from_fock([2, 0, 1, 0, 1], chi_max=8, trunc_tol=1e-12)
    rng = np.random.default_rng(48)
    for bond in (1, 2, 3, 4, 2, 1):
        d = gated.local_dim
        apply_two(gated, build_pair_rotation_gate(bond, rng.uniform(-np.pi, np.pi), d))
        apply_single(gated, build_phase_gate(bond, rng.uniform(-np.pi, np.pi), d))
    states.append((lift_first_site(gated, 2), 6))
    outside = 0
    for st, m in states:
        assert st.charges[0].tolist() == [m]
        assert st.local_dim == st.charges[0][0] + 1
        assert st.charges[n].tolist() == [0]
        # every bond is grouped by ascending charge
        assert all(np.all(np.diff(q) >= 0) for q in st.charges)
        for k, w in enumerate(st.ws):
            assert w.shape == (st.charges[k].shape[0], st.charges[k + 1].shape[0])
            level = st.charges[k][:, None] - st.charges[k + 1]
            out = (level < 0) | (level >= st.local_dim)
            assert np.all(w[out] == 0), k
            outside += np.count_nonzero(out)
    assert outside > 100  # the check is not vacuous


def test_gammas_is_a_read_only_dense_view_of_w():
    n = 6
    st = two_sum_state(_random_mode(n, 51), _random_mode(n, 52), 2, 2)
    d = st.local_dim
    view = st.gammas
    assert len(view) == n
    for k, g in enumerate(view):
        # every W entry at its implied level, and nothing else
        assert g.shape == (st.ws[k].shape[0], d, st.ws[k].shape[1])
        a, occ, b = np.nonzero(g)
        assert np.array_equal(st.charges[k][a], occ + st.charges[k + 1][b])
        level = np.clip(st.charges[k][:, None] - st.charges[k + 1], 0, d - 1)
        assert np.array_equal(np.take_along_axis(g, level[:, None, :], axis=1)[:, 0], st.ws[k])
        assert np.count_nonzero(g) == np.count_nonzero(st.ws[k])
    assert np.array_equal(view[-1], view[n - 1])
    # read-only: neither its arrays nor its items can be written
    g = view[2]
    with pytest.raises(ValueError, match="read-only"):
        g[...] = 0
    with pytest.raises(TypeError):
        st.gammas[0] = g
    with pytest.raises(IndexError):
        view[n]
    # the view follows the state: a gate on W shows in the next read
    before = st.gammas[2].copy()
    apply_single(st, build_phase_gate(3, 0.4, d))
    assert np.max(np.abs(st.gammas[2] - before * np.exp(-0.4j * np.arange(d))[None, :, None])) \
        < 1e-15


def test_condensate_state_matches_dense():
    n, m = 5, 3
    for seed in range(3):
        c = _random_mode(n, seed)
        st = condensate_state(c, m)
        dev = np.max(np.abs(_all_amplitudes(st, n, m) - dense.condensate_amplitudes(c, m)))
        assert dev < 1e-12
        assert canonical_defect(st) < 1e-10
        assert st.discarded_weight < 1e-20


def test_schmidt_values_below_round_off_stay_canonical():
    # untruncated, the bonds keep Schmidt values far below 1e-14
    n, m = 5, 3
    c = np.array([1, 1e-8, 1e-8, 1e-8, 1e-8])
    st = condensate_state(c, m, trunc_tol=0.0)
    assert min(lam.min() for lam in st.lambdas) < 1e-16
    assert canonical_defect(st) < 1e-12
    # untruncated, every stored site tensor is right-normalized, row by row
    for g in st.gammas:
        b = g.reshape(g.shape[0], -1)
        assert np.max(np.abs(b @ b.conj().T - np.eye(g.shape[0]))) < 1e-12
    ref = dense.condensate_amplitudes(c, m)
    assert np.max(np.abs(_all_amplitudes(st, n, m) - ref)) < 1e-12


def test_canonical_defect_at_scenario_scale():
    for mu in (6.0, 20.0, 40.0):
        z, c = _collision_modes(20, mu)
        for trunc_tol, bound in [(1e-30, 1e-13), (1e-12, 1e-11)]:
            st = two_sum_state(z, c, 8, 8, chi_max=81, trunc_tol=trunc_tol)
            assert canonical_defect(st) < bound, (mu, trunc_tol)


def test_condensate_bond_spectra_match_binomial_law():
    # (sum_k c_k a_k^dag)^M |0> splits at bond b into sqrt(1 - p_b) A_L^dag +
    # sqrt(p_b) A_R^dag, so the bond-b Schmidt weight of charge j (bosons to
    # the right) is Binomial(M, p_b) at j, with p_b = sum_{k > b} |c_k|^2
    n, m = 40, 20
    c = _random_mode(n, 11)
    st = condensate_state(c, m, trunc_tol=0.0)
    assert st.discarded_weight == 0.0
    j = np.arange(m + 1)
    for bond in range(1, n):
        p = np.sum(np.abs(c[bond:]) ** 2)
        ref = np.exp(gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)) * p**j * (1 - p) ** (m - j)
        weights = np.zeros(m + 1)
        np.add.at(weights, st.charges[bond], st.lambdas[bond] ** 2)
        assert np.max(np.abs(weights - ref)) < 1e-13, bond
    assert np.max(np.abs(occupations(st) - m * np.abs(c) ** 2)) < 1e-13


def test_environments_match_dense_contraction_on_truncated_states():
    # chi_max = 8 and 12 truncate the M = 8 collision and an N = 40, M = 20
    # condensate, so no canonical form holds; occupations, norm and
    # canonical defect come from environments that keep only the
    # charge-diagonal blocks of W^dag L W and W R W^dag.  The condensates and
    # the chi_max = 8 collision hold one Schmidt vector per charge on every
    # bond, so their environments are carried as vectors; the chi_max = 12
    # collision repeats charges and runs the masked matrices
    n, mu, m = 20, 6.0, 8
    z, c = _collision_modes(n, mu)
    states = [two_sum_state(z, c, m // 2, m // 2, chi_max=chi_max) for chi_max in (8, 12)]
    assert [any(len(set(q.tolist())) < q.shape[0] for q in st.charges)
            for st in states] == [False, True]
    # a condensate with 1e-6 amplitudes on three sites: <n_k> near 2e-11 there;
    # its occupations come from its W and, with no W written, from the keep pass
    c = _random_mode(40, 51)
    c[[3, 17, 30]] = 1e-6
    states += [condensate_state(c, 20, chi_max=chi_max) for chi_max in (8, 12)]
    for st in states:
        assert st.discarded_weight > 1e-3
        n = st.n_sites
        left, right = _dense_envs(st)
        b = [np.transpose(g, (1, 0, 2)) for g in st.gammas]
        occ = np.array([sum(lvl * np.trace(b[s][lvl].conj().T @ left[s] @ b[s][lvl] @ right[s + 1])
                            for lvl in range(st.local_dim)).real for s in range(n)])
        routes = [occupations(st)]
        if n == 40:
            routes.append(mps.condensate_occupations([c], 20, chi_max=st.chi_max)[0])
        for got in routes:
            assert np.max(np.abs(got - occ)) < 1e-13, (n, st.chi_max)
            # every term of the diagonal forms is nonnegative, so the sites far
            # below one boson keep their relative precision (<Q_{k-1}> - <Q_k>,
            # the same sum regrouped, loses about 1e-4 of it there)
            small = occ < 1e-8
            assert np.count_nonzero(small) == (3 if n == 40 else 0)
            assert np.all(np.abs(got - occ)[small] <= 1e-12 * occ[small]), (n, st.chi_max)
        assert abs(state_norm(st) - np.sqrt(left[n][0, 0].real)) < 1e-13
        defect = max([np.max(np.abs(env - np.diag(lam**2)))
                      for lam, env in zip(st.lambdas, left)]
                     + [np.max(np.abs(lam[:, None] * (env - np.eye(lam.shape[0])) * lam))
                        for lam, env in zip(st.lambdas, right)])
        assert defect > 1e-3  # truncation leaves the right condition broken
        assert abs(canonical_defect(st) - defect) < 1e-13, (n, st.chi_max)


def test_two_sum_state_matches_dense():
    cases = [(_random_mode(5, 10 + seed), _random_mode(5, 20 + seed), m1, m2)
             for seed, (m1, m2) in [(0, (1, 1)), (1, (2, 1)), (2, (2, 2))]]
    # both ends of the fold's bridging angle: c = z folds to 0 (a one-mode
    # frame), and the sweep's packets, orthogonal columns of a propagator,
    # fold to pi
    for n, (m1, m2) in [(3, (2, 2)), (5, (1, 3)), (6, (2, 1))]:
        z = _random_mode(n, 30 + n)
        assert abs(fold_two(z, z, m1, m2).bridging_angle) < 1e-12
        cases.append((z, z, m1, m2))
        for mu in (0.0, 2.0):
            z, c = _collision_modes(n, mu)
            assert abs(abs(fold_two(z, c, m1, m2).bridging_angle) - np.pi) < 1e-12
            cases.append((z, c, m1, m2))
    # degenerate frames: c = e^{i alpha} z spans one mode; packets on the two
    # halves of the chain, so the frame loses a mode halfway along (and gains
    # its second mode only there when reversed); N = 2; one lone boson
    z = _random_mode(5, 41)
    cases.append((z, np.exp(0.7j) * z, 2, 2))
    half = np.zeros(6, dtype=complex)
    left, right = half.copy(), half.copy()
    left[:3], right[3:] = _random_mode(3, 42), _random_mode(3, 43)
    cases += [(left, right, 2, 2), (right, left, 2, 3)]
    cases.append((_random_mode(2, 44), _random_mode(2, 45), 2, 3))
    cases += [(_random_mode(4, 46), _random_mode(4, 47), 1, 5),
              (_random_mode(4, 48), _random_mode(4, 49), 5, 1)]
    for z, c, m1, m2 in cases:
        st = two_sum_state(z, c, m1, m2)
        ref = dense.two_sum_amplitudes(z, c, m1, m2)
        dev = np.max(np.abs(_all_amplitudes(st, z.shape[0], m1 + m2) - ref))
        assert dev < 1e-12


def test_two_sum_orthogonal_modes_give_product_of_fock():
    # z = e_1, c = e_2: state is |m1, m2, 0>
    z = np.array([1.0, 0, 0], dtype=complex)
    c = np.array([0, 1.0, 0], dtype=complex)
    st = two_sum_state(z, c, 2, 1)
    assert abs(abs(amplitude(st, (2, 1, 0))) - 1.0) < 1e-12


def test_occupations_and_rdm_match_dense():
    # every pair as sites 1-2 of a build with the pair moved there, and the
    # adjacent pairs in chain order too, where k > 1 contracts a left
    # environment over bonds whose sectors hold several Schmidt vectors
    n = 6
    z1, c1, z2, c2 = (_random_mode(n, seed) for seed in (31, 32, 33, 34))
    c3, fock = _random_mode(n, 35), np.array([2, 0, 1, 0, 0, 1])
    builds = [(lambda p: two_sum_state(z1[p], c1[p], 2, 2), 4),
              (lambda p: two_sum_state(z2[p], c2[p], 3, 1), 4),
              (lambda p: condensate_state(c3[p], 3), 3),
              (lambda p: from_fock(fock[p].tolist(), chi_max=8, trunc_tol=1e-12), 4)]
    chain = list(range(n))
    sector_sizes = [np.unique(q, return_counts=True)[1].max() for q in builds[0][0](chain).charges]
    assert max(sector_sizes[2:n]) > 1
    for build, m in builds:
        st = build(chain)
        amps = _all_amplitudes(st, n, m)
        occ = occupations(st)
        assert np.max(np.abs(occ - dense.dense_occupations(amps, n, m))) < 1e-12
        assert occ.sum() == pytest.approx(m, abs=1e-10)
        for k in range(1, n):
            for l in range(k + 1, n + 1):
                ref = _unit_trace(dense.dense_rdm_two_sites(amps, n, m, k, l))
                rho = reduced_density_two_sites(build(_front(n, k, l)), 1, 2)
                assert np.max(np.abs(rho - ref)) < 1e-12, (k, l)
                if l == k + 1:
                    rho = reduced_density_two_sites(st, k, l)
                    assert np.max(np.abs(rho - ref)) < 1e-12, (k, l)
    for k, l in ((3, 3), (1, 3), (2, 1), (n, n + 1)):
        with pytest.raises(ValidationError, match="adjacent"):
            reduced_density_two_sites(st, k, l)


def test_reduced_pair_oracle_matches_full_dense():
    # n = 2 and 3 leave a rest span of rank 0 and 1
    for n in (2, 3, 5):
        z, c = _random_mode(n, 90 + n), _random_mode(n, 95 + n)
        for m1, m2 in [(1, 1), (2, 1), (2, 2)]:
            amps = dense.two_sum_amplitudes(z, c, m1, m2)
            for k in range(1, n):
                for l in range(k + 1, n + 1):
                    ref = _unit_trace(dense.dense_rdm_two_sites(amps, n, m1 + m2, k, l))
                    oracle = dense.reduced_pair_oracle(z, c, m1, m2, k, l)
                    assert np.max(np.abs(oracle - ref)) < 1e-13
    with pytest.raises(ValidationError):
        dense.reduced_pair_oracle(z, c, 1, 1, 2, 2)


def test_end_pair_rdm_matches_reduced_pair_oracle_at_scenario_scale():
    n, mu = 20, 6.0
    z, c = _collision_modes(n, mu)
    p = _front(n, 1, n)  # site N moved to position 2, as the sweep builds
    for m, numerics in [(8, {}), (16, {"chi_max": 81, "trunc_tol": 1e-30})]:
        tracemalloc.start()
        try:
            st = two_sum_state(z[p], c[p], m // 2, m // 2, **numerics)
            rho = reduced_density_two_sites(st, 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = dense.reduced_pair_oracle(z, c, m // 2, m // 2, 1, n)
        assert np.max(np.abs(rho - ref)) < 1e-12
        if m == 16:
            # chi = 81, d = 17: the sites are stored as W, about 1/d of
            # their dense tensors
            assert peak <= 15e6, peak


def test_end_pair_occupations_match_closed_form_at_large_m():
    # at M = 84 a site holds up to 84 bosons, and 1/sqrt(n!) of the frame
    # steps falls below 1e-60 from n = 81 on: the occupations of rho_{1,N}
    # must still match the closed form.  rho is read through the
    # outer bonds' charges, so it needs little beyond its own (d, d, d)
    # array (9.8 MB; 11.1 MB peak measured, 70.7 MB with both sites split)
    n, m = 20, 84
    r = add_onsite_barrier(build_coupling(ModelSpec(n_sites=n, base="jx")), n // 2, n // 2 + 1, 6.0)
    a = propagate(spectral_decompose(r), np.pi)
    p = _front(n, 1, n)
    st = two_sum_state(a.entries[p, 0], a.entries[p, n - 1], m // 2, m // 2,
                       chi_max=(m // 2 + 1) ** 2, trunc_tol=1e-12)
    tracemalloc.start()
    try:
        rho = reduced_density_two_sites(st, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rho.nbytes, (peak, rho.nbytes)
    # rho[n, i, i] is the weight of n_1 = i, n_N = n - i
    level, i = np.arange(m + 1)[:, None], np.arange(m + 1)
    weight = np.einsum("nii->ni", rho).real
    both = np.sum(weight * np.where(i <= level, level, 0))
    ref = occupations_oracle(packet_modes([(1, m // 2), (n, m // 2)], a))
    assert abs(both - (ref[0] + ref[n - 1])) < 1e-8


def test_two_sum_state_site_writing_memory():
    # the N = 20 end-pair builds as the sweep runs them (chi = 140 at M = 64,
    # 243 at M = 128): writing their sites must not need arrays far larger
    # than the state.  The sector eigenbases are cached for the whole
    # process, so they are built before tracing; the occupations of every
    # site, in the build's site order, must match their closed form
    n = 20
    r = add_onsite_barrier(build_coupling(ModelSpec(n_sites=n, base="jx")), n // 2, n // 2 + 1, 6.0)
    a = propagate(spectral_decompose(r), np.pi)
    p = _front(n, 1, n)
    for m, bound in [(64, 25e6), (128, 32e6)]:
        _sector_eigh(m + 1)
        tracemalloc.start()
        try:
            st = two_sum_state(a.entries[p, 0], a.entries[p, n - 1], m // 2, m // 2,
                               chi_max=(m // 2 + 1) ** 2, trunc_tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (m, peak)
        ref = occupations_oracle(packet_modes([(1, m // 2), (n, m // 2)], a))[p]
        assert np.max(np.abs(occupations(st) - ref)) < 1e-8, m


def test_frame_svd_stacks_follow_their_blocks_rows(monkeypatch):
    # each charge block's SVD stack is sized by its own rows, not by the most
    # rows a block of the exact state could have (288 at this point): no
    # stack reaches twice the state's largest bond dimension
    n, m = 20, 32
    z, c = _collision_modes(n, 6.0)
    p = _front(n, 1, n)
    heights = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        heights.append(a.shape[-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    st = two_sum_state(z[p], c[p], m // 2, m // 2, chi_max=(m // 2 + 1) ** 2, trunc_tol=1e-12)
    chi = max(lam.shape[0] for lam in st.lambdas)
    assert chi == 84
    assert heights and max(heights) < 2 * chi, (max(heights), chi)


def _pair_builds(n, pairs):
    """(site order, first site of the pair in it, pair): each pair moved to
    sites 1-2, and the adjacent (10, 11) also in chain order, where both outer
    environments are contracted."""
    return [(_front(n, k, l), 1, (k, l)) for k, l in pairs] + [(list(range(n)), 10, (10, 11))]


def test_interior_pair_rdms_match_reduced_pair_oracle_at_scenario_scale():
    n, mu, m = 20, 6.0, 16
    z, c = _collision_modes(n, mu)
    for p, site, (k, l) in _pair_builds(n, [(2, 19), (5, 16), (10, 11)]):
        st = two_sum_state(z[p], c[p], m // 2, m // 2, chi_max=81, trunc_tol=1e-30)
        rho = reduced_density_two_sites(st, site, site + 1)
        ref = dense.reduced_pair_oracle(z, c, m // 2, m // 2, k, l)
        assert np.max(np.abs(rho - ref)) < 1e-12, (k, l)
        assert np.max(np.abs(rho - rho.conj().swapaxes(1, 2))) <= 1e-14, (k, l)


def _dense_envs(st):
    """L[0..N] and R[0..N] by a plain per-level dense contraction, with no charge structure."""
    b = [np.transpose(g, (1, 0, 2)) for g in st.gammas]  # b[s][m]: (chi_left, chi_right)
    left = [np.ones((1, 1), dtype=complex)]
    for s in range(st.n_sites):
        left.append(sum(b[s][m].conj().T @ left[-1] @ b[s][m] for m in range(st.local_dim)))
    right = [np.ones((1, 1), dtype=complex)]
    for s in range(st.n_sites - 1, -1, -1):
        right.append(sum(b[s][m] @ right[-1] @ b[s][m].conj().T for m in range(st.local_dim)))
    return left, right[::-1]


def _dense_pair_rdm(st, k, l):
    """rho_{k,l} of an MPS by a plain dense contraction, with no charge structure.

    Environments are (ket, bra) matrices; X[i, i'] carries the open levels
    of site k through every level m of the sites between k and l.
    """
    b = [np.transpose(g, (1, 0, 2)) for g in st.gammas]  # b[s][m]: (chi_left, chi_right)
    bt = [np.swapaxes(g, 1, 2) for g in b]
    lefts, rights = _dense_envs(st)
    left, right = lefts[k - 1].T, rights[l]  # L is (bra, ket), R (ket, bra)
    x = bt[k - 1][:, None] @ (left @ b[k - 1].conj())[None, :]  # (i, i', chi, chi)
    for s in range(k, l - 1):
        x = sum(bt[s][m] @ x @ b[s][m].conj() for m in range(st.local_dim))
    z = bt[l - 1][None, None, :, None] @ x[:, :, None, None] @ b[l - 1].conj()[None, None, None, :]
    rho = np.sum(z * right, axis=(-2, -1))  # (i, i', j, j')
    # gathered into number blocks rho[n, i, i'] = <i, n-i| rho |i', n-i'>
    n, i = np.arange(st.local_dim)[:, None], np.arange(st.local_dim)
    ok = i <= n
    rho = rho[i[None, :, None], i[None, None, :], (n - i)[:, :, None], (n - i)[:, None, :]]
    return _unit_trace(np.where(ok[:, :, None] & ok[:, None, :], rho, 0))


def test_dense_pair_rdm_matches_dense_fock_rdm():
    n = 5
    st = two_sum_state(_random_mode(n, 71), _random_mode(n, 72), 2, 1)
    amps = _all_amplitudes(st, n, 3)
    for k, l in [(1, 5), (2, 4), (3, 4)]:
        ref = _unit_trace(dense.dense_rdm_two_sites(amps, n, 3, k, l))
        assert np.max(np.abs(_dense_pair_rdm(st, k, l) - ref)) < 1e-13


def test_truncated_rdms_match_dense_contraction_at_scenario_scale():
    # chi_max = 6 and 8 truncate the M = 8 collision (discarded weight about
    # 1.6e-1 and 7.5e-2 in chain order, 8.3e-2 and 1.9e-2 with site N moved
    # to position 2), so the oracles no longer describe the MPS; the dense
    # contraction of the same tensors does
    n, mu, m = 20, 6.0, 8
    z, c = _collision_modes(n, mu)
    level, i = np.arange(m + 1)[:, None], np.arange(m + 1)
    outside = (i > level)[:, :, None] | (i > level)[:, None, :]  # [n, i, i']: i > n or i' > n
    for chi_max in (6, 8):
        for p, site, (k, l) in _pair_builds(n, [(1, n), (2, n - 1), (5, 16), (10, 11)]):
            st = two_sum_state(z[p], c[p], m // 2, m // 2, chi_max=chi_max)
            assert st.discarded_weight > 1e-3
            rho = reduced_density_two_sites(st, site, site + 1)
            dev = np.max(np.abs(rho - _dense_pair_rdm(st, site, site + 1)))
            assert dev < 1e-13, (chi_max, k, l)
            # logneg_partial_transpose's padded gather reads these entries as 0
            assert not np.any(rho[outside]), (chi_max, k, l)


def test_every_bond_matches_bond_schmidt_oracle_at_scenario_scale():
    # untruncated (chi_max = 81 is the full rank at M = 16, above it at
    # M = 12); measured <= 6.1e-15, with equal and with unequal packets
    for n, mu, m1, m2 in [(20, 6.0, 8, 8), (40, 12.0, 8, 8), (20, 6.0, 3, 9), (20, 6.0, 9, 3)]:
        z, c = _collision_modes(n, mu)
        st = two_sum_state(z, c, m1, m2, chi_max=81, trunc_tol=1e-30)
        for bond in range(1, n):
            ref = dense.bond_schmidt_oracle(z, c, m1, m2, bond)
            lam = schmidt_values(st, bond)
            size = max(ref.shape[0], lam.shape[0])
            dev = np.abs(np.pad(lam, (0, size - lam.shape[0]))
                         - np.pad(ref, (0, size - ref.shape[0])))
            assert np.max(dev) < 5e-14, (n, m1, m2, bond)
    with pytest.raises(ValidationError):
        dense.bond_schmidt_oracle(z, c, 8, 8, n)


def test_bond_schmidt_oracle_matches_full_dense():
    n, m1, m2 = 5, 2, 1
    z, c = _random_mode(n, 30), _random_mode(n, 31)
    psi = dense.two_sum_amplitudes(z, c, m1, m2)
    for bond in range(1, n):
        ref = dense.schmidt_values_dense(psi, n, m1 + m2, bond)
        oracle = dense.bond_schmidt_oracle(z, c, m1, m2, bond)
        assert oracle.shape == ref.shape
        assert np.max(np.abs(oracle - ref)) < 1e-13


def test_schmidt_values_match_dense():
    n, m = 5, 3
    c = _random_mode(n, 8)
    st = condensate_state(c, m)
    amps = _all_amplitudes(st, n, m)
    for bond in range(1, n):
        lams = schmidt_values(st, bond)
        ref = dense.schmidt_values_dense(amps, n, m, bond)
        assert lams.shape[0] <= m + 1
        assert np.all(np.diff(lams) <= 0)
        assert np.max(np.abs(lams[: ref.shape[0]] - ref)) < 1e-12
    with pytest.raises(ValidationError):
        schmidt_values(st, n)


def test_lift_first_site_matches_dense():
    n = 3
    for m1 in (1, 2):
        for m2 in (1, 2):
            z = _random_mode(n, 50 + m1)
            c = _random_mode(n, 60 + m2)
            st = two_sum_state(z, c, m1, 1)
            before = [schmidt_values(st, b).copy() for b in range(1, n)]
            amps_before = _all_amplitudes(st, n, m1 + 1)
            lift_first_site(st, m2)
            ref = dense.lift_site_amplitudes(amps_before, n, m1 + 1, 1, m2)
            dev = np.max(np.abs(_all_amplitudes(st, n, m1 + 1 + m2) - ref))
            assert dev < 1e-10
            for b in range(2, n):
                after = schmidt_values(st, b)
                assert after.shape == before[b - 1].shape
                assert np.max(np.abs(after - before[b - 1])) < 1e-12


def test_lift_factors_match_gammaln():
    # math.lgamma per entry in place of scipy.special.gammaln; measured 1.7e-13
    j = np.arange(201, dtype=float)
    for m2 in (1, 8, 32):
        ref = np.exp(0.5 * (gammaln(j + m2 + 1) - gammaln(j + 1)))
        assert np.max(np.abs(mps._lift_factors(j, m2) / ref - 1.0)) < 1e-12


def test_lift_cutoff_and_validation():
    st = from_fock([2, 0], chi_max=4, trunc_tol=1e-12)
    with pytest.raises(ValidationError):
        lift_first_site(st, -1)
    assert lift_first_site(st, 1).local_dim == 4  # the lift grows d with bond 0's charge


def test_truncation_records_discarded_weight():
    n, m = 6, 3
    c = _random_mode(n, 77)
    st = condensate_state(c, m, chi_max=2, trunc_tol=1e-12)
    assert st.discarded_weight > 0
    assert all(lam.shape[0] <= 2 for lam in st.lambdas)
    # every truncation renormalizes the kept weight, so the state stays normalized
    assert state_norm(st) == pytest.approx(1.0, abs=1e-12)


def _dense_pair_gate(gate, d):
    """The d^2 x d^2 matrix of a pair-rotation gate, row index n_k * d + n_{k+1}."""
    u = np.zeros((d * d, d * d), dtype=complex)
    for n in range(d):
        idx = [n1 * d + (n - n1) for n1 in range(n + 1)]
        u[np.ix_(idx, idx)] = gate.blocks[n]
    return u


def test_truncation_keeps_top_singular_values_across_charge_blocks():
    # bond 3 of a (3, 3) two-sum state on 6 sites: the new middle bond has
    # 1, 2, 3, 4, 3, 2, 1 vectors of charge 0..6, and chi_max = 7 cuts inside
    # the charge blocks
    n, chi = 6, 7
    st = two_sum_state(_random_mode(n, 31), _random_mode(n, 32), 3, 3, trunc_tol=1e-14)
    k, d = 2, st.local_dim
    gate = build_pair_rotation_gate(k + 1, 0.7, d)
    b1, b2 = st.gammas[k], st.gammas[k + 1]
    chi_l, chi_r = b1.shape[0], b2.shape[2]
    # reference: the dense lambda-weighted two-site block and its SVD
    theta = np.einsum("aim,mjb->aijb", b1, b2).reshape(chi_l, d * d, chi_r)
    theta = np.einsum("xy,ayb->axb", _dense_pair_gate(gate, d), theta)
    theta = theta.reshape(chi_l * d, d * chi_r)
    _, s_ref, vh_ref = np.linalg.svd(st.lambdas[k].repeat(d)[:, None] * theta)
    full = apply_two(replace(st, ws=list(st.ws), lambdas=list(st.lambdas),
                             charges=list(st.charges), chi_max=100), gate)
    counts_full = dict(zip(*np.unique(full.charges[k + 1], return_counts=True)))
    assert sorted(set(counts_full.values())) == [1, 2, 3, 4]

    trunc = apply_two(replace(st, chi_max=chi), gate)
    counts = dict(zip(*np.unique(trunc.charges[k + 1], return_counts=True)))
    assert any(0 < counts.get(q, 0) < c for q, c in counts_full.items())  # cut inside a block
    lam = np.sort(trunc.lambdas[k + 1])[::-1]
    assert np.max(np.abs(lam - s_ref[:chi] / np.linalg.norm(s_ref[:chi]))) < 1e-12
    assert trunc.discarded_weight - st.discarded_weight == pytest.approx(
        np.sum(s_ref[chi:] ** 2) / np.sum(s_ref**2), rel=1e-10)
    ref = theta @ vh_ref[:chi].conj().T @ vh_ref[:chi] / np.linalg.norm(s_ref[:chi])
    prod = np.einsum("aim,mjb->aijb", trunc.gammas[k], trunc.gammas[k + 1])
    assert np.max(np.abs(prod.reshape(chi_l * d, d * chi_r) - ref)) < 1e-12


def test_replay_inverse_plan_builds_condensate():
    n, m = 4, 2
    c = _random_mode(n, 5)
    plan = fold_single(c)
    st = from_fock([m] + [0] * (n - 1), chi_max=4 * (m + 1), trunc_tol=1e-12)
    replay_plan_gates(st, invert_plan(plan))
    ref = dense.condensate_amplitudes(c, m)
    assert np.max(np.abs(_all_amplitudes(st, n, m) - ref)) < 1e-12


def test_closed_form_rotation_matches_gate_column():
    # e^{-i phi Q}|r, 0> written in closed form, `_vacuum_rotations` from
    # charge r, against the |r, 0> column of the gate's sector-r block (rows
    # n_k = 0..r)
    phis = (0.0, np.pi, -np.pi, np.random.default_rng(5).uniform(-np.pi, np.pi))
    for d in (2, 5, 21, 33):
        for phi in phis:
            blocks = build_pair_rotation_gate(1, phi, d).blocks
            for r in range(d):
                ((w1, w2), _, (q,), _), = mps._vacuum_rotations(
                    r, [[phi]], [[0.0, 0.0]], d, 0.0)
                # vector j of bond 1 carries |r - q[j], q[j]> at W1[0, j] W2[j, 0]
                column = np.zeros(r + 1, dtype=complex)
                column[r - q] = w1[0] * w2[:, 0]
                dev = np.max(np.abs(column - blocks[r][:, r]))
                assert dev < 1e-13, (d, phi, r)


def _overlap(a, b):
    """<a|b> by a dense per-level contraction of the two site-tensor chains."""
    env = np.ones((1, 1), dtype=complex)
    for ga, gb in zip(a.gammas, b.gammas):
        env = np.einsum("xy,xnu,ynv->uv", env, ga.conj(), gb)
    return env[0, 0]


def _assert_same_state(st, ref, same_gauge, tol=1e-13):
    for b in range(st.n_sites + 1):
        assert np.array_equal(st.charges[b], ref.charges[b]), b
        assert np.max(np.abs(st.lambdas[b] - ref.lambdas[b])) < tol, b
    if same_gauge:
        for k, (g, g_ref) in enumerate(zip(st.gammas, ref.gammas)):
            assert g.shape == g_ref.shape and np.max(np.abs(g - g_ref)) < tol, k
    else:
        assert abs(_overlap(st, ref) - 1.0) < 10 * tol
    # weights of singular values at round-off (~1e-15) are compared absolutely
    assert st.discarded_weight == pytest.approx(ref.discarded_weight, rel=1e-9, abs=1e-20)


def _zero_entry_modes(n):
    """A mode with every boson on one site, and one with every third entry 0."""
    single = np.zeros(n, dtype=complex)
    single[7] = 0.6 - 0.8j  # chi = 1 above round-off
    sparse = _random_mode(n, 70)
    sparse[::3] = 0.0
    return single, sparse


def test_condensate_state_matches_gate_replay():
    # the closed-form angles against the fold plan's, also where arctan2
    # meets zero entries; untruncated, the zero-entry modes keep Schmidt
    # values at round-off, whose charges depend on rounding in either build,
    # so those modes run truncated only
    n, m = 40, 20
    truncated = ((84, 1e-12), (2, 1e-12))
    cases = [(_random_mode(n, 13), numerics) for numerics in truncated + ((84, 0.0),)]
    cases += [(c, numerics) for c in _zero_entry_modes(n) for numerics in truncated]
    for c, (chi_max, trunc_tol) in cases:
        st = condensate_state(c, m, chi_max=chi_max, trunc_tol=trunc_tol)
        ref = from_fock([m] + [0] * (n - 1), chi_max=chi_max, trunc_tol=trunc_tol)
        replay_plan_gates(ref, invert_plan(fold_single(c)))
        _assert_same_state(st, ref, same_gauge=True)
        assert (st.discarded_weight > 0) == (trunc_tol > 0)


def test_two_sum_state_matches_gate_replay():
    # the frame writer against the build that seeds |M1, 0, ...>, rotates by
    # the bridging angle, lifts by M2 and rotates back, every rotation an
    # `apply_two` and every phase an `apply_single`: both truncate each bond
    # of the state the earlier bonds left, so they keep the same vectors;
    # the SVDs may pick other singular vectors within a degenerate value, so
    # the states are compared by their overlap; in both site orders, the
    # second with site N moved to position 2, where rho_{1,2} is the sweep's
    # rho_{1,N}
    n, m1, m2 = 20, 4, 4
    z, c = _collision_modes(n, 6.0)
    for chi_max in (36, 12):
        for p in (list(range(n)), _front(n, 1, n)):
            st = two_sum_state(z[p], c[p], m1, m2, chi_max=chi_max)
            ref = _gate_two_sum(z[p], c[p], m1, m2, chi_max=chi_max)
            _assert_same_state(st, ref, same_gauge=False)
            assert np.max(np.abs(occupations(st) - occupations(ref))) < 1e-13
            assert np.max(np.abs(reduced_density_two_sites(st, 1, 2)
                                 - reduced_density_two_sites(ref, 1, 2))) < 1e-13


def test_condensate_states_match_one_build_per_mode():
    # the keep pass runs every mode as one row of a batch; each state must be
    # the one a build of its mode alone gives, in input order
    n, m = 40, 20
    modes = [_random_mode(n, 60 + s) for s in range(4)] + list(_zero_entry_modes(n))
    for chi_max, trunc_tol in ((None, 1e-12), (2, 1e-12), (None, 0.0)):
        states = list(mps.condensate_states(modes, m, chi_max=chi_max, trunc_tol=trunc_tol))
        assert len(states) == len(modes)
        for c, st in zip(modes, states):
            ref = condensate_state(c, m, chi_max=chi_max, trunc_tol=trunc_tol)
            _assert_same_state(st, ref, same_gauge=True)
        if trunc_tol > 0:
            assert all(lam.shape == (1,) for lam in states[4].lambdas)
        assert max(lam.shape[0] for lam in states[0].lambdas) == min(m + 1, chi_max or m + 1)


def _keep_reference(row, total, chi_max, trunc_tol):
    """The keep rule on one row, value by value: sort, cut, sum the tail."""
    order = sorted(range(len(row)), key=lambda i: -row[i])  # stable: first on ties
    passing = [i for i in order if row[i] ** 2 / total >= trunc_tol and row[i] > 0]
    chi = max(min(len(passing), chi_max), 1)
    kept = np.zeros(len(row), dtype=bool)
    kept[order[:chi]] = True
    discarded = 0.0
    for i in order[chi:]:  # descending
        discarded += row[i] ** 2
    return kept, math.sqrt(sum(row[i] ** 2 for i in order[:chi])), discarded / total


def test_truncate_matches_per_row_reference():
    rows = np.array([
        [0.5, 0.1, 0.7, 0.3, 0.2, 0.0, 0.05, 0.6],  # chi_max binds
        [0.4, 0.4, 0.1, 0.4, 0.0, 0.2, 0.4, 0.1],  # ties at the cut
        [1.0, 1e-8, 1e-9, 0.0, 3e-7, 0.0, 2e-8, 1e-7],  # only the largest clears 1e-12
        [0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0],  # one positive value
        np.random.default_rng(9).random(8) ** 6,
    ])
    total = np.sum(rows**2, axis=1)
    for chi_max, trunc_tol in ((3, 1e-12), (1, 1e-12), (8, 1e-12), (2, 0.0), (8, 0.0), (8, 1e-3)):
        kept, norm, discarded = mps._truncate(rows, total, chi_max, trunc_tol)
        for r, row in enumerate(rows):
            ref_kept, ref_norm, ref_discarded = _keep_reference(row.tolist(), total[r],
                                                                chi_max, trunc_tol)
            assert np.array_equal(kept[r], ref_kept), (chi_max, trunc_tol, r)
            assert norm[r] == pytest.approx(ref_norm, rel=1e-14)
            assert discarded[r] == pytest.approx(ref_discarded, rel=1e-14, abs=1e-300)
        if chi_max == 3 and trunc_tol == 1e-12:
            assert kept[0].sum() == 3 and kept[1].tolist() == [1, 1, 0, 1, 0, 0, 0, 0]
            assert kept[2].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]


def test_condensate_states_hold_one_state_at_a_time():
    # states are written as they are yielded: a caller that keeps only the
    # current one holds it and the one being built, not all 21
    n, m = 40, 20
    modes = [_random_mode(n, 80 + s) for s in range(21)]
    largest = 0
    tracemalloc.start()
    try:
        for st in mps.condensate_states(modes, m):
            largest = max(largest, sum(w.nbytes for w in st.ws))
        del st
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * largest, (peak, largest)


def test_condensate_states_check_every_mode_first():
    # condensate_occupations checks the same, with the same errors
    def both_raise(modes, m, match):
        with pytest.raises(ValidationError, match=match) as err:
            next(mps.condensate_states(modes, m))
        with pytest.raises(ValidationError) as same:
            mps.condensate_occupations(modes, m)
        assert str(same.value) == str(err.value)

    good = [_random_mode(6, s) for s in range(3)]
    bad = [(np.zeros(6), "nonzero"), (np.append(good[0][:5], np.nan), "finite"),
           (np.append(good[0][:5], np.inf), "finite")]
    for where in (0, 2, 3):
        for mode, match in bad:
            both_raise(good[:where] + [mode] + good[where:], 3, match)
    both_raise(good + [_random_mode(5, 9)], 3, "one length")
    for modes in (good, []):
        both_raise(modes, -1, "boson count")
    with pytest.raises(ValidationError, match="boson count"):
        condensate_state(np.ones(3), -1)
    assert list(mps.condensate_states([], 3)) == []
    assert mps.condensate_occupations([], 3).shape[0] == 0


def _release_snapshot_modes():
    """The 21 snapshot modes of the seed-0 benchmark quench: an N = 40
    inverse-distance chain released from a barrier on sites 19-22, at t = 0,
    10, ..., 200."""
    n = 40
    model = ModelSpec(n_sites=n, base="inverse_distance", j1=0.3,
                      trap_omega=0.00046 * (100 / n) ** 2, barriers=((19, 22, 1000.0),))
    c0 = ground_mode(spectral_decompose(build_coupling(model)))
    post = spectral_decompose(build_coupling(model.without_barriers()))
    return mode_trajectory(post, c0.coefficients, np.arange(21) * 10.0)


def _tail_modes():
    """Four random N = 40 modes with 1e-4 tails on three sites."""
    tails = []
    for s in range(4):
        c = _random_mode(40, 90 + s)
        c[[3, 17, 30]] = 1e-4
        tails.append(c)
    return tails


def test_condensate_occupations_match_the_written_states():
    # read off the keep pass with no W written, the occupations must be those
    # of the states condensate_states yields, truncated or not
    tails = _tail_modes()
    cases = [(tails, 20, dict(chi_max=8)), (tails, 20, dict(chi_max=12)),
             (tails, 20, dict(trunc_tol=0.0)), ([_random_mode(2, s) for s in range(3)], 0, {}),
             ([_random_mode(100, 95 + s) for s in range(2)], 100, {}),
             (_release_snapshot_modes(), 20, {})]
    for modes, m, numerics in cases:
        states = list(mps.condensate_states(modes, m, **numerics))
        if "chi_max" in numerics:
            assert min(st.discarded_weight for st in states) > 1e-3
        ref = np.array([occupations(st) for st in states])
        got = mps.condensate_occupations(modes, m, **numerics)
        assert got.shape == ref.shape == (len(modes), len(modes[0]))
        assert np.all(np.abs(got - ref) <= 1e-13 * ref), (m, numerics)


def _full_axis_keep_pass(w, angles, chi_max, trunc_tol):
    """The keep pass with every bond's whole (M+1) x (M+1) rot^2."""
    rows, bonds = angles.shape
    q = w.shape[1] - 1
    kept = np.ones((rows, bonds + 1, q + 1), dtype=bool)
    kept[:, bonds, 1:] = False
    lam = np.empty((rows, bonds, q + 1))
    norm = np.ones((rows, bonds + 1))
    discarded = np.zeros(rows)
    for b in range(bonds):
        s2 = np.matmul(w[:, None, :], mps._rotation_weights(angles[:, b], q))[:, 0]
        s = np.sqrt(s2)
        kept[:, b], norm[:, b], dropped = mps._truncate(s, s2.sum(axis=1), chi_max, trunc_tol)
        discarded += dropped
        lam[:, b] = np.where(kept[:, b], s, 0.0) / norm[:, b, None]
        w = lam[:, b] ** 2
    return kept, lam, norm, discarded


def test_keep_pass_window_matches_the_full_axis_product():
    # rot^2 is built only on the charges the bond before holds, columns up
    # to the highest of them; the product keeps its full axis, so every
    # mask, lambda, norm and discarded weight is the same float
    tails = _tail_modes()
    cases = [(_release_snapshot_modes(), 20, dict(chi_max=84, trunc_tol=1e-12)),
             (tails, 20, dict(chi_max=8, trunc_tol=1e-12)),
             (tails, 20, dict(chi_max=84, trunc_tol=0.0)),
             ([_random_mode(2, s) for s in range(3)], 0, dict(chi_max=4, trunc_tol=1e-12)),
             ([_random_mode(100, 95 + s) for s in range(3)], 100,
              dict(chi_max=404, trunc_tol=1e-12))]
    kept = []
    for modes, m, numerics in cases:
        _, angles = mps._condensate_fold(modes, m)
        start = mps._vacuum_start(angles.shape[0], m)
        got = mps._keep_pass(start, angles, **numerics)
        ref = _full_axis_keep_pass(start, angles, **numerics)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b), (m, numerics)
        kept.append(got[0])
    # on the quench modes the windows are far narrower than the 21 charges
    windows = [mps._charge_window(kept[0][:, b]) for b in range(39)]
    assert np.mean([r.stop - r.start for r in windows]) < 15


def _sweep_grid(n, count):
    """Packets of barrier heights mu / N = 0..3."""
    return [_collision_modes(n, mu) for mu in np.linspace(0.0, 3.0 * n, count)]


def test_two_sum_states_match_one_build_per_pair():
    # the keep pass batches every bond's SVDs over the pairs; a pair's
    # state must be the one it gets built alone, bit for bit
    pairs = _sweep_grid(20, 31)
    states = list(mps.two_sum_states(pairs, 4, 4, chi_max=25))
    assert len(states) == len(pairs)
    assert len({st.lambdas[10].shape[0] for st in states}) > 5  # bonds of many shapes
    for pair, st in zip(pairs, states):
        ref = two_sum_state(*pair, 4, 4, chi_max=25)
        for field in ("ws", "lambdas", "charges"):
            for a, b in zip(getattr(st, field), getattr(ref, field)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), field
        assert st.discarded_weight == ref.discarded_weight


def test_two_sum_states_rotate_each_vector_once(monkeypatch):
    # each kept Schmidt vector turns into its site's H frame once, in the keep
    # pass's one rotation call per bond 0..N-1 for the whole batch; writing
    # the states rotates nothing, so the calls do not grow with the pairs
    calls = []
    rotation = mps._frame_rotation

    def counted(*args):
        calls.append(args)
        return rotation(*args)

    monkeypatch.setattr(mps, "_frame_rotation", counted)
    for n, count in [(20, 1), (20, 21), (8, 5)]:
        calls.clear()
        states = list(mps.two_sum_states(_sweep_grid(n, count), 4, 4, chi_max=25))
        assert len(states) == count
        assert len(calls) == n, (n, count, len(calls))


def test_two_sum_states_hold_one_state_at_a_time(monkeypatch):
    # states are written as they are yielded: besides the keep pass's record
    # (each bond's left and right site factors), a caller that keeps
    # only the current state holds it and the one being built, not all 21
    pairs = [_collision_modes(20, mu) for mu in np.linspace(4.0, 12.0, 21)]  # near the peak
    record = []
    keep_pass = mps._frame_keep_pass

    def recording(*args):
        out = keep_pass(*args)
        record.append(sum(a.nbytes for bond in out.bonds for a in bond)
                      + sum(a.nbytes for a in out[1:]))
        return out

    monkeypatch.setattr(mps, "_frame_keep_pass", recording)
    sizes = []
    tracemalloc.start()
    try:
        states = mps.two_sum_states(pairs, 8, 8, chi_max=81)
        st = next(states)
        after_first = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sizes.append(sum(w.nbytes for w in st.ws))
        for st in states:
            sizes.append(sum(w.nbytes for w in st.ws))
        del st
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) == 21 and sum(sizes) > 10 * max(sizes)
    assert after_first < record[0] + 2 * max(sizes), (after_first, record, max(sizes))
    assert peak < after_first + 3 * max(sizes), (peak, after_first, max(sizes))


def _subnormals(a):
    size = np.abs(a)
    return int(np.count_nonzero((size > 0) & (size < np.finfo(float).tiny)))


def test_sweep_builds_hold_no_subnormals(monkeypatch):
    # the seed-0 points of the M = 4 and M = 8 sweeps (mu / N = 0..3 in steps
    # of 0.1) and of the M = 16 sweep (mu / N = 0, 0.3, 1, 2, 3), built as the
    # sweep builds them: the packets' tails reach about 1e-17, yet no entry
    # of the keep pass's record (each bond's left and right site factors,
    # fn), no W and no Schmidt value is subnormal, where one 68 x 17 x 68
    # product runs about 100 times slower; so the frame writer sets no
    # amplitude to 0
    n = 20
    p = _front(n, 1, n)
    small = [round(0.1 * i, 10) for i in range(31)]
    record = []
    keep_pass = mps._frame_keep_pass

    def recording(*args):
        record.append(keep_pass(*args))
        return record[-1]

    monkeypatch.setattr(mps, "_frame_keep_pass", recording)
    for m, chi_max, grid in [(4, 9, small), (8, 25, small), (16, 81, [0.0, 0.3, 1.0, 2.0, 3.0])]:
        pairs = [(z[p], c[p]) for z, c in (_collision_modes(n, x * n) for x in grid)]
        states = list(mps.two_sum_states(pairs, m // 2, m // 2, chi_max=chi_max,
                                         trunc_tol=1e-12))
        fp = record[-1]
        arrays = [a for bond in fp.bonds for a in (bond.left, bond.right)] + [fp.fn]
        arrays += [a for st in states for a in st.ws + st.lambdas]
        assert sum(_subnormals(a) for a in arrays) == 0, m


def test_two_sum_states_check_every_pair_first():
    # the state writer and the end-pair reader share one check of every pair
    good = [(_random_mode(6, s), _random_mode(6, s + 10)) for s in range(3)]
    nan, inf = np.append(good[0][0][:5], np.nan), np.append(good[0][1][:5], np.inf)
    for build in (mps.two_sum_states, mps.end_pair_densities):
        for where in (0, 2, 3):
            for bad, match in (((np.zeros(6), good[0][1]), "zero vector"),
                               ((good[0][0], np.zeros(6)), "zero vector"),
                               ((nan, good[0][1]), "finite"), ((good[0][0], inf), "finite")):
                states = build(good[:where] + [bad] + good[where:], 2, 2)
                with pytest.raises(ValidationError, match=match):
                    next(states)
        with pytest.raises(ValidationError, match="differ in length"):
            next(build(good + [(_random_mode(6, 7), _random_mode(5, 8))], 2, 2))
        with pytest.raises(ValidationError, match="one length"):
            next(build(good + [(_random_mode(5, 7), _random_mode(5, 8))], 2, 2))
        for m1, m2 in ((0, 2), (2, 0), (-1, 3)):
            with pytest.raises(ValidationError, match="boson counts"):
                next(build(good, m1, m2))
        assert list(build([], 2, 2)) == []
    # a single pair raises as `two_sum_state` does
    with pytest.raises(ValidationError, match="zero vector"):
        two_sum_state(np.zeros(6), good[0][1], 2, 2)


def test_end_pair_densities_match_the_written_states():
    # rho_{1,N} read off the keep pass with R[2] = 1 against rho_{1,2} of the
    # state that `two_sum_states` writes, on the sweeps' grids: rho and E_N
    # within 1e-10 (2.3e-12 and 4.9e-12 bits measured, the order of what
    # bonds 3..N-1 discard) and the same discarded weight.  E_N of the whole
    # stack, in one gather and one eigvalsh, is that of each rho alone, bit
    # for bit
    n = 20
    p = _front(n, 1, n)
    for m, chi_max, grid in [(8, 25, np.linspace(0.0, 3.0 * n, 31)),
                             (16, 81, [0.0, 0.3 * n, 1.0 * n, 2.0 * n, 3.0 * n])]:
        pairs = [(z[p], c[p]) for z, c in (_collision_modes(n, mu) for mu in grid)]
        got = list(mps.end_pair_densities(pairs, m // 2, m // 2, chi_max=chi_max))
        e_n = lognegs_partial_transpose(np.stack([rho for rho, _ in got]))
        states = mps.two_sum_states(pairs, m // 2, m // 2, chi_max=chi_max)
        for (rho, weight), value, st in zip(got, e_n, states, strict=True):
            ref = reduced_density_two_sites(st, 1, 2)
            assert np.max(np.abs(rho - ref)) < 1e-10, m
            assert abs(value - logneg_partial_transpose(ref).value) < 1e-10, m
            assert value == logneg_partial_transpose(rho).value, m
            assert weight == st.discarded_weight, m
        assert max(e_n) > 1.0


def test_end_pair_densities_match_the_oracle_on_any_chain():
    # untruncated, rho_{1,2} off the keep pass is exact, down to N = 2,
    # where bond 2 is the vacuum past the chain
    for n in (2, 3, 6):
        pairs = [(_random_mode(n, 60 + s), _random_mode(n, 70 + s)) for s in range(3)]
        for (z, c), (rho, weight) in zip(pairs, mps.end_pair_densities(pairs, 2, 1,
                                                                       trunc_tol=0.0)):
            assert np.max(np.abs(rho - dense.reduced_pair_oracle(z, c, 2, 1, 1, 2))) < 1e-12, n
            assert weight == 0.0


def test_writers_build_modes_of_any_scale():
    # |c|^2 of these modes overflows or underflows; each mode is scaled by an
    # exact power of two before its norm, so it builds the unit mode's state
    # bit for bit
    z, c = _random_mode(6, 90), _random_mode(6, 91)
    refs = [condensate_state(c, 3), two_sum_state(z, c, 2, 2)]
    for scale in (2.0**600, 2.0**-600):
        states = [condensate_state(scale * c, 3), two_sum_state(scale * z, scale * c, 2, 2)]
        for st, ref in zip(states, refs):
            for field in ("ws", "lambdas", "charges"):
                for a, b in zip(getattr(st, field), getattr(ref, field)):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), (scale, field)
            assert st.discarded_weight == ref.discarded_weight
    st = condensate_state(np.array([1e200, 1e200]), 2)
    assert occupations(st) == pytest.approx([1.0, 1.0], abs=1e-12)

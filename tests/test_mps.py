import numpy as np
import pytest

from bosefold import dense
from bosefold.errors import CutoffError, ValidationError
from bosefold.folding import fold_single, invert_plan
from bosefold.mps import (SingleModeGate, TwoModeGate, amplitude, apply_single, apply_two,
                          build_pair_rotation_gate, build_phase_gate, canonical_defect,
                          condensate_state, from_fock, lift_first_site, occupations,
                          reduced_density_two_sites, replay_plan_gates, schmidt_values,
                          site_occupation, state_norm, two_sum_state)


def _random_mode(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return c / np.linalg.norm(c)


def _all_amplitudes(state, n, m):
    return np.array([amplitude(state, cfg) for cfg in dense.fock_configs(n, m)])


def test_from_fock_amplitudes():
    st = from_fock([2, 0, 1], d=4, chi_max=8, trunc_tol=1e-12)
    assert amplitude(st, (2, 0, 1)) == pytest.approx(1.0)
    assert amplitude(st, (1, 1, 1)) == 0.0
    assert state_norm(st) == pytest.approx(1.0)
    with pytest.raises(CutoffError):
        from_fock([4], d=4, chi_max=8, trunc_tol=1e-12)


def test_gates_are_unitary_and_number_conserving():
    d = 5
    g1 = build_phase_gate(1, 0.7, d).matrix
    assert np.max(np.abs(g1 @ g1.conj().T - np.eye(d))) < 1e-12
    g2 = build_pair_rotation_gate(1, 1.3, d).matrix
    assert np.max(np.abs(g2 @ g2.conj().T - np.eye(d * d))) < 1e-12
    # no matrix element may connect different total occupations
    for a in range(d * d):
        for b in range(d * d):
            if g2[a, b] != 0:
                assert a // d + a % d == b // d + b % d


def test_pair_rotation_gate_matches_mode_rotation():
    # one boson on two sites transforms exactly like the mode coefficients
    d = 3
    phi = 0.9
    gate = build_pair_rotation_gate(1, phi, d)
    st = from_fock([1, 0], d=d, chi_max=4, trunc_tol=1e-15)
    apply_two(st, gate)
    half = phi / 2
    assert amplitude(st, (1, 0)) == pytest.approx(np.cos(half), abs=1e-12)
    assert amplitude(st, (0, 1)) == pytest.approx(-np.sin(half), abs=1e-12)


def test_apply_bounds_checked():
    st = from_fock([0, 0], d=2, chi_max=4, trunc_tol=1e-12)
    with pytest.raises(ValidationError):
        apply_single(st, build_phase_gate(3, 0.1, 2))
    with pytest.raises(ValidationError):
        apply_two(st, build_pair_rotation_gate(2, 0.1, 2))
    with pytest.raises(ValidationError, match="dimension"):
        apply_two(st, build_pair_rotation_gate(1, 0.1, 3))


def test_gates_must_conserve_boson_number():
    st = from_fock([1, 0], d=2, chi_max=4, trunc_tol=1e-12)
    hop = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # a + a^dag on d = 2
    with pytest.raises(ValidationError, match="diagonal"):
        apply_single(st, SingleModeGate(site=1, matrix=hop))
    with pytest.raises(ValidationError, match="conserve"):
        apply_two(st, TwoModeGate(bond=1, matrix=np.kron(hop, np.eye(2))))


def test_bond_charges_label_every_nonzero_gamma_entry():
    n = 5
    states = [(condensate_state(_random_mode(n, 40 + s), 3), 3) for s in range(2)]
    states += [(two_sum_state(_random_mode(n, 42), _random_mode(n, 43), 2, 2), 4),
               (two_sum_state(_random_mode(n, 44), _random_mode(n, 45), 1, 3), 4)]
    for st, m in states:
        assert st.charges[0].tolist() == [m]
        assert st.charges[n].tolist() == [0]
        for k, g in enumerate(st.gammas):
            assert st.charges[k].shape[0] == g.shape[0]
            assert st.charges[k + 1].shape[0] == g.shape[2]
            a, occ, b = np.nonzero(g)
            assert np.array_equal(st.charges[k][a], occ + st.charges[k + 1][b])


def test_condensate_state_matches_dense():
    n, m = 5, 3
    for seed in range(3):
        c = _random_mode(n, seed)
        st = condensate_state(c, m)
        dev = np.max(np.abs(_all_amplitudes(st, n, m) - dense.condensate_amplitudes(c, m)))
        assert dev < 1e-12
        assert canonical_defect(st) < 1e-10
        assert st.discarded_weight < 1e-20


def test_two_sum_state_matches_dense():
    n = 5
    for seed, (m1, m2) in [(0, (1, 1)), (1, (2, 1)), (2, (2, 2))]:
        z = _random_mode(n, 10 + seed)
        c = _random_mode(n, 20 + seed)
        st = two_sum_state(z, c, m1, m2)
        ref = dense.two_sum_amplitudes(z, c, m1, m2)
        dev = np.max(np.abs(_all_amplitudes(st, n, m1 + m2) - ref))
        assert dev < 1e-12


def test_two_sum_orthogonal_modes_give_product_of_fock():
    # z = e_1, c = e_2: state is |m1, m2, 0>
    z = np.array([1.0, 0, 0], dtype=complex)
    c = np.array([0, 1.0, 0], dtype=complex)
    st = two_sum_state(z, c, 2, 1)
    assert abs(abs(amplitude(st, (2, 1, 0))) - 1.0) < 1e-12


def test_occupations_and_rdm_match_dense():
    n, m1, m2 = 5, 2, 2
    z = _random_mode(n, 31)
    c = _random_mode(n, 32)
    st = two_sum_state(z, c, m1, m2)
    amps = _all_amplitudes(st, n, m1 + m2)
    occ = occupations(st)
    assert np.max(np.abs(occ - dense.dense_occupations(amps, n, m1 + m2))) < 1e-12
    assert occ.sum() == pytest.approx(m1 + m2, abs=1e-10)
    assert site_occupation(st, 2) == pytest.approx(occ[1])
    for (k, l) in [(1, n), (2, 4)]:
        rho = reduced_density_two_sites(st, k, l)
        ref = dense.dense_rdm_two_sites(amps, n, m1 + m2, k, l, st.local_dim)
        ref = ref / np.trace(ref).real
        assert np.max(np.abs(rho - ref)) < 1e-12
    with pytest.raises(ValidationError):
        reduced_density_two_sites(st, 3, 3)


def test_schmidt_values_match_dense():
    n, m = 5, 3
    c = _random_mode(n, 8)
    st = condensate_state(c, m)
    amps = _all_amplitudes(st, n, m)
    for bond in range(1, n):
        lams = schmidt_values(st, bond)
        ref = dense.schmidt_values_dense(amps, n, m, bond)
        assert lams.shape[0] <= m + 1
        assert np.max(np.abs(np.sort(lams)[::-1][: ref.shape[0]] - ref)) < 1e-12
    with pytest.raises(ValidationError):
        schmidt_values(st, n)


def test_lift_first_site_matches_dense():
    n = 3
    for m1 in (1, 2):
        for m2 in (1, 2):
            z = _random_mode(n, 50 + m1)
            c = _random_mode(n, 60 + m2)
            st = two_sum_state(z, c, m1, 1, d=m1 + m2 + 2)
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


def test_lift_cutoff_and_validation():
    st = from_fock([2, 0], d=3, chi_max=4, trunc_tol=1e-12)
    with pytest.raises(CutoffError):
        lift_first_site(st, 1)
    with pytest.raises(ValidationError):
        lift_first_site(st, -1)


def test_truncation_records_discarded_weight():
    n, m = 6, 3
    c = _random_mode(n, 77)
    st = condensate_state(c, m, chi_max=2, trunc_tol=1e-12)
    assert st.discarded_weight > 0
    assert all(lam.shape[0] <= 2 for lam in st.lambdas)
    # a squeezed state still has norm close to 1 - discarded weight
    assert state_norm(st) < 1.0 + 1e-12


def test_replay_inverse_plan_builds_condensate():
    n, m = 4, 2
    c = _random_mode(n, 5)
    plan = fold_single(c)
    st = from_fock([m] + [0] * (n - 1), d=m + 1, chi_max=4 * (m + 1),
                   trunc_tol=1e-12)
    replay_plan_gates(st, invert_plan(plan))
    ref = dense.condensate_amplitudes(c, m)
    assert np.max(np.abs(_all_amplitudes(st, n, m) - ref)) < 1e-12


def test_total_boson_cutoff_check():
    c = _random_mode(3, 1)
    with pytest.raises(CutoffError):
        condensate_state(c, 3, d=3)

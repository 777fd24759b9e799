import numpy as np
import pytest
import scipy.linalg

from bosefold.errors import ValidationError
from bosefold.heisenberg import (evolve_mode, ground_mode, mode_trajectory, occupations_oracle,
                                 packet_modes, propagate, propagator_columns,
                                 spectral_decompose)
from bosefold.model import add_onsite_barrier, build_jx, coupling_from_array


def _random_coupling(n, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return coupling_from_array((h + h.conj().T) / 2)


def test_propagator_matches_expm():
    r = _random_coupling(6, 11)
    spec = spectral_decompose(r)
    for t in (0.4, 1.9, -0.7):
        a = propagate(spec, t).entries
        ref = scipy.linalg.expm(-1j * r.entries * t)
        assert np.max(np.abs(a - ref)) < 1e-12


def test_propagator_columns_are_those_of_propagate():
    # matrix by matrix, a stack gives the spectra of spectral_decompose and
    # the asked columns of propagate: the same floats on the sweep's real
    # couplings (J_x plus a central barrier), and to rounding on complex
    # ones, where a product of fewer columns may round its last bit apart
    n, cols = 20, [0, 19]
    sweep = [add_onsite_barrier(build_jx(n), n // 2, n // 2 + 1, mu) if mu else build_jx(n)
             for mu in np.arange(31) * 2.0]
    stacked = propagator_columns(np.stack([r.entries for r in sweep]), np.pi, cols)
    assert stacked.shape == (31, n, 2)
    for r, got in zip(sweep, stacked):
        assert np.array_equal(got, propagate(spectral_decompose(r), np.pi).entries[:, cols])
    rs = [_random_coupling(7, seed) for seed in (3, 4, 5)]
    for t in (np.pi, -0.3):
        stacked = propagator_columns(np.stack([r.entries for r in rs]), t, [0, 6, 2])
        for r, got in zip(rs, stacked):
            ref = propagate(spectral_decompose(r), t).entries[:, [0, 6, 2]]
            assert np.max(np.abs(got - ref)) < 1e-15


def test_propagator_identity_at_zero():
    spec = spectral_decompose(_random_coupling(5, 2))
    a = propagate(spec, 0.0).entries
    assert np.array_equal(a, np.eye(5, dtype=complex))


def test_propagator_unitary_and_composes():
    spec = spectral_decompose(_random_coupling(7, 5))
    a1 = propagate(spec, 0.6).entries
    a2 = propagate(spec, 1.1).entries
    a3 = propagate(spec, 1.7).entries
    assert np.max(np.abs(a1 @ a1.conj().T - np.eye(7))) < 1e-12
    assert np.max(np.abs(a2 @ a1 - a3)) < 1e-12


def test_ground_mode_is_lowest_eigenvector():
    r = _random_coupling(6, 9)
    spec = spectral_decompose(r)
    c = ground_mode(spec)
    res = r.entries @ c.coefficients - spec.eigenvalues[0] * c.coefficients
    assert np.linalg.norm(res) < 1e-10
    assert abs(np.linalg.norm(c.coefficients) - 1.0) < 1e-12
    assert not c.degenerate_ground


def test_ground_mode_degeneracy_flag():
    r = coupling_from_array(np.zeros((3, 3), dtype=complex))
    assert ground_mode(spectral_decompose(r)).degenerate_ground


def test_evolve_mode_preserves_norm():
    spec = spectral_decompose(_random_coupling(5, 21))
    c = ground_mode(spec).coefficients
    ct = evolve_mode(propagate(spec, 2.3), c)
    assert abs(np.linalg.norm(ct) - 1.0) < 1e-12


def test_mode_trajectory_matches_propagator_per_time():
    spec = spectral_decompose(_random_coupling(6, 31))
    c = _random_coupling(6, 32).entries[:, 0]  # a generic complex mode, not unit norm
    times = (0.0, 0.3, 1.7, 200.0)
    rows = mode_trajectory(spec, c, np.array(times))
    assert rows.shape == (4, 6)
    for row, t in zip(rows, times):
        assert np.max(np.abs(row - evolve_mode(propagate(spec, t), c))) < 1e-13, t
    assert mode_trajectory(spec, c, np.array([])).shape == (0, 6)


def test_packet_modes_rows_and_duplicates():
    spec = spectral_decompose(build_jx(5))
    a = propagate(spec, 0.8)
    packets = packet_modes([(1, 2), (5, 3)], a)
    assert np.array_equal(packets[0][0].coefficients, a.entries[:, 0])
    assert packets[1][1] == 3
    with pytest.raises(ValidationError):
        packet_modes([(1, 2), (1, 1)], a)
    with pytest.raises(ValidationError):
        packet_modes([(1, 0)], a)
    # 1-based sites: 0 would read column -1 (site N), and N + 1 lies past the chain
    for site in (0, -1, 6):
        with pytest.raises(ValidationError, match="outside"):
            packet_modes([(1, 2), (site, 1)], a)


def test_occupations_oracle_conserves_total():
    spec = spectral_decompose(build_jx(6))
    a = propagate(spec, 1.3)
    packets = packet_modes([(1, 4), (6, 2)], a)
    occ = occupations_oracle(packets)
    assert occ.sum() == pytest.approx(6.0, abs=1e-10)
    assert np.all(occ >= -1e-12)


def test_occupations_oracle_rejects_nonorthonormal():
    spec = spectral_decompose(build_jx(4))
    a = propagate(spec, 0.5)
    p = packet_modes([(1, 1)], a)
    bad = [(p[0][0], 1), (p[0][0], 1)]
    with pytest.raises(ValidationError):
        occupations_oracle(bad)
    with pytest.raises(ValidationError, match="at least one packet"):
        occupations_oracle([])

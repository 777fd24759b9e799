import numpy as np
import pytest

from bosefold.errors import ModelError, ValidationError
from bosefold.model import (CouplingMatrix, ModelSpec, add_gaussian_center_perturbation,
                            add_onsite_barrier, add_parabolic_trap, build_coupling,
                            build_inverse_distance, build_jx, coupling_from_array,
                            jz_values, load_matrix_csv)


def test_inverse_distance_entries():
    r = build_inverse_distance(5, 0.3)
    a = r.entries
    assert a[0, 0] == 0.0
    assert a[0, 1] == pytest.approx(0.3)
    assert a[0, 3] == pytest.approx(0.1)
    assert np.max(np.abs(a - a.conj().T)) == 0.0


def test_non_hermitian_rejected():
    with pytest.raises(ValidationError):
        coupling_from_array([[0.0, 1.0], [2.0, 0.0]])


def test_too_small_rejected():
    with pytest.raises(ModelError):
        build_inverse_distance(1, 0.3)
    with pytest.raises(ModelError):
        coupling_from_array([[1.0]])


def test_nonfinite_rejected():
    with pytest.raises(ModelError):
        CouplingMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]], dtype=complex)).validate()


def test_trap_center_default_midpoint():
    r = build_inverse_distance(4, 0.0)
    trapped = add_parabolic_trap(r, 1.0)
    # center (N+1)/2 = 2.5: diagonal (k - 2.5)^2
    assert np.allclose(np.diag(trapped.entries).real, [2.25, 0.25, 0.25, 2.25])


def test_barrier_adds_to_diagonal_range():
    r = build_inverse_distance(6, 0.1)
    b = add_onsite_barrier(r, 3, 4, 7.0)
    diff = np.diag(b.entries - r.entries).real
    assert np.allclose(diff, [0, 0, 7, 7, 0, 0])
    with pytest.raises(ModelError):
        add_onsite_barrier(r, 0, 2, 1.0)
    with pytest.raises(ModelError):
        add_onsite_barrier(r, 5, 7, 1.0)


def test_jz_values():
    assert np.allclose(jz_values(5), [2, 1, 0, -1, -2])
    assert np.allclose(jz_values(4), [1.5, 0.5, -0.5, -1.5])


def test_jx_matrix_small():
    # N=3: j=1, ladder elements sqrt(2)/2 * ... known tridiagonal
    a = build_jx(3).entries.real
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
    assert np.allclose(a, expected)


def test_gaussian_center_perturbation():
    r = build_jx(5)
    p = add_gaussian_center_perturbation(r, 0.5, 1.0)
    m = jz_values(5)
    assert np.allclose(np.diag(p.entries).real, 0.5 * np.exp(-m**2))
    with pytest.raises(ModelError):
        add_gaussian_center_perturbation(r, 0.5, -1.0)


def test_model_spec_build_and_without_barriers():
    spec = ModelSpec(n_sites=6, base="inverse_distance", j1=0.2,
                     trap_omega=0.01, barriers=((3, 4, 5.0),))
    r = build_coupling(spec)
    r0 = build_coupling(spec.without_barriers())
    diff = np.diag(r.entries - r0.entries).real
    assert np.allclose(diff, [0, 0, 5, 5, 0, 0])


def test_custom_base_checks_size():
    spec = ModelSpec(n_sites=3, base="custom", custom=np.eye(2, dtype=complex))
    with pytest.raises(ModelError):
        build_coupling(spec)
    with pytest.raises(ModelError):
        build_coupling(ModelSpec(n_sites=2, base="nope"))


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    r = coupling_from_array((h + h.conj().T) / 2)
    # the custom_matrix format: one row per site, alternating re, im columns
    path = tmp_path / "r.csv"
    path.write_text("".join(",".join(f"{x:.17g}" for z in row for x in (z.real, z.imag)) + "\n"
                            for row in r.entries) + "\n")
    back = load_matrix_csv(path)
    assert np.allclose(back.entries, r.entries, atol=0, rtol=1e-15)

import math

import numpy as np
import pytest
from scipy.special import gammaln

from bosefold.entanglement import (IMBALANCE_LEAK_TOL, binomial_end_entanglement_asymptotic,
                                   binomial_end_entanglement_exact,
                                   collection_fraction, logneg_partial_transpose,
                                   logneg_pure, partial_transpose)
from bosefold.errors import ValidationError


def test_logneg_pure_product_state():
    assert logneg_pure([1.0]).value == 0.0


def test_logneg_pure_maximally_entangled():
    lams = np.full(4, 0.5)
    assert logneg_pure(lams).value == pytest.approx(2.0)


def test_logneg_pure_rejects_unnormalized():
    with pytest.raises(ValidationError):
        logneg_pure([1.0, 1.0])


def test_partial_transpose_involution():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    pt = partial_transpose(rho)
    assert np.max(np.abs(partial_transpose(pt) - rho)) < 1e-14
    with pytest.raises(ValidationError):
        partial_transpose(np.eye(5))


def test_logneg_pt_zero_for_product():
    d = 3
    p = np.diag([0.5, 0.3, 0.2])
    q = np.diag([0.6, 0.4, 0.0])
    rho = np.kron(p, q).astype(complex)
    assert logneg_partial_transpose(rho).value == pytest.approx(0.0, abs=1e-12)


def test_logneg_pt_bell_pair():
    # (|01> + |10>)/sqrt(2) on qubit pair embedded in d=2
    psi = np.zeros(4)
    psi[1] = psi[2] = 1 / math.sqrt(2)
    rho = np.outer(psi, psi).astype(complex)
    assert logneg_partial_transpose(rho).value == pytest.approx(1.0)
    # matches the pure-state formula for its Schmidt vector
    assert logneg_pure([1 / math.sqrt(2)] * 2).value == pytest.approx(1.0)


def test_logneg_pt_input_validation():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValidationError):
        logneg_partial_transpose(bad)
    with pytest.raises(ValidationError):
        logneg_partial_transpose(np.eye(4, dtype=complex))  # trace 4


def test_binomial_exact_hand_value():
    # M=2: lambdas^2 = (1/4, 1/2, 1/4); E_N = 2 log2(1/2 + 1/sqrt(2) + ...)
    lams = np.sqrt(np.array([1, 2, 1]) / 4.0)
    expected = 2 * math.log2(lams.sum())
    assert binomial_end_entanglement_exact(2).value == pytest.approx(expected)
    with pytest.raises(ValidationError):
        binomial_end_entanglement_exact(0)


def test_binomial_exact_matches_gammaln():
    # math.lgamma per entry in place of scipy.special.gammaln; measured 6.8e-14 at m = 256
    for m in (2, 8, 32, 256, 1024):
        k = np.arange(m + 1, dtype=float)
        log_lam = 0.5 * (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
                         - m * math.log(2.0))
        ref = 2.0 * math.log2(np.sum(np.exp(log_lam)))
        assert abs(binomial_end_entanglement_exact(m).value / ref - 1.0) < 1e-12


def test_binomial_asymptotic_convergence():
    devs = [abs(binomial_end_entanglement_exact(m).value
                - binomial_end_entanglement_asymptotic(m).value)
            for m in (4, 16, 64, 256)]
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
    assert devs[-1] < 0.05


def test_collection_fraction():
    assert collection_fraction([2.0, 0.0, 3.0], 5) == pytest.approx(1.0)
    assert collection_fraction([1.0, 2.0, 1.0], 4) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        collection_fraction([1.0], 1)
    with pytest.raises(ValidationError):
        collection_fraction([1.0, 1.0], 0)


def test_logneg_pt_rejects_weight_outside_imbalance_blocks():
    # (|00> + |11>)/sqrt(2) mixes n_1 + n_2 = 0 and 2, so its partial
    # transpose has weight outside the imbalance blocks n_2 - n_1
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    with pytest.raises(ValidationError, match="imbalance"):
        logneg_partial_transpose(np.outer(psi, psi).astype(complex))
    # a Bell pair with an off-block leak just below and just above the tolerance
    bell = np.zeros(4)
    bell[1] = bell[2] = 1 / math.sqrt(2)
    leak = np.zeros((4, 4), dtype=complex)
    leak[0, 3] = leak[3, 0] = 1.0
    for scale, ok in ((0.5, True), (2.0, False)):
        rho = np.outer(bell, bell) + scale * IMBALANCE_LEAK_TOL * leak
        if ok:
            assert logneg_partial_transpose(rho).value == pytest.approx(1.0)
        else:
            with pytest.raises(ValidationError, match="imbalance"):
                logneg_partial_transpose(rho)

import math

import numpy as np
import pytest
from scipy.special import gammaln

from bosefold.entanglement import (binomial_end_entanglement_asymptotic,
                                   binomial_end_entanglement_exact,
                                   collection_fraction, logneg_partial_transpose,
                                   logneg_pure, lognegs_partial_transpose)
from bosefold.errors import ValidationError


def test_logneg_pure_product_state():
    assert logneg_pure([1.0]).value == 0.0


def test_logneg_pure_maximally_entangled():
    lams = np.full(4, 0.5)
    assert logneg_pure(lams).value == pytest.approx(2.0)


def test_logneg_pure_rejects_unnormalized():
    with pytest.raises(ValidationError):
        logneg_pure([1.0, 1.0])


def _blocks(rho):
    """Number blocks rho_b[n, i, i'] = <i, n-i| rho |i', n-i'> of a dense d^2 x d^2 rho."""
    d = math.isqrt(rho.shape[0])
    n, i = np.arange(d)[:, None], np.arange(d)
    ok = i <= n
    out = rho.reshape(d, d, d, d)[i[None, :, None], (n - i)[:, :, None],
                                  i[None, None, :], (n - i)[:, None, :]]
    return np.where(ok[:, :, None] & ok[:, None, :], out, 0)


def test_logneg_pt_zero_for_product():
    # p (x) q with n_1 + n_2 <= d - 1 = 3 wherever both weights are nonzero
    p = np.diag([0.5, 0.3, 0.2, 0.0])
    q = np.diag([0.6, 0.4, 0.0, 0.0])
    rho = _blocks(np.kron(p, q).astype(complex))
    assert np.trace(rho, axis1=1, axis2=2).sum() == pytest.approx(1.0)
    assert logneg_partial_transpose(rho).value == pytest.approx(0.0, abs=1e-12)


def test_logneg_pt_bell_pair():
    # (|01> + |10>)/sqrt(2): the n = 1 block of a d = 2 pair
    rho = np.zeros((2, 2, 2), dtype=complex)
    rho[1] = 0.5
    assert logneg_partial_transpose(rho).value == pytest.approx(1.0)
    # matches the pure-state formula for its Schmidt vector
    assert logneg_pure([1 / math.sqrt(2)] * 2).value == pytest.approx(1.0)


def _mixture(d, rng):
    """A dense d^2 x d^2 mixture of three number-conserving pure states."""
    rho = np.zeros((d * d, d * d), dtype=complex)
    for weight in rng.dirichlet(np.ones(3)):
        n = rng.integers(d)
        psi = np.zeros((d, d), dtype=complex)  # psi[n_1, n_2]
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        psi[np.arange(n + 1), n - np.arange(n + 1)] = amps / np.linalg.norm(amps)
        rho += weight * np.outer(psi.ravel(), psi.ravel().conj())
    return rho


def test_logneg_pt_matches_dense_partial_transpose():
    # random mixtures of number-conserving pure states: the trace norm of
    # the dense d^2 x d^2 partial transpose, by SVD, against the blocks
    rng = np.random.default_rng(7)
    for d in range(2, 10):
        rho = _mixture(d, rng)
        pt = rho.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)
        ref = math.log2(np.sum(np.linalg.svd(pt, compute_uv=False)))
        assert abs(logneg_partial_transpose(_blocks(rho)).value - ref) < 1e-12, d


def test_lognegs_check_every_rho_and_match_each_alone():
    # a stack of pair RDMs gives each one's E_N bit for bit, and one rho that
    # is not Hermitian or has no unit trace fails the stack wherever it sits,
    # with the messages of one rho
    rng = np.random.default_rng(11)
    good = [_blocks(_mixture(5, rng)) for _ in range(4)]
    values = lognegs_partial_transpose(np.stack(good))
    assert values.tolist() == [logneg_partial_transpose(rho).value for rho in good]
    assert len(set(values.tolist())) == 4
    skew = good[1].copy()
    skew[3, 0, 2] += 0.01
    for bad, match in ((skew, "density matrix is not Hermitian"),
                       (2 * good[1], "density matrix trace differs from 1")):
        for where in (0, 2, 4):
            with pytest.raises(ValidationError, match=match):
                lognegs_partial_transpose(np.stack(good[:where] + [bad] + good[where:]))
    for shape in [(5, 5, 5), (1, 5, 5, 4), (2, 0, 0, 0)]:
        with pytest.raises(ValidationError, match="number blocks"):
            lognegs_partial_transpose(np.zeros(shape, dtype=complex))
    assert lognegs_partial_transpose(np.zeros((0, 5, 5, 5), dtype=complex)).shape == (0,)


def test_logneg_pt_input_validation():
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[0, 0, 0] = bad[1, 0, 0] = bad[1, 1, 1] = 1 / 3
    bad[1, 0, 1] = 0.1  # not Hermitian
    with pytest.raises(ValidationError, match="Hermitian"):
        logneg_partial_transpose(bad)
    with pytest.raises(ValidationError, match="trace"):
        logneg_partial_transpose(np.ones((2, 2, 2), dtype=complex))  # trace 4
    for shape in [(4, 4), (2, 2, 3), (0, 0, 0), (1, 2, 2, 2)]:
        with pytest.raises(ValidationError, match="number blocks"):
            logneg_partial_transpose(np.zeros(shape, dtype=complex))


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

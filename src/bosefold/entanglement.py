"""Logarithmic negativity (base-2) and collection fractions."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class EntanglementResult:
    value: float  # bits
    method: str


def logneg_pure(lams) -> EntanglementResult:
    """E_N = 2 log2(sum lambda) for a normalized Schmidt vector."""
    lams = np.asarray(lams, dtype=float)
    total = float(np.sum(lams**2))
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"Schmidt vector not normalized (sum sq = {total})")
    return EntanglementResult(value=2.0 * math.log2(float(np.sum(lams))),
                              method="pure_schmidt")


def logneg_partial_transpose(rho: np.ndarray) -> EntanglementResult:
    """E_N = log2 of the trace norm of the partially transposed pair RDM.

    rho is given as number blocks, rho[n, i, i'] = <i, n-i| rho |i', n-i'>
    (n = 0..d-1, 0 where i > n or i' > n), the form
    `mps.reduced_density_two_sites` returns.  Its partial transpose is
    block-diagonal in the imbalance delta = n_2 - n_1 (Cornfeld, Goldstein &
    Sela, arXiv:1804.00632), with pt_delta[i, i'] = rho[i + i' + delta, i', i]:
    2d - 1 Hermitian blocks, gathered zero-padded to d x d for one eigvalsh
    call, whose |eigenvalues| sum to the trace norm; padding adds zero
    eigenvalues only.
    """
    rho = np.asarray(rho)
    if rho.ndim != 3 or not rho.shape[0] == rho.shape[1] == rho.shape[2] > 0:
        raise ValidationError(f"expected (d, d, d) number blocks, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().swapaxes(1, 2))) > 1e-8:
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(rho, axis1=1, axis2=2).sum().real - 1.0) > 1e-8:
        raise ValidationError("density matrix trace differs from 1")
    d = rho.shape[0]
    i, j = np.arange(d)[:, None], np.arange(d)
    n = i + j + np.arange(1 - d, d)[:, None, None]
    pt = np.where((n >= 0) & (n < d), rho[n % d, j, i], 0)
    eig = np.linalg.eigvalsh(pt)
    return EntanglementResult(value=math.log2(float(np.sum(np.abs(eig)))),
                              method="partial_transpose")


def binomial_end_entanglement_exact(m: int) -> EntanglementResult:
    """E_N of the binomial Schmidt spectrum lambda_k = sqrt(C(M,k)/2^M)."""
    if m < 1:
        raise ValidationError("boson number must be >= 1")
    logc = np.array([math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                     for k in range(m + 1)])
    log_lam = 0.5 * (logc - m * math.log(2.0))
    peak = log_lam.max()
    total = peak + math.log(np.sum(np.exp(log_lam - peak)))
    return EntanglementResult(value=2.0 * total / math.log(2.0),
                              method="binomial_exact")


def binomial_end_entanglement_asymptotic(m: int) -> EntanglementResult:
    """Gaussian limit E_N = 0.5 log2(2 pi) + 0.5 log2(M)."""
    if m < 1:
        raise ValidationError("boson number must be >= 1")
    return EntanglementResult(
        value=0.5 * math.log2(2.0 * math.pi) + 0.5 * math.log2(m),
        method="binomial_asymptotic",
    )


def collection_fraction(occ, m: float) -> float:
    """(n_1 + n_N) / M for a per-site occupation vector."""
    occ = np.asarray(occ, dtype=float)
    if occ.shape[0] < 2:
        raise ValidationError("need at least two sites")
    if m <= 0:
        raise ValidationError("boson number must be positive")
    return float((occ[0] + occ[-1]) / m)

"""Logarithmic negativity (base-2) and collection fractions."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

IMBALANCE_LEAK_TOL = 1e-10  # relative Frobenius weight allowed outside the imbalance blocks


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


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose on the first site of a d^2 x d^2 two-site density matrix.

    The partial transpose on the second site is its full transpose, so both
    have the same singular values.
    """
    dim = rho.shape[0]
    d = math.isqrt(dim)
    if d * d != dim:
        raise ValidationError(f"density matrix dimension {dim} is not a square")
    return np.transpose(rho.reshape(d, d, d, d), (2, 1, 0, 3)).reshape(dim, dim)


def logneg_partial_transpose(rho: np.ndarray) -> EntanglementResult:
    """E_N = log2 of the trace norm of the partially transposed matrix.

    A two-site rho that conserves n_1 + n_2 has a partial transpose that is
    block-diagonal in the imbalance n_2 - n_1 (Cornfeld, Goldstein & Sela,
    arXiv:1804.00632): 2d - 1 Hermitian blocks of size d - |n_2 - n_1|, whose
    |eigenvalues| sum to the trace norm.  The blocks are stacked zero-padded
    to d x d for one eigvalsh call; padding adds zero eigenvalues only.
    """
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValidationError("density matrix trace differs from 1")
    pt = partial_transpose(rho)
    d = math.isqrt(pt.shape[0])
    n1, n2 = np.divmod(np.arange(d * d), d)
    off = np.linalg.norm(pt[(n2 - n1)[:, None] != (n2 - n1)[None, :]]) / np.linalg.norm(pt)
    if off > IMBALANCE_LEAK_TOL:
        raise ValidationError(f"partial transpose has relative weight {off:.2e} outside the "
                              "imbalance blocks; rho does not conserve n_1 + n_2")
    # slots[s, t]: the t-th pair state |n_1, n_2> of imbalance s - (d - 1), padded with d^2
    imbalance, t = np.arange(1 - d, d)[:, None], np.arange(d)
    slots = np.where(t < d - np.abs(imbalance),
                     (t + np.maximum(-imbalance, 0)) * d + t + np.maximum(imbalance, 0), d * d)
    padded = np.zeros((d * d + 1, d * d + 1), dtype=pt.dtype)
    padded[:-1, :-1] = pt
    eig = np.linalg.eigvalsh(padded[slots[:, :, None], slots[:, None, :]])
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

"""Oracles for transfer through a center-localized barrier.

The couplings are R = J_x + eps * exp(-beta * J_z^2) in the site basis of the
|j, m> -> a_{j-m+1}^dag mapping, j = (N-1)/2.  Transfer time is t = pi (a
rotation by pi about x maps m to -m, i.e. site 1 to site N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heisenberg import propagate, spectral_decompose
from .model import add_gaussian_center_perturbation, build_jx, jz_values


@dataclass(frozen=True)
class TransferReport:
    n_sites: int
    eps: float
    beta: float
    j: float
    exact_row: np.ndarray
    first_order_numeric: np.ndarray
    closed_form: np.ndarray


def coupling_with_center_gaussian(n: int, eps: float, beta: float) -> np.ndarray:
    """Site-basis matrix J_x + eps exp(-beta J_z^2)."""
    return add_gaussian_center_perturbation(build_jx(n), eps, beta).entries


def exact_transfer(n: int, eps: float, beta: float) -> np.ndarray:
    """Row 1 of exp(-i pi R), spectral method."""
    r = add_gaussian_center_perturbation(build_jx(n), eps, beta)
    return propagate(spectral_decompose(r), math.pi).entries[0].copy()


def first_order_numeric(n: int, beta: float) -> np.ndarray:
    """First-order barrier correction per unit eps.

    The correction -i * integral_0^pi exp(-i(pi-t)Jx) D exp(-i t Jx) e_1 dt
    with D = diag(exp(-beta m^2)) is the Frechet derivative of exp(-i pi R)
    along D.  In the Jx eigenbasis (Daleckii-Krein) it is
    -i V[(V^dag D V) o F]V^dag e_1 with
    F_ab = integral_0^pi e^{-i(pi-t) w_a} e^{-i t w_b} dt
         = pi e^{-i pi (w_a + w_b)/2} sinc((w_b - w_a)/2),
    which equals pi e^{-i pi w_a} on the diagonal.
    """
    spec = spectral_decompose(build_jx(n))
    w, v = spec.eigenvalues, spec.eigenvectors
    diag = np.exp(-beta * jz_values(n) ** 2)
    f = (math.pi * np.exp(-0.5j * math.pi * (w[:, None] + w[None, :]))
         * np.sinc(0.5 * (w[None, :] - w[:, None])))
    dv = v.conj().T @ (diag[:, None] * v)
    return -1j * (v @ ((dv * f) @ v[0].conj()))


def closed_form_series(n: int, beta: float) -> np.ndarray:
    """Asymptotic series for the correction per unit eps.

    Coefficient on a_{k+1}^dag is
    -i sqrt(C(2j,k)) Gamma((2j-k)/2 + 1/2)^2 / Gamma((2j-k)/2 + 1) *
    beta^{(2j-k)/2}; the k = 2j term is -i*pi exactly.  Valid qualitatively
    for beta << j/2.
    """
    j2 = n - 1  # 2j
    out = np.zeros(n, dtype=complex)
    for k in range(j2 + 1):
        half = (j2 - k) / 2.0
        logc = 0.5 * (math.lgamma(j2 + 1) - math.lgamma(k + 1) - math.lgamma(j2 - k + 1))
        logg = 2.0 * math.lgamma(half + 0.5) - math.lgamma(half + 1.0)
        if beta == 0.0:
            mag = math.exp(logc + logg) if half == 0.0 else 0.0
        else:
            mag = math.exp(logc + logg + half * math.log(beta))
        out[k] = -1j * mag
    return out


def transfer_report(n: int, eps: float, beta: float) -> TransferReport:
    return TransferReport(
        n_sites=n,
        eps=eps,
        beta=beta,
        j=(n - 1) / 2.0,
        exact_row=exact_transfer(n, eps, beta),
        first_order_numeric=first_order_numeric(n, beta),
        closed_form=closed_form_series(n, beta),
    )

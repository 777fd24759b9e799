"""Brute-force Fock-space reference computations.

Everything here enumerates a full bosonic basis and exists as the independent
cross-check for the tensor-network path (self-test suite and oracle-style
tests).  Most functions work on the whole chain, so they are only usable for
small chains; `reduced_pair_oracle` and `bond_schmidt_oracle` first reduce a
two-packet state to four modes, so they reach scenario sizes.  Pair RDMs
come as the number blocks of `mps.reduced_density_two_sites`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .folding import _coeffs


@lru_cache(maxsize=None)
def fock_configs(n_sites: int, total: int):
    """All occupation tuples of `n_sites` sites summing to `total`."""
    if n_sites == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in fock_configs(n_sites - 1, total - first):
            out.append((first,) + rest)
    return tuple(out)


def config_index(n_sites: int, total: int):
    return {cfg: i for i, cfg in enumerate(fock_configs(n_sites, total))}


def condensate_amplitudes(c, m: int) -> np.ndarray:
    """Normalized amplitudes of (sum_k c_k a_k^dag)^M |0> over fock_configs.

    amplitude(n) = sqrt(M!/prod n_k!) * prod c_k^{n_k} for unit-norm c.
    """
    c = _coeffs(c)
    c = c / np.linalg.norm(c)
    n = c.shape[0]
    configs = fock_configs(n, m)
    amps = np.empty(len(configs), dtype=complex)
    logm = math.lgamma(m + 1)
    for i, cfg in enumerate(configs):
        logw = 0.5 * (logm - sum(math.lgamma(nk + 1) for nk in cfg))
        prod = 1.0 + 0j
        for ck, nk in zip(c, cfg):
            prod *= ck**nk
        amps[i] = math.exp(logw) * prod
    return amps


def apply_mode_creation(psi: np.ndarray, c, n_sites: int, total: int) -> np.ndarray:
    """Apply sum_k c_k a_k^dag to a state given on fock_configs(n, total)."""
    c = _coeffs(c)
    src = fock_configs(n_sites, total)
    dst_index = config_index(n_sites, total + 1)
    out = np.zeros(len(dst_index), dtype=complex)
    for amp, cfg in zip(psi, src):
        if amp == 0:
            continue
        for k in range(n_sites):
            new = list(cfg)
            new[k] += 1
            out[dst_index[tuple(new)]] += amp * c[k] * math.sqrt(new[k])
    return out


def two_sum_amplitudes(z, c, m1: int, m2: int) -> np.ndarray:
    """Normalized amplitudes of (sum c a^dag)^M2 (sum z a^dag)^M1 |0>."""
    z = _coeffs(z)
    c = _coeffs(c)
    n = z.shape[0]
    psi = np.ones(1, dtype=complex)
    total = 0
    for _ in range(m1):
        psi = apply_mode_creation(psi, z, n, total)
        total += 1
    for _ in range(m2):
        psi = apply_mode_creation(psi, c, n, total)
        total += 1
    return psi / np.linalg.norm(psi)


def lift_site_amplitudes(psi: np.ndarray, n_sites: int, total: int, site: int,
                         m2: int) -> np.ndarray:
    """Apply (a_site^dag)^m2 (1-based site) and renormalize."""
    e = np.zeros(n_sites)
    e[site - 1] = 1.0
    for _ in range(m2):
        psi = apply_mode_creation(psi, e, n_sites, total)
        total += 1
    return psi / np.linalg.norm(psi)


def hamiltonian_matrix(r: np.ndarray, n_sites: int, total: int) -> np.ndarray:
    """H = sum_{k,l} R[k,l] a_k^dag a_l on the fixed-number sector."""
    configs = fock_configs(n_sites, total)
    index = config_index(n_sites, total)
    dim = len(configs)
    h = np.zeros((dim, dim), dtype=complex)
    for col, cfg in enumerate(configs):
        for l in range(n_sites):
            if cfg[l] == 0:
                continue
            for k in range(n_sites):
                if r[k, l] == 0:
                    continue
                new = list(cfg)
                new[l] -= 1
                coeff = math.sqrt(cfg[l]) * math.sqrt(new[k] + 1)
                new[k] += 1
                h[index[tuple(new)], col] += r[k, l] * coeff
    return h


def evolve_dense(r: np.ndarray, psi: np.ndarray, n_sites: int, total: int,
                 t: float) -> np.ndarray:
    """exp(-i H t) |psi> by exact diagonalization of the sector Hamiltonian."""
    h = hamiltonian_matrix(r, n_sites, total)
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))


def dense_occupations(psi: np.ndarray, n_sites: int, total: int) -> np.ndarray:
    configs = np.array(fock_configs(n_sites, total), dtype=float)
    return (np.abs(psi) ** 2) @ configs


def dense_rdm_two_sites(psi: np.ndarray, n_sites: int, total: int, k: int,
                        l: int) -> np.ndarray:
    """Reduced density matrix of (1-based) sites k, l as number blocks.

    rho[n, i, i'] = <i, n-i| rho |i', n-i'> for n = 0..total, the form
    `mps.reduced_density_two_sites` returns, unnormalized.  Configurations
    that share the occupations of every other site share n = n_k + n_l, and
    within them n_k tells the configurations apart.
    """
    d = total + 1
    rho = np.zeros((d, d, d), dtype=complex)
    rest = {}
    for amp, cfg in zip(psi, fock_configs(n_sites, total)):
        other = tuple(v for i, v in enumerate(cfg) if i not in (k - 1, l - 1))
        rest.setdefault(other, []).append((cfg[k - 1], amp))
    for other, entries in rest.items():
        levels, amps = map(np.array, zip(*entries))
        rho[total - sum(other), levels[:, None], levels] += np.outer(amps, amps.conj())
    return rho


def _two_mode_split(z: np.ndarray, c: np.ndarray, sites) -> np.ndarray:
    """Coefficients (2 x 2, columns z and c) of both packets on two orthonormal modes.

    Both packets restricted to `sites` span at most two dimensions.  A QR of
    [z_sites, c_sites] gives orthonormal modes u1, u2 for that span, and R
    holds the packets' coefficients on them; zero rows pad a rank below 2.
    Mixing modes within `sites` is a unitary on those sites alone.
    """
    r_sites = np.linalg.qr(np.stack([z[sites], c[sites]], axis=1), mode="r")
    r = np.zeros((2, 2), dtype=complex)
    r[:r_sites.shape[0]] = r_sites
    return r


def reduced_pair_oracle(z, c, m1: int, m2: int, k: int, l: int) -> np.ndarray:
    """Normalized rho_{k,l} of (sum c a^dag)^M2 (sum z a^dag)^M1 |0>, any chain length.

    The sites other than k and l split into two modes (`_two_mode_split`), so
    the state lives on the four modes [k, l, u1, u2] with C(M+3, 3)
    amplitudes.  Returned as number blocks (see `dense_rdm_two_sites`),
    M = m1 + m2.
    """
    z = _coeffs(z)
    c = _coeffs(c)
    n = z.shape[0]
    if not (1 <= k < l <= n):
        raise ValidationError(f"need 1 <= k < l <= N, got ({k}, {l})")
    r = _two_mode_split(z, c, [i for i in range(n) if i not in (k - 1, l - 1)])
    z4 = np.concatenate([[z[k - 1], z[l - 1]], r[:, 0]])
    c4 = np.concatenate([[c[k - 1], c[l - 1]], r[:, 1]])
    rho = dense_rdm_two_sites(two_sum_amplitudes(z4, c4, m1, m2), 4, m1 + m2, 1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).sum().real
    return rho


def bond_schmidt_oracle(z, c, m1: int, m2: int, bond: int) -> np.ndarray:
    """Schmidt values of (sum c a^dag)^M2 (sum z a^dag)^M1 |0> across `bond`, any chain length.

    Sites 1..bond and bond+1..N each split into two modes (`_two_mode_split`),
    local unitaries that leave the spectrum unchanged, so the state lives on
    four modes with C(M+3, 3) amplitudes and its bond is the middle one.
    Descending, above 1e-15 (see `schmidt_values_dense`).
    """
    z = _coeffs(z)
    c = _coeffs(c)
    n = z.shape[0]
    if not (1 <= bond < n):
        raise ValidationError(f"bond {bond} outside chain of {n} sites")
    left = _two_mode_split(z, c, slice(0, bond))
    right = _two_mode_split(z, c, slice(bond, n))
    psi = two_sum_amplitudes(np.concatenate([left[:, 0], right[:, 0]]),
                             np.concatenate([left[:, 1], right[:, 1]]), m1, m2)
    return schmidt_values_dense(psi, 4, m1 + m2, 2)


def schmidt_values_dense(psi: np.ndarray, n_sites: int, total: int,
                         bond: int) -> np.ndarray:
    """Schmidt spectrum across bond `bond` (sites 1..bond | bond+1..N)."""
    left_index = {}
    right_index = {}
    entries = []
    for amp, cfg in zip(psi, fock_configs(n_sites, total)):
        lcfg, rcfg = cfg[:bond], cfg[bond:]
        li = left_index.setdefault(lcfg, len(left_index))
        ri = right_index.setdefault(rcfg, len(right_index))
        entries.append((li, ri, amp))
    mat = np.zeros((len(left_index), len(right_index)), dtype=complex)
    for li, ri, amp in entries:
        mat[li, ri] = amp
    s = np.linalg.svd(mat, compute_uv=False)
    return s[s > 1e-15]

"""Builders for Hermitian coupling matrices of quadratic bosonic chains.

The Hamiltonian is H = sum_{k,l} R[k,l] a_k^dag a_l over the full index
square, with R Hermitian.  Energies are in units of a reference energy E_R,
hbar = 1, so times are in units of 1/E_R.  Site indices are 1-based in every
public interface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ModelError, ValidationError

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class CouplingMatrix:
    """N x N Hermitian matrix of hopping intensities (units of E_R)."""

    entries: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.entries.shape[0]

    def validate(self) -> "CouplingMatrix":
        a = self.entries
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ModelError(f"coupling matrix must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ModelError(f"chain needs at least 2 sites, got {a.shape[0]}")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ModelError("coupling matrix has non-finite entries")
        dev = np.max(np.abs(a - a.conj().T))
        if dev > HERMITICITY_TOL:
            raise ValidationError(f"coupling matrix not Hermitian (max deviation {dev:.3e})")
        return self


def coupling_from_array(entries) -> CouplingMatrix:
    a = np.array(entries, dtype=complex)
    return CouplingMatrix(a).validate()


def build_inverse_distance(n_sites: int, j1: float) -> CouplingMatrix:
    """Hopping decaying as J1/|k-l|, zero diagonal."""
    if n_sites < 2:
        raise ModelError(f"chain needs at least 2 sites, got {n_sites}")
    if not math.isfinite(j1):
        raise ModelError("J1 must be finite")
    k = np.arange(n_sites)
    dist = np.abs(k[:, None] - k[None, :]).astype(float)
    with np.errstate(divide="ignore"):
        a = np.where(dist > 0, j1 / np.where(dist > 0, dist, 1.0), 0.0)
    return CouplingMatrix(a.astype(complex)).validate()


def add_parabolic_trap(r: CouplingMatrix, omega: float, center: float | None = None) -> CouplingMatrix:
    """Add Omega*(k - center)^2 to the diagonal; default center (N+1)/2."""
    if not math.isfinite(omega):
        raise ModelError("trap strength must be finite")
    n = r.n_sites
    if center is None:
        center = (n + 1) / 2.0
    k = np.arange(1, n + 1, dtype=float)
    a = r.entries.copy()
    a[np.diag_indices(n)] += omega * (k - center) ** 2
    return CouplingMatrix(a).validate()


def add_onsite_barrier(r: CouplingMatrix, first: int, last: int, height: float) -> CouplingMatrix:
    """Raise the diagonal by `height` on sites first..last (inclusive, 1-based)."""
    n = r.n_sites
    if not (1 <= first <= last <= n):
        raise ModelError(f"barrier range {first}-{last} outside chain 1-{n}")
    if not math.isfinite(height):
        raise ModelError("barrier height must be finite")
    a = r.entries.copy()
    for i in range(first - 1, last):
        a[i, i] += height
    return CouplingMatrix(a).validate()


def jz_values(n_sites: int) -> np.ndarray:
    """Angular-momentum projections m_k = j - k + 1, j = (N-1)/2, per site."""
    j = (n_sites - 1) / 2.0
    return j - np.arange(n_sites)


def build_jx(n_sites: int) -> CouplingMatrix:
    """Perfect-transfer couplings: the J_x matrix in the |j,m> site mapping."""
    if n_sites < 2:
        raise ModelError(f"chain needs at least 2 sites, got {n_sites}")
    j = (n_sites - 1) / 2.0
    m = jz_values(n_sites)
    a = np.zeros((n_sites, n_sites))
    for k in range(n_sites - 1):
        # bond (k+1, k+2) in 1-based sites; ladder element between m_k and m_k - 1
        a[k, k + 1] = 0.5 * math.sqrt(j * (j + 1) - m[k] * (m[k] - 1))
        a[k + 1, k] = a[k, k + 1]
    return CouplingMatrix(a.astype(complex)).validate()


def add_gaussian_center_perturbation(r: CouplingMatrix, eps: float, beta: float) -> CouplingMatrix:
    """Add eps*exp(-beta*m_k^2) to the diagonal (center-localized perturbation)."""
    if beta < 0:
        raise ModelError(f"beta must be nonnegative, got {beta}")
    if not math.isfinite(eps):
        raise ModelError("perturbation strength must be finite")
    m = jz_values(r.n_sites)
    a = r.entries.copy()
    a[np.diag_indices(r.n_sites)] += eps * np.exp(-beta * m**2)
    return CouplingMatrix(a).validate()


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a coupling matrix."""

    n_sites: int
    base: str = "inverse_distance"  # inverse_distance | jx | custom
    j1: float = 0.0
    custom: np.ndarray | None = None
    trap_omega: float | None = None
    trap_center: float | None = None
    barriers: tuple = field(default_factory=tuple)  # (first, last, height) triples
    perturbation_eps: float | None = None
    perturbation_beta: float | None = None

    def without_barriers(self) -> "ModelSpec":
        return replace(self, barriers=())


def build_coupling(spec: ModelSpec) -> CouplingMatrix:
    """Realize a ModelSpec as a validated CouplingMatrix."""
    if spec.base == "inverse_distance":
        r = build_inverse_distance(spec.n_sites, spec.j1)
    elif spec.base == "jx":
        r = build_jx(spec.n_sites)
    elif spec.base == "custom":
        if spec.custom is None:
            raise ModelError("custom base requires an explicit matrix")
        r = coupling_from_array(spec.custom)
        if r.n_sites != spec.n_sites:
            raise ModelError(
                f"custom matrix is {r.n_sites}x{r.n_sites} but n_sites={spec.n_sites}"
            )
    else:
        raise ModelError(f"unknown base kind {spec.base!r}")
    if spec.trap_omega is not None:
        r = add_parabolic_trap(r, spec.trap_omega, spec.trap_center)
    for first, last, height in spec.barriers:
        r = add_onsite_barrier(r, first, last, height)
    if spec.perturbation_eps is not None:
        r = add_gaussian_center_perturbation(
            r, spec.perturbation_eps, spec.perturbation_beta or 0.0
        )
    return r


def load_matrix_csv(path) -> CouplingMatrix:
    """The `custom_matrix` file: one row per site, alternating re, im columns.

    A non-numeric cell, an odd number of values in a row, or rows of
    different lengths raise ConfigError naming the file and the line; a file
    that holds no square Hermitian matrix raises ConfigError naming the file.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"custom_matrix {path}, line {lineno}"
            try:
                vals = [float(x) for x in line.split(",")]
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if len(vals) % 2:
                raise ConfigError(f"{where}: {len(vals)} values, not re, im pairs")
            if rows and len(vals) // 2 != len(rows[0]):
                raise ConfigError(f"{where}: {len(vals) // 2} entries, but the first row "
                                  f"has {len(rows[0])}")
            rows.append([complex(re, im) for re, im in zip(vals[::2], vals[1::2])])
    try:
        return coupling_from_array(rows)
    except (ModelError, ValidationError) as exc:
        raise ConfigError(f"custom_matrix {path}: {exc}") from None

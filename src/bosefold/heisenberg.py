"""Mode dynamics of quadratic chains via spectral decomposition.

The mode coefficient vector obeys dc/dt = -i R c, so the propagator is
A(t) = exp(-i R t) computed as V exp(-i Lambda t) V^dag.  A condensate mode
evolves as c(t) = A(t) c (`mode_trajectory` gives it at many times without
forming A(t)); column k of A(t) is the evolved mode of a boson
that started on site k.  (For the real symmetric couplings of the physical
models rows and columns coincide; the dense-oracle tests pin the column
convention for general Hermitian R.)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import CouplingMatrix

DEGENERACY_GAP = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition cache: R = V diag(eigenvalues) V^dag."""

    eigenvalues: np.ndarray  # ascending, real
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class PropagatorMatrix:
    """A(t) = exp(-i R t); unitary, A(0) = identity."""

    time: float
    entries: np.ndarray


@dataclass(frozen=True)
class ModeAmplitudes:
    """Creation-operator coefficients (c_1 ... c_N) of one condensate sum."""

    coefficients: np.ndarray
    degenerate_ground: bool = False

    @property
    def n_sites(self) -> int:
        return self.coefficients.shape[0]


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column of each matrix in v (..., N, N) so its
    largest-magnitude entry is real positive (a zero column is left as it is)."""
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    # np.hypot rounds as abs() of one entry does; np.abs of a complex array
    # may differ in the last bit, and that bit would move every phase
    size = np.hypot(pivot.real, pivot.imag)
    return v * np.divide(size, pivot, out=np.ones_like(pivot), where=size > 0)


def spectral_decompose(r: CouplingMatrix) -> Spectrum:
    """Diagonalize a validated coupling matrix; deterministic eigenvector phases."""
    r.validate()
    w, v = np.linalg.eigh(r.entries)
    return Spectrum(eigenvalues=w, eigenvectors=_fix_phases(v))


def propagate(spec: Spectrum, t: float) -> PropagatorMatrix:
    """A(t) = V exp(-i Lambda t) V^dag."""
    if t == 0.0:
        return PropagatorMatrix(time=0.0, entries=np.eye(spec.n_sites, dtype=complex))
    v = spec.eigenvectors
    return PropagatorMatrix(time=t, entries=_product(v, spec.eigenvalues, t, v))


def _product(v: np.ndarray, w: np.ndarray, t: float, rows: np.ndarray) -> np.ndarray:
    """V exp(-i Lambda t) rows^dag for each matrix of the (..., N, N) stack
    v with eigenvalues w: the columns of A(t) at the sites of `rows`, which
    are rows of V (all of V gives A(t))."""
    return (v * np.exp(-1j * w * t)[..., None, :]) @ rows.conj().swapaxes(-1, -2)


def propagator_columns(rs: np.ndarray, t: float, cols) -> np.ndarray:
    """Columns `cols` of A(t) = V exp(-i Lambda t) V^dag of each coupling
    matrix in the (P, N, N) stack rs, as (P, N, len(cols)).

    One stacked eigh gives every spectrum, each eigenvector's phase fixed as
    `spectral_decompose` fixes it, and only the asked columns of each product
    are formed (`_product`, as `propagate` forms A(t)), none depending on
    the other matrices of the stack.  The matrices must be validated
    couplings (`CouplingMatrix.validate`).
    """
    w, v = np.linalg.eigh(rs)
    v = _fix_phases(v)
    return _product(v, w, t, v[..., cols, :])


def ground_mode(spec: Spectrum) -> ModeAmplitudes:
    """Unit-norm eigenvector of the smallest eigenvalue."""
    w = spec.eigenvalues
    degenerate = spec.n_sites > 1 and (w[1] - w[0]) < DEGENERACY_GAP
    c = spec.eigenvectors[:, 0].copy()
    c /= np.linalg.norm(c)
    return ModeAmplitudes(coefficients=c, degenerate_ground=degenerate)


def evolve_mode(a: PropagatorMatrix, c: np.ndarray) -> np.ndarray:
    """Coefficients of the evolved condensate sum: c(t) = A(t) c."""
    c = np.asarray(c, dtype=complex)
    return a.entries @ c


def mode_trajectory(spec: Spectrum, c: np.ndarray, times) -> np.ndarray:
    """Rows c(t) = V exp(-i Lambda t) V^dag c, one per time, as one product.

    The mode goes to the eigenbasis once, so each time costs one row of
    phases and its share of a (T, N) x (N, N) product, where
    `evolve_mode(propagate(spec, t), c)` builds an N x N propagator per time.
    """
    v = spec.eigenvectors
    phases = np.exp(-1j * np.outer(times, spec.eigenvalues))
    return (phases * (v.conj().T @ c)) @ v.T


def packet_modes(initial, a: PropagatorMatrix):
    """Evolved modes for bosons initially stacked on distinct sites.

    `initial` is a list of (site, count) with 1-based sites 1..N; returns
    the matching columns of A(t) paired with the counts.
    """
    sites = [s for s, _ in initial]
    if len(set(sites)) != len(sites):
        raise ValidationError(f"duplicate initial sites in {sites}")
    n = a.entries.shape[1]
    out = []
    for site, count in initial:
        if not 1 <= site <= n:
            raise ValidationError(f"initial site {site} outside the chain's sites 1..{n}")
        if count < 1:
            raise ValidationError(f"boson count must be >= 1, got {count}")
        out.append((ModeAmplitudes(coefficients=a.entries[:, site - 1].copy()), count))
    return out


def occupations_oracle(packets) -> np.ndarray:
    """Closed-form site occupations <n_m> = sum_p count_p |c^(p)_m|^2.

    Valid only for mutually orthonormal packet modes (rows of one unitary
    propagator); checked up to round-off.  The list must not be empty.
    """
    if not packets:
        raise ValidationError("need at least one packet")
    modes = [p[0].coefficients for p in packets]
    counts = [p[1] for p in packets]
    g = np.array([[np.vdot(a, b) for b in modes] for a in modes])
    if np.max(np.abs(g - np.eye(len(modes)))) > 1e-10:
        raise ValidationError("packet modes are not orthonormal; closed form invalid")
    occ = np.zeros(modes[0].shape[0])
    for c, m in zip(modes, counts):
        occ += m * np.abs(c) ** 2
    return occ

"""Vidal-form block-decimation engine for number-conserving bosonic chains.

State layout: gammas[k] has shape (chi_left, d, chi_right) for site k+1;
lambdas[b] is the bond-b Schmidt vector (b = 0..N with trivial [1.0] ends).
Amplitudes contract as Gamma^[1] lam^[1] Gamma^[2] ... lam^[N-1] Gamma^[N].

Every bond index carries an explicit U(1) label: charges[b][alpha] is the
number of bosons to the right of bond b in Schmidt vector alpha, so
Gamma^[k+1][a, n, b] is nonzero only where charges[k][a] == n + charges[k+1][b]
(U(1)-symmetric tensor networks, Singh, Pfeifer & Vidal).  Gates must
conserve boson number: single-site gates are diagonal, and the two-site
update runs one SVD per middle-bond charge and rejects a gate that leaves
weight outside those blocks.  The first-site lifting implements (a_1^dag)^M2
as a local index shift plus a lambda rescale, reading each bond-1 Schmidt
vector's site-1 occupation from the labels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import CutoffError, ValidationError
from .folding import (FoldPlan, PairRotationOp, PhaseOp, TwoSumPlan, fold_single,
                      fold_two, invert_plan, _coeffs)

LAMBDA_FLOOR = 1e-14  # boundary-lambda entries below this are treated as zero
SECTOR_LEAK_TOL = 1e-10  # relative two-site weight allowed outside the charge blocks


@dataclass
class BlockDecimationState:
    gammas: list  # per-site (chiL, d, chiR) tensors
    lambdas: list  # per-bond vectors, length n_sites + 1, trivial ends
    charges: list  # per-bond int arrays: bosons to the right of the bond
    local_dim: int
    chi_max: int
    trunc_tol: float
    discarded_weight: float = 0.0

    @property
    def n_sites(self) -> int:
        return len(self.gammas)

    def copy(self) -> "BlockDecimationState":
        return BlockDecimationState(
            gammas=[g.copy() for g in self.gammas],
            lambdas=[l.copy() for l in self.lambdas],
            charges=[q.copy() for q in self.charges],
            local_dim=self.local_dim,
            chi_max=self.chi_max,
            trunc_tol=self.trunc_tol,
            discarded_weight=self.discarded_weight,
        )


@dataclass(frozen=True)
class SingleModeGate:
    site: int
    matrix: np.ndarray  # d x d unitary


@dataclass(frozen=True)
class TwoModeGate:
    bond: int
    matrix: np.ndarray  # d^2 x d^2 unitary, block-diagonal in n_k + n_{k+1}


def from_fock(occupations, d: int, chi_max: int, trunc_tol: float) -> BlockDecimationState:
    """Product Fock state |n_1, ..., n_N>."""
    occupations = list(occupations)
    n = len(occupations)
    gammas = []
    for occ in occupations:
        if not (0 <= occ < d):
            raise CutoffError(f"occupation {occ} outside local dimension {d}")
        g = np.zeros((1, d, 1), dtype=complex)
        g[0, occ, 0] = 1.0
        gammas.append(g)
    lambdas = [np.array([1.0]) for _ in range(n + 1)]
    charges = [np.array([sum(occupations[b:])]) for b in range(n + 1)]
    return BlockDecimationState(gammas=gammas, lambdas=lambdas, charges=charges,
                                local_dim=d, chi_max=chi_max, trunc_tol=trunc_tol)


def build_phase_gate(site: int, theta: float, d: int) -> SingleModeGate:
    """Diagonal e^{-i theta n} on one site."""
    return SingleModeGate(site=site, matrix=np.diag(np.exp(-1j * theta * np.arange(d))))


def build_pair_rotation_gate(bond: int, phi: float, d: int) -> TwoModeGate:
    """Exact e^{-i phi Q} on the truncated two-mode space, sector by sector."""
    gate = np.zeros((d * d, d * d), dtype=complex)
    for total in range(2 * d - 1):
        lo = max(0, total - (d - 1))
        hi = min(total, d - 1)
        occs = list(range(lo, hi + 1))  # n_left values in this sector
        idx = [n1 * d + (total - n1) for n1 in occs]
        dim = len(idx)
        q = np.zeros((dim, dim), dtype=complex)
        for a, n1 in enumerate(occs):
            n2 = total - n1
            # a_2^dag a_1 |n1, n2> -> sqrt(n1 (n2+1)) |n1-1, n2+1>
            if n1 - 1 >= lo and n2 + 1 <= d - 1:
                q[a - 1, a] += math.sqrt(n1 * (n2 + 1)) / 2j
            # a_1^dag a_2 |n1, n2> -> sqrt(n2 (n1+1)) |n1+1, n2-1>
            if n1 + 1 <= hi and n2 - 1 >= 0:
                q[a + 1, a] -= math.sqrt(n2 * (n1 + 1)) / 2j
        w, v = np.linalg.eigh(q)
        block = (v * np.exp(-1j * phi * w)) @ v.conj().T
        gate[np.ix_(idx, idx)] = block
    return TwoModeGate(bond=bond, matrix=gate)


def apply_single(state: BlockDecimationState, gate: SingleModeGate) -> BlockDecimationState:
    k = gate.site - 1
    if not (0 <= k < state.n_sites):
        raise ValidationError(f"site {gate.site} outside chain")
    if gate.matrix.shape != (state.local_dim, state.local_dim):
        raise ValidationError("gate dimension does not match local dimension")
    diag = np.diagonal(gate.matrix)
    if np.any(gate.matrix != np.diag(diag)):
        raise ValidationError("single-site gate must be diagonal in the occupation basis")
    state.gammas[k] = state.gammas[k] * diag[None, :, None]
    return state


def apply_two(state: BlockDecimationState, gate: TwoModeGate) -> BlockDecimationState:
    """Standard two-site Vidal update: contract, SVD per charge, truncate, restore form."""
    k = gate.bond - 1
    if not (0 <= k < state.n_sites - 1):
        raise ValidationError(f"bond {gate.bond} outside chain")
    d = state.local_dim
    if gate.matrix.shape != (d * d, d * d):
        raise ValidationError("gate dimension does not match two-site dimension")
    lam_l, lam_m, lam_r = state.lambdas[k], state.lambdas[k + 1], state.lambdas[k + 2]
    g1, g2 = state.gammas[k], state.gammas[k + 1]
    chi_l, chi_m, chi_r = lam_l.shape[0], lam_m.shape[0], lam_r.shape[0]

    left = (g1 * lam_l[:, None, None] * lam_m[None, None, :]).reshape(chi_l * d, chi_m)
    right = (g2 * lam_r[None, None, :]).reshape(chi_m, d * chi_r)
    theta = (left @ right).reshape(chi_l, d * d, chi_r)
    tm = gate.matrix @ theta.transpose(1, 0, 2).reshape(d * d, chi_l * chi_r)
    mat = (tm.reshape(d, d, chi_l, chi_r).transpose(2, 0, 1, 3)
           .reshape(chi_l * d, d * chi_r))
    norm2 = float(np.vdot(mat, mat).real)
    if norm2 == 0.0:
        raise ValidationError("two-site block vanished; state is not normalized")

    # middle-bond charge of row (a, i) is qL[a] - i, of column (j, b) is j + qR[b]
    occ = np.arange(d)
    row_q = (state.charges[k][:, None] - occ[None, :]).ravel()
    col_q = (occ[:, None] + state.charges[k + 2][None, :]).ravel()
    blocks = []
    for q in np.intersect1d(row_q, col_q):
        rows = np.flatnonzero(row_q == q)
        cols = np.flatnonzero(col_q == q)
        ub, sb, vhb = np.linalg.svd(mat[np.ix_(rows, cols)], full_matrices=False)
        blocks.append((q, rows, cols, ub, sb, vhb))
    s_all = np.concatenate([blk[4] for blk in blocks])
    total = float(np.sum(s_all**2))
    if abs(norm2 - total) > SECTOR_LEAK_TOL * norm2:
        raise ValidationError("two-site gate does not conserve boson number")

    order = np.argsort(-s_all, kind="stable")
    s_sorted = s_all[order]
    keep = (s_sorted**2 / total >= state.trunc_tol) & (s_sorted > 0)
    chi_new = min(int(np.count_nonzero(keep)), state.chi_max)
    chi_new = max(chi_new, 1)
    kept = order[:chi_new]
    state.discarded_weight += float(np.sum(s_sorted[chi_new:] ** 2) / total)
    s = s_all[kept]
    u = np.zeros((chi_l * d, chi_new), dtype=complex)
    vh = np.zeros((chi_new, d * chi_r), dtype=complex)
    q_new = np.zeros(chi_new, dtype=int)
    start = 0
    for q, rows, cols, ub, sb, vhb in blocks:
        slots = np.flatnonzero((kept >= start) & (kept < start + sb.shape[0]))
        local = kept[slots] - start
        u[np.ix_(rows, slots)] = ub[:, local]
        vh[np.ix_(slots, cols)] = vhb[local]
        q_new[slots] = q
        start += sb.shape[0]
    lam_new = s / math.sqrt(float(np.sum(s**2)))

    inv_l = np.where(lam_l > LAMBDA_FLOOR, 1.0 / np.where(lam_l > 0, lam_l, 1.0), 0.0)
    inv_r = np.where(lam_r > LAMBDA_FLOOR, 1.0 / np.where(lam_r > 0, lam_r, 1.0), 0.0)
    state.gammas[k] = (u.reshape(chi_l, d, chi_new) * inv_l[:, None, None])
    state.gammas[k + 1] = (vh.reshape(chi_new, d, chi_r) * inv_r[None, None, :])
    state.lambdas[k + 1] = lam_new
    state.charges[k + 1] = q_new
    return state


def _lift_factors(j: np.ndarray, m2: int) -> np.ndarray:
    """sqrt((j+m2)!/j!) in log space; exact matrix element of (a^dag)^m2."""
    return np.exp(0.5 * (gammaln(j + m2 + 1) - gammaln(j + 1)))


def lift_first_site(state: BlockDecimationState, m2: int) -> BlockDecimationState:
    """Apply (a_1^dag)^m2 followed by renormalization.

    The site-1 occupation of bond-1 Schmidt vector gamma is
    charges[0][0] - charges[1][gamma]; the lift shifts that local index and
    rescales lambda^[1], leaving every other bond untouched.
    """
    if m2 < 0:
        raise ValidationError("lift count must be nonnegative")
    if m2 == 0:
        return state
    d = state.local_dim
    g1 = state.gammas[0]
    lam1 = state.lambdas[1]
    occ_of = state.charges[0][0] - state.charges[1]
    if np.any(occ_of + m2 >= d):
        raise CutoffError(
            f"lift by {m2} exceeds local dimension {d} "
            f"(max occupation {int(occ_of.max())})"
        )
    cols = np.arange(lam1.shape[0])
    g_new = np.zeros_like(g1)
    g_new[0, occ_of + m2, cols] = g1[0, occ_of, cols]
    lam_new = lam1 * _lift_factors(occ_of.astype(float), m2)
    lam_new = lam_new / np.linalg.norm(lam_new)
    order = np.argsort(-lam_new, kind="stable")
    state.gammas[0] = g_new[:, :, order]
    state.lambdas[1] = lam_new[order]
    state.gammas[1] = state.gammas[1][order, :, :]
    state.charges[0] = state.charges[0] + m2
    state.charges[1] = state.charges[1][order]
    return state


# -- observables ---------------------------------------------------------


def _site_matrices(state: BlockDecimationState, k: int) -> np.ndarray:
    """A_k(i) = Gamma_k(i) diag(lambda_k), shape (d, chiL, chiR)."""
    g = state.gammas[k]
    lam = state.lambdas[k + 1]
    a = np.transpose(g, (1, 0, 2)).copy()
    if k < state.n_sites - 1:
        a *= lam[None, None, :]
    return a


def _left_envs(state: BlockDecimationState):
    """L[k] = contraction of sites 1..k (L[0] = 1)."""
    envs = [np.ones((1, 1), dtype=complex)]
    for k in range(state.n_sites):
        a = _site_matrices(state, k)
        env = np.einsum("iab,ac,icd->bd", a.conj(), envs[-1], a, optimize=True)
        envs.append(env)
    return envs


def _right_envs(state: BlockDecimationState):
    """R[k] = contraction of sites k+1..N (R[N] = 1), indexed from the right."""
    n = state.n_sites
    envs = [None] * (n + 1)
    envs[n] = np.ones((1, 1), dtype=complex)
    for k in range(n - 1, -1, -1):
        a = _site_matrices(state, k)
        envs[k] = np.einsum("iab,bd,icd->ac", a, envs[k + 1], a.conj(), optimize=True)
    return envs


def state_norm(state: BlockDecimationState) -> float:
    """Full-contraction 2-norm of the represented state."""
    return math.sqrt(abs(_left_envs(state)[-1][0, 0].real))


def amplitude(state: BlockDecimationState, config) -> complex:
    """Fock-basis coefficient of |config>."""
    config = list(config)
    if len(config) != state.n_sites:
        raise ValidationError("configuration length does not match chain")
    v = np.ones(1, dtype=complex)
    for k, occ in enumerate(config):
        if not (0 <= occ < state.local_dim):
            raise ValidationError(f"occupation {occ} outside local dimension")
        v = v @ state.gammas[k][:, occ, :]
        if k < state.n_sites - 1:
            v = v * state.lambdas[k + 1]
    return complex(v[0])


def site_occupation(state: BlockDecimationState, site: int) -> float:
    """<n_site> via environment contraction (no canonicity assumption)."""
    return occupations(state)[site - 1]


def occupations(state: BlockDecimationState) -> np.ndarray:
    """Per-site <n_k> for all sites in one sweep."""
    left = _left_envs(state)
    right = _right_envs(state)
    nvals = np.arange(state.local_dim, dtype=float)
    out = np.zeros(state.n_sites)
    for k in range(state.n_sites):
        a = _site_matrices(state, k)
        mid = np.einsum("i,iab,ac,icd->bd", nvals, a.conj(), left[k], a, optimize=True)
        out[k] = np.einsum("bd,bd->", mid, right[k + 1].T).real
    return out


def schmidt_values(state: BlockDecimationState, bond: int) -> np.ndarray:
    if not (1 <= bond <= state.n_sites - 1):
        raise ValidationError(f"bond {bond} outside chain")
    return state.lambdas[bond].copy()


def reduced_density_two_sites(state: BlockDecimationState, k: int, l: int) -> np.ndarray:
    """rho_{k,l} on the d^2-dimensional pair space, sites 1-based, k < l."""
    if not (1 <= k < l <= state.n_sites):
        raise ValidationError(f"need 1 <= k < l <= N, got ({k}, {l})")
    d = state.local_dim
    left = _left_envs(state)
    right = _right_envs(state)
    ak = _site_matrices(state, k - 1)
    # X[i, i', b, b'] after opening site k (i bra, i' ket; b bra bond, b' ket)
    x = np.einsum("iab,ac,jcd->ijbd", ak.conj(), left[k - 1], ak, optimize=True)
    for s in range(k, l - 1):
        a = _site_matrices(state, s)
        chi_in, chi_out = a.shape[1], a.shape[2]
        x3 = x.reshape(d * d, chi_in, chi_in)
        new = np.zeros((d * d, chi_out, chi_out), dtype=complex)
        for m in range(d):
            am = a[m]
            if not am.any():
                continue
            new += np.matmul(am.conj().T[None], np.matmul(x3, am[None]))
        x = new.reshape(d, d, chi_out, chi_out)
    al = _site_matrices(state, l - 1)
    chi_b, chi_e = al.shape[1], al.shape[2]
    # close site l and the right environment with matrix products
    c = np.matmul(al, right[l][None])  # (l, d', e') with e' = bra bond
    # term[(j,b),(l,d')] = sum_e conj(al)[j,b,e] c[l,d',e]
    term = (al.conj().reshape(d * chi_b, chi_e)
            @ c.transpose(2, 0, 1).reshape(chi_e, d * chi_b))
    term = term.reshape(d, chi_b, d, chi_b).transpose(0, 2, 1, 3)
    rho = (x.reshape(d * d, chi_b * chi_b)
           @ term.reshape(d * d, chi_b * chi_b).T)
    rho = (rho.reshape(d, d, d, d).transpose(0, 2, 1, 3)
           .reshape(d * d, d * d))
    rho = rho.conj()  # built as <bra| factors first; flip to ket-major
    tr = np.trace(rho).real
    return rho / tr


def canonical_defect(state: BlockDecimationState) -> float:
    """Largest deviation from the Vidal left/right orthonormality conditions.

    Left condition at bond k uses lambda^[k-1] Gamma_k; right condition uses
    Gamma_k lambda^[k].
    """
    worst = 0.0
    left = np.ones((1, 1), dtype=complex)
    for k in range(state.n_sites):
        g = state.gammas[k]
        a = np.transpose(g, (1, 0, 2)) * state.lambdas[k][None, :, None]
        left = np.einsum("iab,ac,icd->bd", a.conj(), left, a, optimize=True)
        worst = max(worst, float(np.max(np.abs(left - np.eye(left.shape[0])))))
    right = np.ones((1, 1), dtype=complex)
    for k in range(state.n_sites - 1, -1, -1):
        b = _site_matrices(state, k)
        right = np.einsum("iab,bd,icd->ac", b, right, b.conj(), optimize=True)
        worst = max(worst, float(np.max(np.abs(right - np.eye(right.shape[0])))))
    return worst


# -- condensate construction --------------------------------------------


def replay_plan_gates(state: BlockDecimationState, plan: FoldPlan) -> BlockDecimationState:
    """Apply a plan's ops as Fock-space gates, in plan order."""
    d = state.local_dim
    for op in plan.ops:
        if isinstance(op, PhaseOp):
            apply_single(state, build_phase_gate(op.site, op.angle, d))
        elif isinstance(op, PairRotationOp):
            apply_two(state, build_pair_rotation_gate(op.bond, op.angle, d))
        else:
            raise ValidationError(f"unknown op {op!r}")
    return state


def _numerics(m_total, d, chi_max, trunc_tol):
    if d is None:
        d = m_total + 1
    if chi_max is None:
        chi_max = 4 * (m_total + 1)
    if m_total >= d:
        raise CutoffError(f"total boson number {m_total} needs local dimension > {m_total}")
    return d, chi_max, trunc_tol


def condensate_state(c, m: int, d: int | None = None, chi_max: int | None = None,
                     trunc_tol: float = 1e-12) -> BlockDecimationState:
    """MPS of the single-condensate state (sum_k c_k a_k^dag)^M |0> (normalized)."""
    c = _coeffs(c)
    norm = np.linalg.norm(c)
    if norm == 0.0:
        raise ValidationError("condensate mode must be nonzero")
    c = c / norm
    d, chi_max, trunc_tol = _numerics(m, d, chi_max, trunc_tol)
    plan = fold_single(c)
    occ = [m] + [0] * (c.shape[0] - 1)
    state = from_fock(occ, d, chi_max, trunc_tol)
    return replay_plan_gates(state, invert_plan(plan))


def two_sum_state(z, c, m1: int, m2: int, d: int | None = None,
                  chi_max: int | None = None, trunc_tol: float = 1e-12,
                  plan: TwoSumPlan | None = None) -> BlockDecimationState:
    """MPS of (sum c a^dag)^M2 (sum z a^dag)^M1 |0> (normalized).

    Replays the folding in reverse: seed |M1,0,...>, bridge rotation on bond
    1, lift by M2, inverse bridge, inverse partial plan, inverse inner plan.
    The inverse bridge undoes the conjugation picked up when the seed form
    is pushed through the bond-1 rotation; the final scalar phase accounts
    for the site-1 phase strip acting on the already-folded inner sum.
    """
    z = _coeffs(z)
    c = _coeffs(c)
    z = z / np.linalg.norm(z)
    c = c / np.linalg.norm(c)
    d, chi_max, trunc_tol = _numerics(m1 + m2, d, chi_max, trunc_tol)
    if plan is None:
        plan = fold_two(z, c, m1, m2)
    n = z.shape[0]
    state = from_fock([m1] + [0] * (n - 1), d, chi_max, trunc_tol)
    apply_two(state, build_pair_rotation_gate(1, plan.bridging_angle, d))
    lift_first_site(state, m2)
    apply_two(state, build_pair_rotation_gate(1, -plan.bridging_angle, d))
    replay_plan_gates(state, invert_plan(plan.plan2_partial))
    replay_plan_gates(state, invert_plan(plan.plan1))
    state.gammas[0] = state.gammas[0] * np.exp(-1j * plan.site1_phase * plan.m1)
    return state

"""Block-decimation engine for number-conserving bosonic chains.

State layout: gammas[k] has shape (chi_left, d, chi_right) and holds the
right-normalized site tensor B^[k+1] = Gamma^[k+1] lam^[k+1] of site k+1;
lambdas[b] is the bond-b Schmidt vector (b = 0..N with trivial [1.0] ends).
Amplitudes contract as B^[1] B^[2] ... B^[N], and lam^[b] B^[b+1] ... B^[N]
are the Schmidt vectors of bond b, so no step divides by a Schmidt value
(inverse-free update, Hastings, arXiv:0903.3253).

Every bond index carries an explicit U(1) label: charges[b][alpha] is the
number of bosons to the right of bond b in Schmidt vector alpha, so
B^[k+1][a, n, b] is nonzero only where charges[k][a] == n + charges[k+1][b]
(U(1)-symmetric tensor networks, Singh, Pfeifer & Vidal).  Each bond is
stored charge by charge (ascending charge, descending lambda within one), so
the vectors of a charge range are one window found with searchsorted.  Gates
conserve boson number by construction: a phase gate is its diagonal, and a
pair-rotation gate is one real orthogonal block per sector
n_k + n_{k+1} = n < d, all built in cache-sized batched products from a
cached real eigenbasis.  The two-site update never forms the dense two-site
matrix, and each of its stages is one batched call over the charge windows,
stacked as slot tables padded with a zero row and column: one product
contracts the windows into sector vectors, the pairs of each sector are
rotated by its block, one SVD call takes every lam-weighted window block
(after a QR where the blocks are tall), a mask keeps the largest singular
values, and one assignment per tensor writes the kept right singular vectors
and the blocks projected onto them.  The first-site lifting implements
(a_1^dag)^M2 as a local index shift plus a rescale of B^[1] and lambda^[1],
reading site-1 occupations from the labels.  The two-site reduced density
matrix carries its open-index environment as charge blocks, and since that
environment is Hermitian in its two open levels, only the half with bra
level >= ket level; the close mirrors it and contracts only the level pairs
whose imbalances match.

Every slot table, window, sector sort and block list of those two calls
depends only on the bond charges and d (and, for a transfer step, on the
blocks it receives), so each is built once per charge pattern into a plan of
read-only arrays, held in bounded per-process caches keyed on the charges'
bytes: scans over states of the same N, M and chi revisit the same patterns.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import CutoffError, ValidationError
from .folding import (FoldPlan, PairRotationOp, PhaseOp, TwoSumPlan, fold_single,
                      fold_two, invert_plan, _coeffs)

SECTOR_LEAK_TOL = 1e-10  # relative two-site weight allowed outside the charge blocks
# Padded SVD stacks of blocks with at least this many columns and at least
# twice as many rows start with a QR, since the SVD of R does not form the
# tall U.  On complex stacks of 9-33 blocks, QR first was faster at every
# shape from 6 columns and 2 rows per column on, and slower at 1.75 rows.
QR_FIRST_MIN_COLS = 6
GATE_CHUNK_BYTES = 1 << 17  # slot-table bytes per batched gate product


@dataclass
class BlockDecimationState:
    gammas: list  # per-site right-normalized (chiL, d, chiR) tensors Gamma lambda
    lambdas: list  # per-bond vectors, length n_sites + 1, trivial ends
    charges: list  # per-bond int arrays: bosons to the right of the bond, ascending
    local_dim: int
    chi_max: int
    trunc_tol: float
    discarded_weight: float = 0.0

    @property
    def n_sites(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class SingleModeGate:
    site: int
    phases: np.ndarray  # length-d diagonal in the occupation basis


@dataclass(frozen=True)
class TwoModeGate:
    bond: int
    blocks: tuple  # blocks[n]: (n+1) x (n+1) unitary on n_k + n_{k+1} = n, n_k ascending


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
    return SingleModeGate(site=site, phases=np.exp(-1j * theta * np.arange(d)))


@functools.lru_cache(maxsize=None)
def _sector_eigh(d: int):
    """Real eigenbasis (X, X', mu, X^T) of Q on the pair sectors n = 0..d-1,
    and where each sector sits in it.

    Q = (a_2^dag a_1 - a_1^dag a_2) / 2i is imaginary, so its eigenvectors of
    +m and -m are v and conj(v); with v = (x + i y) / sqrt(2), e^{-i phi Q}
    rotates the real plane (x, y) by the angle phi m.  Sector n (basis
    |n_k, n - n_k>, n_k ascending) has the columns x, y and the real m = 0
    vector in X, their m in mu, and y, -x, 0 in X', so its gate is
    (X cos(phi mu) + X' sin(phi mu)) X^T.  Sectors n and d-1-n share one
    zero-padded (d+1) x (d+1) slot j = min(n, d-1-n), at offset 0 and j+1,
    so the products of all sectors take about half the work of padding each
    to d x d; where[n] = (j, rows) locates sector n in a slot product.  Q does
    not depend on the angle, so each local dimension is diagonalized once per
    process; the arrays are read-only.
    """
    slots = (d + 1) // 2
    x = np.zeros((slots, d + 1, d + 1))
    xs = np.zeros((slots, d + 1, d + 1))
    mu = np.zeros((slots, d + 1))
    where = []
    for n in range(d):
        n1 = np.arange(n)  # a_2^dag a_1 |n1+1, n-n1-1> -> sqrt((n1+1)(n-n1)) |n1, n-n1>
        q = np.zeros((n + 1, n + 1), dtype=complex)
        q[n1, n1 + 1] = np.sqrt((n1 + 1.0) * (n - n1)) / 2j
        w, v = np.linalg.eigh(q + q.conj().T)
        h = (n + 1) // 2  # pairs +-m; w ascends, so m > 0 are the last h
        re, im = math.sqrt(2.0) * v[:, n + 1 - h:].real, math.sqrt(2.0) * v[:, n + 1 - h:].imag
        j, o = (n, 0) if n < slots else (d - 1 - n, d - n)
        where.append((j, slice(o, o + n + 1)))
        x[j, o:o + n + 1, o:o + 2 * h] = np.hstack([re, im])
        xs[j, o:o + n + 1, o:o + 2 * h] = np.hstack([im, -re])
        mu[j, o:o + 2 * h] = np.tile(np.arange(n + 1 - h, n + 1) - n / 2, 2)  # exact m
        if n % 2 == 0:  # m = 0: a real vector up to a phase
            z = v[:, h] * np.exp(-1j * np.angle(v[np.argmax(np.abs(v[:, h])), h]))
            x[j, o:o + n + 1, o + n] = z.real
    xt = np.ascontiguousarray(x.swapaxes(1, 2))
    for arr in (x, xs, mu, xt):
        arr.setflags(write=False)
    return x, xs, mu, xt, tuple(where)


def build_pair_rotation_gate(bond: int, phi: float, d: int) -> TwoModeGate:
    """Exact e^{-i phi Q} on the sectors n_k + n_{k+1} = 0..d-1, batched over slots.

    The slots go through the product in chunks of GATE_CHUNK_BYTES per
    operand, so that the operands, temporaries and output of a chunk stay in
    cache.  Up to d = 31 that is one chunk; from d = 49 on, where one product
    over all slots is bound by memory traffic, chunks take 0.5-0.75 of its time.
    """
    x, xs, mu, xt, where = _sector_eigh(d)
    c, s = np.cos(phi * mu)[:, None, :], np.sin(phi * mu)[:, None, :]
    full = np.empty_like(x)
    step = max(GATE_CHUNK_BYTES // x[0].nbytes, 1)
    for j in range(0, x.shape[0], step):
        part = slice(j, j + step)
        rot = x[part] * c[part]
        rot += xs[part] * s[part]
        np.matmul(rot, xt[part], out=full[part])
    return TwoModeGate(bond=bond, blocks=tuple(full[j, rows, rows] for j, rows in where))


def apply_single(state: BlockDecimationState, gate: SingleModeGate) -> BlockDecimationState:
    k = gate.site - 1
    if not (0 <= k < state.n_sites):
        raise ValidationError(f"site {gate.site} outside chain")
    if np.shape(gate.phases) != (state.local_dim,):
        raise ValidationError("gate dimension does not match local dimension")
    state.gammas[k] = state.gammas[k] * gate.phases[None, :, None]
    return state


def _windows(ql: np.ndarray, qr: np.ndarray, p, d: int):
    """Left and right index ranges [a0, a1), [b0, b1) of middle-bond charge p.

    On bonds sorted by charge, the left vectors with n_k = ql[a] - p and the
    right vectors with n_{k+1} = p - qr[b] in 0..d-1 are contiguous.
    """
    return (np.searchsorted(ql, p), np.searchsorted(ql, p + d - 1, side="right"),
            np.searchsorted(qr, p - d + 1), np.searchsorted(qr, p, side="right"))


def _slots(start: np.ndarray, count: np.ndarray, pad: int) -> np.ndarray:
    """Slot table of contiguous index ranges: row s lists start[s] + 0..count[s]-1.

    Rows shorter than the longest range are padded with `pad`, the index of an
    appended zero row or column.
    """
    t = np.arange(count.max(initial=0))
    return np.where(t < count[:, None], start[:, None] + t, pad)


# -- charge-structure plans ------------------------------------------------
#
# A plan stores each gather from a tensor as two broadcastable factors of its
# flat index (row part + column part), so it stays O(blocks x (rows + columns))
# rather than the size of the gathered stack; a factor of PAD reads zero.
# Index tables that carry no PAD are stored in the smallest unsigned type.

# Plans per cache.  A benchmark pass builds at most 64 plans in one cache
# (sweep_small's transfer steps), and the largest plan measured, a transfer
# step at M = 32, takes 0.53 MB, so a full cache of those holds about 68 MB.
PLAN_CACHE_SIZE = 128
PAD = 1 << 60  # flat-index factor of a padding slot; any sum with it is past the end


def _key(q: np.ndarray) -> bytes:
    """Cache key of one bond's charges."""
    return np.asarray(q, dtype=np.int64).tobytes()


def _charges(key: bytes) -> np.ndarray:
    """The read-only charges of a cache key."""
    return np.frombuffer(key, dtype=np.int64)


def _compact(a: np.ndarray) -> np.ndarray:
    """Nonnegative index table a in the smallest unsigned type that holds it."""
    return a.astype(np.min_scalar_type(a.max(initial=0)))


def _frozen(fields):
    """Make every array among fields, nested tuples included, read-only."""
    for f in fields:
        if isinstance(f, np.ndarray):
            f.setflags(write=False)
        elif isinstance(f, tuple):
            _frozen(f)
    return fields


def _gather(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a.ravel()[rows + cols], where an index past the end reads zero."""
    flat = np.empty(a.size + 1, dtype=a.dtype)
    flat[:-1].reshape(a.shape)[...] = a
    flat[-1] = 0
    return flat.take(rows + cols, mode="clip")


class TwoSitePlan(NamedTuple):
    """What `apply_two` needs of the charges (ql, qm, qr) and d, q the window charges."""
    qs: np.ndarray  # new middle charge of each window
    left_rows: np.ndarray  # (q, row, 1) and (q, 1, mid) factors of the B^[k] gather
    left_cols: np.ndarray
    right_rows: np.ndarray  # (q, mid, 1) and (q, 1, col) factors of the B^[k+1] gather
    right_cols: np.ndarray
    win_rows: np.ndarray  # (q, row, 1) and (q, 1, col) factors of window flat indices into v
    win_cols: np.ndarray
    rows: np.ndarray  # (q, row) left bond index, chi_l for padding
    sectors: tuple  # (n, rows of v.reshape(-1, d) with pair sector n), nonempty sectors
    qr_first: bool  # the padded SVD stack starts with a QR
    valid: np.ndarray  # (q, min(row, col)) singular values that belong to the block
    left_out: np.ndarray  # (q, row) flat (row, level) of the new left tensor
    right_out: np.ndarray  # (q, col) flat (level, col) of the new right tensor


def _two_site_plan(ql: np.ndarray, qm: np.ndarray, qr: np.ndarray, d: int) -> TwoSitePlan:
    return _two_site_plan_cached(_key(ql), _key(qm), _key(qr), d)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _two_site_plan_cached(ql, qm, qr, d: int) -> TwoSitePlan:
    ql, qm, qr = _charges(ql), _charges(qm), _charges(qr)
    chi_l, chi_m, chi_r = ql.shape[0], qm.shape[0], qr.shape[0]
    # window q: left vectors with n_k = ql[a] - q, right ones with
    # n_{k+1} = q - qr[b]; padded slots point at the last row and column of v
    # and read a level every q allows (ql[-1] - q and q - qr[0])
    qs = np.arange(qr[0], ql[-1] + 1)
    a0, a1, b0, b1 = _windows(ql, qr, qs, d)
    rows, cols = _slots(a0, a1 - a0, chi_l), _slots(b0, b1 - b0, chi_r)
    lvl_l = np.append(ql, ql[-1])[rows] - qs[:, None]
    lvl_r = qs[:, None] - np.append(qr, qr[0])[cols]
    left_out = rows * d + lvl_l  # flat (row, level) of B^[k] in window q
    m0, m1 = np.searchsorted(qm, qs), np.searchsorted(qm, qs, side="right")
    mids = _slots(m0, m1 - m0, chi_m)  # middle vectors of charge q
    left_rows = np.where(rows == chi_l, PAD, left_out * chi_m)
    left_cols = np.where(mids == chi_m, PAD, mids)
    right_rows = np.where(mids == chi_m, PAD, mids * d * chi_r)
    right_cols = np.where(cols == chi_r, PAD, lvl_r * chi_r + cols)

    # rotation: pairs grouped by sector n with one sort
    pair_n = (ql[:, None] - qr[None, :]).ravel()
    order = np.argsort(pair_n, kind="stable")
    pair = order + order // chi_r  # row a * (chi_r + 1) + b of v, pair by pair
    n_lo = max(ql[0] - qr[-1], 0)
    bounds = np.searchsorted(pair_n[order], np.arange(n_lo, ql[-1] - qr[0] + 2))
    sectors = tuple((n, _compact(pair[s0:s1]))
                    for n, s0, s1 in zip(range(n_lo, ql[-1] - qr[0] + 1),
                                         bounds[:-1], bounds[1:]) if s1 > s0)
    n_rows, n_cols = rows.shape[1], cols.shape[1]
    return _frozen(TwoSitePlan(
        qs=qs, left_rows=left_rows[:, :, None], left_cols=left_cols[:, None, :],
        right_rows=right_rows[:, :, None], right_cols=right_cols[:, None, :],
        win_rows=(rows * (chi_r + 1) * d + lvl_l)[:, :, None],
        win_cols=(cols * d)[:, None, :], rows=rows, sectors=sectors,
        qr_first=n_cols >= QR_FIRST_MIN_COLS and n_rows >= 2 * n_cols,
        valid=np.arange(min(n_rows, n_cols)) < np.minimum(a1 - a0, b1 - b0)[:, None],
        left_out=left_out, right_out=lvl_r * (chi_r + 1) + cols))


def apply_two(state: BlockDecimationState, gate: TwoModeGate) -> BlockDecimationState:
    """Inverse-free two-site update on charge blocks: contract, rotate, SVD,
    truncate, write back, each stage one padded batched call.

    v[a, b, i] is the B^[k] B^[k+1] amplitude with n_k = i and
    n_{k+1} = n - i, where n = ql[a] - qr[b] is the pair sector: middle charge
    p fills i = ql[a] - p, blocks[n] rotates v[a, b, :n+1], and new middle
    charge q is the block v[a, b, ql[a] - q] of its windows.  Charge windows
    are stacked as slot tables padded with an extra zero row and column of v,
    so every middle-charge product runs in one matmul and every new-charge
    block, lambda^[k-1]-weighted, in one SVD call; the singular values of a
    block are the first min(rows, cols) of its padded SVD.  The new right
    tensor is the kept V^dag rows and the new left tensor the unweighted block
    times V.  Every table these stages index with comes from the cached
    `_two_site_plan` of the three bond charges.
    """
    k = gate.bond - 1
    if not (0 <= k < state.n_sites - 1):
        raise ValidationError(f"bond {gate.bond} outside chain")
    d = state.local_dim
    if len(gate.blocks) != d:
        raise ValidationError(
            f"gate has {len(gate.blocks)} sector blocks; local dimension {d} needs {d}")
    for n, blk in enumerate(gate.blocks):
        if np.shape(blk) != (n + 1, n + 1):
            raise ValidationError(f"gate block {n} has shape {np.shape(blk)}, "
                                  f"sector dimension is {n + 1}")
    ql, qm, qr = state.charges[k], state.charges[k + 1], state.charges[k + 2]
    if ql[-1] - qr[0] >= d:
        raise CutoffError(f"two-site sector of {int(ql[-1] - qr[0])} bosons "
                          f"exceeds local dimension {d}")
    plan = _two_site_plan(ql, qm, qr, d)
    chi_l, chi_r = ql.shape[0], qr.shape[0]

    # contraction: the middle-charge-q vectors fill window q, one stacked product
    left = _gather(state.gammas[k], plan.left_rows, plan.left_cols)
    right = _gather(state.gammas[k + 1], plan.right_rows, plan.right_cols)
    window = plan.win_rows + plan.win_cols  # flat indices into v
    v = np.zeros((chi_l + 1, chi_r + 1, d), dtype=complex)
    v.reshape(-1)[window] = left @ right

    # rotation: the pairs of each sector n by its block
    flat = v.reshape(-1, d)
    for n, sel in plan.sectors:
        flat[sel, :n + 1] = flat[sel, :n + 1] @ gate.blocks[n].T
    lam = np.append(state.lambdas[k], 0.0)
    weighted = lam[:, None, None] * v
    norm2 = float(np.vdot(weighted, weighted).real)
    if norm2 == 0.0:
        raise ValidationError("two-site block vanished; state is not normalized")

    # SVD: the window blocks of every new middle charge q in one padded stack
    mats = v.reshape(-1)[window]
    stack = lam[plan.rows][:, :, None] * mats
    if plan.qr_first:
        # same singular values and V^dag; the SVD then skips forming the tall U
        stack = np.linalg.qr(stack, mode="r")
    _, s_pad, vh = np.linalg.svd(stack, full_matrices=False)
    s_all = s_pad[plan.valid]  # concatenation order: q ascending, descending within q
    total = float(np.sum(s_all**2))
    if abs(norm2 - total) > SECTOR_LEAK_TOL * norm2:
        raise ValidationError("two-site update left weight outside the charge blocks")

    # truncation: keep the largest values, as a mask over (block, index)
    order = np.argsort(-s_all, kind="stable")
    s_sorted = s_all[order]
    keep = (s_sorted**2 / total >= state.trunc_tol) & (s_sorted > 0)
    chi_new = max(min(int(np.count_nonzero(keep)), state.chi_max), 1)
    state.discarded_weight += float(np.sum(s_sorted[chi_new:] ** 2) / total)
    kept = np.zeros(s_all.shape[0], dtype=bool)
    kept[order[:chi_new]] = True
    mask = np.zeros(s_pad.shape, dtype=bool)
    mask[plan.valid] = kept
    blk, t = np.nonzero(mask)  # row-major: new bond sorted by charge
    s = s_pad[blk, t]
    s_norm = math.sqrt(float(np.sum(s**2)))

    # write-back: kept columns of mats V, kept rows of V^dag
    col = np.arange(chi_new)[:, None]
    gam_l = np.zeros((chi_l + 1, d, chi_new), dtype=complex)
    gam_l.reshape(-1, chi_new)[plan.left_out[blk], col] = \
        (mats @ vh.conj().swapaxes(1, 2))[blk, :, t] / s_norm
    gam_r = np.zeros((chi_new, d, chi_r + 1), dtype=complex)
    gam_r.reshape(chi_new, -1)[col, plan.right_out[blk]] = vh[blk, t]
    state.gammas[k], state.gammas[k + 1] = gam_l[:-1], gam_r[:, :, :-1]
    state.lambdas[k + 1] = s / s_norm
    state.charges[k + 1] = plan.qs[blk]
    return state


def _lift_factors(j: np.ndarray, m2: int) -> np.ndarray:
    """sqrt((j+m2)!/j!) in log space; exact matrix element of (a^dag)^m2."""
    return np.exp(0.5 * (gammaln(j + m2 + 1) - gammaln(j + 1)))


def lift_first_site(state: BlockDecimationState, m2: int) -> BlockDecimationState:
    """Apply (a_1^dag)^m2 followed by renormalization.

    The site-1 occupation of bond-1 Schmidt vector gamma is
    charges[0][0] - charges[1][gamma]; the lift shifts that local index and
    scales column gamma of B^[1] and lambda^[1][gamma] by the same normalized
    lift factor, leaving every other site and bond untouched.  The factor is
    the same within a charge group, so bond 1 keeps its layout.
    """
    if m2 < 0:
        raise ValidationError("lift count must be nonnegative")
    if m2 == 0:
        return state
    d = state.local_dim
    occ_of = state.charges[0][0] - state.charges[1]
    if np.any(occ_of + m2 >= d):
        raise CutoffError(f"lift by {m2} exceeds local dimension {d} "
                          f"(max occupation {int(occ_of.max())})")
    cols = np.arange(occ_of.shape[0])
    factors = _lift_factors(occ_of.astype(float), m2)
    factors /= np.linalg.norm(state.lambdas[1] * factors)
    g_new = np.zeros_like(state.gammas[0])
    g_new[0, occ_of + m2, cols] = state.gammas[0][0, occ_of, cols] * factors
    state.gammas[0] = g_new
    state.lambdas[1] = state.lambdas[1] * factors
    state.charges[0] = state.charges[0] + m2
    return state


# -- observables ---------------------------------------------------------


def _site_matrices(state: BlockDecimationState, k: int) -> np.ndarray:
    """B_k(i) as a (d, chiL, chiR) view of gammas[k]."""
    return np.transpose(state.gammas[k], (1, 0, 2))


def _left_terms(a: np.ndarray, env: np.ndarray) -> np.ndarray:
    """A(i)^dag env A(i) for every level i, shape (d, chiR, chiR)."""
    return a.conj().swapaxes(1, 2) @ env @ a


def _right_terms(a: np.ndarray, env: np.ndarray) -> np.ndarray:
    """A(i) env A(i)^dag for every level i, shape (d, chiL, chiL)."""
    return a @ env @ a.conj().swapaxes(1, 2)


def _left_envs(state: BlockDecimationState):
    """Yield L[0], L[1], ..., L[N]: L[k] contracts sites 1..k (L[0] = 1)."""
    env = np.ones((1, 1), dtype=complex)
    yield env
    for k in range(state.n_sites):
        env = _left_terms(_site_matrices(state, k), env).sum(0)
        yield env


def _right_envs(state: BlockDecimationState):
    """Yield R[N], R[N-1], ..., R[0]: R[k] contracts sites k+1..N (R[N] = 1)."""
    env = np.ones((1, 1), dtype=complex)
    yield env
    for k in range(state.n_sites - 1, -1, -1):
        env = _right_terms(_site_matrices(state, k), env).sum(0)
        yield env


def state_norm(state: BlockDecimationState) -> float:
    """Full-contraction 2-norm of the represented state."""
    *_, env = _left_envs(state)
    return math.sqrt(abs(env[0, 0].real))


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
    return complex(v[0])


def occupations(state: BlockDecimationState) -> np.ndarray:
    """Per-site <n_k> for all sites: one right sweep, then one left sweep."""
    right = list(_right_envs(state))[::-1]
    nvals = np.arange(state.local_dim, dtype=float)
    out = np.zeros(state.n_sites)
    env = np.ones((1, 1), dtype=complex)
    for k in range(state.n_sites):
        terms = _left_terms(_site_matrices(state, k), env)
        # <n_k> = tr(sum_i i A(i)^dag L[k] A(i) R[k+1])
        out[k] = np.sum(np.tensordot(nvals, terms, 1) * right[k + 1].T).real
        env = terms.sum(0)
    return out


def schmidt_values(state: BlockDecimationState, bond: int) -> np.ndarray:
    """Bond-`bond` Schmidt values, descending."""
    if not (1 <= bond <= state.n_sites - 1):
        raise ValidationError(f"bond {bond} outside chain")
    return np.sort(state.lambdas[bond])[::-1]


def _sectors(q: np.ndarray):
    """Charge sectors of one bond: distinct charges u and a slot table.

    slots[s, t] is the bond index of the t-th Schmidt vector of charge u[s],
    padded with len(q) (see `_slots`).
    """
    u, start, count = np.unique(q, return_index=True, return_counts=True)
    return u, _slots(start, count, q.shape[0])


def _sector_of(u: np.ndarray, charge: np.ndarray):
    """Sector index of each charge on a bond with sorted charges u, and whether it exists."""
    pos = np.minimum(np.searchsorted(u, charge), u.shape[0] - 1)
    return pos, u[pos] == charge


def _blocks_of(structure: bytes, u: np.ndarray, d: int):
    """(bi, bj, bra sector, ket sector) of each environment block on a bond with sectors u.

    A structure lists each block as (bi d + bj) len(u) + bra; the ket sector
    is implied, since the ket charge is the bra charge plus bi - bj.
    """
    pair, bra = np.divmod(_charges(structure), u.shape[0])
    bi, bj = np.divmod(pair, d)
    return bi, bj, bra, _sector_of(u, u[bra] + bi - bj)[0]


class RdmOpenPlan(NamedTuple):
    """Opening site k of rho_{k,l}, from the charges of bonds k-1 and k."""
    hi: np.ndarray  # bra and ket levels i >= i' of each opened pair
    lo: np.ndarray
    rows: np.ndarray  # (block, bra slot, 1) and (block, 1, ket slot) factors of the
    cols: np.ndarray  # gather from the opened pairs X[(i, i'), b, b']
    structure: bytes  # the opened blocks (see `_blocks_of`)


class RdmStepPlan(NamedTuple):
    """One transfer step through site s+1, from the incoming blocks and bonds s, s+1."""
    a_rows: np.ndarray  # (m, out sector, in slot, 1) and (out sector, 1, out slot)
    a_cols: np.ndarray  # factors of the a_blk gather from B^[s+1]
    bra: np.ndarray  # a_blk index of each (in block, m) term, bra and ket side
    ket: np.ndarray
    t_in: np.ndarray  # in block of each term, terms grouped by out block
    first: np.ndarray  # first term of each out block
    structure: bytes  # the out blocks


class RdmClosePlan(NamedTuple):
    """Where the carried blocks and their mirrors go in X[(i, i', b), b'] at bond l-1."""
    rows: np.ndarray  # (block, bra slot, 1) rows and (block, 1, ket slot) columns
    cols: np.ndarray
    off: np.ndarray  # blocks with i > i'
    mirror_rows: np.ndarray  # rows and columns of their conjugate transposes
    mirror_cols: np.ndarray


def _rdm_open_plan(q_before: np.ndarray, q: np.ndarray, d: int) -> RdmOpenPlan:
    return _rdm_open_plan_cached(_key(q_before), _key(q), d)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rdm_open_plan_cached(q_before, q, d: int) -> RdmOpenPlan:
    q_before, q = _charges(q_before), _charges(q)
    occ = np.arange(d)
    hi, lo = np.tril_indices(d)
    # blocks (bi, bj, bra sector), bi >= bj, whose ket sector exists and whose
    # bra charge plus bi is a bond-(k-1) charge; X vanishes outside them
    u, slots = _sectors(q)
    ket, has_ket = _sector_of(u, u + occ[:, None, None] - occ[None, :, None])
    reach = np.isin(u + occ[:, None], q_before)
    half = (occ[:, None] >= occ)[:, :, None]
    bi, bj, bra = np.nonzero(has_ket & reach[:, None, :] & half)
    ket = ket[bi, bj, bra]
    chi = q.shape[0]
    pair = bi * (bi + 1) // 2 + bj  # row-major index of (bi, bj) among i >= i'
    rows = np.where(slots[bra] == chi, PAD, (pair[:, None] * chi + slots[bra]) * chi)
    cols = np.where(slots[ket] == chi, PAD, slots[ket])
    structure = ((bi * d + bj) * u.shape[0] + bra).tobytes()
    return _frozen(RdmOpenPlan(hi=hi, lo=lo, rows=rows[:, :, None], cols=cols[:, None, :],
                               structure=structure))


def _rdm_step_plan(structure: bytes, q_in: np.ndarray, q_out: np.ndarray,
                   d: int) -> RdmStepPlan:
    return _rdm_step_plan_cached(structure, _key(q_in), _key(q_out), d)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rdm_step_plan_cached(structure, q_in, q_out, d: int) -> RdmStepPlan:
    q_in, q_out = _charges(q_in), _charges(q_out)
    occ = np.arange(d)
    u, slots = _sectors(q_in)
    bi, bj, bra, ket = _blocks_of(structure, u, d)
    # a_blk[m, r] maps the in-sector of charge u_out[r] + m to out-sector r
    u_out, slots_out = _sectors(q_out)
    n_out, chi_in, chi_out = u_out.shape[0], q_in.shape[0], q_out.shape[0]
    src, has_src = _sector_of(u, u_out + occ[:, None])
    rows = np.where(has_src[:, :, None], slots[src], chi_in)
    a_rows = np.where(rows == chi_in, PAD, (rows * d + occ[:, None, None]) * chi_out)
    a_cols = np.where(slots_out == chi_out, PAD, slots_out)
    # (in block, m) pairs whose bra and ket out-sectors exist, grouped by out block
    out_bra, ok_bra = _sector_of(u_out, u[bra][:, None] - occ)
    out_ket, ok_ket = _sector_of(u_out, u[ket][:, None] - occ)
    t_in, t_m = np.nonzero(ok_bra & ok_ket)
    out_bra, out_ket = out_bra[t_in, t_m], out_ket[t_in, t_m]
    key = (bi[t_in] * d + bj[t_in]) * n_out + out_bra
    order = np.argsort(key, kind="stable")
    t_in, t_m = t_in[order], t_m[order]
    out_bra, out_ket, key = out_bra[order], out_ket[order], key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return _frozen(RdmStepPlan(
        a_rows=a_rows[:, :, :, None], a_cols=a_cols[:, None, :],
        bra=_compact(t_m * n_out + out_bra), ket=_compact(t_m * n_out + out_ket),
        t_in=_compact(t_in), first=_compact(first),
        structure=key[first].tobytes()))


def _rdm_close_plan(structure: bytes, q: np.ndarray, d: int) -> RdmClosePlan:
    return _rdm_close_plan_cached(structure, _key(q), d)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rdm_close_plan_cached(structure, q, d: int) -> RdmClosePlan:
    q = _charges(q)
    u, slots = _sectors(q)
    bi, bj, bra, ket = _blocks_of(structure, u, d)
    width = q.shape[0] + 1  # bond l-1 plus the padding slot
    off = np.flatnonzero(bi > bj)
    rows = ((bi * d + bj) * width)[:, None] + slots[bra]
    mirror_rows = ((bj * d + bi) * width)[off, None] + slots[ket[off]]
    return _frozen(RdmClosePlan(
        rows=_compact(rows)[:, :, None], cols=_compact(slots[ket])[:, None, :],
        off=_compact(off), mirror_rows=_compact(mirror_rows)[:, :, None],
        mirror_cols=_compact(slots[bra[off]])[:, None, :]))


def reduced_density_two_sites(state: BlockDecimationState, k: int, l: int) -> np.ndarray:
    """rho_{k,l} on the d^2-dimensional pair space, sites 1-based, k < l.

    The open-index environment X[i, i', b, b'] between sites k and l is
    carried as S x S charge blocks (i, i', bra sector), S the largest sector
    size: the ket charge of b' is the bra charge of b plus i - i', and
    A_s[m] only maps in-charge r + m to out-charge r.  X is Hermitian,
    X[i', i] = X[i, i']^dag, and each step keeps that, so only the blocks
    with i >= i' are opened and carried.  Each transfer step is one batched
    B^dag X B product over the (out block, m) pairs whose charges exist,
    summed over m.  The close writes each carried block and, where i > i',
    its conjugate transpose into the mirrored (i', i) slot, then contracts
    site l per imbalance delta = i - i': rho[(i, j), (i', j')] vanishes
    unless j' - j = delta, so each delta is one product with d - |delta|
    rows and columns.  Only L[k-1] and R[l] are contracted; no canonical
    form is assumed.  The block tables of the opening, of each step and of
    the close come from cached plans of the bond charges and the incoming
    block structure.
    """
    if not (1 <= k < l <= state.n_sites):
        raise ValidationError(f"need 1 <= k < l <= N, got ({k}, {l})")
    d = state.local_dim
    occ = np.arange(d)
    left = next(islice(_left_envs(state), k - 1, None))
    right = next(islice(_right_envs(state), state.n_sites - l, None))
    ak = _site_matrices(state, k - 1)
    # X[(i, i'), b, b'] = A(i)^dag L A(i') after opening site k, for the level
    # pairs i >= i' in row-major order (i bra, i' ket; b bra bond, b' ket)
    plan = _rdm_open_plan(state.charges[k - 1], state.charges[k], d)
    x = ak.conj().swapaxes(1, 2)[plan.hi] @ (left @ ak)[plan.lo]
    blocks = _gather(x, plan.rows, plan.cols)
    structure = plan.structure
    for s in range(k, l - 1):
        step = _rdm_step_plan(structure, state.charges[s], state.charges[s + 1], d)
        a_blk = _gather(state.gammas[s], step.a_rows, step.a_cols)
        a_blk = a_blk.reshape(-1, *a_blk.shape[2:])  # (m, out sector) flattened
        a_blk_h = a_blk.conj().swapaxes(1, 2)
        prod = np.matmul(a_blk_h[step.bra], np.matmul(blocks[step.t_in], a_blk[step.ket]))
        blocks = np.add.reduceat(prod, step.first, axis=0)
        structure = step.structure
    close = _rdm_close_plan(structure, state.charges[l - 1], d)
    al = _site_matrices(state, l - 1)
    chi_b = al.shape[1]
    x = np.zeros((d, d, chi_b + 1, chi_b + 1), dtype=complex)
    rows_x = x.reshape(-1, chi_b + 1)  # row (i, i', b) of X, column b'
    rows_x[close.rows, close.cols] = blocks
    rows_x[close.mirror_rows, close.mirror_cols] = blocks[close.off].conj().swapaxes(1, 2)
    x = x[:, :, :chi_b, :chi_b]
    # close site l and the right environment per imbalance delta = i - i':
    # rho[i, j, i', j'] = sum_{b, b'} X[i, i', b, b'] T[j, j', b, b'] with
    # j' = j + delta and T[j, j'] = conj(A_l(j)) (A_l(j') R)^T
    c = np.matmul(al, right[None])
    alc = al.conj()
    rho = np.zeros((d, d, d, d), dtype=complex)
    for delta in range(1 - d, d):
        n = d - abs(delta)
        i = occ[:n] + max(delta, 0)
        j = occ[:n] + max(-delta, 0)
        term = alc[j] @ c[j + delta].swapaxes(1, 2)
        rho[i[:, None], j, (i - delta)[:, None], j + delta] = (
            x[i, i - delta].reshape(n, -1) @ term.reshape(n, -1).T)
    # built as <bra| factors first; flip to ket-major
    rho = rho.reshape(d * d, d * d).conj()
    tr = np.trace(rho).real
    return rho / tr


def canonical_defect(state: BlockDecimationState) -> float:
    """Largest deviation from the conditions the B storage implies.

    Left: contracting sites 1..k gives L[k] = diag(lambda^[k]^2).  Right:
    contracting sites k+1..N gives R[k] = 1, checked as
    lambda^[k] (R[k] - 1) lambda^[k]: truncation leaves Schmidt vectors whose
    weight lies below the discarded weight only approximately
    right-orthonormal, and the weights count each defect by the weight its
    vectors carry in the state.
    """
    worst = 0.0
    for lam, env in zip(state.lambdas, _left_envs(state)):
        worst = max(worst, float(np.max(np.abs(env - np.diag(lam**2)))))
    for lam, env in zip(state.lambdas[::-1], _right_envs(state)):
        dev = lam[:, None] * (env - np.eye(lam.shape[0])) * lam[None, :]
        worst = max(worst, float(np.max(np.abs(dev))))
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

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
level >= ket level.  The charges make each site between the pair one
chi_L x chi_R matrix W[b, c] = B[b, q(b) - q(c), c], so a transfer step is
two plain products per charge: the blocks sharing a charge on one side
times that charge's rows of W, then, for each charge r of the new bond, the
rows of every level m gathered into one matrix whose inner dimension runs
over the vectors of charge r + m, times W[:, r].  The two sides of a block
keep their charge offset, so the level m of one side fixes the other's, and
the sum over m is just that inner dimension.  The close mirrors the half
and contracts only the level pairs whose imbalances match.

Every slot table, window, sector sort and block list of those two calls
depends only on the bond charges and d (and, for a transfer step, on the
blocks it receives), so each is built once per charge pattern into a plan of
read-only arrays, held in bounded per-process caches keyed on the charges'
bytes: scans over states of the same N, M and chi revisit the same patterns.
A transfer step's plan, keyed on its incoming block structure, q_s,
q_{s+1} and d, holds W's flat-index table, a (block, slot) and a
(block, vector) gather factor per charge of the new bond, and the out
structure; at M = 16 the largest is 0.15 MB.
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

# Plans per cache.  A benchmark pass builds at most 82 plans in one cache
# (sweep_small's transfer steps).  The largest plan measured, a transfer step
# at M = 32, takes 2.0 MB, so a full cache of those would hold about 260 MB;
# rho_{1,N} of three N = 20, M = 32 collisions (mu = 6, 20, 40) builds 7.1 MB
# of RDM plans in all.
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


def _sector_of(u: np.ndarray, charge: np.ndarray):
    """Sector index of each charge on a bond with sorted charges u, and whether it exists."""
    pos = np.minimum(np.searchsorted(u, charge), u.shape[0] - 1)
    return pos, u[pos] == charge


# The open-index environment X[i, i', b, b'] of `reduced_density_two_sites`
# is carried as blocks (g, o, t): the Schmidt vectors of charge t - g on the
# block's group side, at level g, against those of charge t - o on its
# other side, at level o (a charge plus its level is the same t on both
# sides).  A structure lists the blocks as int16 rows g, o, t, sorted by
# `_block_code`, so the blocks of one group charge p are consecutive and
# form one group matrix: its rows are (block, other-side vector), each block
# padded with zero rows to the group's widest, and its columns are the
# vectors of charge p.


def _block_code(g, o, t, d: int):
    """Sort key of environment blocks: group charge, then both levels."""
    return ((t - g) * d + g) * d + o


def _structure(g, o, t) -> bytes:
    return np.stack([g, o, t]).astype(np.int16).tobytes()


def _blocks(structure: bytes):
    """Rows g, o, t of a structure."""
    return np.frombuffer(structure, dtype=np.int16).reshape(3, -1).astype(np.int64)


class _Layout(NamedTuple):
    """The group matrices of a structure on a bond."""
    start: np.ndarray  # first vector and vector count of each charge sector
    count: np.ndarray
    group: np.ndarray  # sector of each group's columns
    first: np.ndarray  # block range first[p]:first[p+1] of group p
    width: np.ndarray  # padded rows of each block of group p
    other: np.ndarray  # sector of each block's other side


def _layout(g, o, t, q: np.ndarray) -> _Layout:
    u, start, count = np.unique(q, return_index=True, return_counts=True)
    group, other = _sector_of(u, t - g)[0], _sector_of(u, t - o)[0]
    first = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    return _Layout(start=start, count=count, group=group[first],
                   first=np.append(first, group.shape[0]),
                   width=np.maximum.reduceat(count[other], first), other=other)


def _group_rows(lay: _Layout, p: int, pad: int) -> np.ndarray:
    """(block, slot) other-side vectors of the rows of group p (see `_slots`)."""
    other = lay.other[lay.first[p]:lay.first[p + 1]]
    return _slots(lay.start[other], lay.count[other], pad)


def _group_columns(lay: _Layout, p: int) -> np.ndarray:
    """Group-side vectors of the columns of group p."""
    return lay.start[lay.group[p]] + np.arange(lay.count[lay.group[p]])


def _factors(rows: np.ndarray, cols: np.ndarray):
    """(block, slot, 1) and (1, 1, column) index factors of a group matrix,
    in the smallest unsigned type that holds their sums."""
    dtype = np.min_scalar_type(int(rows.max(initial=0)) + int(cols.max(initial=0)))
    return rows.astype(dtype)[:, :, None], cols.astype(dtype)[None, None]


class RdmOpenPlan(NamedTuple):
    """Opening site k of rho_{k,l}, from the charges of bonds k-1 and k."""
    hi: np.ndarray  # bra and ket levels i >= i' of each opened pair
    lo: np.ndarray
    groups: tuple  # index factors of each group matrix's gather from the
    # opened pairs X[(i, i'), b, b']; padding reads past the end
    structure: bytes  # the opened blocks, grouped by their ket side


class RdmTransferPlan(NamedTuple):
    """One transfer step through site s+1, from the incoming structure and bonds s, s+1."""
    w: np.ndarray  # (chi_in, chi_out) flat indices of W[b, c] into B^[s+1]
    ins: tuple  # per in group: its W rows r0:r1, first Y row y0, and W columns :c1
    y_rows: int  # rows of Y, before its appended zero row
    outs: tuple  # per out group: the W rows x0:x1 and columns c0:c1 of its
    # product, and the (block, slot, 1) column offsets and (block, 1, x) rows
    # of its gather from Y
    structure: bytes  # the out blocks, grouped by the side contracted second


class RdmClosePlan(NamedTuple):
    """Where the carried blocks go in X[i, i', b, b'] at bond l-1, padded to chi+1."""
    groups: tuple  # per group matrix, index factors of its entries and of
    # their mirrors X[i', i] = X[i, i']^dag


def _rdm_open_plan(q_before: np.ndarray, q: np.ndarray, d: int) -> RdmOpenPlan:
    return _rdm_open_plan_cached(_key(q_before), _key(q), d)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rdm_open_plan_cached(q_before, q, d: int) -> RdmOpenPlan:
    q_before, q = _charges(q_before), _charges(q)
    occ = np.arange(d)
    hi, lo = np.tril_indices(d)
    # blocks (i, i', t), i >= i', with t a bond-(k-1) charge and bra charge
    # t - i and ket charge t - i' on bond k; X vanishes outside them
    u = np.unique(q)
    t = u + occ[:, None]
    has_ket = np.isin(t[:, None, :] - occ[None, :, None], u)
    reach = np.isin(t, q_before)[:, None, :] & (occ[:, None] >= occ)[:, :, None]
    bra, ket, sec = np.nonzero(has_ket & reach)
    t = t[bra, sec]
    # grouped by the ket side, which the first step contracts first
    order = np.argsort(_block_code(ket, bra, t, d), kind="stable")
    bra, ket, t = bra[order], ket[order], t[order]
    lay = _layout(ket, bra, t, q)
    chi = q.shape[0]
    pair = bra * (bra + 1) // 2 + ket  # row-major index of (i, i') among i >= i'
    groups = []
    for p in range(lay.group.shape[0]):
        slots = _group_rows(lay, p, chi)
        pairs = pair[lay.first[p]:lay.first[p + 1], None]
        rows = np.where(slots < chi, (pairs * chi + slots) * chi, hi.shape[0] * chi * chi)
        groups.append(_factors(rows, _group_columns(lay, p)))
    return _frozen(RdmOpenPlan(hi=hi, lo=lo, groups=tuple(groups),
                               structure=_structure(ket, bra, t)))


def _rdm_transfer_plan(structure: bytes, q_in: np.ndarray, q_out: np.ndarray,
                       d: int) -> RdmTransferPlan:
    return _rdm_transfer_plan_cached(structure, _key(q_in), _key(q_out), d)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rdm_transfer_plan_cached(structure, q_in, q_out, d: int) -> RdmTransferPlan:
    q_in, q_out = _charges(q_in), _charges(q_out)
    g, o, t = _blocks(structure)
    chi_in, chi_out = q_in.shape[0], q_out.shape[0]
    # W[b, c] = B[b, q_in[b] - q_out[c], c]; where that level is outside
    # 0..d-1, the clipped level reads an entry that the charges make zero
    levels = np.clip(q_in[:, None] - q_out, 0, d - 1)
    w = _compact((np.arange(chi_in)[:, None] * d + levels) * chi_out + np.arange(chi_out))
    # first products: in group p times the W rows of charge p fills the Y
    # rows of its rows, up to the last W column of charge <= p (W vanishes
    # beyond it)
    lay = _layout(g, o, t, q_in)
    n_blocks = np.diff(lay.first)
    y0 = np.concatenate(([0], np.cumsum(n_blocks * lay.width)))
    grp = np.repeat(np.arange(n_blocks.shape[0]), n_blocks)
    y_start = y0[grp] + (np.arange(g.shape[0]) - lay.first[grp]) * lay.width[grp]
    r0 = lay.start[lay.group]
    c1 = np.searchsorted(q_out, q_in[r0], side="right")
    ins = tuple(zip(r0.tolist(), (r0 + lay.count[lay.group]).tolist(), y0.tolist(),
                    c1.tolist()))
    y_rows = int(y0[-1])
    # out blocks: level m takes t to t - m, and the other side, contracted
    # second, becomes the group side
    u_out, start_out, count_out = np.unique(q_out, return_index=True, return_counts=True)
    t_out = t[:, None] - np.arange(d)
    ok = _sector_of(u_out, t_out - o[:, None])[1] & _sector_of(u_out, t_out - g[:, None])[1]
    blk, m = np.nonzero(ok)
    code = np.unique(_block_code(o[blk], g[blk], t_out[blk, m], d))
    g2, o2 = code // d % d, code % d
    t2 = code // (d * d) + g2
    out = _layout(g2, o2, t2, q_out)
    # second products: out block (g2, o2, t2) of group r = t2 - g2 sums over
    # the in vectors x of charge r + m, m < d: the Y rows of in block
    # (o2, g2, t2 + m), or the zero row appended to Y where that is missing
    r = q_out[out.start[out.group]]
    x0 = np.searchsorted(q_in, r)
    x1 = np.searchsorted(q_in, r + d - 1, side="right")
    codes = _block_code(g, o, t, d)
    slot = np.arange(chi_in) - np.repeat(lay.start, lay.count)
    stride = y_rows + 1  # Y is stored transposed: Y[row, c] at c * stride + row
    outs = []
    for p in range(r.shape[0]):
        blk = slice(out.first[p], out.first[p + 1])
        xp = np.arange(x0[p], x1[p])
        want = _block_code(o2[blk, None], g2[blk, None], t2[blk, None] + q_in[xp] - r[p], d)
        j = np.minimum(np.searchsorted(codes, want), codes.shape[0] - 1)
        found = codes[j] == want
        live = np.flatnonzero(found.any(axis=0))  # in vectors that some block reads
        a, b = live[0], live[-1] + 1
        rows = _compact(np.where(found, y_start[j] + slot[xp], y_rows)[:, None, a:b])
        cols = _group_rows(out, p, chi_out) * stride
        cols = cols.astype(np.min_scalar_type(int(cols.max()) + stride))[:, :, None]
        outs.append((int(x0[p] + a), int(x0[p] + b), int(out.start[out.group[p]]),
                     int(out.start[out.group[p]] + out.count[out.group[p]]), cols, rows))
    return _frozen(RdmTransferPlan(w=w, ins=ins, y_rows=y_rows, outs=tuple(outs),
                                   structure=_structure(g2, o2, t2)))


def _rdm_close_plan(structure: bytes, q: np.ndarray, d: int, ket_grouped: bool) -> RdmClosePlan:
    return _rdm_close_plan_cached(structure, _key(q), d, ket_grouped)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rdm_close_plan_cached(structure, q, d: int, ket_grouped: bool) -> RdmClosePlan:
    q = _charges(q)
    g, o, t = _blocks(structure)
    lay = _layout(g, o, t, q)
    chi = q.shape[0]
    width = chi + 1  # bond l-1 plus the padding slot, which the close drops
    bra, ket = (o, g) if ket_grouped else (g, o)
    # X[i, i', b, b'] is entry ((i d + i') width + b) width + b'; a diagonal
    # block (i = i') is Hermitian, so its mirror rewrites it to round-off
    other_step, group_step = (width, 1) if ket_grouped else (1, width)
    groups = []
    for p in range(lay.group.shape[0]):
        blk = slice(lay.first[p], lay.first[p + 1])
        other = _group_rows(lay, p, chi)
        cols = _group_columns(lay, p)
        groups.append(
            _factors((bra * d + ket)[blk, None] * width**2 + other * other_step,
                     cols * group_step)
            + _factors((ket * d + bra)[blk, None] * width**2 + other * group_step,
                       cols * other_step))
    return _frozen(RdmClosePlan(groups=tuple(groups)))


def _transfer(state: BlockDecimationState, env: list, structure: bytes, k: int, l: int):
    """Carry the group matrices of `reduced_density_two_sites` from bond k to bond l-1."""
    d = state.local_dim
    buffer = np.empty(0, dtype=complex)  # Y of every step, grown as needed
    for s in range(k, l - 1):
        step = _rdm_transfer_plan(structure, state.charges[s], state.charges[s + 1], d)
        w = np.ravel(state.gammas[s]).take(step.w)
        wc = w.conj()
        # the ket side contracts with W and the bra side with conj(W); the
        # opening groups by the ket side, and the sides alternate
        v, u = (w, wc) if (s - k) % 2 == 0 else (wc, w)
        # Y stored transposed; its last row and column read zero
        size = (w.shape[1] + 1) * (step.y_rows + 1)
        if buffer.shape[0] < size:
            buffer = np.empty(size, dtype=complex)
        y = buffer[:size].reshape(w.shape[1] + 1, step.y_rows + 1)
        y[-1] = 0
        y[:, -1] = 0
        for mat, (r0, r1, y0, c1) in zip(env, step.ins):
            np.matmul(v[r0:r1, :c1].T, mat.T, out=y[:c1, y0:y0 + mat.shape[0]])
        env = [y.take(cols + rows).reshape(-1, x1 - x0) @ u[x0:x1, c0:c1]
               for x0, x1, c0, c1, cols, rows in step.outs]
        structure = step.structure
    return env, structure


def reduced_density_two_sites(state: BlockDecimationState, k: int, l: int) -> np.ndarray:
    """rho_{k,l} on the d^2-dimensional pair space, sites 1-based, k < l.

    The open-index environment X[i, i', b, b'] between sites k and l is
    carried as charge blocks (see `_block_code`): the ket charge of b' is
    the bra charge of b plus i - i'.  X is Hermitian, X[i', i] = X[i, i']^dag,
    and each step keeps that, so only the blocks with i >= i' are opened and
    carried.  The charges fix every level of a site: B^[s][b, m, c] is
    W[b, c] at m = q(b) - q(c), W one chi_in x chi_out matrix.  A transfer
    step X -> sum_m A(m)^dag X A(m) then contracts one side of every block
    with W and the other with conj(W); both sides of an out block keep the
    charge offset of its in blocks, which makes their levels m equal, so the
    sum over m is no more than the inner dimension of the second product.
    The first products take each group matrix (the blocks with one charge p
    on the side contracted first) times the W rows of charge p, into Y.
    The second take, for each charge r of the other side on the new bond,
    the Y rows of every m as one matrix whose inner dimension runs over the
    in vectors of charge r + m, times W[:, r] (conjugated on the bra side).
    A step is thus two plain products per charge, and the side contracted
    second becomes the group side of the next step.  The close writes each
    carried block and its conjugate transpose into the mirrored (i', i)
    slot, then contracts site l per imbalance delta = i - i':
    rho[(i, j), (i', j')] vanishes unless j' - j = delta, so
    each delta is one product with d - |delta| rows and columns.  Only
    L[k-1] and R[l] are contracted; no canonical form is assumed.  The index
    tables of the opening, of each step and of the close come from cached
    plans of the bond charges and the incoming block structure.
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
    flat = np.append(x.reshape(-1), 0)
    env = [flat.take(rows + cols, mode="clip").reshape(-1, cols.shape[2])
           for rows, cols in plan.groups]
    env, structure = _transfer(state, env, plan.structure, k, l)
    close = _rdm_close_plan(structure, state.charges[l - 1], d, (l - 1 - k) % 2 == 0)
    al = _site_matrices(state, l - 1)
    chi_b = al.shape[1]
    x = np.zeros((d, d, chi_b + 1, chi_b + 1), dtype=complex)
    flat = x.reshape(-1)
    for mat, (rows, cols, mirror_rows, mirror_cols) in zip(env, close.groups):
        mat = mat.reshape(rows.shape[0], -1, cols.shape[2])
        flat[rows + cols] = mat
        flat[mirror_rows + mirror_cols] = mat.conj()
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

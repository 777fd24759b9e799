"""Block-decimation engine for number-conserving bosonic chains.

State layout: the right-normalized site tensor B^[k+1] = Gamma^[k+1] lam^[k+1]
of site k+1 is stored as ws[k], one chi_left x chi_right matrix W (below);
lambdas[b] is the bond-b Schmidt vector (b = 0..N with trivial [1.0] ends).
Amplitudes contract as B^[1] B^[2] ... B^[N], and lam^[b] B^[b+1] ... B^[N]
are the Schmidt vectors of bond b, so no step divides by a Schmidt value
(inverse-free update, Hastings, arXiv:0903.3253).

Every bond index carries an explicit U(1) label: charges[b][alpha] is the
number of bosons to the right of bond b in Schmidt vector alpha, so
B^[k+1][a, n, b] is nonzero only where charges[k][a] == n + charges[k+1][b]
(U(1)-symmetric tensor networks, Singh, Pfeifer & Vidal).  The level axis n
is therefore implied, and a site is stored as
W[a, b] = B[a, charges[k][a] - charges[k+1][b], b], exactly 0 wherever that
level lies outside 0..d-1: about 1/d of the dense (chi_L, d, chi_R) tensor,
which `BlockDecimationState.gammas` rebuilds, site by site, as a read-only
view for callers that want that layout.  Each bond is stored charge by
charge (ascending charge, descending lambda within one), so the vectors of a
charge range are one window found with searchsorted.  Gates conserve boson
number by construction: a phase gate is its diagonal, applied to W through
the level each entry implies, and a pair-rotation gate is one real
orthogonal block per sector n_k + n_{k+1} = n < d, sectors n and d-1-n
sharing one (d+1) x (d+1) slot, all built in cache-sized batched products
from a cached real eigenbasis and kept as that read-only slot array.  The
two-site update never forms the dense two-site matrix, and each of its
stages is one batched call over the charge windows, stacked as slot tables
padded with an extra row and column: one product contracts the windows of
the two W into sector vectors, one real product rotates every slot's stack
of pairs (a pair of sector n and one of sector d-1-n per column), one SVD
call takes every lam-weighted window block (after a QR where the blocks are
tall), a mask keeps the largest singular values, and one assignment per
matrix writes the kept right singular vectors and the blocks projected onto
them.  The first-site lifting implements (a_1^dag)^M2 as a rescale of the
columns of W^[1] and of lambda^[1] plus M2 added to the charge of bond 0,
which shifts every implied site-1 level; no build runs it, since a two-sum
build writes its first two sites in closed form (`two_sum_state`).

The fold replays rotate mostly into vacuum: every rotation of a condensate
build, and the outer sweep of a two-sum build, acts on a bond
whose right site, and every site beyond it, holds no boson.  There
e^{-i phi Q}|r, 0> = sum_n sqrt(C(r, n)) cos^n(phi/2) (-sin(phi/2))^(r-n)
|n, r-n>, so each left vector a, with all its ql[a] bosons on the left site,
spreads over the new charges p = r - n with that amplitude: the new left
matrix is the old W[a, 0] times it in column p, the new right matrix is 1
in row p, and the Schmidt value of charge p is the lam-weighted norm of its
column.  Past its first bond such a run has at most one Schmidt vector per
charge, so each bond of a state is a row over the charge axis 0..M with a
kept mask, and `_vacuum_rotations` runs the keep pass of many states at
once: per bond, one batched product s^2 = w rot^2 gives every state's
squared Schmidt values from the lam^2 row w of the bond before, `_truncate`
applies the keep rule of `apply_two` row by row, and the kept, renormalized
lam^2 is the next row.  A state's matrices, phases folded in, are written
only when it is yielded, each the kept part of its site's charge-axis
matrix, so a caller that measures the states one by one holds at most two
(`condensate_states`).
The outer sweep of a two-sum build runs the same code with one row, from
its closed-form bond 1.  No gate, plan or SVD runs there.

The environments L and R are block-diagonal in the bond charge, so
L[k+1] = mask o (W^dag L[k] W) and R[k] = mask o (W R[k+1] W^dag), where the
mask [q(b) = q(b')] drops exactly the products of two different levels: two
plain products per site, with no canonical form assumed.  Occupations, the
norm, the canonical defect and the outer environments of the reduced density
matrices all come from them.

The two-site reduced density matrix carries its open-index environment as
charge blocks, and since that environment is Hermitian in its two open
levels, only the half with bra level >= ket level.  Only its first and last
site are split into levels, each as a temporary.  Through the W of each
site between the pair, a transfer step is two plain products per charge:
the blocks sharing a charge on one side times that charge's rows of W, then,
for each charge r of the new bond, the rows of every level m gathered into
one matrix whose inner dimension runs over the vectors of charge r + m,
times W[:, r].  The two sides of a block keep their charge offset, so the
level m of one side fixes the other's, and the sum over m is just that inner
dimension.  The close mirrors the half and contracts only the level pairs
whose imbalances match.

Every slot table, window, rotation table and block list of the two-site
update and the RDM depends only on the bond charges and d (and, for a
transfer step, on the blocks it receives), so each is built once per charge
pattern into a plan of read-only arrays, held in bounded per-process caches
keyed on the charges' bytes: scans over states of the same N, M and chi
revisit the same patterns.  A transfer step's plan, keyed on its incoming
block structure, q_s, q_{s+1} and d, holds a (block, slot) and a (block,
vector) gather factor per charge of the new bond, and the out structure; at
M = 16 the largest is 0.15 MB.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import CutoffError, ValidationError
from .folding import (FoldPlan, PairRotationOp, PhaseOp, fold_single, fold_two, invert_plan,
                      _coeffs)

SECTOR_LEAK_TOL = 1e-10  # relative two-site weight allowed outside the charge blocks
# Padded SVD stacks of blocks with at least this many columns and at least
# twice as many rows start with a QR, since the SVD of R does not form the
# tall U.  On complex stacks of 9-33 blocks, QR first was faster at every
# shape from 6 columns and 2 rows per column on, and slower at 1.75 rows.
QR_FIRST_MIN_COLS = 6
GATE_CHUNK_BYTES = 1 << 17  # slot-table bytes per batched gate product


@dataclass
class BlockDecimationState:
    # per-site (chiL, chiR) matrices W[a, b] = B[a, qL[a] - qR[b], b] of the
    # right-normalized tensors B = Gamma lambda, 0 where that level is outside 0..d-1
    ws: list
    lambdas: list  # per-bond vectors, length n_sites + 1, trivial ends
    charges: list  # per-bond int arrays: bosons to the right of the bond, ascending
    local_dim: int
    chi_max: int
    trunc_tol: float
    discarded_weight: float = 0.0

    @property
    def n_sites(self) -> int:
        return len(self.ws)

    @property
    def gammas(self) -> "DenseSites":
        """The sites in the dense (chiL, d, chiR) layout: a read-only view."""
        return DenseSites(self)


def _levels(q_left: np.ndarray, q_right: np.ndarray) -> np.ndarray:
    """(chiL, chiR) site levels qL[a] - qR[b] that the bond charges imply."""
    return q_left[:, None] - q_right


def _split_levels(state: BlockDecimationState, k: int) -> np.ndarray:
    """Site k+1 as a new (chiL, d, chiR) tensor B[a, n, b], W placed at its levels."""
    w = state.ws[k]
    level = _levels(state.charges[k], state.charges[k + 1])
    a, b = np.nonzero((level >= 0) & (level < state.local_dim))
    g = np.zeros((w.shape[0], state.local_dim, w.shape[1]), dtype=w.dtype)
    g[a, level[a, b], b] = w[a, b]
    return g


class DenseSites(Sequence):
    """Read-only (chiL, d, chiR) tensors of a state's sites, item k expanded
    from ws[k] when it is read; the state stores only W."""

    def __init__(self, state: BlockDecimationState):
        self._state = state

    def __len__(self) -> int:
        return self._state.n_sites

    def __getitem__(self, k: int) -> np.ndarray:
        g = _split_levels(self._state, range(len(self))[k])
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class SingleModeGate:
    site: int
    phases: np.ndarray  # length-d diagonal in the occupation basis


@dataclass(frozen=True)
class TwoModeGate:
    bond: int
    # read-only real (ceil(d/2), d+1, d+1) slots: slot j holds the orthogonal
    # block of sector n_k + n_{k+1} = j at rows and columns 0..j and that of
    # sector d-1-j at j+1..d, n_k ascending in each (see `_sector_eigh`)
    slots: np.ndarray


def from_fock(occupations, d: int, chi_max: int, trunc_tol: float) -> BlockDecimationState:
    """Product Fock state |n_1, ..., n_N>."""
    occupations = list(occupations)
    n = len(occupations)
    for occ in occupations:
        if not (0 <= occ < d):
            raise CutoffError(f"occupation {occ} outside local dimension {d}")
    ws = [np.ones((1, 1), dtype=complex) for _ in range(n)]
    lambdas = [np.array([1.0]) for _ in range(n + 1)]
    charges = [np.array([sum(occupations[b:])]) for b in range(n + 1)]
    return BlockDecimationState(ws=ws, lambdas=lambdas, charges=charges,
                                local_dim=d, chi_max=chi_max, trunc_tol=trunc_tol)


def build_phase_gate(site: int, theta: float, d: int) -> SingleModeGate:
    """Diagonal e^{-i theta n} on one site."""
    return SingleModeGate(site=site, phases=np.exp(-1j * theta * np.arange(d)))


@functools.lru_cache(maxsize=None)
def _sector_eigh(d: int):
    """Real eigenbasis (X, X', mu, X^T) of Q on the pair sectors n = 0..d-1.

    Q = (a_2^dag a_1 - a_1^dag a_2) / 2i is imaginary, so its eigenvectors of
    +m and -m are v and conj(v); with v = (x + i y) / sqrt(2), e^{-i phi Q}
    rotates the real plane (x, y) by the angle phi m.  Sector n (basis
    |n_k, n - n_k>, n_k ascending) has the columns x, y and the real m = 0
    vector in X, their m in mu, and y, -x, 0 in X', so its gate is
    (X cos(phi mu) + X' sin(phi mu)) X^T.  Sectors n and d-1-n share one
    zero-padded (d+1) x (d+1) slot j = min(n, d-1-n), at offset 0 and j+1,
    so the products of all sectors take about half the work of padding each
    to d x d.  Q does not depend on the angle, so each local dimension is
    diagonalized once per process; the arrays are read-only.
    """
    slots = (d + 1) // 2
    x = np.zeros((slots, d + 1, d + 1))
    xs = np.zeros((slots, d + 1, d + 1))
    mu = np.zeros((slots, d + 1))
    for n in range(d):
        n1 = np.arange(n)  # a_2^dag a_1 |n1+1, n-n1-1> -> sqrt((n1+1)(n-n1)) |n1, n-n1>
        q = np.zeros((n + 1, n + 1), dtype=complex)
        q[n1, n1 + 1] = np.sqrt((n1 + 1.0) * (n - n1)) / 2j
        w, v = np.linalg.eigh(q + q.conj().T)
        h = (n + 1) // 2  # pairs +-m; w ascends, so m > 0 are the last h
        re, im = math.sqrt(2.0) * v[:, n + 1 - h:].real, math.sqrt(2.0) * v[:, n + 1 - h:].imag
        j, o = (n, 0) if n < slots else (d - 1 - n, d - n)
        x[j, o:o + n + 1, o:o + 2 * h] = np.hstack([re, im])
        xs[j, o:o + n + 1, o:o + 2 * h] = np.hstack([im, -re])
        mu[j, o:o + 2 * h] = np.tile(np.arange(n + 1 - h, n + 1) - n / 2, 2)  # exact m
        if n % 2 == 0:  # m = 0: a real vector up to a phase
            z = v[:, h] * np.exp(-1j * np.angle(v[np.argmax(np.abs(v[:, h])), h]))
            x[j, o:o + n + 1, o + n] = z.real
    xt = np.ascontiguousarray(x.swapaxes(1, 2))
    for arr in (x, xs, mu, xt):
        arr.setflags(write=False)
    return x, xs, mu, xt


def build_pair_rotation_gate(bond: int, phi: float, d: int) -> TwoModeGate:
    """Exact e^{-i phi Q} on the sectors n_k + n_{k+1} = 0..d-1, batched over slots.

    The slots go through the product in chunks of GATE_CHUNK_BYTES per
    operand, so that the operands, temporaries and output of a chunk stay in
    cache.  Up to d = 31 that is one chunk; from d = 49 on, where one product
    over all slots is bound by memory traffic, chunks take 0.5-0.75 of its time.
    """
    x, xs, mu, xt = _sector_eigh(d)
    c, s = np.cos(phi * mu)[:, None, :], np.sin(phi * mu)[:, None, :]
    full = np.empty_like(x)
    step = max(GATE_CHUNK_BYTES // x[0].nbytes, 1)
    for j in range(0, x.shape[0], step):
        part = slice(j, j + step)
        rot = x[part] * c[part]
        rot += xs[part] * s[part]
        np.matmul(rot, xt[part], out=full[part])
    full.setflags(write=False)
    return TwoModeGate(bond=bond, slots=full)


def apply_single(state: BlockDecimationState, gate: SingleModeGate) -> BlockDecimationState:
    k = gate.site - 1
    if not (0 <= k < state.n_sites):
        raise ValidationError(f"site {gate.site} outside chain")
    if np.shape(gate.phases) != (state.local_dim,):
        raise ValidationError("gate dimension does not match local dimension")
    # each entry of W takes the phase of its implied level; the levels
    # outside 0..d-1 hold zeros, so clipping them changes nothing
    level = np.clip(_levels(state.charges[k], state.charges[k + 1]), 0, state.local_dim - 1)
    state.ws[k] = state.ws[k] * gate.phases[level]
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
# A plan stores each gather as two broadcastable factors of its flat index
# (row part + column part), so it stays O(blocks x (rows + columns)) rather
# than the size of the gathered stack.  The RDM plans store their index
# tables in the smallest unsigned type that holds them.

# Plans per cache.  A benchmark pass builds at most 82 plans in one cache
# (the RDM transfer steps of sweep_small); quench_snapshots builds none,
# since its states are written and read as W with no plan.  The largest
# plan measured, a transfer step at M = 32, takes 3.6 MB, so a full cache
# of those would hold about 460 MB; rho_{1,N} of three N = 20, M = 32
# collisions (mu = 6, 20, 40) builds 11.7 MB of RDM plans in all.
PLAN_CACHE_SIZE = 128


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


class TwoSitePlan(NamedTuple):
    """What `apply_two` needs of the charges (ql, qm, qr) and d, q the window charges.

    A padding slot gathers entry 0 of its matrix: padded middle vectors are
    masked out of the contraction, and padded rows and columns land in the
    extra row and column of v, which the update zeroes.
    """
    qs: np.ndarray  # new middle charge of each window
    left_rows: np.ndarray  # (q, row, 1) and (q, 1, mid) factors of the W^[k] gather
    left_cols: np.ndarray
    live_mids: np.ndarray  # (q, 1, mid) whether a middle slot holds a vector
    right_rows: np.ndarray  # (q, mid, 1) and (q, 1, col) factors of the W^[k+1] gather
    right_cols: np.ndarray
    win_rows: np.ndarray  # (q, row, 1) and (q, 1, col) factors of window flat indices into v
    win_cols: np.ndarray
    rows: np.ndarray  # (q, row) left bond index, chi_l for padding
    cols: np.ndarray  # (q, col) right bond index, chi_r for padding
    rotation: np.ndarray  # (slot, d+1, pair) flat indices into v of the gate's slot stack
    qr_first: bool  # the padded SVD stack starts with a QR
    valid: np.ndarray  # (q, min(row, col)) singular values that belong to the block


def _two_site_plan(ql: np.ndarray, qm: np.ndarray, qr: np.ndarray, d: int) -> TwoSitePlan:
    return _two_site_plan_cached(_key(ql), _key(qm), _key(qr), d)


def _rotation_table(ql: np.ndarray, qr: np.ndarray, d: int) -> np.ndarray:
    """Flat indices into v of the pairs that the gate's slots rotate.

    Slot j holds sector j at rows 0..j and sector d-1-j at rows j+1..d, so
    column p of slot j stacks the levels of the p-th pair of sector j and
    then those of the p-th pair of sector d-1-j.  A sector with fewer pairs
    than the widest, and the rows past sector j where d-1-j = j, read the
    zero pair (chi_l, chi_r) of v.
    """
    chi_l, chi_r = ql.shape[0], qr.shape[0]
    n = (ql[:, None] - qr).ravel()  # sector of pair a * chi_r + b
    pairs = np.flatnonzero(n >= 0)
    pairs = pairs[np.argsort(n[pairs], kind="stable")]
    n = n[pairs]
    rank = np.arange(n.shape[0]) - np.searchsorted(n, n)  # place within its sector
    n_slots = (d + 1) // 2
    base = np.full((n_slots, 2, rank.max(initial=-1) + 1), (chi_l * (chi_r + 1) + chi_r) * d)
    base[np.minimum(n, d - 1 - n), (n >= n_slots).astype(np.intp), rank] = \
        (pairs + pairs // chi_r) * d  # row a * (chi_r + 1) + b of v
    j = np.arange(n_slots)[:, None]
    upper = (np.arange(d + 1) > j).astype(np.intp)  # rows of sector d-1-j
    level = np.arange(d + 1) - upper * (j + 1)
    return _compact(np.take_along_axis(base, upper[:, :, None], axis=1) + level[:, :, None])


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _two_site_plan_cached(ql, qm, qr, d: int) -> TwoSitePlan:
    ql, qm, qr = _charges(ql), _charges(qm), _charges(qr)
    chi_l, chi_m, chi_r = ql.shape[0], qm.shape[0], qr.shape[0]
    # window q: left vectors with n_k = ql[a] - q, right ones with
    # n_{k+1} = q - qr[b]; padded slots point at the last row and column of v
    # and read a level every q allows (ql[-1] - q)
    qs = np.arange(qr[0], ql[-1] + 1)
    a0, a1, b0, b1 = _windows(ql, qr, qs, d)
    rows, cols = _slots(a0, a1 - a0, chi_l), _slots(b0, b1 - b0, chi_r)
    lvl_l = np.append(ql, ql[-1])[rows] - qs[:, None]
    m0, m1 = np.searchsorted(qm, qs), np.searchsorted(qm, qs, side="right")
    mids = _slots(m0, m1 - m0, chi_m)  # middle vectors of charge q
    live = mids < chi_m
    mids = np.where(live, mids, 0)
    n_rows, n_cols = rows.shape[1], cols.shape[1]
    return _frozen(TwoSitePlan(
        qs=qs, left_rows=(np.where(rows < chi_l, rows, 0) * chi_m)[:, :, None],
        left_cols=mids[:, None, :], live_mids=live[:, None, :],
        right_rows=(mids * chi_r)[:, :, None],
        right_cols=np.where(cols < chi_r, cols, 0)[:, None, :],
        win_rows=(rows * (chi_r + 1) * d + lvl_l)[:, :, None],
        win_cols=(cols * d)[:, None, :], rows=rows, cols=cols,
        rotation=_rotation_table(ql, qr, d),
        qr_first=n_cols >= QR_FIRST_MIN_COLS and n_rows >= 2 * n_cols,
        valid=np.arange(min(n_rows, n_cols)) < np.minimum(a1 - a0, b1 - b0)[:, None]))


def _truncate(s: np.ndarray, total: np.ndarray, chi_max: int, trunc_tol: float):
    """Keep rule of bond updates, one row of new singular values s per update,
    total[row] = sum s[row]^2.

    Each row keeps the values with s^2 / total >= trunc_tol and s > 0, at most
    chi_max of the largest (the first on ties) and at least one.  Returns the
    kept mask over s, the kept norms sqrt(total - rest), which the updates
    divide out, and the discarded weights rest / total, the rest of each row
    summed in descending order.
    """
    rows, n = s.shape
    order = np.argsort(-s, axis=1, kind="stable")
    order += np.arange(0, rows * n, n)[:, None]  # flat indices into s
    s_sorted = s.reshape(-1)[order]
    sq = s_sorted**2
    # the passing values are a prefix of each descending row (s^2 / total >=
    # trunc_tol > 0 implies s > 0), cut at chi_max and at least the first
    head = sq / total[:, None] >= trunc_tol if trunc_tol > 0 else s_sorted > 0
    head[:, max(chi_max, 1):] = False
    head[:, 0] = True
    kept = np.empty(s.shape, dtype=bool)
    kept.reshape(-1)[order] = head
    tail = np.add.reduce(np.where(head, 0.0, sq), 1)
    return kept, np.sqrt(total - tail), tail / total


def apply_two(state: BlockDecimationState, gate: TwoModeGate) -> BlockDecimationState:
    """Inverse-free two-site update on charge blocks: contract, rotate, SVD,
    truncate, write back, each stage one padded batched call.

    v[a, b, i] is the B^[k] B^[k+1] amplitude with n_k = i and
    n_{k+1} = n - i, where n = ql[a] - qr[b] is the pair sector: middle charge
    p fills i = ql[a] - p, the sector-n block of the gate rotates
    v[a, b, :n+1], and new middle charge q is the block v[a, b, ql[a] - q] of
    its windows, gathered from the rows and columns of W^[k] and W^[k+1]
    that hold charge q in the middle.  Charge windows are stacked as slot
    tables padded with an extra zero row and column of v, so every
    middle-charge product runs in one matmul and every new-charge block,
    lambda^[k-1]-weighted, in one SVD call; the singular values of a block
    are the first min(rows, cols) of its padded SVD.  The rotation stacks
    the pairs of sectors n and d-1-n in the columns of the gate's shared
    slot and runs one real product over all slots.  The new right matrix
    holds the kept V^dag rows and the new left matrix the unweighted block
    times V, each in the rows and columns of its window.  Every table these
    stages index with comes from the cached `_two_site_plan` of the three
    bond charges.
    """
    k = gate.bond - 1
    if not (0 <= k < state.n_sites - 1):
        raise ValidationError(f"bond {gate.bond} outside chain")
    d = state.local_dim
    shape = ((d + 1) // 2, d + 1, d + 1)
    if np.shape(gate.slots) != shape:
        raise ValidationError(f"gate slots have shape {np.shape(gate.slots)}; "
                              f"local dimension {d} needs {shape}")
    ql, qm, qr = state.charges[k], state.charges[k + 1], state.charges[k + 2]
    if ql[-1] - qr[0] >= d:
        raise CutoffError(f"two-site sector of {int(ql[-1] - qr[0])} bosons "
                          f"exceeds local dimension {d}")
    plan = _two_site_plan(ql, qm, qr, d)
    chi_l, chi_r = ql.shape[0], qr.shape[0]

    # contraction: the middle-charge-q vectors fill window q, one stacked
    # product; the padded rows and columns of every window fill the extra
    # row and column of v, zeroed before anything reads them
    left = state.ws[k].take(plan.left_rows + plan.left_cols)
    left *= plan.live_mids
    right = state.ws[k + 1].take(plan.right_rows + plan.right_cols)
    window = plan.win_rows + plan.win_cols  # flat indices into v
    v = np.zeros((chi_l + 1, chi_r + 1, d), dtype=complex)
    v.reshape(-1)[window] = left @ right
    v[chi_l] = 0
    v[:, chi_r] = 0

    # rotation: every slot times its stack of pairs, one real product
    flat = v.reshape(-1)
    stack = flat.take(plan.rotation)
    flat[plan.rotation] = np.matmul(gate.slots, stack.view(np.float64)).view(complex)
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

    # truncation, as a mask over (block, index)
    kept, s_norm, discarded = _truncate(s_all[None], np.array([total]), state.chi_max,
                                        state.trunc_tol)
    state.discarded_weight += float(discarded[0])
    s_norm = float(s_norm[0])
    mask = np.zeros(s_pad.shape, dtype=bool)
    mask[plan.valid] = kept[0]
    blk, t = np.nonzero(mask)  # row-major: new bond sorted by charge
    s = s_pad[blk, t]

    # write-back: kept columns of mats V, kept rows of V^dag, each new vector
    # in the rows (columns) of its window; padding lands in a dropped extra
    # row (column)
    chi_new = s.shape[0]
    col = np.arange(chi_new)[:, None]
    w_l = np.zeros((chi_l + 1, chi_new), dtype=complex)
    w_l[plan.rows[blk], col] = (mats @ vh.conj().swapaxes(1, 2))[blk, :, t] / s_norm
    w_r = np.zeros((chi_new, chi_r + 1), dtype=complex)
    w_r[col, plan.cols[blk]] = vh[blk, t]
    state.ws[k], state.ws[k + 1] = w_l[:chi_l], np.ascontiguousarray(w_r[:, :chi_r])
    state.lambdas[k + 1] = s / s_norm
    state.charges[k + 1] = plan.qs[blk]
    return state


@functools.lru_cache(maxsize=None)
def _charge_axis(width: int):
    """Read-only (width, width) tables over charges r, p = 0..width-1:
    sqrt(C(r, p)) (0 for p > r) and the level max(r - p, 0)."""
    r, p = np.arange(width)[:, None], np.arange(width)
    tables = (np.array([[math.sqrt(math.comb(i, j)) for j in range(width)]
                        for i in range(width)]), np.maximum(r - p, 0))
    return _frozen(tables)


def _rotation_factors(angles, q: int):
    """cos^n(phi/2) and (-sin(phi/2))^n for n = 0..q, along a last axis
    added to the angles phi.

    e^{-i phi Q}|r, 0> leaves |r-p, p> at amplitude
    sqrt(C(r, p)) cos^(r-p)(phi/2) (-sin(phi/2))^p, 0 for p > r.
    """
    n = np.arange(q + 1)
    half = np.asarray(angles)[..., None] / 2
    return np.cos(half) ** n, (-np.sin(half)) ** n


def _vacuum_rotations(starts, angles, phases, chi_max: int, trunc_tol: float):
    """Rotations e^{-i phi Q} on bonds k..k+B-1, then phases e^{-i theta n} on
    sites k..k+B, in closed form for a batch of states that hold no boson
    right of site k; a generator over the states, in order.

    starts[i] = (ql, amp, lam) is state i's bond k-1: its charges, the
    amplitudes W[a, 0] = B[a, ql[a], 0] of site k and the Schmidt values;
    angles[i] and phases[i] hold its B rotation and B+1 phase angles.  The
    rotation on bond b sees every left vector a with all its ql[a] bosons on
    site b and leaves p of them on site b+1 at amplitude rot[ql[a], p] (see
    `_rotation_factors`): one column per new charge p, with its lam-weighted
    norm for singular value and V^dag = 1.  So each bond of a state is a row
    over the charges 0..q, q the largest start charge.  Per bond, one
    batched product gives every state's squared singular values,
    s^2 = w rot^2 with w[r] the lam^2 weight of charge r on the bond before;
    `_truncate` keeps, row by row, what `apply_two` would keep; and the
    kept, renormalized lam^2 is the next w (`_keep_pass`).  Past bond k-1 a
    bond has at most one vector per charge, whose row of its right site's W
    is 1 in the column of charge 0: the vacuum input of the next rotation.
    The last site's right bond is the vacuum bond past the run, charge 0,
    reached as a rotation by 0 with norm 1.  The sector of bond b is the
    occupation of site b, below d, so the CutoffError of `apply_two` cannot
    arise.

    The keep pass runs for every state at the first `next`, so a vanished
    block raises before anything is yielded.  Then each state's matrices W
    are written as it is yielded: the sites k..k+B, each with its phase folded
    in, the Schmidt values and charges of bonds k..k+B-1, and the discarded
    weight.  Site k, whose left bond can hold several vectors per charge, is
    written vector by vector.  Each of sites k+1..k+B is its charge-axis
    matrix rot[r, p], phase and norm folded in, over the kept charges r of
    its left bond and p of its right one: three products per site and no
    index table.  Every entry sits at level r - p in 0..q, and rot vanishes
    for p > r, so W keeps the charge invariant.
    """
    angles = np.asarray(angles, dtype=float)
    q = max(int(ql[-1]) for ql, _, _ in starts)
    width = q + 1
    w = np.array([np.bincount(ql, np.abs(lam * amp) ** 2, width) for ql, amp, lam in starts])
    kept, lam, norm, discarded = _keep_pass(w, angles, chi_max, trunc_tol)
    bonds = angles.shape[1]
    n = np.arange(width)
    sqrt_binom, level = _charge_axis(width)
    for i, (ql, amp, _) in enumerate(starts):
        chi = np.count_nonzero(kept[i], axis=1)
        # per site and charge p, (-sin)^p; per site and level l, cos^l with
        # the site's phase and its right bond's kept norm folded in; the
        # last site's right bond is the vacuum past the run, a rotation by 0
        cos_l, sin_p = _rotation_factors(np.append(angles[i], 0.0), q)
        cos_l = ((1.0 / norm[i])[:, None] * cos_l
                 * np.exp(-1j * np.asarray(phases[i])[:, None] * n))
        p = np.flatnonzero(kept[i, 0])
        a, j = np.nonzero(ql[:, None] >= p)
        r, p = ql[a], p[j]
        first = np.zeros((ql.shape[0], chi[0]), dtype=complex)
        first[a, j] = amp[a] * sqrt_binom[r, p] * sin_p[0, p] * cos_l[0, r - p]
        ws = [first]
        # site t+1 takes bond t's kept charge r to bond t+1's kept p at
        # sqrt(C(r, p)) (-sin)^p cos^(r-p), 0 for p > r; the kept charges of
        # a bond are mostly one range, read as a slice
        lo = kept[i].argmax(axis=1).tolist()
        hi = (width - kept[i, :, ::-1].argmax(axis=1)).tolist()
        sel = [slice(a, b) if b - a == c else np.flatnonzero(mask)
               for a, b, c, mask in zip(lo, hi, chi.tolist(), kept[i])]
        for t in range(bonds):
            r, p = sel[t], sel[t + 1]
            w = cos_l[t + 1].take(level[r][:, p])
            w *= sqrt_binom[r][:, p]
            w *= sin_p[t + 1, p]
            ws.append(w)
        _, charges = np.nonzero(kept[i, :-1])
        kept_lam = lam[i][kept[i, :-1]]
        cuts = np.cumsum(chi[:-1]).tolist()
        bounds = list(zip([0] + cuts, cuts))
        yield (ws, [kept_lam[c0:c1] for c0, c1 in bounds],
               [charges[c0:c1] for c0, c1 in bounds], float(discarded[i]))


def _keep_pass(w: np.ndarray, angles: np.ndarray, chi_max: int, trunc_tol: float):
    """The bonds of `_vacuum_rotations`, one row per state: w[i, r] the lam^2
    weight of charge r on state i's start bond, angles[i] its rotations.

    Returns the kept masks over (state, bond, charge), the vacuum bond past
    the run included; the kept, renormalized Schmidt values over (state,
    bond, charge), 0 where not kept; the kept norms, 1 on the vacuum bond;
    and each state's discarded weight.
    """
    rows, bonds = angles.shape
    q = w.shape[1] - 1
    kept = np.ones((rows, bonds + 1, q + 1), dtype=bool)
    kept[:, bonds, 1:] = False  # the vacuum bond past the run: charge 0
    lam = np.empty((rows, bonds, q + 1))
    norm = np.ones((rows, bonds + 1))
    discarded = np.zeros(rows)
    sqrt_binom, level = _charge_axis(q + 1)
    for b in range(bonds):
        cos_l, sin_p = _rotation_factors(angles[:, b], q)
        rot = sqrt_binom * cos_l[:, level] * sin_p[:, None, :]
        s2 = np.matmul(w[:, None, :], rot**2)[:, 0]
        total = s2.sum(axis=1)
        if not total.all():
            raise ValidationError("two-site block vanished; state is not normalized")
        s = np.sqrt(s2)
        kept[:, b], norm[:, b], dropped = _truncate(s, total, chi_max, trunc_tol)
        discarded += dropped
        lam[:, b] = np.where(kept[:, b], s, 0.0) / norm[:, b, None]
        w = lam[:, b] ** 2
    return kept, lam, norm, discarded


def _lift_factors(j: np.ndarray, m2: int) -> np.ndarray:
    """sqrt((j+m2)!/j!) in log space; exact matrix element of (a^dag)^m2."""
    return np.exp([0.5 * (math.lgamma(x + m2 + 1) - math.lgamma(x + 1)) for x in j.tolist()])


def lift_first_site(state: BlockDecimationState, m2: int) -> BlockDecimationState:
    """Apply (a_1^dag)^m2 followed by renormalization.

    The site-1 occupation of bond-1 Schmidt vector gamma is
    charges[0][0] - charges[1][gamma]; the lift adds m2 to charges[0][0],
    which shifts that implied level, and scales column gamma of W^[1] and
    lambda^[1][gamma] by the same normalized lift factor, leaving every other
    site and bond untouched.  The factor is
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
    factors = _lift_factors(occ_of.astype(float), m2)
    factors /= np.linalg.norm(state.lambdas[1] * factors)
    state.ws[0] = state.ws[0] * factors
    state.lambdas[1] = state.lambdas[1] * factors
    state.charges[0] = state.charges[0] + m2
    return state


# -- observables ---------------------------------------------------------


def _same_charge(q: np.ndarray) -> np.ndarray:
    """mask[a, a'] = [q(a) = q(a')] of one bond."""
    return q[:, None] == q


def _left_envs(state: BlockDecimationState):
    """Yield L[0], L[1], ..., L[N]: L[k] contracts sites 1..k (L[0] = 1).

    L[k+1] = mask o (W^dag L[k] W): L is block-diagonal in the bond charge,
    so the mask drops exactly the products of two different levels.
    """
    env = np.ones((1, 1), dtype=complex)
    yield env
    for k in range(state.n_sites):
        w = state.ws[k]
        env = (w.conj().T @ env @ w) * _same_charge(state.charges[k + 1])
        yield env


def _right_envs(state: BlockDecimationState):
    """Yield R[N], R[N-1], ..., R[0]: R[k] contracts sites k+1..N (R[N] = 1),
    R[k] = mask o (W R[k+1] W^dag)."""
    env = np.ones((1, 1), dtype=complex)
    yield env
    for k in range(state.n_sites - 1, -1, -1):
        w = state.ws[k]
        env = (w @ env @ w.conj().T) * _same_charge(state.charges[k])
        yield env


def state_norm(state: BlockDecimationState) -> float:
    """Full-contraction 2-norm of the represented state."""
    *_, env = _left_envs(state)
    return math.sqrt(abs(env[0, 0].real))


def amplitude(state: BlockDecimationState, config) -> complex:
    """Fock-basis coefficient of |config>: per site, the entries of W whose
    implied level is config[k]."""
    config = list(config)
    if len(config) != state.n_sites:
        raise ValidationError("configuration length does not match chain")
    v = np.ones(1, dtype=complex)
    for k, occ in enumerate(config):
        if not (0 <= occ < state.local_dim):
            raise ValidationError(f"occupation {occ} outside local dimension")
        level = _levels(state.charges[k], state.charges[k + 1])
        v = v @ np.where(level == occ, state.ws[k], 0)
    return complex(v[0])


def occupations(state: BlockDecimationState) -> np.ndarray:
    """Per-site <n_k> for all sites: one right sweep, then one left sweep.

    <n_k> = Re sum conj(W) o (L[k-1] W R[k]) o (q_in[a] - q_out[b]), the level
    of each entry of W read off the charges.  Both sweeps share each site's W
    and conj(W) and each bond's charge mask.
    """
    ws = state.ws
    wcs = [w.conj() for w in ws]
    masks = [_same_charge(q) for q in state.charges]
    right = [np.ones((1, 1), dtype=complex)]  # R[N], ..., R[0] as in `_right_envs`
    for w, wc, mask in zip(ws[::-1], wcs[::-1], masks[-2::-1]):
        right.append((w @ right[-1] @ wc.T) * mask)
    right.reverse()
    out = np.zeros(state.n_sites)
    env = np.ones((1, 1), dtype=complex)
    for k, (w, wc) in enumerate(zip(ws, wcs)):
        lw = env @ w
        level = state.charges[k][:, None] - state.charges[k + 1]
        out[k] = np.sum(wc * (lw @ right[k + 1]) * level).real
        env = (wc.T @ lw) * masks[k + 1]
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
# padded to the group's widest with rows that no step and no close reads
# (zero after the opening, any finite value after a step), and its columns
# are the vectors of charge p.


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
    ins: tuple  # per in group: its W rows r0:r1, the offset of its Y block, and W columns :c1
    y_size: int  # entries of Y, before its zero tail of chi_out + 1
    outs: tuple  # per out group: the W rows x0:x1 and columns c0:c1 of its
    # product, and the (block, slot, 1) columns and (block, 1, x) row offsets
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
    u = np.unique(q, return_index=True)[0]  # the bare call form imports numpy.ma
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
    # first products: in group p times the W rows of charge p, up to the
    # last W column c1 of charge <= p (W vanishes beyond it), fills its own
    # row-major (rows, c1) block of Y, so Y holds no column a group cannot
    # reach; row i of block j starts at y_start[j] + i * c1
    lay = _layout(g, o, t, q_in)
    n_blocks = np.diff(lay.first)
    r0 = lay.start[lay.group]
    c1 = np.searchsorted(q_out, q_in[r0], side="right")
    y0 = np.concatenate(([0], np.cumsum(n_blocks * lay.width * c1)))
    grp = np.repeat(np.arange(n_blocks.shape[0]), n_blocks)
    y_step = c1[grp]  # Y row length of each block
    y_start = y0[grp] + (np.arange(g.shape[0]) - lay.first[grp]) * lay.width[grp] * y_step
    ins = tuple(zip(r0.tolist(), (r0 + lay.count[lay.group]).tolist(), y0.tolist(),
                    c1.tolist()))
    y_size = int(y0[-1])
    # out blocks: level m takes t to t - m, and the other side, contracted
    # second, becomes the group side
    u_out = np.unique(q_out, return_index=True)[0]
    t_out = t[:, None] - np.arange(d)
    ok = _sector_of(u_out, t_out - o[:, None])[1] & _sector_of(u_out, t_out - g[:, None])[1]
    blk, m = np.nonzero(ok)
    code = np.unique(_block_code(o[blk], g[blk], t_out[blk, m], d), return_index=True)[0]
    g2, o2 = code // d % d, code % d
    t2 = code // (d * d) + g2
    out = _layout(g2, o2, t2, q_out)
    # second products: out block (g2, o2, t2) of group r = t2 - g2 sums over
    # the in vectors x of charge r + m, m < d: the Y rows of in block
    # (o2, g2, t2 + m), or Y's zero tail where that is missing.  A padded
    # slot reads past its row; it only fills a padded row of the out group
    # matrix, which no later step and no close reads
    r = q_out[out.start[out.group]]
    x0 = np.searchsorted(q_in, r)
    x1 = np.searchsorted(q_in, r + d - 1, side="right")
    codes = _block_code(g, o, t, d)
    slot = np.arange(chi_in) - np.repeat(lay.start, lay.count)
    dtype = np.min_scalar_type(y_size + chi_out)  # holds every sum of the two factors
    outs = []
    for p in range(r.shape[0]):
        blk = slice(out.first[p], out.first[p + 1])
        xp = np.arange(x0[p], x1[p])
        want = _block_code(o2[blk, None], g2[blk, None], t2[blk, None] + q_in[xp] - r[p], d)
        j = np.minimum(np.searchsorted(codes, want), codes.shape[0] - 1)
        found = codes[j] == want
        live = np.flatnonzero(found.any(axis=0))  # in vectors that some block reads
        a, b = live[0], live[-1] + 1
        rows = np.where(found, y_start[j] + slot[xp] * y_step[j], y_size)[:, None, a:b]
        cols = _group_rows(out, p, chi_out)[:, :, None]
        outs.append((int(x0[p] + a), int(x0[p] + b), int(out.start[out.group[p]]),
                     int(out.start[out.group[p]] + out.count[out.group[p]]),
                     cols.astype(dtype), rows.astype(dtype)))
    return _frozen(RdmTransferPlan(ins=ins, y_size=y_size, outs=tuple(outs),
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
        w = state.ws[s]
        wc = w.conj()
        # the ket side contracts with W and the bra side with conj(W); the
        # opening groups by the ket side, and the sides alternate
        v, u = (w, wc) if (s - k) % 2 == 0 else (wc, w)
        # one (rows, c1) block per in group, then a zero tail
        size = step.y_size + w.shape[1] + 1
        if buffer.shape[0] < size:
            buffer = np.empty(size, dtype=complex)
        y = buffer[:size]
        y[step.y_size:] = 0
        for mat, (r0, r1, y0, c1) in zip(env, step.ins):
            np.matmul(mat, v[r0:r1, :c1], out=y[y0:y0 + mat.shape[0] * c1].reshape(-1, c1))
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
    on the side contracted first) times the W rows of charge p, each into
    its own block of Y, only as wide as the W columns of charge <= p.
    The second take, for each charge r of the other side on the new bond,
    the Y rows of every m as one matrix whose inner dimension runs over the
    in vectors of charge r + m, times W[:, r] (conjugated on the bra side).
    A step is thus two plain products per charge, and the side contracted
    second becomes the group side of the next step.  The close writes each
    carried block and its conjugate transpose into the mirrored (i', i)
    slot, then contracts site l per imbalance delta = i - i':
    rho[(i, j), (i', j')] vanishes unless j' - j = delta, so
    each delta is one product with d - |delta| rows and columns.  Only
    sites k and l are split into their levels A(i), each as a temporary.
    Only L[k-1] and R[l] are contracted; no canonical form is assumed.  The index
    tables of the opening, of each step and of the close come from cached
    plans of the bond charges and the incoming block structure.
    """
    if not (1 <= k < l <= state.n_sites):
        raise ValidationError(f"need 1 <= k < l <= N, got ({k}, {l})")
    d = state.local_dim
    occ = np.arange(d)
    left = next(islice(_left_envs(state), k - 1, None))
    right = next(islice(_right_envs(state), state.n_sites - l, None))
    ak = np.transpose(_split_levels(state, k - 1), (1, 0, 2))  # (d, chiL, chiR)
    # X[(i, i'), b, b'] = A(i)^dag L A(i') after opening site k, for the level
    # pairs i >= i' in row-major order (i bra, i' ket; b bra bond, b' ket)
    plan = _rdm_open_plan(state.charges[k - 1], state.charges[k], d)
    x = ak.conj().swapaxes(1, 2)[plan.hi] @ (left @ ak)[plan.lo]
    flat = np.append(x.reshape(-1), 0)
    env = [flat.take(rows + cols, mode="clip").reshape(-1, cols.shape[2])
           for rows, cols in plan.groups]
    env, structure = _transfer(state, env, plan.structure, k, l)
    close = _rdm_close_plan(structure, state.charges[l - 1], d, (l - 1 - k) % 2 == 0)
    al = np.transpose(_split_levels(state, l - 1), (1, 0, 2))
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


def _inverse_angles(plan: FoldPlan, first_bond: int):
    """The inverse of a fold plan as rotation angles, in replay order, and one
    phase angle per site.

    A fold plan strips its phases before it rotates on bonds N-1 down to
    `first_bond`, so its inverse rotates on bonds first_bond..N-1 first, and
    its phases, which commute, follow: the plan's trailing rotations reversed
    and negated, then its phases negated.
    """
    angles = [-op.angle for op in reversed(plan.ops) if isinstance(op, PairRotationOp)]
    head = len(plan.ops) - len(angles)
    if [getattr(op, "bond", None) for op in reversed(plan.ops[head:])] != \
            list(range(first_bond, plan.n_modes)):
        raise ValidationError(f"fold plan must rotate on bonds {plan.n_modes - 1}..{first_bond} "
                              "after its phases")
    phases = np.zeros(plan.n_modes)
    for op in reversed(plan.ops[:head]):
        phases[op.site - 1] -= op.angle
    return angles, phases


def _numerics(m_total, d, chi_max, trunc_tol):
    if d is None:
        d = m_total + 1
    if chi_max is None:
        chi_max = 4 * (m_total + 1)
    if m_total >= d:
        raise CutoffError(f"total boson number {m_total} needs local dimension > {m_total}")
    return d, chi_max, trunc_tol


def condensate_states(modes, m: int, d: int | None = None, chi_max: int | None = None,
                      trunc_tol: float = 1e-12):
    """MPS of the single-condensate state (sum_k c_k a_k^dag)^M |0> (normalized)
    of each mode c in `modes`, yielded in input order.

    The inverse fold plan rotates |M, 0, ..., 0> into vacuum on bonds 1..N-1
    and then strips phases, so each build is one row of `_vacuum_rotations`:
    the keep pass of every mode runs at the first `next`, after every mode is
    checked, and each state is written only when it is yielded, so a caller
    that keeps one state at a time holds at most two.  The modes must share
    one length.
    """
    cs = []
    for c in modes:
        c = _coeffs(c)
        norm = np.linalg.norm(c)
        if norm == 0.0:
            raise ValidationError("condensate mode must be nonzero")
        cs.append(c / norm)
    if not cs:
        return
    if len({c.shape[0] for c in cs}) > 1:
        raise ValidationError("condensate modes must share one length")
    d, chi_max, trunc_tol = _numerics(m, d, chi_max, trunc_tol)
    angles, phases = zip(*(_inverse_angles(fold_single(c), 1) for c in cs))
    start = (np.array([m]), np.ones(1), np.ones(1))
    for ws, lambdas, charges, discarded in _vacuum_rotations(
            [start] * len(cs), angles, phases, chi_max, trunc_tol):
        yield BlockDecimationState(
            ws=ws, lambdas=[np.ones(1), *lambdas, np.ones(1)],
            charges=[np.array([m]), *charges, np.zeros(1, dtype=int)], local_dim=d,
            chi_max=chi_max, trunc_tol=trunc_tol, discarded_weight=discarded)


def condensate_state(c, m: int, d: int | None = None, chi_max: int | None = None,
                     trunc_tol: float = 1e-12) -> BlockDecimationState:
    """MPS of the single-condensate state (sum_k c_k a_k^dag)^M |0> (normalized):
    `condensate_states` of one mode."""
    return next(condensate_states([c], m, d, chi_max, trunc_tol))


def two_sum_state(z, c, m1: int, m2: int, d: int | None = None,
                  chi_max: int | None = None, trunc_tol: float = 1e-12) -> BlockDecimationState:
    """MPS of (sum c a^dag)^M2 (sum z a^dag)^M1 |0> (normalized).

    Folded (`fold_two`), the state is, up to the inverse partial plan and
    the inverse inner plan, (cos(beta/2) a_1^dag + sin(beta/2) a_2^dag)^M2
    (a_1^dag)^M1 |0>, beta the bridging angle: sites 1-2 hold
    sum_q psi_q |M-q, q>, psi_q proportional to
    C(M2, q) cos^(M2-q)(beta/2) sin^q(beta/2) sqrt((M-q)! q!), q = 0..M2,
    and sites 3..N are vacuum.  So bond 1 holds one Schmidt vector per
    charge q, of Schmidt value |psi_q| (kept by the rule of `_truncate`),
    and site 1 is the row W[0, q] = psi_q e^{-i theta_1 (M-q-M1)}: theta_1,
    the site-1 phase of the inverse partial plan, acts on the M-q bosons of
    site 1 but not on the M1 of the already-folded inner sum.  The rotations
    of the inverse partial plan then rotate into vacuum from bond 1, with its
    other phases (one row of `_vacuum_rotations`), and the inverse inner plan
    runs as gates.
    """
    z = _coeffs(z)
    c = _coeffs(c)
    z = z / np.linalg.norm(z)
    c = c / np.linalg.norm(c)
    d, chi_max, trunc_tol = _numerics(m1 + m2, d, chi_max, trunc_tol)
    plan = fold_two(z, c, m1, m2)
    m = m1 + m2
    # e^{i beta Q} carries a_1^dag to cos(beta/2) a_1^dag + sin(beta/2) a_2^dag;
    # C(M2, q) sqrt((M-q)! q!) in log space, up to a constant
    log = np.array([0.5 * (math.lgamma(m - q + 1) - math.lgamma(q + 1)) - math.lgamma(m2 - q + 1)
                    for q in range(m2 + 1)])
    cos_n, sin_n = _rotation_factors(-plan.bridging_angle, m2)
    psi = np.exp(log - log.max()) * cos_n[::-1] * sin_n
    kept, norm, discarded = _truncate(np.abs(psi)[None], np.array([psi @ psi]), chi_max,
                                      trunc_tol)
    q = np.flatnonzero(kept[0])
    psi = psi[q] / norm[0]
    angles, phases = _inverse_angles(plan.plan2_partial, 2)
    lam = np.abs(psi)
    (ws, lambdas, charges, rest), = _vacuum_rotations(
        [(q, np.ones(q.shape[0]), lam)], [angles], [phases[1:]], chi_max, trunc_tol)
    state = BlockDecimationState(
        ws=[(psi * np.exp(-1j * phases[0] * (m - q - m1)))[None], *ws],
        lambdas=[np.ones(1), lam, *lambdas, np.ones(1)],
        charges=[np.array([m]), q, *charges, np.zeros(1, dtype=int)], local_dim=d,
        chi_max=chi_max, trunc_tol=trunc_tol, discarded_weight=float(discarded[0]) + rest)
    return replay_plan_gates(state, invert_plan(plan.plan1))

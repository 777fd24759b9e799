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
sharing one (d+1) x (d+1) slot, built from a cached real eigenbasis
(`_rotation_slots`) and kept as that read-only slot array.  `apply_two` is
the plain reference of the two-site update: it forms the dense
(chi_L, d, d, chi_R) two-site block, rotates each sector with its block of
the gate, and takes one SVD per new middle charge of the lam-weighted
block, which is fine at test sizes and not meant for large chi.  The
first-site lifting implements (a_1^dag)^M2 as a rescale of the columns of
W^[1] and of lambda^[1] plus M2 added to the charge of bond 0, which shifts
every implied site-1 level.  No build runs the gates, the two-site update,
the lift or `from_fock`: they stay as public API, as the names perfbench's
tracer patches, and as the gate-path reference that the tests build the two
writers' states against.

Every rotation of a condensate build's fold replay acts on a bond whose
right site, and every site beyond it, holds no boson.  There
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
(`condensate_states`).  The fold's angles are closed forms of the mode c:
bond k rotates by -2 atan2(|c_{>k}|, |c_k|) and site k takes the phase
-arg c_k, so no gate, fold plan or SVD runs there.

A two-sum state (sum c a^dag)^M2 (sum z a^dag)^M1 |0> is written in
two-mode frames (`two_sum_states`): right of bond k it lives on two modes,
an orthonormal basis F_k of span(z_{>k}, c_{>k}), so each Schmidt vector
of charge q is a vector over the q + 1 frame states, and site k+1 steps
F_k to F_{k+1} by a real rotation within the frame (a charge block of the
pair rotation, from the cached eigenbasis above) and then the closed form
of one pair rotation, as in the paper's fold (arXiv:0907.4315) carried in
each bond's frame.  Bond by bond, the lam-weighted charge blocks of the
state that the earlier truncations left go through one SVD call per
charge for a batch of states (every point of a collision sweep), each
block at a shape of its own, and `_truncate` keeps what `apply_two` would
keep.  No gate, plan, lift or chi-sized contraction runs, and a state's W
are written only when it is yielded.

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

Every index table of the RDM depends only on the bond charges and d (and,
for a transfer step, on the blocks it receives), so each is built once per
charge pattern into a plan of read-only arrays, held in bounded per-process
caches keyed on the charges' bytes: scans over states of the same N, M and
chi revisit the same patterns.  A transfer step's plan, keyed on its
incoming block structure, q_s, q_{s+1} and d, holds a (block, slot) and a
(block, vector) gather factor per charge of the new bond, and the out
structure; at M = 16 the largest is 0.15 MB.
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
from .folding import FoldPlan, PairRotationOp, PhaseOp, _coeffs
# No build calls fold_single, fold_two or invert_plan; perfbench's tracer
# patches them here by name, and Tracer.install() stops on a name the module lacks.
from .folding import fold_single, fold_two, invert_plan  # noqa: F401


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


def _rotation_slots(angles, d: int) -> np.ndarray:
    """Slots (X cos(phi mu) + X' sin(phi mu)) X^T of e^{-i phi Q} (see
    `_sector_eigh`), one (ceil(d/2), d+1, d+1) array per angle phi."""
    x, xs, mu, xt = _sector_eigh(d)
    angle = np.asarray(angles)[..., None, None] * mu
    slots = x * np.cos(angle)[..., None, :]
    slots += xs * np.sin(angle)[..., None, :]
    return np.matmul(slots, xt)


def build_pair_rotation_gate(bond: int, phi: float, d: int) -> TwoModeGate:
    """Exact e^{-i phi Q} on the sectors n_k + n_{k+1} = 0..d-1, as read-only slots."""
    slots = _rotation_slots(phi, d)
    slots.setflags(write=False)
    return TwoModeGate(bond=bond, slots=slots)


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
# than the size of the gathered stack, and stores its index tables in the
# smallest unsigned type that holds them.

# Plans per cache.  A benchmark pass builds at most 82 plans in one cache
# (the RDM transfer steps of sweep_small).  The largest plan measured, a
# transfer step at M = 32, takes 3.6 MB, so a full cache of those would
# hold about 460 MB; rho_{1,N} of three N = 20, M = 32 collisions (mu = 6,
# 20, 40) builds 11.7 MB of RDM plans in all.
PLAN_CACHE_SIZE = 128


def _key(q: np.ndarray) -> bytes:
    """Cache key of one bond's charges."""
    return np.asarray(q, dtype=np.int64).tobytes()


def _charges(key: bytes) -> np.ndarray:
    """The read-only charges of a cache key."""
    return np.frombuffer(key, dtype=np.int64)


def _frozen(fields):
    """Make every array among fields, nested tuples included, read-only."""
    for f in fields:
        if isinstance(f, np.ndarray):
            f.setflags(write=False)
        elif isinstance(f, tuple):
            _frozen(f)
    return fields


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
    """Inverse-free two-site update, the plain reference: contract, rotate,
    SVD per charge, truncate, write back.

    theta[a, i, j, b] is the dense B^[k] B^[k+1] block, (chi_L, d, d, chi_R),
    and the sector-n block of the gate rotates its pairs i + j = n (i = n_k
    ascending).  New middle charge q holds the entries
    theta[a, ql[a] - q, q - qr[b], b] whose levels lie in 0..d-1; the
    lambda^[k-1]-weighted block of each q takes one SVD, and `_truncate`
    keeps the largest singular values over all of them.  The new right
    matrix holds the kept V^dag rows and the new left matrix the unweighted
    block times V, each in the rows and columns of its charge.
    """
    k = gate.bond - 1
    if not (0 <= k < state.n_sites - 1):
        raise ValidationError(f"bond {gate.bond} outside chain")
    d = state.local_dim
    n_slots = (d + 1) // 2
    shape = (n_slots, d + 1, d + 1)
    if np.shape(gate.slots) != shape:
        raise ValidationError(f"gate slots have shape {np.shape(gate.slots)}; "
                              f"local dimension {d} needs {shape}")
    ql, qr = state.charges[k], state.charges[k + 2]
    if ql[-1] - qr[0] >= d:
        raise CutoffError(f"two-site sector of {int(ql[-1] - qr[0])} bosons "
                          f"exceeds local dimension {d}")
    theta = np.tensordot(_split_levels(state, k), _split_levels(state, k + 1), axes=(2, 0))
    for n in range(d):
        i = np.arange(n + 1)
        j, o = (n, 0) if n < n_slots else (d - 1 - n, d - n)
        theta[:, i, n - i] = gate.slots[j, o:o + n + 1, o:o + n + 1] @ theta[:, i, n - i]

    lam = state.lambdas[k]
    blocks = []  # (q, left vectors, right vectors, block, s, V^dag), q ascending
    for q in range(int(qr[0]), int(ql[-1]) + 1):
        a = np.flatnonzero((ql >= q) & (ql - q < d))
        b = np.flatnonzero((qr <= q) & (q - qr < d))
        if a.size and b.size:
            mat = theta[a[:, None], (ql[a] - q)[:, None], q - qr[b], b]
            _, s, vh = np.linalg.svd(lam[a, None] * mat, full_matrices=False)
            blocks.append((q, a, b, mat, s, vh))
    s_all = np.concatenate([blk[4] for blk in blocks])
    total = float(np.sum(s_all**2))
    if total == 0.0:
        raise ValidationError("two-site block vanished; state is not normalized")
    kept, s_norm, discarded = _truncate(s_all[None], np.array([total]), state.chi_max,
                                        state.trunc_tol)
    state.discarded_weight += float(discarded[0])
    s_norm = float(s_norm[0])
    kept = kept[0]

    chi_new = int(np.count_nonzero(kept))
    w_l = np.zeros((ql.shape[0], chi_new), dtype=complex)
    w_r = np.zeros((chi_new, qr.shape[0]), dtype=complex)
    charges, start, col = [], 0, 0
    for q, a, b, mat, s, vh in blocks:
        t = np.flatnonzero(kept[start:start + s.shape[0]])
        new = slice(col, col + t.shape[0])
        w_l[a, new] = mat @ vh[t].conj().T / s_norm
        w_r[new, b] = vh[t]
        charges += [q] * t.shape[0]
        start += s.shape[0]
        col += t.shape[0]
    state.ws[k], state.ws[k + 1] = w_l, w_r
    state.lambdas[k + 1] = s_all[kept] / s_norm
    state.charges[k + 1] = np.array(charges)
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


def _vacuum_rotations(m: int, angles, phases, chi_max: int, trunc_tol: float):
    """Rotations e^{-i phi Q} on bonds 1..B, then phases e^{-i theta n} on
    sites 1..B+1, in closed form for a batch of states that start as
    |m, 0, ..., 0>; a generator over the states, in order.

    angles[i] and phases[i] hold state i's B rotation and B+1 phase angles.
    The rotation on bond b sees every left vector of charge r with all its
    bosons on site b and leaves p of them on site b+1 at amplitude rot[r, p]
    (see `_rotation_factors`): one column per new charge p, with its
    lam-weighted norm for singular value and V^dag = 1.  So a bond has at
    most one vector per charge, and each bond of a state is a row over the
    charges 0..m.  Per bond, one batched product gives every state's
    squared singular values, s^2 = w rot^2 with w[r] the lam^2 weight of
    charge r on the bond before (bond 0: all of it on charge m); `_truncate`
    keeps, row by row, what `apply_two` would keep; and the kept,
    renormalized lam^2 is the next w (`_keep_pass`).  A vector's row of its
    right site's W is 1 in the column of charge 0: the vacuum input of the
    next rotation.  The last site's right bond is the vacuum bond past the
    run, charge 0, reached as a rotation by 0 with norm 1.  The sector of
    bond b is the occupation of site b, below d, so the CutoffError of
    `apply_two` cannot arise.

    The keep pass runs for every state at the first `next`.  Then each
    state's matrices W are written as it is yielded, with the Schmidt values
    and charges of bonds 1..B and the discarded weight.  Each site is its
    charge-axis matrix rot[r, p], phase and norm folded in, over the kept
    charges r of its left bond (m alone on bond 0) and p of its right one:
    three products per site and no index table.  Every entry sits at level
    r - p in 0..m, and rot vanishes for p > r, so W keeps the charge
    invariant.
    """
    angles = np.asarray(angles, dtype=float)
    width = m + 1
    start = np.zeros((angles.shape[0], width))
    start[:, m] = 1.0
    kept, lam, norm, discarded = _keep_pass(start, angles, chi_max, trunc_tol)
    bonds = angles.shape[1]
    n = np.arange(width)
    sqrt_binom, level = _charge_axis(width)
    for i in range(angles.shape[0]):
        chi = np.count_nonzero(kept[i], axis=1)
        # per site and charge p, (-sin)^p; per site and level l, cos^l with
        # the site's phase and its right bond's kept norm folded in; the
        # last site's right bond is the vacuum past the run, a rotation by 0
        cos_l, sin_p = _rotation_factors(np.append(angles[i], 0.0), m)
        cos_l = ((1.0 / norm[i])[:, None] * cos_l
                 * np.exp(-1j * np.asarray(phases[i])[:, None] * n))
        # site t takes bond t's kept charge r to bond t+1's kept p at
        # sqrt(C(r, p)) (-sin)^p cos^(r-p), 0 for p > r; the kept charges of
        # a bond are mostly one range, read as a slice
        lo = kept[i].argmax(axis=1).tolist()
        hi = (width - kept[i, :, ::-1].argmax(axis=1)).tolist()
        sel = [slice(m, width)] + [slice(a, b) if b - a == c else np.flatnonzero(mask)
                                   for a, b, c, mask in zip(lo, hi, chi.tolist(), kept[i])]
        ws = []
        for t in range(bonds + 1):
            r, p = sel[t], sel[t + 1]
            site = cos_l[t].take(level[r][:, p])
            site *= sqrt_binom[r][:, p]
            site *= sin_p[t, p]
            ws.append(site)
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
    and each state's discarded weight.  Each rotation keeps the norm of its
    row, so every total is that of the unit start.
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
        s = np.sqrt(s2)
        kept[:, b], norm[:, b], dropped = _truncate(s, s2.sum(axis=1), chi_max, trunc_tol)
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

    The fold rotates on bonds N-1 down to 1 by 2 atan2(|c_{>k}|, |c_k|) after
    it strips the phases arg c_k, so its inverse, written in closed form,
    rotates |M, 0, ..., 0> on bonds 1..N-1 by the negated angles and then
    puts on the phases -arg c_k: each build is one row of
    `_vacuum_rotations`.  The keep pass of every mode runs at the first
    `next`, after every mode is checked, and each state is written only when
    it is yielded, so a caller that keeps one state at a time holds at most
    two.  The modes must be finite and nonzero and share one length.
    """
    cs = []
    for c in modes:
        c = _coeffs(c)
        if not np.isfinite(c).all():
            raise ValidationError("condensate mode must be finite")
        norm = np.linalg.norm(c)
        if norm == 0.0:
            raise ValidationError("condensate mode must be nonzero")
        cs.append(c / norm)
    if not cs:
        return
    if len({c.shape[0] for c in cs}) > 1:
        raise ValidationError("condensate modes must share one length")
    d, chi_max, trunc_tol = _numerics(m, d, chi_max, trunc_tol)
    cs = np.array(cs)
    r = np.abs(cs)
    # |c_{>k}| for k = 1..N-1, accumulated from the right as the fold does
    tails = np.hypot.accumulate(r[:, :0:-1], axis=1)[:, ::-1]
    angles = -2.0 * np.arctan2(tails, r[:, :-1])
    for ws, lambdas, charges, discarded in _vacuum_rotations(
            m, angles, -np.angle(cs), chi_max, trunc_tol):
        yield BlockDecimationState(
            ws=ws, lambdas=[np.ones(1), *lambdas, np.ones(1)],
            charges=[np.array([m]), *charges, np.zeros(1, dtype=int)], local_dim=d,
            chi_max=chi_max, trunc_tol=trunc_tol, discarded_weight=discarded)


def condensate_state(c, m: int, d: int | None = None, chi_max: int | None = None,
                     trunc_tol: float = 1e-12) -> BlockDecimationState:
    """MPS of the single-condensate state (sum_k c_k a_k^dag)^M |0> (normalized):
    `condensate_states` of one mode."""
    return next(condensate_states([c], m, d, chi_max, trunc_tol))


# -- two-sum construction in two-mode frames -----------------------------
#
# Right of bond k, (sum c a^dag)^M2 (sum z a^dag)^M1 |0> lives on the two
# modes of F_k, an orthonormal basis (g1, g2) of span(z_{>k}, c_{>k}), so a
# Schmidt vector of charge q is a vector over the q + 1 frame states
# |q - m, m> (m bosons in g2).  `_frames` steps F_k to F_{k+1}: a real
# rotation H = F_k U within the frame leaves only h1 on site k+1, and
# h1^dag = u a^dag + t g1'^dag, h2^dag = w g2'^dag (|w| = 1, phases that
# keep the next site's row of the frame real).  So the frame state
# |q - m, m>_H puts n bosons on the site and leaves |q - m - n, m> of F_{k+1}
# at amplitude sqrt((q-m)! / (n! i!)) u^n t^i w^m, i = q - m - n: the
# closed form of a pair rotation (`_rotation_factors`), with the g2
# occupation m passing through.

FRAME_FLOOR = 1e-60  # frame amplitudes below this are set to 0
# (the sweep's packets have ~1e-17 tails; their powers would otherwise reach
# the subnormal range, where one 68 x 17 x 68 product took 14 ms, not 25 us)


def _floored(a: np.ndarray) -> np.ndarray:
    a[np.abs(a) < FRAME_FLOOR] = 0.0
    return a


def _real_turn(first: np.ndarray) -> np.ndarray:
    """Unit factors that turn each entry real and nonnegative, 1 on zeros."""
    size = np.abs(first)
    return np.where(size > 0, first.conj() / np.where(size > 0, size, 1.0), 1.0)


def _frames(zs: np.ndarray, cs: np.ndarray):
    """The frame steps of a batch of pairs (rows of zs and cs), site by site.

    F_0 is a QR basis of span(z, c), zero-padded to two columns, on which z
    and c have coefficients alpha and beta.  Each frame is turned so that
    its first row (c, s) is real and nonnegative; the rotation of site k is
    then U = [[c, -s], [s, c]] / |(c, s)| (1 where the row is 0), of angle
    theta = 2 atan2(s, c), and F_{k+1} holds the tails of h1 / t and h2,
    turned in turn: t and w carry those turns.  A frame mode that reaches
    no site past k is a zero column: g1' is kept only where it stays
    orthogonal to g2' (not on the last site, where the tails are parallel),
    and it never gains weight, since t = 0 there.  Returns theta, u and t
    (normalized to u^2 + |t|^2 = 1) and w per (pair, site), then alpha and
    beta.  Every operation acts row by row, so no pair's frames depend on
    the pairs batched with it.
    """
    pairs, n = zs.shape
    q, r = np.linalg.qr(np.stack([zs, cs], axis=2))
    frame = np.zeros((pairs, n, 2), dtype=complex)
    frame[:, :, :q.shape[2]] = q
    coeffs = np.zeros((pairs, 2, 2), dtype=complex)
    coeffs[:, :r.shape[1]] = r
    turn = _real_turn(frame[:, 0])
    frame *= turn[:, None]
    coeffs /= turn[:, :, None]
    theta, u = np.empty((pairs, n)), np.empty((pairs, n))
    t, w = np.zeros((pairs, n), dtype=complex), np.ones((pairs, n), dtype=complex)
    for k in range(n):
        c, s = np.abs(frame[:, 0, 0]), np.abs(frame[:, 0, 1])
        size = np.hypot(c, s)
        theta[:, k] = 2 * np.arctan2(s, c)
        c, s = np.cos(theta[:, k] / 2), np.sin(theta[:, k] / 2)
        rest = frame[:, 1:]
        h1 = rest[:, :, 0] * c[:, None] + rest[:, :, 1] * s[:, None]
        h2 = rest[:, :, 1] * c[:, None] - rest[:, :, 0] * s[:, None]
        tail = np.linalg.norm(h1, axis=1)
        g1 = h1 / np.where(tail > 0, tail, 1.0)[:, None]
        g1 -= h2 * (h2.conj() * g1).sum(axis=1)[:, None]
        left = np.linalg.norm(g1, axis=1)
        live = left > 0.5
        tail[~live] = 0.0
        scale = np.hypot(size, tail)
        scale[scale == 0] = 1.0
        u[:, k] = size / scale
        frame = np.stack([np.where(live[:, None], g1 / np.where(live, left, 1.0)[:, None], 0), h2],
                         axis=2)
        if k < n - 1:
            turn = _real_turn(frame[:, 0])
            frame *= turn[:, None]
            t[:, k], w[:, k] = tail / scale / turn[:, 0], 1 / turn[:, 1]
    return theta, u, t, w, coeffs[:, :, 0], coeffs[:, :, 1]


@functools.lru_cache(maxsize=None)
def _frame_rows(width: int):
    """Read-only [q, m] rows and [q] slots of the frame states |q - m, m> in
    the slots of `_sector_eigh(width)`: charge q is sector n = q, in slot
    min(q, d-1-q) at offset 0 or d - q, and entry m at n_1 = q - m; the
    entries m > q point at a padding row d + 1."""
    q, m = np.arange(width)[:, None], np.arange(width)
    rows = np.where(m > q, width + 1, np.where(q < (width + 1) // 2, q - m, width - m))
    return _frozen((rows, np.minimum(q[:, 0], width - 1 - q[:, 0])))


def _frame_rotation(vecs: np.ndarray, charges: np.ndarray, theta: np.ndarray,
                    frames: np.ndarray, fixed: bool = True) -> np.ndarray:
    """Vectors over the F-frame states |q - m, m> (rows of vecs, each with its
    charge q and its frame's angle) over the H-frame states |q - m', m'>.

    The rotation is the charge-q block of the real pair rotation
    e^{-i theta Q}, read from the cached eigenbasis of Q (`_sector_eigh`)
    at rows n_1 = q - m.  The vectors of one frame and one slot (charges j
    and d-1-j, at most d+1 of them) are the columns of one matrix, so every
    frame and slot is one real product of a batched call.  A frame's
    vectors take the same columns whatever frames share the call, and with
    `fixed` every product has d+1 columns, since a product's bits depend on
    its column count; otherwise only as many as the call needs.
    """
    width = vecs.shape[1]
    slots = _rotation_slots(theta, width)
    n_slots = slots.shape[1]
    rows, slot = _frame_rows(width)
    key = frames * n_slots + slot[charges]
    order = np.argsort(key, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(key.shape[0]) - np.searchsorted(key[order], key[order])
    lanes = width + 1 if fixed else int(column.max(initial=0)) + 1
    flat = (key[:, None] * (width + 2) + rows[charges]) * lanes + column[:, None]
    cols = np.zeros((theta.shape[0], n_slots, width + 2, lanes), dtype=complex)
    cols.reshape(-1)[flat] = vecs
    out = np.zeros_like(cols)
    np.matmul(slots, cols[:, :, :width + 1].view(np.float64),
              out=out[:, :, :width + 1].view(np.float64))
    return out.reshape(-1)[flat]


def _frame_start(alpha: np.ndarray, beta: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """(beta . g^dag)^M2 (alpha . g^dag)^M1 |0> over |M - m, m>_{F_0}, one row
    per pair, normalized after each creation."""
    vec = np.ones((alpha.shape[0], 1), dtype=complex)
    for q, x in enumerate([alpha] * m1 + [beta] * m2, start=1):
        m = np.arange(q + 1)
        new = np.zeros((alpha.shape[0], q + 1), dtype=complex)
        new[:, :q] = x[:, :1] * np.sqrt(q - m[:q]) * vec
        new[:, 1:] += x[:, 1:] * np.sqrt(m[1:]) * vec
        vec = new / np.linalg.norm(new, axis=1)[:, None]
    return _floored(vec)


class _FrameBond(NamedTuple):
    """The kept Schmidt vectors of one bond of every pair, pair after pair."""
    starts: np.ndarray  # vectors starts[i]:starts[i+1] belong to pair i
    charges: np.ndarray
    lam: np.ndarray
    vectors: np.ndarray  # (vector, M+1) over the frame states |q-m, m>_F of the bond
    norm: np.ndarray  # per pair, the kept norm that the bond's truncation divided out


class _FramePass(NamedTuple):
    """What `_frame_keep_pass` keeps of every pair: its bonds and frame steps."""
    bonds: list  # _FrameBond per bond 0..N-1
    theta: np.ndarray  # (pair, site), see `_frames`
    fn: np.ndarray  # (pair, site, n): u^n / sqrt(n!)
    ft: np.ndarray  # (pair, site, i): t^i / sqrt(i!)
    fw: np.ndarray  # (pair, site, m): w^m
    discarded: np.ndarray


def _tails(ft: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """[..., p, m] = ft[p - m] fw[m] for m <= p, else 0: the factor of the new
    frame state |p - m, m> in the closed form of a site's step."""
    width = ft.shape[-1]
    p, m = np.arange(width)[:, None], np.arange(width)
    return np.where(m <= p, ft[..., np.maximum(p - m, 0)] * fw[..., None, :], 0)


def _frame_keep_pass(zs, cs, m1: int, m2: int, chi_max: int, trunc_tol: float) -> _FramePass:
    """Every bond of every pair, left to right, as `apply_two` would keep it
    (`_frame_bond`), each bond's vectors turned into the next site's H frame
    for the step after it."""
    pairs, n = zs.shape
    m = m1 + m2
    width = m + 1
    theta, u, t, w, alpha, beta = _frames(zs, cs)
    steps = np.ones((3, pairs, n, width), dtype=complex)
    steps[:2, ..., 1:] = np.stack([u, t])[..., None] / np.sqrt(np.arange(1, width))
    steps[2, ..., 1:] = w[..., None]
    fn, ft, fw = _floored(np.cumprod(steps, axis=-1))
    fn = fn.real.copy()
    charge = np.arange(width)
    # the rows a charge block of the exact state can have: the vectors of
    # charge q >= p, at most min(q+1, M-q+1) of each
    cap = np.minimum(chi_max, np.cumsum(np.minimum(charge + 1, m - charge + 1)[::-1])[::-1])
    vh = _frame_start(alpha, beta, m1, m2)
    bonds = [_FrameBond(np.arange(pairs + 1), np.full(pairs, m), np.ones(pairs), vh,
                        np.ones(pairs))]
    discarded = np.zeros(pairs)
    for k in range(n - 1):
        x = _frame_rotation(bonds[-1].vectors, bonds[-1].charges, theta[:, k],
                            np.repeat(np.arange(pairs), np.diff(bonds[-1].starts)))
        bond, dropped = _frame_bond(bonds[-1], _floored(x), fn[:, k], _tails(ft[:, k], fw[:, k]),
                                    cap, chi_max, trunc_tol)
        bonds.append(bond)
        discarded += dropped
    return _FramePass(bonds, theta, fn, ft, fw, discarded)


def _frame_bond(bond: _FrameBond, x: np.ndarray, fn: np.ndarray, tails: np.ndarray,
                cap: np.ndarray, chi_max: int, trunc_tol: float):
    """The next bond of every pair, and the weights its truncation discards.

    Its block of charge p holds one row per kept vector a of `bond` with
    q_a >= p (site level n = q_a - p), lam_a fn[n] A_a[m] tails[p, m] over
    m = 0..p, where A_a is a's row of x (over the H-frame states) times
    sqrt((q_a - m)!): the lam-weighted block of the state that the earlier
    bonds' truncations left.  Its singular values are the Schmidt values of
    charge p and its V^dag rows the new vectors over the F-frame states.  A
    block of one row or one column is its norm.  The others go through one
    SVD call per charge, each padded with zero rows to cap[p], or at its
    own rows where it has more; so no block's decomposition depends on the
    pairs batched with it, and the row of every pair, p + 1 slots per
    charge, goes through `_truncate`.
    """
    pairs, width = fn.shape
    charge = np.arange(width)
    above = charge[:, None] >= charge  # [q, m]: m <= q
    level = np.maximum(charge[:, None] - charge, 0)
    slot0 = np.append(0, np.cumsum(charge + 1))
    starts, q = bond.starts, bond.charges
    pt = np.repeat(np.arange(pairs), np.diff(starts))
    sqrt_fact = np.cumprod(np.append(1.0, np.sqrt(charge[1:])))
    amat = np.where(above[q], x * sqrt_fact[level[q]], 0)
    weights = np.where(above[q], bond.lam[:, None] * fn[pt[:, None], level[q]], 0)
    counts = np.bincount(pt * width + q, minlength=pairs * width).reshape(pairs, width)
    rows = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]  # vectors of charge >= p
    # each pair's vectors right-aligned: its rows of charge >= p are its last rows[:, p]
    depth = max(int(np.diff(starts).max()), int(cap.max()))
    place = pt * depth + depth - starts[pt + 1] + np.arange(q.shape[0])
    aligned = np.zeros((pairs * depth, width), dtype=complex)
    aligned[place] = amat
    aligned = aligned.reshape(pairs, depth, width)
    aligned_w = np.zeros((pairs * depth, width))
    aligned_w[place] = weights
    aligned_w = aligned_w.reshape(pairs, depth, width)
    s_all = np.zeros((pairs, slot0[-1]))
    vh_all = np.zeros((pairs, slot0[-1], width), dtype=complex)
    # charge 0 has one column, whose norm is its Schmidt value
    s_all[:, 0] = np.sqrt(np.add.reduceat(np.abs(weights[:, 0] * amat[:, 0]) ** 2,
                                          starts[:-1])) * np.abs(tails[:, 0, 0])
    vh_all[:, 0, 0] = 1.0
    one_p, one_c = np.nonzero(rows[:, 1:] == 1)
    one_c += 1
    row = aligned_w[one_p, -1, one_c, None] * aligned[one_p, -1] * tails[one_p, one_c]
    s = np.linalg.norm(row, axis=1)
    s_all[one_p, slot0[one_c]] = s
    vh_all[one_p, slot0[one_c]] = row / np.where(s > 0, s, 1.0)[:, None]
    fits = (rows > 1) & (rows <= cap)
    for p in np.flatnonzero((rows[:, 1:] > 1).any(axis=0)) + 1:
        r = rows[:, p]
        groups = [(np.flatnonzero(fits[:, p]), cap[p])]
        groups += [(np.flatnonzero(r == more), more)
                   for more in sorted(set(r[r > cap[p]].tolist()))]
        for grp, height in groups:
            if grp.size == 0:
                continue
            blk = (aligned_w[grp, -height:, p, None] * aligned[grp, -height:, :p + 1]
                   * tails[grp, p, None, :p + 1])
            if p >= 4 and height >= 3 * (p + 1):
                # same singular values and V^dag; the SVD then skips forming the tall U
                blk = np.linalg.qr(blk, mode="r")
            _, s, vh = np.linalg.svd(blk, full_matrices=False)
            kept = min(height, p + 1)
            s_all[grp, slot0[p]:slot0[p] + kept] = s[:, :kept]
            vh_all[grp, slot0[p]:slot0[p] + kept, :p + 1] = vh[:, :kept]
    kept, norm, dropped = _truncate(s_all, np.sum(s_all**2, axis=1), chi_max, trunc_tol)
    pt, col = np.nonzero(kept)
    new = _FrameBond(np.searchsorted(pt, np.arange(pairs + 1)), np.repeat(charge, charge + 1)[col],
                     s_all[pt, col] / norm[pt], _floored(vh_all[pt, col]), norm)
    return new, dropped


def _frame_sites(fp: _FramePass, i: int) -> list:
    """The matrices W of pair i: W[a, b] = fn[q_a - p_b] sum_m right_a[m]
    left_b[m], 0 for q_a < p_b, from its vectors over the H frame of bond k
    times sqrt((q_a - m)!) (right) and conj over the F frame of bond k+1 times
    tails[p_b, m] over the kept norm (left): the unweighted block rows of
    bond k+1 (see `_frame_bond`) times V.  The last site's right bond
    is the vacuum.  All of the pair's vectors turn into their H frames in
    one call.
    """
    bonds = fp.bonds
    width = bonds[0].vectors.shape[1]
    spans = [slice(bond.starts[i], bond.starts[i + 1]) for bond in bonds]
    sizes = [span.stop - span.start for span in spans]
    vectors = np.concatenate([bond.vectors[span] for bond, span in zip(bonds, spans)])
    charges = np.concatenate([bond.charges[span] for bond, span in zip(bonds, spans)])
    site = np.repeat(np.arange(len(bonds)), sizes)
    m = np.arange(width)
    level = charges[:, None] - m
    sqrt_fact = np.cumprod(np.append(1.0, np.sqrt(m[1:])))
    right = _frame_rotation(vectors, charges, fp.theta[i], site, fixed=False)
    right *= np.where(level >= 0, sqrt_fact[np.maximum(level, 0)], 0)
    # bond k's vectors are the new frame states of site k - 1's step
    left = vectors.conj() * _tails(fp.ft[i], fp.fw[i])[site - 1, charges]
    left /= np.repeat([bond.norm[i] for bond in bonds], sizes)[:, None]
    cuts = np.append(0, np.cumsum(sizes))
    fn = np.concatenate([fp.fn[i], np.zeros((len(bonds), 2 * width))], axis=1)
    ws = []
    for k in range(len(bonds)):
        a = slice(cuts[k], cuts[k + 1])
        if k + 1 < len(bonds):
            b = slice(cuts[k + 1], cuts[k + 2])
            w = right[a] @ left[b].T
            w *= fn[k][charges[a][:, None] - charges[b]]  # a level below 0 reads the zero tail
        else:
            w = right[a, :1] * fn[k][charges[a]][:, None]
        ws.append(w)
    return ws


def two_sum_states(pairs, m1: int, m2: int, d: int | None = None, chi_max: int | None = None,
                   trunc_tol: float = 1e-12):
    """MPS of (sum c a^dag)^M2 (sum z a^dag)^M1 |0> (normalized) of each pair
    (z, c), yielded in input order.

    Built in two-mode frames (see above): every pair's bonds come from one
    keep pass (`_frame_keep_pass`), which truncates each bond of the state
    that the earlier bonds left, as the gate replay does, and batches each
    bond's SVDs over the pairs.  Every pair is checked before anything is
    built.  The keep pass records each pair's kept vectors over the frame
    states, and a state's sites are written from them only when it is
    yielded (`_frame_sites`), so a caller that keeps one state at a time
    holds, besides that record, at most two.  The modes must be finite and
    nonzero, and the pairs must share one length.
    """
    zs, cs = [], []
    for z, c in pairs:
        z, c = _coeffs(z), _coeffs(c)
        if z.shape != c.shape:
            raise ValidationError(f"mode vectors differ in length: {z.shape} vs {c.shape}")
        if not (np.isfinite(z).all() and np.isfinite(c).all()):
            raise ValidationError("mode vectors must be finite")
        nz, nc = np.linalg.norm(z), np.linalg.norm(c)
        if nz == 0.0 or nc == 0.0:
            raise ValidationError("cannot fold a zero vector")
        zs.append(z / nz)
        cs.append(c / nc)
    if m1 < 1 or m2 < 1:
        raise ValidationError("boson counts must be >= 1")
    d, chi_max, trunc_tol = _numerics(m1 + m2, d, chi_max, trunc_tol)
    if not zs:
        return
    if len({z.shape[0] for z in zs}) > 1:
        raise ValidationError("mode pairs must share one length")
    fp = _frame_keep_pass(np.array(zs), np.array(cs), m1, m2, chi_max, trunc_tol)
    for i in range(len(zs)):
        spans = [slice(bond.starts[i], bond.starts[i + 1]) for bond in fp.bonds]
        yield BlockDecimationState(
            ws=_frame_sites(fp, i),
            lambdas=[*(bond.lam[span].copy() for bond, span in zip(fp.bonds, spans)), np.ones(1)],
            charges=[*(bond.charges[span].copy() for bond, span in zip(fp.bonds, spans)),
                     np.zeros(1, dtype=int)],
            local_dim=d, chi_max=chi_max, trunc_tol=trunc_tol,
            discarded_weight=float(fp.discarded[i]))


def two_sum_state(z, c, m1: int, m2: int, d: int | None = None,
                  chi_max: int | None = None, trunc_tol: float = 1e-12) -> BlockDecimationState:
    """MPS of (sum c a^dag)^M2 (sum z a^dag)^M1 |0> (normalized):
    `two_sum_states` of one pair."""
    return next(two_sum_states([(z, c)], m1, m2, d, chi_max, trunc_tol))

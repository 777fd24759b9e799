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
(U(1)-symmetric tensor networks, Singh, Pfeifer & Vidal).  Bosons are
conserved, so no site holds more than the charges[0][0] = M of the whole
chain: the local dimension d = M + 1 is read off bond 0, and a lift that
adds to that charge grows it.  The level axis n is implied, and a site is
stored as
W[a, b] = B[a, charges[k][a] - charges[k+1][b], b], exactly 0 wherever that
level lies outside 0..d-1: about 1/d of the dense (chi_L, d, chi_R) tensor,
which `BlockDecimationState.gammas` rebuilds, site by site, as a read-only
view for callers that want that layout.  Each bond is stored charge by
charge (ascending charge, descending lambda within one), so the vectors of a
charge range are one window found with searchsorted.  Gates conserve boson
number by construction: a phase gate is its diagonal, applied to W through
the level each entry implies, and a pair-rotation gate is one read-only real
orthogonal (n+1) x (n+1) block per sector n_k + n_{k+1} = n < d, built from
the cached real eigenbasis of that sector (`_sector_eigh`), the one form of
a pair rotation that the gates and the frame rotations below share.
`apply_two` is the plain reference of the two-site update: it forms the dense
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
squared Schmidt values from the lam^2 row w of the bond before (rot^2 built
only on the charges that row holds, the same floats), `_truncate` applies
the keep rule of `apply_two` row by row, and the kept, renormalized lam^2 is
the next row.  A state's matrices, phases folded in, are written
only when it is yielded, each the kept part of its site's charge-axis
matrix, so a caller that measures the states one by one holds at most two
(`condensate_states`).  Their occupations need no W at all
(`condensate_occupations`): the left environments are the keep pass's lam^2
rows, and |W|^2 = rot^2 / norm^2 whatever the phases, so one backward sweep
over the charge axis of every state at once gives them.  The fold's angles
are closed forms of the mode c: bond k rotates by -2 atan2(|c_{>k}|, |c_k|)
and site k takes the phase -arg c_k, so no gate, fold plan or SVD runs
there.

A two-sum state (sum c a^dag)^M2 (sum z a^dag)^M1 |0> is written in
two-mode frames (`two_sum_states`): right of bond k it lives on two modes,
an orthonormal basis F_k of span(z_{>k}, c_{>k}), so each Schmidt vector
of charge q is a vector over the q + 1 frame states, and site k+1 steps
F_k to F_{k+1} by a real rotation within the frame (the charge-q block of
the pair rotation, applied through sector q's cached eigenbasis above, one
batched product per charge) and then the closed form of one pair rotation,
as in the paper's fold (arXiv:0907.4315) carried in each bond's frame.
Bond by bond, the lam-weighted charge blocks of the state that the earlier
truncations left go through one SVD call per charge and stack height for a
batch of states (every point of a collision sweep), each block padded with
zero rows to the power of two at or above its own rows, and `_truncate`
keeps what `apply_two` would keep.  Each kept vector turns into its site's
frame once, in the batch's one rotation call per bond, and the pass records
for each bond the two factors that the sites on either side of it take, so
a state's W are written, one product per site, only when it is yielded.  No
gate, plan, lift or chi-sized contraction runs.  A collision sweep needs
only each state's end pair, built as its first two sites
(`end_pair_densities`): the kept vectors of bond 2 are orthonormal over the
frame states right of it, so rho_{1,2} is theta theta^dag with R[2] = 1,
theta written from the records of bonds 0..2, and no site past the pair,
no environment and no state is made.

The environments L and R are block-diagonal in the bond charge, so
L[k+1] = mask o (W^dag L[k] W) and R[k] = mask o (W R[k+1] W^dag), where the
mask [q(b) = q(b')] drops exactly the products of two different levels: two
plain products per site, with no canonical form assumed.  Occupations, the
norm, the canonical defect and the outer environments L[k-1] and R[k+1] of
`reduced_density_two_sites` all come from them; the sweep's end-pair
reader needs neither (L[0] = 1, and R[2] = 1 above).  Where every bond
holds at most one Schmidt vector per charge (every condensate and Fock
state), the mask is the identity, so `occupations` carries L and R as their
diagonals: with the real P = |W|^2, l_{k+1} = l_k P and r_{k-1} = P r_k,
sums of nonnegative terms.  The
reduced density matrix of two adjacent sites k, k+1 conserves
n_k + n_{k+1} = n, which the outer charges give, n = q_{k-1}(a) - q_{k+1}(b),
so it is kept as its number blocks rho[n], each one product over the (a, b)
of that n with only site k split into its levels.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
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
    chi_max: int
    trunc_tol: float
    discarded_weight: float = 0.0

    @property
    def local_dim(self) -> int:
        """d = M + 1: no site holds more than the M bosons on bond 0."""
        return int(self.charges[0][0]) + 1

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
    # one read-only real (n+1) x (n+1) orthogonal block per sector
    # n_k + n_{k+1} = n = 0..d-1, n_k ascending (see `_sector_eigh`)
    blocks: tuple


def from_fock(occupations, *, chi_max: int, trunc_tol: float) -> BlockDecimationState:
    """Product Fock state |n_1, ..., n_N>."""
    occupations = list(occupations)
    n = len(occupations)
    if any(occ < 0 for occ in occupations):
        raise ValidationError(f"occupations must be >= 0, got {occupations}")
    ws = [np.ones((1, 1), dtype=complex) for _ in range(n)]
    lambdas = [np.array([1.0]) for _ in range(n + 1)]
    charges = [np.array([sum(occupations[b:])]) for b in range(n + 1)]
    return BlockDecimationState(ws=ws, lambdas=lambdas, charges=charges,
                                chi_max=chi_max, trunc_tol=trunc_tol)


def build_phase_gate(site: int, theta: float, d: int) -> SingleModeGate:
    """Diagonal e^{-i theta n} on one site."""
    return SingleModeGate(site=site, phases=np.exp(-1j * theta * np.arange(d)))


@functools.lru_cache(maxsize=None)
def _sector_eigh(d: int) -> tuple:
    """Real eigenbasis (X, X', mu) of Q on each pair sector n = 0..d-1.

    Q = (a_2^dag a_1 - a_1^dag a_2) / 2i is imaginary, so its eigenvectors of
    +m and -m are v and conj(v); with v = (x + i y) / sqrt(2), e^{-i phi Q}
    rotates the real plane (x, y) by the angle phi m.  Sector n (basis
    |n_k, n - n_k>, n_k ascending) has the columns x, y and the real m = 0
    vector in its (n+1) x (n+1) X, their m in mu, and y, -x, 0 in X', so its
    rotation is (X cos(phi mu) + X' sin(phi mu)) X^T.  Q does not depend on
    the angle, so each local dimension is diagonalized once per process; the
    arrays are read-only.
    """
    sectors = []
    for n in range(d):
        n1 = np.arange(n)  # a_2^dag a_1 |n1+1, n-n1-1> -> sqrt((n1+1)(n-n1)) |n1, n-n1>
        q = np.zeros((n + 1, n + 1), dtype=complex)
        q[n1, n1 + 1] = np.sqrt((n1 + 1.0) * (n - n1)) / 2j
        w, v = np.linalg.eigh(q + q.conj().T)
        h = (n + 1) // 2  # pairs +-m; w ascends, so m > 0 are the last h
        re, im = math.sqrt(2.0) * v[:, n + 1 - h:].real, math.sqrt(2.0) * v[:, n + 1 - h:].imag
        x, xs, mu = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1)), np.zeros(n + 1)
        x[:, :2 * h] = np.hstack([re, im])
        xs[:, :2 * h] = np.hstack([im, -re])
        mu[:2 * h] = np.tile(np.arange(n + 1 - h, n + 1) - n / 2, 2)  # exact m
        if n % 2 == 0:  # m = 0: a real vector up to a phase
            x[:, n] = (v[:, h] * np.exp(-1j * np.angle(v[np.argmax(np.abs(v[:, h])), h]))).real
        sectors.append(_frozen((x, xs, mu)))
    return tuple(sectors)


def build_pair_rotation_gate(bond: int, phi: float, d: int) -> TwoModeGate:
    """Exact e^{-i phi Q} on the sectors n_k + n_{k+1} = 0..d-1, one read-only
    block per sector."""
    blocks = tuple((x * np.cos(phi * mu) + xs * np.sin(phi * mu)) @ x.T
                   for x, xs, mu in _sector_eigh(d))
    return TwoModeGate(bond=bond, blocks=_frozen(blocks))


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


def _frozen(arrays: tuple) -> tuple:
    """Make every array of a tuple read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


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
    shapes = [np.shape(blk) for blk in gate.blocks]
    if shapes != [(n + 1, n + 1) for n in range(d)]:
        raise ValidationError(f"gate blocks have shapes {shapes}; local dimension {d} "
                              f"needs one (n+1) x (n+1) block per sector n = 0..{d - 1}")
    ql, qr = state.charges[k], state.charges[k + 2]
    theta = np.tensordot(_split_levels(state, k), _split_levels(state, k + 1), axes=(2, 0))
    for n, blk in enumerate(gate.blocks):
        i = np.arange(n + 1)
        theta[:, i, n - i] = blk @ theta[:, i, n - i]

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
    """Read-only tables over the charges r, p = 0..width-1 that the writers
    share: sqrt(C(r, p)) (0 for p > r), the level max(r - p, 0) and the
    mask p <= r, each (width, width), and sqrt(r!), length width."""
    r, p = np.arange(width)[:, None], np.arange(width)
    tables = (np.array([[math.sqrt(math.comb(i, j)) for j in range(width)]
                        for i in range(width)]), np.maximum(r - p, 0), p <= r,
              np.cumprod(np.append(1.0, np.sqrt(p[1:]))))
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


def _rotation_weights(angles: np.ndarray, q: int, r=slice(None), p=slice(None)) -> np.ndarray:
    """rot^2 of each angle phi_i, rot[r, p] = sqrt(C(r, p)) cos^(r-p)(phi_i/2)
    (-sin(phi_i/2))^p (see `_rotation_factors`), over the charges r, p of
    0..q (slices, all of them by default), 0 for p > r: one matrix per angle.
    rot is squared whole, so a weight underflows only where rot^2 does."""
    sqrt_binom, level, _, _ = _charge_axis(q + 1)
    cos_l, sin_p = _rotation_factors(angles, q)
    rot = cos_l.take(level[r, p], axis=1)
    rot *= sqrt_binom[r, p]
    rot *= sin_p[:, None, p]
    return np.square(rot, out=rot)


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
    run, charge 0, reached as a rotation by 0 with norm 1.

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
    kept, lam, norm, discarded = _keep_pass(_vacuum_start(angles.shape[0], m), angles,
                                            chi_max, trunc_tol)
    bonds = angles.shape[1]
    n = np.arange(width)
    sqrt_binom, level, _, _ = _charge_axis(width)
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

    rot^2 of a bond is built only on the rows r that some state's w holds
    (`_charge_window`) and the columns p < r.stop, and is 0 elsewhere; the
    product w rot^2 still runs over the whole charge axis, so its terms, and
    so every mask, lam, norm and discarded weight, are the floats of the
    full rot^2.
    """
    rows, bonds = angles.shape
    q = w.shape[1] - 1
    kept = np.ones((rows, bonds + 1, q + 1), dtype=bool)
    kept[:, bonds, 1:] = False  # the vacuum bond past the run: charge 0
    lam = np.empty((rows, bonds, q + 1))
    norm = np.ones((rows, bonds + 1))
    discarded = np.zeros(rows)
    for b in range(bonds):
        r = _charge_window(w > 0)
        p = slice(0, r.stop)
        rot2 = np.zeros((rows, q + 1, q + 1))
        rot2[:, r, p] = _rotation_weights(angles[:, b], q, r, p)
        s2 = np.matmul(w[:, None, :], rot2)[:, 0]
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
    the same within a charge group, so bond 1 keeps its layout, and the
    local dimension, read off bond 0, grows by m2.
    """
    if m2 < 0:
        raise ValidationError("lift count must be nonnegative")
    if m2 == 0:
        return state
    occ_of = state.charges[0][0] - state.charges[1]
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
    of each entry of W read off the charges.  Where every bond holds at most
    one Schmidt vector per charge (no charge repeats on a bond: every
    condensate and Fock state), the mask is the identity and the
    environments are diagonal (`_diagonal_occupations`).  Otherwise, as for
    a two-sum state, L and R are the masked environments of `_left_envs` and
    `_right_envs`.
    """
    if all(len(set(q.tolist())) == q.shape[0] for q in state.charges):
        return _diagonal_occupations(state)
    rights = list(_right_envs(state))[::-1]  # R[0], ..., R[N]
    out = np.empty(state.n_sites)
    for k, (left, w) in enumerate(zip(_left_envs(state), state.ws)):
        level = _levels(state.charges[k], state.charges[k + 1])
        out[k] = np.sum(w.conj() * (left @ w @ rights[k + 1]) * level).real
    return out


def _diagonal_occupations(state: BlockDecimationState) -> np.ndarray:
    """`occupations` of a state with one Schmidt vector per charge on every bond.

    L[k] and R[k] are then the diagonals l_k and r_k, and with the real
    P = |W|^2 of each site, l_k = l_{k-1} P, r_{k-1} = P r_k and
    <n_k> = l_{k-1} (P o (q_in[a] - q_out[b])) r_k.  Every term is
    nonnegative, so nothing cancels, even on sites far below one boson; no
    canonical form is assumed, so truncated states are exact too.
    """
    ps = [(w * w.conj()).real for w in state.ws]
    right = [np.ones(1)]  # r_N, r_{N-1}, ..., r_1
    for p in ps[:0:-1]:
        right.append(p @ right[-1])
    qs = state.charges
    out = np.empty(state.n_sites)
    env = np.ones(1)
    for k, (p, r) in enumerate(zip(ps, right[::-1])):
        out[k] = env @ (p * np.subtract.outer(qs[k], qs[k + 1])) @ r
        env = env @ p
    return out


def schmidt_values(state: BlockDecimationState, bond: int) -> np.ndarray:
    """Bond-`bond` Schmidt values, descending."""
    if not (1 <= bond <= state.n_sites - 1):
        raise ValidationError(f"bond {bond} outside chain")
    return np.sort(state.lambdas[bond])[::-1]


def reduced_density_two_sites(state: BlockDecimationState, k: int, l: int) -> np.ndarray:
    """rho_{k,l} of the adjacent sites k and l = k + 1 (1-based) as number
    blocks; any other pair raises.

    rho conserves n_k + n_l, so it is returned as the (d, d, d) array
    rho[n, i, i'] = <i, n-i| rho |i', n-i'>, n = 0..M, 0 where i > n or i' > n.
    theta[a, i, b] is site k split into its levels i times W of site l; the
    outer charges give the pair's count n = q_{k-1}(a) - q_l(b), so site l
    sits at level n - i, and theta is exactly 0 where i > n.  rho[n] is one
    product (L[k-1] theta R[l]) theta^dag over the columns (a, b) of that n
    (`_number_blocks`): L[k-1] contracts the sites left of the pair and R[l]
    those right of it, so no canonical form is assumed.  The writers take
    mode vectors, so a pair that is not adjacent is read from a state built
    with the pair moved next to each other.
    """
    if not (1 <= k < state.n_sites and l == k + 1):
        raise ValidationError(f"need adjacent sites 1 <= k < l = k + 1 <= N, got ({k}, {l})")
    d = state.local_dim
    left = next(islice(_left_envs(state), k - 1, None))
    right = next(islice(_right_envs(state), state.n_sites - l, None))
    theta = _split_levels(state, k - 1) @ state.ws[k]
    # L is indexed (bra, ket) and R (ket, bra); both are block-diagonal in
    # the outer charges, so a column (a, b) of ket keeps its n
    ket = np.tensordot(left, theta @ right, axes=(1, 0)).transpose(1, 0, 2).reshape(d, -1)
    bra = theta.transpose(1, 0, 2).reshape(d, -1).conj()
    return _number_blocks(ket, bra, _levels(state.charges[k - 1], state.charges[l]).reshape(-1))


def _number_blocks(ket: np.ndarray, bra: np.ndarray, pair_n: np.ndarray) -> np.ndarray:
    """rho[n] = ket[:, cols] bra[:, cols]^T over the columns of pair count
    pair_n = n, for n = 0..d-1 (d = ket's rows), divided by the summed trace;
    columns with n < 0 drop out.  The columns are sorted by n once, so each
    n is one product of two slices."""
    d = ket.shape[0]
    order = np.argsort(pair_n, kind="stable")
    # the columns with n < 0 sort before bounds[0] and drop out
    bounds = np.searchsorted(pair_n[order], np.arange(d + 1)).tolist()
    ket, bra = ket[:, order], bra[:, order].T
    rho = np.empty((d, d, d), dtype=complex)
    for n in range(d):
        cols = slice(bounds[n], bounds[n + 1])
        np.matmul(ket[:, cols], bra[cols], out=rho[n])
    rho /= np.trace(rho, axis1=1, axis2=2).sum().real
    return rho


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


def _chi_max(m_total: int, chi_max: int | None) -> int:
    return 4 * (m_total + 1) if chi_max is None else chi_max


def _unit_mode(c) -> np.ndarray:
    """The mode c / |c|, checked to be finite and nonzero.

    c is first scaled by the power of two that brings its largest entry into
    [1/2, 1): an exact step, so |c|^2 neither overflows nor underflows, and
    a mode whose norm needs no scaling keeps its bits.  A peak below 2^-1023
    is scaled by 2^1023 only (2^1024 overflows), which leaves it above 2^-52.
    """
    c = _coeffs(c)
    if not np.isfinite(c).all():
        raise ValidationError("mode vectors must be finite")
    peak = np.max(np.abs(c), initial=0.0)
    if peak == 0.0:
        raise ValidationError("cannot fold a zero vector: modes must be nonzero")
    c = c * math.ldexp(1.0, -max(int(np.frexp(peak)[1]), -1023))
    return c / np.linalg.norm(c)


def _condensate_fold(modes, m: int):
    """The unit modes as rows and the fold's bond angles of each, (states, N-1),
    or None for no modes.

    The fold rotates on bonds N-1 down to 1 by 2 atan2(|c_{>k}|, |c_k|) after
    it strips the phases arg c_k, so its inverse, written in closed form,
    rotates |M, 0, ..., 0> on bonds 1..N-1 by the negated angles and then
    puts on the phases -arg c_k.  The modes must be finite and nonzero and
    share one length, and m must be >= 0; every mode is checked first.
    """
    cs = [_unit_mode(c) for c in modes]
    if m < 0:
        raise ValidationError(f"boson count must be >= 0, got {m}")
    if not cs:
        return None
    if len({c.shape[0] for c in cs}) > 1:
        raise ValidationError("condensate modes must share one length")
    cs = np.array(cs)
    r = np.abs(cs)
    # |c_{>k}| for k = 1..N-1, accumulated from the right as the fold does
    tails = np.hypot.accumulate(r[:, :0:-1], axis=1)[:, ::-1]
    return cs, -2.0 * np.arctan2(tails, r[:, :-1])


def _vacuum_start(rows: int, m: int) -> np.ndarray:
    """lam^2 rows over the charges 0..m of bond 0: all of it on charge m."""
    start = np.zeros((rows, m + 1))
    start[:, m] = 1.0
    return start


def condensate_states(modes, m: int, *, chi_max: int | None = None,
                      trunc_tol: float = 1e-12):
    """MPS of the single-condensate state (sum_k c_k a_k^dag)^M |0> (normalized)
    of each mode c in `modes`, yielded in input order.

    Each build is one row of `_vacuum_rotations`, run with the closed-form
    inverse fold of its mode (`_condensate_fold`).  The keep pass of every
    mode runs at the first `next`, after every mode is checked (finite,
    nonzero, one length; m >= 0), and each state is written only when it is
    yielded, so a caller that keeps one state at a time holds at most two.
    """
    fold = _condensate_fold(modes, m)
    if fold is None:
        return
    cs, angles = fold
    chi_max = _chi_max(m, chi_max)
    for ws, lambdas, charges, discarded in _vacuum_rotations(
            m, angles, -np.angle(cs), chi_max, trunc_tol):
        yield BlockDecimationState(
            ws=ws, lambdas=[np.ones(1), *lambdas, np.ones(1)],
            charges=[np.array([m]), *charges, np.zeros(1, dtype=int)],
            chi_max=chi_max, trunc_tol=trunc_tol, discarded_weight=discarded)


def _charge_window(mask: np.ndarray) -> slice:
    """The charges from the lowest to the highest that some row of the
    (rows, charges) mask holds."""
    held = mask.any(axis=0)
    return slice(int(held.argmax()), held.shape[0] - int(held[::-1].argmax()))


def condensate_occupations(modes, m: int, *, chi_max: int | None = None,
                           trunc_tol: float = 1e-12) -> np.ndarray:
    """(len(modes), N) site occupations <n_k> of the states that
    `condensate_states` yields for the same arguments, with no W written.

    Every bond of those states holds one Schmidt vector per kept charge, so
    their environments are the diagonal rows of `_diagonal_occupations`,
    here over the whole charge axis 0..m.  The left row of bond t is the
    kept, renormalized lam^2 row of the keep pass (bond 0: 1 at charge m),
    and site t's P = |W|^2 is rot_t^2 / norm_t^2 on the kept charges of its
    two bonds, whatever the phases.  One backward sweep over every state at
    once carries r_t = P_t r_{t+1} from the vacuum past the run and gives
    <n_t> = l_t (P_t o (r - p)) r_{t+1}: every term is nonnegative, and no
    canonical form is assumed.  The modes and m are checked as
    `condensate_states` checks them, with the same errors, and no modes give
    an empty (0, 0) array.
    """
    fold = _condensate_fold(modes, m)
    if fold is None:
        return np.zeros((0, 0))
    _, angles = fold
    rows, bonds = angles.shape
    start = _vacuum_start(rows, m)
    kept, lam, norm, _ = _keep_pass(start, angles, _chi_max(m, chi_max), trunc_tol)
    level = _charge_axis(m + 1)[1]
    # the last site rotates into the vacuum past the run: a rotation by 0
    angles = np.append(angles, np.zeros((rows, 1)), axis=1)
    # per bond, the charges that some state keeps (bond 0: m alone)
    window = [slice(m, m + 1)] + [_charge_window(kept[:, b]) for b in range(bonds + 1)]
    out = np.empty((rows, bonds + 1))
    right = np.ones((rows, 1))  # the vacuum bond: 1 at charge 0
    for t in range(bonds, -1, -1):
        r, p = window[t], window[t + 1]
        # P_t's mask and 1 / norm_t^2 act on its columns, so r_{t+1} takes them
        right = np.where(kept[:, t, p], right / norm[:, t, None] ** 2, 0.0)[:, :, None]
        site = _rotation_weights(angles[:, t], m, r, p)
        left = lam[:, t - 1, r] ** 2 if t else start[:, r]
        out[:, t] = np.matmul(left[:, None, :], np.matmul(site * level[r, p], right))[:, 0, 0]
        right = np.matmul(site, right)[:, :, 0]
    return out


def condensate_state(c, m: int, *, chi_max: int | None = None,
                     trunc_tol: float = 1e-12) -> BlockDecimationState:
    """MPS of the single-condensate state (sum_k c_k a_k^dag)^M |0> (normalized):
    `condensate_states` of one mode."""
    return next(condensate_states([c], m, chi_max=chi_max, trunc_tol=trunc_tol))


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


def _frame_rotation(vecs: np.ndarray, charges: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Vectors over the F-frame states |q - m, m> (rows of vecs, each with its
    charge q and its frame's angle theta) over the H-frame states |q - m', m'>.

    The rotation is the charge-q block of the real pair rotation
    e^{-i theta Q} at rows n_1 = q - m: with the sector's eigenbasis
    (`_sector_eigh`), y = X^T v and v' = X cos(theta mu) y + X' sin(theta mu) y.
    The vectors of one charge go through one batched product in which each
    vector, its real and imaginary parts, is a (q+1, 2) matrix of its own, so
    no vector's bits depend on the vectors rotated with it.
    """
    width = vecs.shape[1]
    out = np.zeros_like(vecs)
    order = np.argsort(charges, kind="stable")
    bounds = np.searchsorted(charges[order], np.arange(width + 1)).tolist()
    for q, (x, xs, mu) in enumerate(_sector_eigh(width)):
        idx = order[bounds[q]:bounds[q + 1]]
        if idx.size == 0:
            continue
        v = vecs[idx, q::-1].view(np.float64).reshape(-1, q + 1, 2)  # n_1 = q - m ascending
        y = np.ascontiguousarray(x.T) @ v
        angle = (angles[idx, None] * mu)[..., None]
        rot = x @ (y * np.cos(angle)) + xs @ (y * np.sin(angle))
        out[idx, q::-1] = rot.view(complex)[..., 0]
    return out


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
    return vec


class _FrameBond(NamedTuple):
    """The kept Schmidt vectors of one bond of every pair, pair after pair, as
    the factors that the sites on either side of the bond take (`_frame_sites`)."""
    starts: np.ndarray  # vectors starts[i]:starts[i+1] belong to pair i
    charges: np.ndarray
    lam: np.ndarray
    # (vector, M+1), for the site left of the bond: the conjugated V^dag row
    # over the frame states |p-m, m>_F times tails[p, m] over the kept norm
    # (no columns on bond 0, which has no site on its left)
    left: np.ndarray
    # (vector, M+1), for the site right of the bond: the vector over that
    # site's H-frame states |q-m, m> times sqrt((q-m)!), 0 for m > q
    right: np.ndarray


class _FramePass(NamedTuple):
    """What `_frame_keep_pass` keeps of every pair: its bonds and site factors."""
    bonds: list  # _FrameBond per bond 0..N-1
    fn: np.ndarray  # (pair, site, n): u^n / sqrt(n!), see `_frames`
    discarded: np.ndarray


def _tails(ft: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """[..., p, m] = ft[p - m] fw[m] for m <= p, else 0: the factor of the new
    frame state |p - m, m> in the closed form of a site's step."""
    _, level, below, _ = _charge_axis(ft.shape[-1])
    return np.where(below, ft[..., level] * fw[..., None, :], 0)


def _frame_keep_pass(zs, cs, m1: int, m2: int, chi_max: int, trunc_tol: float) -> _FramePass:
    """Every bond of every pair, left to right, as `apply_two` would keep it
    (`_frame_bond`).  Each bond's vectors turn into the next site's H frame
    once, in one `_frame_rotation` call for the whole batch, which gives the
    bond's `right` factor and, through it, the bond after it: a batch of
    N-site pairs makes N calls."""
    pairs, n = zs.shape
    m = m1 + m2
    width = m + 1
    theta, u, t, w, alpha, beta = _frames(zs, cs)
    powers = np.ones((3, pairs, n, width), dtype=complex)
    powers[..., 1:] = np.stack([u, t, w])[..., None]
    un, tn, fw = np.cumprod(powers, axis=-1)
    _, level, below, sqrt_fact = _charge_axis(width)
    fn, ft = un.real / sqrt_fact, tn / sqrt_fact
    starts, charges, lam = np.arange(pairs + 1), np.full(pairs, m), np.ones(pairs)
    vectors, left = _frame_start(alpha, beta, m1, m2), np.zeros((pairs, 0), dtype=complex)
    bonds = []
    discarded = np.zeros(pairs)
    for k in range(n):
        x = _frame_rotation(vectors, charges, np.repeat(theta[:, k], np.diff(starts)))
        bonds.append(_FrameBond(starts, charges, lam, left,
                                np.where(below[charges], x * sqrt_fact[level[charges]], 0)))
        if k + 1 < n:
            (starts, charges, lam, vectors, left), dropped = _frame_bond(
                bonds[-1], fn[:, k], _tails(ft[:, k], fw[:, k]), chi_max, trunc_tol)
            discarded += dropped
    return _FramePass(bonds, fn, discarded)


def _frame_bond(bond: _FrameBond, fn: np.ndarray, tails: np.ndarray,
                chi_max: int, trunc_tol: float):
    """The next bond of every pair, and the weights its truncation discards.

    Its block of charge p holds one row per kept vector a of `bond` with
    q_a >= p (site level n = q_a - p), lam_a fn[n] right_a[m] tails[p, m]
    over m = 0..p: the lam-weighted block of the state that the earlier
    bonds' truncations left.  Its singular values are the Schmidt values of
    charge p and its V^dag rows the new vectors over the F-frame states.  A
    block of one row or one column is its norm.  The others are padded with
    zero rows to the power of two at or above their own rows and go through
    one SVD call per charge and height; so no block's decomposition depends
    on the pairs batched with it, and the row of every pair, p + 1 slots per
    charge, goes through `_truncate`.  Returns the new bond's starts,
    charges, Schmidt values, V^dag rows and `left` factor, then the
    discarded weights.
    """
    pairs, width = fn.shape
    _, level, below, _ = _charge_axis(width)
    charge = np.arange(width)
    slot0 = np.append(0, np.cumsum(charge + 1))
    starts, q, right = bond.starts, bond.charges, bond.right
    pt = np.repeat(np.arange(pairs), np.diff(starts))
    weights = np.where(below[q], bond.lam[:, None] * fn[pt[:, None], level[q]], 0)
    counts = np.bincount(pt * width + q, minlength=pairs * width).reshape(pairs, width)
    rows = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]  # vectors of charge >= p
    # each block's SVD stack: the power of two at or above its rows
    height = 2 ** np.ceil(np.log2(np.maximum(rows, 1))).astype(int)
    # each pair's vectors right-aligned: its rows of charge >= p are its last
    # rows[:, p]; rows[:, 0] counts them all, so the largest stack holds them
    depth = int(height.max())
    place = pt * depth + depth - starts[pt + 1] + np.arange(q.shape[0])
    aligned = np.zeros((pairs * depth, width), dtype=complex)
    aligned[place] = right
    aligned = aligned.reshape(pairs, depth, width)
    aligned_w = np.zeros((pairs * depth, width))
    aligned_w[place] = weights
    aligned_w = aligned_w.reshape(pairs, depth, width)
    s_all = np.zeros((pairs, slot0[-1]))
    vh_all = np.zeros((pairs, slot0[-1], width), dtype=complex)
    # charge 0 has one column, whose norm is its Schmidt value
    s_all[:, 0] = np.sqrt(np.add.reduceat(np.abs(weights[:, 0] * right[:, 0]) ** 2,
                                          starts[:-1])) * np.abs(tails[:, 0, 0])
    vh_all[:, 0, 0] = 1.0
    one_p, one_c = np.nonzero(rows[:, 1:] == 1)
    one_c += 1
    row = aligned_w[one_p, -1, one_c, None] * aligned[one_p, -1] * tails[one_p, one_c]
    s = np.linalg.norm(row, axis=1)
    s_all[one_p, slot0[one_c]] = s
    vh_all[one_p, slot0[one_c]] = row / np.where(s > 0, s, 1.0)[:, None]
    for p in range(1, width):
        for h in sorted(set(height[:, p].tolist()) - {1}):  # one row or none: done above
            grp = np.flatnonzero(height[:, p] == h)
            blk = (aligned_w[grp, -h:, p, None] * aligned[grp, -h:, :p + 1]
                   * tails[grp, p, None, :p + 1])
            _, s, vh = np.linalg.svd(blk, full_matrices=False)
            kept = min(h, p + 1)
            s_all[grp, slot0[p]:slot0[p] + kept] = s[:, :kept]
            vh_all[grp, slot0[p]:slot0[p] + kept, :p + 1] = vh[:, :kept]
    kept, norm, dropped = _truncate(s_all, np.sum(s_all**2, axis=1), chi_max, trunc_tol)
    pt, col = np.nonzero(kept)
    p, vh = np.repeat(charge, charge + 1)[col], vh_all[pt, col]
    left = vh.conj() * tails[pt, p]
    left /= norm[pt, None]
    return (np.searchsorted(pt, np.arange(pairs + 1)), p, s_all[pt, col] / norm[pt], vh,
            left), dropped


def _frame_sites(fp: _FramePass, i: int) -> list:
    """The matrices W of pair i (`_frame_site`), site by site."""
    spans = [slice(bond.starts[i], bond.starts[i + 1]) for bond in fp.bonds]
    fn = np.concatenate([fp.fn[i], np.zeros_like(fp.fn[i])], axis=1)
    return [_frame_site(fp, spans, fn, k) for k in range(len(fp.bonds))]


def _frame_site(fp: _FramePass, spans: list, fn: np.ndarray, k: int) -> np.ndarray:
    """W of site k+1 of the pair whose vectors on bond b are spans[b]:
    site k+1 takes the `right` factors of bond k and the `left` factors of
    bond k+1, W[a, b] = fn[k, q_a - p_b] sum_m right_a[m] left_b[m], 0 for
    q_a < p_b: the unweighted block rows of bond k+1 (see `_frame_bond`)
    times V.  The last site's right bond is the vacuum, charge 0, so its W
    is the m = 0 column of right times fn[k, q_a].  fn holds the pair's rows
    of `_FramePass.fn` padded with as many zeros, so a level below 0 reads 0.
    """
    bond, span = fp.bonds[k], spans[k]
    right, q = bond.right[span], bond.charges[span]
    if k + 1 == len(fp.bonds):
        return right[:, :1] * fn[k][q][:, None]
    after, b = fp.bonds[k + 1], spans[k + 1]
    w = right @ after.left[b].T
    w *= fn[k][q[:, None] - after.charges[b]]  # a level below 0 reads the zero tail
    return w


def _checked_pairs(pairs, m1: int, m2: int):
    """The unit modes of every pair (z, c) as the rows of two arrays, or None
    for no pairs.  Every pair is checked before anything is built: finite,
    nonzero modes of one length, and m1, m2 >= 1."""
    zs, cs = [], []
    for z, c in pairs:
        z, c = _unit_mode(z), _unit_mode(c)
        if z.shape != c.shape:
            raise ValidationError(f"mode vectors differ in length: {z.shape} vs {c.shape}")
        zs.append(z)
        cs.append(c)
    if m1 < 1 or m2 < 1:
        raise ValidationError("boson counts must be >= 1")
    if not zs:
        return None
    if len({z.shape[0] for z in zs}) > 1:
        raise ValidationError("mode pairs must share one length")
    return np.array(zs), np.array(cs)


def two_sum_states(pairs, m1: int, m2: int, *, chi_max: int | None = None,
                   trunc_tol: float = 1e-12):
    """MPS of (sum c a^dag)^M2 (sum z a^dag)^M1 |0> (normalized) of each pair
    (z, c), yielded in input order.

    Built in two-mode frames (see above): every pair's bonds come from one
    keep pass (`_frame_keep_pass`), which truncates each bond of the state
    that the earlier bonds left, as the gate replay does, and batches each
    bond's SVDs over the pairs.  Every pair is checked before anything is
    built (`_checked_pairs`): the modes must be finite and nonzero, and the
    pairs must share one length.  The keep pass records, for each bond of
    each pair, the factors that the sites on either side of it take, and a
    state's sites are written from them, one product per site, only when it
    is yielded (`_frame_sites`), so a caller that keeps one state at a time
    holds, besides that record, at most two.
    """
    checked = _checked_pairs(pairs, m1, m2)
    if checked is None:
        return
    zs, cs = checked
    chi_max = _chi_max(m1 + m2, chi_max)
    fp = _frame_keep_pass(zs, cs, m1, m2, chi_max, trunc_tol)
    for i in range(len(zs)):
        spans = [slice(bond.starts[i], bond.starts[i + 1]) for bond in fp.bonds]
        yield BlockDecimationState(
            ws=_frame_sites(fp, i),
            lambdas=[*(bond.lam[span].copy() for bond, span in zip(fp.bonds, spans)), np.ones(1)],
            charges=[*(bond.charges[span].copy() for bond, span in zip(fp.bonds, spans)),
                     np.zeros(1, dtype=int)],
            chi_max=chi_max, trunc_tol=trunc_tol, discarded_weight=float(fp.discarded[i]))


def end_pair_densities(pairs, m1: int, m2: int, *, chi_max: int | None = None,
                       trunc_tol: float = 1e-12):
    """rho_{1,2} of each pair's two-sum state as number blocks (see
    `reduced_density_two_sites`), with its discarded weight: (rho, weight)
    yielded in input order, and no state written.

    The pairs are checked and every bond is kept as `two_sum_states` does,
    in one keep pass, so each weight is that of the state it would yield.
    The kept vectors of bond 2 are V^dag rows over the frame states right of
    it, orthonormal, so R[2] = 1: rho is theta theta^dag over the columns b
    of bond 2, of pair count n = M - q_2(b), with theta site 1 split into its
    levels times W of site 2, both written from the records of bonds 0..2
    (`_frame_site`).  That is the end pair of the state truncated at bonds 1
    and 2 alone; the state that `two_sum_states` yields differs from it by
    what bonds 3..N-1 discard.  No W of sites 3..N is written, no right
    environment contracted and no state made, and each rho is formed at its
    pair's own shapes, so it does not depend on the pairs built with it.
    """
    checked = _checked_pairs(pairs, m1, m2)
    if checked is None:
        return
    zs, cs = checked
    m = m1 + m2
    fp = _frame_keep_pass(zs, cs, m1, m2, _chi_max(m, chi_max), trunc_tol)
    fn = np.concatenate([fp.fn[:, :2], np.zeros_like(fp.fn[:, :2])], axis=2)
    for i in range(zs.shape[0]):
        spans = [slice(bond.starts[i], bond.starts[i + 1]) for bond in fp.bonds[:3]]
        w1, w2 = (_frame_site(fp, spans, fn[i], k) for k in (0, 1))
        # site 1 holds M - q_1(a) bosons; right of bond 2 (the vacuum when N = 2) q_2(b)
        q1 = fp.bonds[1].charges[spans[1]]
        q2 = fp.bonds[2].charges[spans[2]] if len(spans) > 2 else np.zeros(1, dtype=int)
        split = np.zeros((m + 1, q1.shape[0]), dtype=complex)
        split[m - q1, np.arange(q1.shape[0])] = w1[0]
        theta = split @ w2
        yield _number_blocks(theta, theta.conj(), m - q2), float(fp.discarded[i])


def two_sum_state(z, c, m1: int, m2: int, *, chi_max: int | None = None,
                  trunc_tol: float = 1e-12) -> BlockDecimationState:
    """MPS of (sum c a^dag)^M2 (sum z a^dag)^M1 |0> (normalized):
    `two_sum_states` of one pair."""
    return next(two_sum_states([(z, c)], m1, m2, chi_max=chi_max, trunc_tol=trunc_tol))

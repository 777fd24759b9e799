"""Folding: collapse condensate sums onto the first mode.

A plan is a fixed schedule of per-site phase strips followed by two-mode
rotations on bonds N-1 down to 1.  Under e^{-i phi Q_k} with
Q_k = (a_{k+1}^dag a_k - a_k^dag a_{k+1})/(2i) a coefficient pair maps as

    c_{k+1} -> c_{k+1} cos(phi/2) - c_k sin(phi/2)
    c_k     -> c_{k+1} sin(phi/2) + c_k cos(phi/2)

so tan(phi/2) = c_{k+1}/c_k cancels the upper coefficient.  Angles live in
[-pi, pi]: the closed interval is required so that negating phi = pi (the
inverse plan) stays representable; rotations have period 4*pi in phi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PLAN_TOL = 1e-12
_ZERO = 1e-300  # both-coefficients-zero guard inside fold loops


@dataclass(frozen=True)
class PhaseOp:
    """Single-mode phase e^{-i theta n_k} on site `site` (1-based)."""

    site: int
    angle: float


@dataclass(frozen=True)
class PairRotationOp:
    """Two-mode rotation e^{-i phi Q_k} on bond `bond` = modes (k, k+1)."""

    bond: int
    angle: float


@dataclass(frozen=True)
class FoldPlan:
    """Ordered elementary ops mapping a source mode vector to e_1."""

    ops: tuple
    n_modes: int
    target_mode: int = 1


@dataclass(frozen=True)
class TwoSumPlan:
    """Folding data for a two-condensate product state.

    plan1 folds the inner sum; plan2_partial folds the transformed outer sum
    down to modes {1, 2} (phases on all sites, rotations on bonds N-1..2
    only); the final bond-1 rotation is kept separate as `bridging_angle`.
    """

    plan1: FoldPlan
    plan2_partial: FoldPlan
    bridging_angle: float
    m1: int
    m2: int

    @property
    def site1_phase(self) -> float:
        """Phase stripped from mode 1 of the outer sum by plan2_partial."""
        for op in self.plan2_partial.ops:
            if isinstance(op, PhaseOp) and op.site == 1:
                return op.angle
        return 0.0


def _coeffs(c) -> np.ndarray:
    if hasattr(c, "coefficients"):
        c = c.coefficients
    return np.asarray(c, dtype=complex)


def pair_rotation_angle(c_k: float, c_k1: float) -> float:
    """Angle cancelling the upper coefficient of a phase-stripped real pair."""
    if c_k == 0.0 and c_k1 == 0.0:
        raise ValidationError("rotation angle undefined for a zero pair")
    return 2.0 * math.atan2(c_k1, c_k)


def _strip_and_rotate(c: np.ndarray, last_bond: int):
    """Phase strips on every site, then rotations on bonds N-1 down to `last_bond`.

    Returns the ops and the moduli left on the modes afterwards.
    """
    n = c.shape[0]
    ops = [PhaseOp(site=k + 1, angle=float(np.angle(c[k]))) for k in range(n)]
    r = np.abs(c)
    for k in range(n - 2, last_bond - 2, -1):  # bond k+1 in 1-based terms
        if r[k] < _ZERO and r[k + 1] < _ZERO:
            phi = 0.0
        else:
            phi = 2.0 * math.atan2(r[k + 1], r[k])
        ops.append(PairRotationOp(bond=k + 1, angle=phi))
        r[k] = math.hypot(r[k], r[k + 1])
        r[k + 1] = 0.0
    return ops, r


def fold_single(c) -> FoldPlan:
    """Plan collapsing a nonzero mode vector onto mode 1.

    Fixed schedule of length 2N-1: phases on sites 1..N, then rotations on
    bonds N-1 down to 1 (zero angles kept explicit).
    """
    c = _coeffs(c)
    if np.linalg.norm(c) == 0.0:
        raise ValidationError("cannot fold the zero vector")
    ops, _ = _strip_and_rotate(c, 1)
    return FoldPlan(ops=tuple(ops), n_modes=c.shape[0])


def apply_op_to_modes(op, v: np.ndarray) -> np.ndarray:
    v = v.copy()
    if isinstance(op, PhaseOp):
        v[op.site - 1] *= np.exp(-1j * op.angle)
    elif isinstance(op, PairRotationOp):
        k = op.bond - 1
        half = 0.5 * op.angle
        ck, ck1 = v[k], v[k + 1]
        v[k + 1] = ck1 * math.cos(half) - ck * math.sin(half)
        v[k] = ck1 * math.sin(half) + ck * math.cos(half)
    else:
        raise ValidationError(f"unknown op {op!r}")
    return v


def apply_plan_to_modes(plan: FoldPlan, v) -> np.ndarray:
    """Transform a mode vector by each op of the plan, in order."""
    v = _coeffs(v)
    if v.shape[0] != plan.n_modes:
        raise ValidationError(
            f"plan acts on {plan.n_modes} modes, vector has {v.shape[0]}"
        )
    for op in plan.ops:
        v = apply_op_to_modes(op, v)
    return v


def invert_plan(plan: FoldPlan) -> FoldPlan:
    """Reverse the op order and negate every angle."""
    inv = []
    for op in reversed(plan.ops):
        if isinstance(op, PhaseOp):
            inv.append(PhaseOp(site=op.site, angle=-op.angle))
        else:
            inv.append(PairRotationOp(bond=op.bond, angle=-op.angle))
    return FoldPlan(ops=tuple(inv), n_modes=plan.n_modes, target_mode=plan.target_mode)


def fold_two(z, c, m1: int, m2: int) -> TwoSumPlan:
    """Folding data for (sum c a^dag)^M2 (sum z a^dag)^M1 |0>.

    plan1 folds z; the transformed outer vector c' = plan1(c) is then folded
    onto span{e_1, e_2} with phases on every site and rotations on bonds
    N-1..2, leaving the single bond-1 rotation as the bridging angle.
    """
    z = _coeffs(z)
    c = _coeffs(c)
    if z.shape != c.shape:
        raise ValidationError(f"mode vectors differ in length: {z.shape} vs {c.shape}")
    if np.linalg.norm(z) == 0.0 or np.linalg.norm(c) == 0.0:
        raise ValidationError("cannot fold a zero vector")
    if m1 < 1 or m2 < 1:
        raise ValidationError("boson counts must be >= 1")
    n = z.shape[0]
    plan1 = fold_single(z)
    c1 = apply_plan_to_modes(plan1, c)

    ops, r = _strip_and_rotate(c1, 2)  # bonds N-1 .. 2, never bond 1
    plan2 = FoldPlan(ops=tuple(ops), n_modes=n)
    bridging = pair_rotation_angle(r[0], r[1])
    return TwoSumPlan(plan1=plan1, plan2_partial=plan2, bridging_angle=bridging,
                      m1=m1, m2=m2)


def plan_to_text(plan: FoldPlan) -> str:
    """One op per line: `P site theta` or `R bond phi` (17 significant digits)."""
    lines = [f"N {plan.n_modes}"]
    for op in plan.ops:
        if isinstance(op, PhaseOp):
            lines.append(f"P {op.site} {op.angle:.17g}")
        else:
            lines.append(f"R {op.bond} {op.angle:.17g}")
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> FoldPlan:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("N "):
        raise ValidationError("plan text must start with an `N <modes>` line")
    n = int(lines[0].split()[1])
    ops = []
    for ln in lines[1:]:
        kind, idx, angle = ln.split()
        if kind == "P":
            ops.append(PhaseOp(site=int(idx), angle=float(angle)))
        elif kind == "R":
            ops.append(PairRotationOp(bond=int(idx), angle=float(angle)))
        else:
            raise ValidationError(f"unknown plan op kind {kind!r}")
    return FoldPlan(ops=tuple(ops), n_modes=n)

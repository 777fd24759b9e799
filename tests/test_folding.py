import numpy as np
import pytest

from bosefold.errors import ValidationError
from bosefold.folding import (FoldPlan, PairRotationOp, PhaseOp, apply_plan_to_modes,
                              fold_single, fold_two, invert_plan, pair_rotation_angle,
                              plan_from_text, plan_to_text)


def _random_mode(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return c / np.linalg.norm(c)


def test_fold_single_schedule_shape():
    plan = fold_single(_random_mode(7, 0))
    assert len(plan.ops) == 2 * 7 - 1
    assert all(isinstance(op, PhaseOp) for op in plan.ops[:7])
    rots = plan.ops[7:]
    assert [op.bond for op in rots] == [6, 5, 4, 3, 2, 1]


def test_fold_single_collapses_to_e1():
    for seed in range(5):
        c = _random_mode(6, seed)
        plan = fold_single(c)
        folded = apply_plan_to_modes(plan, c)
        target = np.zeros(6)
        target[0] = 1.0
        assert np.max(np.abs(folded - target)) < 1e-12


def test_fold_single_handles_zeros():
    # (mode, bond N-1 angle): a pair of exact zeros takes no rotation, while a
    # pair of subnormals is rotated like any other pair
    for c, last_angle in [([0.0, 0.0, 1.0, 0.0], 0.0),
                          ([0.0, 1.0, 1e-310, 1e-310], np.pi / 2)]:
        c = np.array(c, dtype=complex)
        plan = fold_single(c)
        assert plan.ops[c.shape[0]].bond == c.shape[0] - 1
        assert plan.ops[c.shape[0]].angle == pytest.approx(last_angle, abs=1e-15)
        folded = apply_plan_to_modes(plan, c)
        assert abs(folded[0] - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        fold_single(np.zeros(4))


def test_angles_within_closed_range():
    for seed in range(4):
        plan = fold_single(_random_mode(8, seed))
        for op in plan.ops:
            assert -np.pi <= op.angle <= np.pi


def test_invert_plan_roundtrip():
    c = _random_mode(5, 42)
    plan = fold_single(c)
    back = apply_plan_to_modes(invert_plan(plan), apply_plan_to_modes(plan, c))
    assert np.max(np.abs(back - c)) < 1e-12


def test_pair_rotation_angle():
    assert pair_rotation_angle(1.0, 0.0) == 0.0
    assert pair_rotation_angle(0.0, 1.0) == pytest.approx(np.pi)
    with pytest.raises(ValidationError):
        pair_rotation_angle(0.0, 0.0)


def test_fold_two_structure():
    z = _random_mode(6, 1)
    c = _random_mode(6, 2)
    two = fold_two(z, c, 2, 3)
    assert two.m1 == 2 and two.m2 == 3
    bonds = [op.bond for op in two.plan2_partial.ops if isinstance(op, PairRotationOp)]
    assert 1 not in bonds  # bond 1 is held out as the bridging rotation
    # partial plan + bridge collapse the transformed outer mode onto e_1
    c1 = apply_plan_to_modes(two.plan2_partial, apply_plan_to_modes(two.plan1, c))
    pair = np.array([c1[0], c1[1]])
    half = 0.5 * two.bridging_angle
    upper = pair[1] * np.cos(half) - pair[0] * np.sin(half)
    lower = pair[1] * np.sin(half) + pair[0] * np.cos(half)
    assert abs(upper) < 1e-12
    assert abs(abs(lower) - 1.0) < 1e-12


def test_fold_two_input_checks():
    z = _random_mode(4, 3)
    with pytest.raises(ValidationError):
        fold_two(z, _random_mode(5, 4), 1, 1)
    with pytest.raises(ValidationError):
        fold_two(z, np.zeros(4), 1, 1)
    with pytest.raises(ValidationError):
        fold_two(z, z, 0, 1)


def test_plan_text_roundtrip():
    plan = fold_single(_random_mode(5, 7))
    back = plan_from_text(plan_to_text(plan))
    assert back.n_modes == plan.n_modes
    assert back.ops == plan.ops


def test_plan_text_rejects_garbage():
    with pytest.raises(ValidationError):
        plan_from_text("bogus\n")
    with pytest.raises(ValidationError):
        plan_from_text("N 3\nX 1 0.5\n")


def test_apply_plan_length_check():
    plan = FoldPlan(ops=(), n_modes=4)
    with pytest.raises(ValidationError):
        apply_plan_to_modes(plan, np.ones(3, dtype=complex))

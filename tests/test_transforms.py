import dataclasses
import itertools

import numpy as np
import pytest

from compound_kge.errors import SingularOperatorError
from compound_kge.transforms import (
    OperatorKind,
    TransformParams,
    apply_chain,
    apply_rotation,
    apply_scaling,
    apply_translation,
    chain_backward,
    chain_block_matrices,
    chain_forward_tape,
    chain_from_string,
    compound_matrix_2d,
    invert_blocks,
    invert_compound_2d,
)

from oracles import block_matrix, block_transform, central_differences, random_transform

T, R, S = OperatorKind.TRANSLATION, OperatorKind.ROTATION, OperatorKind.SCALING

ALL_ORDERS = list(itertools.permutations([T, R, S]))
# every ordered subset of {T, R, S}, the empty chain included (16 chains)
ALL_CHAINS = [c for k in range(4) for c in itertools.permutations([T, R, S], k)]


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------

def test_translation_identity():
    np.testing.assert_array_equal(apply_translation([1.0, 2.0], [0.0, 0.0]), [1.0, 2.0])


def test_translation_elementwise():
    np.testing.assert_array_equal(apply_translation([1.0, 2.0], [3.0, -1.0]), [4.0, 1.0])


def test_translation_matches_block_matrix_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=64)
    t = rng.normal(size=64)
    params = TransformParams(t, np.zeros(32), np.ones(64))
    np.testing.assert_allclose(
        apply_translation(x, t), block_transform(x, [T], params), rtol=1e-12
    )


def test_translation_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_translation([1.0, 2.0], [1.0, 2.0, 3.0])


def test_rotation_zero_angle_identity():
    np.testing.assert_allclose(apply_rotation([1.0, 0.0], [0.0]), [1.0, 0.0])


def test_rotation_quarter_turn():
    np.testing.assert_allclose(
        apply_rotation([1.0, 0.0], [np.pi / 2]), [0.0, 1.0], atol=1e-15
    )


def test_rotation_matches_block_matrix_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=8)
    angles = rng.uniform(-np.pi, np.pi, size=4)
    params = TransformParams(np.zeros(8), angles, np.ones(8))
    np.testing.assert_allclose(
        apply_rotation(x, angles), block_transform(x, [R], params), rtol=1e-12
    )


def test_rotation_odd_dimension_rejected():
    with pytest.raises(ValueError, match="even"):
        apply_rotation([1.0, 2.0, 3.0], [0.1])


def test_rotation_preserves_block_norms():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = 2 * rng.integers(1, 9)
        x = rng.normal(size=d)
        angles = rng.uniform(-10, 10, size=d // 2)
        y = apply_rotation(x, angles)
        for i in range(d // 2):
            nx = np.hypot(x[2 * i], x[2 * i + 1])
            ny = np.hypot(y[2 * i], y[2 * i + 1])
            assert abs(nx - ny) <= 1e-12 * max(nx, 1.0)


def test_scaling_identity():
    np.testing.assert_array_equal(apply_scaling([3.0, 4.0], [1.0, 1.0]), [3.0, 4.0])


def test_scaling_elementwise_with_zero():
    # zero factors are legal: they are the singular-operator mechanism
    np.testing.assert_array_equal(apply_scaling([3.0, 4.0], [0.0, 2.0]), [0.0, 8.0])


def test_scaling_matches_block_matrix_oracle():
    rng = np.random.default_rng(17)
    x = rng.normal(size=64)
    s = rng.normal(size=64)
    params = TransformParams(np.zeros(64), np.zeros(32), s)
    np.testing.assert_allclose(
        apply_scaling(x, s), block_transform(x, [S], params), rtol=1e-12
    )


def test_scaling_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_scaling([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

def test_empty_chain_is_identity():
    rng = np.random.default_rng(19)
    x = rng.normal(size=10)
    params = random_transform(rng, 10)
    np.testing.assert_array_equal(apply_chain(x, (), params), x)


def test_chain_trs_applies_right_to_left():
    # scale (2,0) -> rotate (0,2) -> translate (1,1)
    params = TransformParams([1.0, -1.0], [np.pi / 2], [2.0, 3.0])
    out = apply_chain([1.0, 0.0], (T, R, S), params)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)


def test_chain_order_matters_and_matches_oracle():
    rng = np.random.default_rng(23)
    x = rng.normal(size=2)
    params = random_transform(rng, 2)
    trs = apply_chain(x, (T, R, S), params)
    srt = apply_chain(x, (S, R, T), params)
    assert np.max(np.abs(trs - srt)) > 1e-6  # non-commutative
    np.testing.assert_allclose(srt, block_transform(x, (S, R, T), params), rtol=1e-12)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda c: "".join(k.value for k in c))
def test_all_orders_match_matrix_oracle(order):
    rng = np.random.default_rng(sum(ord(k.value) for k in order))
    for _ in range(20):
        d = 2 * int(rng.integers(1, 8))
        x = rng.normal(size=d)
        params = random_transform(rng, d)
        got = apply_chain(x, order, params)
        want = block_transform(x, order, params)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_partial_chains_match_oracle():
    rng = np.random.default_rng(29)
    for chain in [(T,), (R,), (S,), (T, R), (R, S), (S, T), (R, T), (T, S), (S, R)]:
        x = rng.normal(size=6)
        params = random_transform(rng, 6)
        np.testing.assert_allclose(
            apply_chain(x, chain, params), block_transform(x, chain, params), rtol=1e-12
        )


def test_repeated_kind_rejected():
    with pytest.raises(ValueError, match="at most one"):
        apply_chain([1.0, 2.0], (T, T), TransformParams.identity(2))


def test_chain_from_string():
    assert chain_from_string("SRT") == (S, R, T)
    assert chain_from_string("t") == (T,)
    assert chain_from_string("") == ()
    with pytest.raises(ValueError, match="valid tokens are T, R, S"):
        chain_from_string("SXT")


# ---------------------------------------------------------------------------
# Compound block matrices
# ---------------------------------------------------------------------------

def test_compound_matrix_trs_closed_form():
    # closed form of T.R.S on one block
    rng = np.random.default_rng(31)
    for _ in range(200):
        v_x, v_y = rng.normal(size=2)
        theta = rng.uniform(-np.pi, np.pi)
        s_x, s_y = rng.normal(size=2)
        m = compound_matrix_2d((T, R, S), (v_x, v_y, theta, s_x, s_y))
        want = np.array(
            [
                [s_x * np.cos(theta), -s_y * np.sin(theta), v_x],
                [s_x * np.sin(theta), s_y * np.cos(theta), v_y],
                [0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(m, want, atol=1e-12)


def test_compound_matrix_tr_is_rigid_motion():
    v_x, v_y, theta = 0.3, -0.7, 1.1
    m = compound_matrix_2d((T, R), (v_x, v_y, theta, 99.0, 99.0))
    want = np.array(
        [
            [np.cos(theta), -np.sin(theta), v_x],
            [np.sin(theta), np.cos(theta), v_y],
            [0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(m, want, atol=1e-15)
    # rotation part is orthogonal with det +1
    a = m[:2, :2]
    np.testing.assert_allclose(a.T @ a, np.eye(2), atol=1e-15)
    assert np.linalg.det(a) == pytest.approx(1.0)


def test_compound_matrix_fixed_instance():
    m = compound_matrix_2d((T, R, S), (1.0, -1.0, np.pi / 2, 2.0, 3.0))
    want = np.array([[0.0, -3.0, 1.0], [2.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(m, want, atol=1e-15)


def test_group_closure_bottom_row_exact():
    rng = np.random.default_rng(37)
    for _ in range(100):
        p1 = tuple(rng.normal(size=5))
        p2 = tuple(rng.normal(size=5))
        m1 = compound_matrix_2d((T, R, S), p1)
        m2 = compound_matrix_2d((S, R, T), p2)
        prod = m1 @ m2
        assert prod[2, 0] == 0.0 and prod[2, 1] == 0.0 and prod[2, 2] == 1.0


def test_invert_identity():
    np.testing.assert_array_equal(invert_compound_2d(np.eye(3)), np.eye(3))


def test_invert_fixed_instance():
    m = compound_matrix_2d((T, R, S), (1.0, 1.0, 0.0, 2.0, 3.0))
    want = np.array([[0.5, 0.0, -0.5], [0.0, 1.0 / 3.0, -1.0 / 3.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(invert_compound_2d(m), want, rtol=1e-12)
    # independent full-inverse oracle
    np.testing.assert_allclose(invert_compound_2d(m), np.linalg.inv(m), rtol=1e-12)


def test_invert_roundtrip_random():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 100:
        params = tuple(rng.normal(size=5))
        m = compound_matrix_2d((T, R, S), params)
        if abs(np.linalg.det(m[:2, :2])) < 1e-6:
            continue
        inv = invert_compound_2d(m)
        np.testing.assert_allclose(m @ inv, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(inv, np.linalg.inv(m), atol=1e-9)
        checked += 1


def test_invert_zero_scale_is_singular():
    m = compound_matrix_2d((T, R, S), (0.5, 0.5, 0.3, 0.0, 2.0))
    with pytest.raises(SingularOperatorError):
        invert_compound_2d(m)


def test_chain_block_matrices_consistent_with_apply():
    rng = np.random.default_rng(43)
    d = 12
    x = rng.normal(size=d)
    params = random_transform(rng, d)
    mats = chain_block_matrices((S, R, T), params)
    assert mats.shape == (d // 2, 3, 3)
    applied = apply_chain(x, (S, R, T), params)
    for i in range(d // 2):
        block = mats[i] @ np.array([x[2 * i], x[2 * i + 1], 1.0])
        np.testing.assert_allclose(applied[2 * i : 2 * i + 2], block[:2], rtol=1e-12)


# ---------------------------------------------------------------------------
# Whole-stack algebra: stacked matrices and the masked inverse
# ---------------------------------------------------------------------------

def planted_singular_stack(rng, n_relations=5, d=16):
    """(n_relations, d/2, 3, 3) full-chain stack with zero-scale blocks:
    some scattered, and every block of relation 0 on one axis."""
    scale = rng.normal(size=(n_relations, d))
    scale[rng.random((n_relations, d)) < 0.2] = 0.0
    scale[0, 0::2] = 0.0
    params = TransformParams(
        rng.normal(size=(n_relations, d)),
        rng.uniform(-np.pi, np.pi, (n_relations, d // 2)),
        scale,
    )
    return chain_block_matrices((T, R, S), params)


def test_chain_block_matrices_stacked_equals_oracle():
    rng = np.random.default_rng(44)
    d = 10
    params = random_transform(rng, d, (3,))
    for chain in ALL_ORDERS + [(T,), (R, S), ()]:
        mats = chain_block_matrices(chain, params)
        assert mats.shape == (3, d // 2, 3, 3)
        for k in range(3):
            for i in range(d // 2):
                block = (
                    params.translation[k, 2 * i],
                    params.translation[k, 2 * i + 1],
                    params.angles[k, i],
                    params.scale[k, 2 * i],
                    params.scale[k, 2 * i + 1],
                )
                np.testing.assert_allclose(
                    mats[k, i], block_matrix(chain, *block), atol=1e-12
                )


def test_invert_blocks_mask_matches_determinant():
    rng = np.random.default_rng(45)
    m = planted_singular_stack(rng)
    tol = 1e-8
    inv, singular = invert_blocks(m, tol)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    np.testing.assert_array_equal(singular, np.abs(det) < tol)
    assert singular[0].all() and 0 < singular[1:].sum() < singular[1:].size
    assert np.isnan(inv[singular]).all()
    want = np.linalg.inv(m[~singular])
    np.testing.assert_allclose(inv[~singular], want, rtol=1e-9, atol=1e-9)
    assert (inv[~singular][:, 2] == (0.0, 0.0, 1.0)).all()


def test_invert_blocks_rejects_non_3x3():
    with pytest.raises(ValueError, match="3x3"):
        invert_blocks(np.zeros((4, 2, 2)))


# ---------------------------------------------------------------------------
# The chain kernel's vector-Jacobian product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chain", ALL_CHAINS, ids=lambda c: "".join(k.value for k in c) or "empty")
def test_chain_backward_matches_finite_differences(chain):
    """Inputs at (B, N, d) and parameters at (B, 1, d), as training passes
    them; parameter gradients come back summed to the parameters' shape,
    zero for operators absent from the chain.  Chains without rotation
    also run at an odd dimension."""
    rng = np.random.default_rng(ALL_CHAINS.index(chain))
    B, N = 2, 3
    for d in (4,) if R in chain else (4, 5):
        x = rng.normal(size=(B, N, d))
        params = random_transform(rng, d, (B, 1))
        w = rng.normal(size=(B, N, d))

        def objective(x_, p):
            return float(np.sum(w * chain_forward_tape(x_, chain, p)[0]))

        _, tape = chain_forward_tape(x, chain, params)
        gx, grads = chain_backward(w, params, tape)
        assert gx.shape == x.shape
        np.testing.assert_allclose(
            gx, central_differences(lambda v: objective(v, params), x, 1e-6), rtol=1e-6, atol=1e-8
        )
        for field in ("translation", "angles", "scale"):
            value = getattr(params, field)
            got = getattr(grads, field)
            assert got.shape == value.shape
            want = central_differences(
                lambda v: objective(x, dataclasses.replace(params, **{field: v})), value, 1e-6
            )
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

import itertools

import numpy as np
import pytest

from compound_kge.scoring import (
    CompoundSpec,
    Norm,
    RelationParams,
    TrainableMask,
    Variant,
    compound_spec,
    grad_score,
    preset_linearre,
    preset_pairre,
    preset_rotate,
    preset_transe,
    score,
)
from compound_kge.transforms import OperatorKind, TransformParams, apply_chain

T, R, S = OperatorKind.TRANSLATION, OperatorKind.ROTATION, OperatorKind.SCALING


def rel_params(rng, d, shared_rotation=False):
    head = TransformParams(
        rng.normal(size=d), rng.uniform(-np.pi, np.pi, size=d // 2), rng.normal(size=d)
    )
    tail = TransformParams(
        rng.normal(size=d), rng.uniform(-np.pi, np.pi, size=d // 2), rng.normal(size=d)
    )
    return RelationParams(head, tail, shared_rotation)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def block_matrix(chain, v_x, v_y, theta, s_x, s_y):
    mats = {
        T: np.array([[1, 0, v_x], [0, 1, v_y], [0, 0, 1]], dtype=float),
        R: np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1],
            ]
        ),
        S: np.array([[s_x, 0, 0], [0, s_y, 0], [0, 0, 1]], dtype=float),
    }
    m = np.eye(3)
    for op in chain:
        m = m @ mats[op]
    return m


def matrix_transform(x, chain, p: TransformParams):
    out = np.empty_like(np.asarray(x, dtype=float))
    for i in range(len(x) // 2):
        m = block_matrix(
            chain,
            p.translation[2 * i],
            p.translation[2 * i + 1],
            p.angles[i],
            p.scale[2 * i],
            p.scale[2 * i + 1],
        )
        v = m @ np.array([x[2 * i], x[2 * i + 1], 1.0])
        out[2 * i : 2 * i + 2] = v[:2]
    return out


def matrix_score(h, r, t, spec):
    u = matrix_transform(h, spec.head_chain, r.head)
    v = matrix_transform(t, spec.tail_chain, r.tail)
    if spec.norm is Norm.L1:
        return np.sum(np.abs(u - v))
    return np.linalg.norm(u - v)


def transe_formula(h, trans, t, norm):
    d = h + trans - t
    return np.sum(np.abs(d)) if norm is Norm.L1 else np.linalg.norm(d)


def rotate_formula(h, angles, t, norm):
    hc = h[0::2] + 1j * h[1::2]
    tc = t[0::2] + 1j * t[1::2]
    diff = hc * np.exp(1j * angles) - tc
    if norm is Norm.L1:
        return np.sum(np.abs(diff.real)) + np.sum(np.abs(diff.imag))
    return np.sqrt(np.sum(diff.real**2) + np.sum(diff.imag**2))


def pairre_formula(h, s_head, t, s_tail, norm):
    d = h * s_head - t * s_tail
    return np.sum(np.abs(d)) if norm is Norm.L1 else np.linalg.norm(d)


def linearre_formula(h, s_head, trans, t, s_tail, norm):
    d = h * s_head + trans - t * s_tail
    return np.sum(np.abs(d)) if norm is Norm.L1 else np.linalg.norm(d)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_transe_zero_case():
    preset = preset_transe(2)
    r = RelationParams.identity(2)
    r.head.translation = np.array([0.0, 1.0])
    assert score([1.0, 0.0], r, [1.0, 1.0], preset.spec) == 0.0


def test_score_zero_for_identical_sides():
    rng = np.random.default_rng(0)
    spec = CompoundSpec(Variant.FULL, (S, R, T), (S, R, T), 8)
    p = TransformParams(
        rng.normal(size=8), rng.uniform(-np.pi, np.pi, 4), rng.normal(size=8)
    )
    r = RelationParams(p, p.copy())
    h = rng.normal(size=8)
    assert score(h, r, h, spec) == 0.0


def test_score_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    spec = CompoundSpec(Variant.FULL, (S, R, T), (S, R, T), 16, Norm.L1)
    for _ in range(50):
        r = rel_params(rng, 16)
        h, t = rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(
            score(h, r, t, spec), matrix_score(h, r, t, spec), rtol=1e-12
        )


def test_score_dimension_mismatch():
    spec = compound_spec("full", "SRT", "SRT", dim=8)
    with pytest.raises(ValueError, match="dimension mismatch"):
        score(np.zeros(6), RelationParams.identity(8), np.zeros(8), spec)


def test_score_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(2)
    spec = compound_spec("full", "TRS", "SRT", dim=8, norm="l2")
    for _ in range(100):
        r = rel_params(rng, 8)
        h, t = rng.normal(size=8), rng.normal(size=8)
        f = score(h, r, t, spec)
        assert f >= 0.0
        if f == 0.0:
            u = matrix_transform(h, spec.head_chain, r.head)
            v = matrix_transform(t, spec.tail_chain, r.tail)
            np.testing.assert_allclose(u, v, atol=1e-12)


def test_six_orderings_all_distinct():
    rng = np.random.default_rng(3)
    r = rel_params(rng, 8)
    h, t = rng.normal(size=8), rng.normal(size=8)
    values = []
    for order in itertools.permutations("TRS"):
        spec = compound_spec("head", "".join(order), "", dim=8)
        values.append(score(h, r, t, spec))
    for a, b in itertools.combinations(values, 2):
        assert abs(a - b) > 1e-9


def test_score_broadcasts_over_batches():
    rng = np.random.default_rng(4)
    spec = compound_spec("full", "SRT", "SRT", dim=8)
    r = rel_params(rng, 8)
    h = rng.normal(size=(5, 8))
    t = rng.normal(size=(5, 8))
    batched = score(h, r, t, spec)
    assert batched.shape == (5,)
    for i in range(5):
        np.testing.assert_allclose(batched[i], score(h[i], r, t[i], spec))


BATCH_SPECS = {
    "transe": preset_transe(8).spec,
    "rotate": preset_rotate(8, Norm.L2).spec,
    "pairre": preset_pairre(8).spec,
    "linearre": preset_linearre(8, Norm.L2).spec,
    "srt-srt": compound_spec("full", "SRT", "SRT", dim=8),
    "trs-rst": compound_spec("full", "TRS", "RST", dim=8, norm="l2"),
}


@pytest.mark.parametrize("name", list(BATCH_SPECS))
def test_rows_alone_equal_rows_of_a_batch_bit_for_bit(name):
    """A row transformed or scored alone equals, bit for bit, the same row
    of a batched call.  The filtered rank's ``ties = equal - 1`` relies on
    it: the truth's score inside its candidate block must equal the score
    it was ranked against."""
    spec = BATCH_SPECS[name]
    rng = np.random.default_rng(sorted(BATCH_SPECS).index(name))
    n = 7
    r = rel_params(rng, 8)
    h, t = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    u = apply_chain(h, spec.head_chain, r.head)
    v = apply_chain(t, spec.tail_chain, r.tail)
    scores = score(h, r, t, spec)
    candidates = score(h[0], r, t, spec)  # one fixed side against a block
    # one relation per row, as training gathers the parameters
    rows = TransformParams(
        rng.normal(size=(n, 8)), rng.uniform(-np.pi, np.pi, (n, 4)), rng.normal(size=(n, 8))
    )
    per_row = apply_chain(h, spec.head_chain, rows)
    for i in range(n):
        row_params = TransformParams(rows.translation[i], rows.angles[i], rows.scale[i])
        np.testing.assert_array_equal(apply_chain(h[i], spec.head_chain, r.head), u[i])
        np.testing.assert_array_equal(apply_chain(t[i], spec.tail_chain, r.tail), v[i])
        np.testing.assert_array_equal(
            apply_chain(h[i], spec.head_chain, row_params), per_row[i]
        )
        assert score(h[i], r, t[i], spec) == scores[i]
        assert score(h[0], r, t[i : i + 1], spec)[0] == candidates[i]


# ---------------------------------------------------------------------------
# presets reduce to the classic formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
def test_transe_reduction(norm):
    rng = np.random.default_rng(5)
    preset = preset_transe(16, norm)
    for _ in range(100):
        r = RelationParams.identity(16)
        r.head.translation = rng.normal(size=16)
        h, t = rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(
            score(h, r, t, preset.spec),
            transe_formula(h, r.head.translation, t, norm),
            atol=1e-12,
        )


def test_transe_zero_translation_is_plain_distance():
    preset = preset_transe(4)
    r = RelationParams.identity(4)
    h = np.array([1.0, 2.0, 3.0, 4.0])
    t = np.array([0.0, 2.0, 3.0, 5.0])
    assert score(h, r, t, preset.spec) == pytest.approx(np.sum(np.abs(h - t)))
    assert score(h, r, h, preset.spec) == 0.0


@pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
def test_rotate_reduction(norm):
    rng = np.random.default_rng(6)
    preset = preset_rotate(8, norm)
    for _ in range(100):
        r = RelationParams.identity(8)
        r.head.angles = rng.uniform(-np.pi, np.pi, size=4)
        h, t = rng.normal(size=8), rng.normal(size=8)
        np.testing.assert_allclose(
            score(h, r, t, preset.spec),
            rotate_formula(h, r.head.angles, t, norm),
            atol=1e-12,
        )


def test_rotate_half_turn_matches_negation():
    preset = preset_rotate(2)
    r = RelationParams.identity(2)
    r.head.angles = np.array([np.pi])
    assert score([1.0, 0.0], r, [-1.0, 0.0], preset.spec) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
def test_pairre_reduction(norm):
    rng = np.random.default_rng(7)
    preset = preset_pairre(16, norm)
    for _ in range(100):
        r = RelationParams.identity(16)
        r.head.scale = rng.normal(size=16)
        r.tail.scale = rng.normal(size=16)
        h, t = rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(
            score(h, r, t, preset.spec),
            pairre_formula(h, r.head.scale, t, r.tail.scale, norm),
            atol=1e-12,
        )


def test_pairre_zero_scale_annihilates_mismatch():
    preset = preset_pairre(2)
    r = RelationParams.identity(2)
    r.head.scale = np.array([1.0, 0.0])
    r.tail.scale = np.array([1.0, 0.0])
    assert score([2.0, 2.0], r, [2.0, 5.0], preset.spec) == 0.0


@pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
def test_linearre_reduction(norm):
    rng = np.random.default_rng(8)
    preset = preset_linearre(16, norm)
    for _ in range(100):
        r = RelationParams.identity(16)
        r.head.translation = rng.normal(size=16)
        r.head.scale = rng.normal(size=16)
        r.tail.scale = rng.normal(size=16)
        h, t = rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(
            score(h, r, t, preset.spec),
            linearre_formula(h, r.head.scale, r.head.translation, t, r.tail.scale, norm),
            atol=1e-12,
        )


def test_linearre_degenerates_to_pairre_and_transe():
    rng = np.random.default_rng(9)
    preset = preset_linearre(8)
    h, t = rng.normal(size=8), rng.normal(size=8)
    r = RelationParams.identity(8)
    r.head.scale = rng.normal(size=8)
    r.tail.scale = rng.normal(size=8)
    np.testing.assert_allclose(
        score(h, r, t, preset.spec),
        pairre_formula(h, r.head.scale, t, r.tail.scale, Norm.L1),
    )
    r2 = RelationParams.identity(8)
    r2.head.translation = rng.normal(size=8)
    np.testing.assert_allclose(
        score(h, r2, t, preset.spec),
        transe_formula(h, r2.head.translation, t, Norm.L1),
    )


# ---------------------------------------------------------------------------
# gradients vs central finite differences
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def fd_grad(fn, x, step=FD_STEP):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        g.flat[i] = (fn(xp) - fn(xm)) / (2 * step)
    return g


def assert_close_rel(analytic, numeric, tol=1e-4):
    denom = max(np.max(np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric)) / denom < tol


def well_separated_instance(rng, spec, shared=False):
    """Random instance kept away from L1 kinks so FD is meaningful."""
    while True:
        r = rel_params(rng, spec.dim, shared)
        h, t = rng.normal(size=spec.dim), rng.normal(size=spec.dim)
        u = matrix_transform(h, spec.head_chain, r.head)
        v = matrix_transform(t, spec.tail_chain, r.tail)
        if np.min(np.abs(u - v)) > 1e-3:
            return h, r, t


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize(
    "variant,head_order,tail_order",
    [
        ("head", "TRS", ""),
        ("head", "SRT", ""),
        ("tail", "", "RST"),
        ("full", "SRT", "SRT"),
        ("full", "TSR", "RTS"),
    ],
)
def test_grad_matches_finite_differences(variant, head_order, tail_order, norm):
    rng = np.random.default_rng(hash((variant, head_order, tail_order, norm)) % 2**32)
    spec = compound_spec(variant, head_order, tail_order, dim=8, norm=norm)
    for _ in range(10):
        h, r, t = well_separated_instance(rng, spec)
        g = grad_score(h, r, t, spec)
        assert_close_rel(g.h, fd_grad(lambda v: score(v, r, t, spec), h))
        assert_close_rel(g.t, fd_grad(lambda v: score(h, r, v, spec), t))

        def with_head(field, v):
            r2 = RelationParams(r.head.copy(), r.tail.copy())
            setattr(r2.head, field, np.asarray(v, dtype=float))
            return score(h, r2, t, spec)

        def with_tail(field, v):
            r2 = RelationParams(r.head.copy(), r.tail.copy())
            setattr(r2.tail, field, np.asarray(v, dtype=float))
            return score(h, r2, t, spec)

        if "T" in head_order:
            assert_close_rel(
                g.head.translation,
                fd_grad(lambda v: with_head("translation", v), r.head.translation),
            )
        if "R" in head_order:
            assert_close_rel(
                g.head.angles, fd_grad(lambda v: with_head("angles", v), r.head.angles)
            )
        if "S" in head_order:
            assert_close_rel(
                g.head.scale, fd_grad(lambda v: with_head("scale", v), r.head.scale)
            )
        if "T" in tail_order:
            assert_close_rel(
                g.tail.translation,
                fd_grad(lambda v: with_tail("translation", v), r.tail.translation),
            )
        if "R" in tail_order:
            assert_close_rel(
                g.tail.angles, fd_grad(lambda v: with_tail("angles", v), r.tail.angles)
            )
        if "S" in tail_order:
            assert_close_rel(
                g.tail.scale, fd_grad(lambda v: with_tail("scale", v), r.tail.scale)
            )


def test_grad_shared_rotation_accumulates_both_sides():
    rng = np.random.default_rng(12)
    spec = compound_spec("full", "SRT", "SRT", dim=8)
    for _ in range(10):
        h, r, t = well_separated_instance(rng, spec, shared=True)
        assert r.head.angles is r.tail.angles
        g = grad_score(h, r, t, spec)

        def with_shared_angles(v):
            head = r.head.copy()
            tail = r.tail.copy()
            head.angles = np.asarray(v, dtype=float)
            return score(h, RelationParams(head, tail, shared_rotation=True), t, spec)

        assert_close_rel(g.head.angles, fd_grad(with_shared_angles, r.head.angles))
        assert np.all(g.tail.angles == 0.0)


def test_grad_l2_trivial_case():
    preset = preset_transe(2, Norm.L2)
    r = RelationParams.identity(2)
    g = grad_score([1.0, 0.0], r, [0.0, 0.0], preset.spec)
    np.testing.assert_allclose(g.h, [1.0, 0.0])


def test_frozen_parameters_get_zero_gradient():
    rng = np.random.default_rng(13)
    preset = preset_transe(8)
    h, r, t = well_separated_instance(rng, preset.spec)
    g = grad_score(h, r, t, preset.spec, trainable=preset.trainable)
    assert np.any(g.head.translation != 0.0)
    assert np.all(g.head.angles == 0.0)
    assert np.all(g.head.scale == 0.0)
    assert np.all(g.tail.translation == 0.0)


def test_l1_subgradient_zero_at_kink():
    spec = preset_transe(2).spec
    r = RelationParams.identity(2)
    g = grad_score([1.0, 2.0], r, [1.0, 2.0], spec)
    np.testing.assert_array_equal(g.h, [0.0, 0.0])


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_variant_chain_consistency():
    with pytest.raises(ValueError, match="empty tail chain"):
        CompoundSpec(Variant.HEAD, (T,), (S,), 4)
    with pytest.raises(ValueError, match="empty head chain"):
        CompoundSpec(Variant.TAIL, (T,), (), 4)
    with pytest.raises(ValueError, match="nonempty"):
        CompoundSpec(Variant.FULL, (T,), (), 4)
    with pytest.raises(ValueError, match="even"):
        CompoundSpec(Variant.HEAD, (R,), (), 5)
    # scaling-only chains are fine with odd dims
    CompoundSpec(Variant.FULL, (S,), (S,), 5)

import itertools

import numpy as np
import pytest

from compound_kge.scoring import (
    CompoundSpec,
    Norm,
    RelationParams,
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

from oracles import (
    block_transform,
    central_differences,
    linearre_score,
    pairre_score,
    random_relation,
    random_transform,
    rel_err,
    rotate_score,
    transe_score,
    two_sided_score,
)

T, R, S = OperatorKind.TRANSLATION, OperatorKind.ROTATION, OperatorKind.SCALING


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
    p = random_transform(rng, 8)
    r = RelationParams(p, p.copy())
    h = rng.normal(size=8)
    assert score(h, r, h, spec) == 0.0


def test_score_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    spec = CompoundSpec(Variant.FULL, (S, R, T), (S, R, T), 16, Norm.L1)
    for _ in range(50):
        r = random_relation(rng, 16)
        h, t = rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(
            score(h, r, t, spec), two_sided_score(h, r, t, spec), rtol=1e-12
        )


def test_score_dimension_mismatch():
    spec = compound_spec("full", "SRT", "SRT", dim=8)
    with pytest.raises(ValueError, match="dimension mismatch"):
        score(np.zeros(6), RelationParams.identity(8), np.zeros(8), spec)


def test_score_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(2)
    spec = compound_spec("full", "TRS", "SRT", dim=8, norm="l2")
    for _ in range(100):
        r = random_relation(rng, 8)
        h, t = rng.normal(size=8), rng.normal(size=8)
        f = score(h, r, t, spec)
        assert f >= 0.0
        if f == 0.0:
            u = block_transform(h, spec.head_chain, r.head)
            v = block_transform(t, spec.tail_chain, r.tail)
            np.testing.assert_allclose(u, v, atol=1e-12)


def test_six_orderings_all_distinct():
    rng = np.random.default_rng(3)
    r = random_relation(rng, 8)
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
    r = random_relation(rng, 8)
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
    r = random_relation(rng, 8)
    h, t = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    u = apply_chain(h, spec.head_chain, r.head)
    v = apply_chain(t, spec.tail_chain, r.tail)
    scores = score(h, r, t, spec)
    candidates = score(h[0], r, t, spec)  # one fixed side against a block
    # one relation per row, as training gathers the parameters
    rows = random_transform(rng, 8, (n,))
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
            transe_score(h, r, t, norm),
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
            rotate_score(h, r, t, norm),
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
            pairre_score(h, r, t, norm),
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
            linearre_score(h, r, t, norm),
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
        pairre_score(h, r, t, Norm.L1),
    )
    r2 = RelationParams.identity(8)
    r2.head.translation = rng.normal(size=8)
    np.testing.assert_allclose(
        score(h, r2, t, preset.spec),
        transe_score(h, r2, t, Norm.L1),
    )


# ---------------------------------------------------------------------------
# gradients vs central finite differences
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def well_separated_instance(rng, spec, shared=False):
    """Random instance kept away from L1 kinks so FD is meaningful."""
    while True:
        r = random_relation(rng, spec.dim, shared)
        h, t = rng.normal(size=spec.dim), rng.normal(size=spec.dim)
        u = block_transform(h, spec.head_chain, r.head)
        v = block_transform(t, spec.tail_chain, r.tail)
        if np.min(np.abs(u - v)) > 1e-3:
            return h, r, t


GRAD_NORMS = ["l1", "l2"]
GRAD_CHAINS = [
    ("head", "TRS", ""),
    ("head", "SRT", ""),
    ("tail", "", "RST"),
    ("full", "SRT", "SRT"),
    ("full", "TSR", "RTS"),
]


@pytest.mark.parametrize("norm", GRAD_NORMS)
@pytest.mark.parametrize("variant,head_order,tail_order", GRAD_CHAINS)
def test_grad_matches_finite_differences(variant, head_order, tail_order, norm):
    case = len(GRAD_NORMS) * GRAD_CHAINS.index((variant, head_order, tail_order))
    rng = np.random.default_rng(case + GRAD_NORMS.index(norm))
    spec = compound_spec(variant, head_order, tail_order, dim=8, norm=norm)
    for _ in range(10):
        h, r, t = well_separated_instance(rng, spec)
        g = grad_score(h, r, t, spec)
        assert rel_err(g.h, central_differences(lambda v: score(v, r, t, spec), h, FD_STEP)) < 1e-4
        assert rel_err(g.t, central_differences(lambda v: score(h, r, v, spec), t, FD_STEP)) < 1e-4
        for side, order in (("head", head_order), ("tail", tail_order)):
            for letter, field in (("T", "translation"), ("R", "angles"), ("S", "scale")):
                if letter not in order:
                    continue

                def probe(v, side=side, field=field):
                    r2 = RelationParams(r.head.copy(), r.tail.copy())
                    setattr(getattr(r2, side), field, np.asarray(v, dtype=float))
                    return score(h, r2, t, spec)

                want = central_differences(probe, getattr(getattr(r, side), field), FD_STEP)
                assert rel_err(getattr(getattr(g, side), field), want) < 1e-4


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

        want = central_differences(with_shared_angles, r.head.angles, FD_STEP)
        assert rel_err(g.head.angles, want) < 1e-4
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

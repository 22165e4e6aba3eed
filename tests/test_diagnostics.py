import csv
import math

import numpy as np
import pytest

from compound_kge.dataset import Category, categorize_relations
from compound_kge.diagnostics import (
    composition_residual,
    export_entity_embeddings,
    export_relation_histograms,
    inversion_residual,
    relation_diagnostics,
    relation_matrices,
    subrelation_score_gap,
    symmetry_residual,
)
from compound_kge.model import init_model, model_from_preset
from compound_kge.scoring import (
    RelationParams,
    compound_spec,
    preset_pairre,
    preset_transe,
)
from compound_kge.synthetic import SyntheticPattern, generate_synthetic_kg
from compound_kge.transforms import (
    OperatorKind,
    TransformParams,
    chain_block_matrices,
    invert_compound_2d,
)

from oracles import random_relation

T, R, S = OperatorKind.TRANSLATION, OperatorKind.ROTATION, OperatorKind.SCALING


# ---------------------------------------------------------------------------
# relation_matrices
# ---------------------------------------------------------------------------

def test_relation_matrices_identity_params():
    spec = compound_spec("full", "SRT", "SRT", dim=6)
    r = RelationParams.identity(6)
    m, m_hat = relation_matrices(r, spec)
    for b in list(m) + list(m_hat):
        np.testing.assert_array_equal(b, np.eye(3))


def test_relation_matrices_transe_preset():
    preset = preset_transe(4)
    r = RelationParams.identity(4)
    r.head.translation = np.array([0.5, -0.5, 1.0, 2.0])
    m, m_hat = relation_matrices(r, preset.spec)
    np.testing.assert_allclose(m[0], [[1, 0, 0.5], [0, 1, -0.5], [0, 0, 1]])
    np.testing.assert_allclose(m[1], [[1, 0, 1.0], [0, 1, 2.0], [0, 0, 1]])
    # tail chain is empty: identity blocks
    for b in m_hat:
        np.testing.assert_array_equal(b, np.eye(3))


def test_relation_matrices_match_elementary_products():
    rng = np.random.default_rng(0)
    spec = compound_spec("full", "TSR", "RTS", dim=8)
    r = random_relation(rng, 8)
    m, m_hat = relation_matrices(r, spec)
    want_m = chain_block_matrices(spec.head_chain, r.head)
    want_h = chain_block_matrices(spec.tail_chain, r.tail)
    np.testing.assert_allclose(m, want_m, rtol=1e-12)
    np.testing.assert_allclose(m_hat, want_h, rtol=1e-12)


# ---------------------------------------------------------------------------
# residuals: constructed zeros and generic counterexamples
# ---------------------------------------------------------------------------

def test_symmetry_residual_equal_maps_is_zero():
    rng = np.random.default_rng(1)
    spec = compound_spec("full", "SRT", "SRT", dim=6)
    r = random_relation(rng, 6)
    r.tail = r.head.copy()
    m, m_hat = relation_matrices(r, spec)
    assert symmetry_residual(m, m_hat) < 1e-10


def test_symmetry_residual_pure_rotation_formula():
    theta = 0.7
    spec = compound_spec("head", "R", "", dim=2)
    r = RelationParams.identity(2)
    r.head.angles = np.array([theta])
    m, m_hat = relation_matrices(r, spec)
    # M R-identity mismatch: R(theta) - R(-theta) has off-diagonal 2 sin(theta)
    assert symmetry_residual(m, m_hat) == pytest.approx(2 * abs(np.sin(theta)), rel=1e-12)


def test_symmetry_residual_generic_counterexample():
    rng = np.random.default_rng(2)
    r = random_relation(rng, 6)
    spec = compound_spec("full", "SRT", "SRT", dim=6)
    m, m_hat = relation_matrices(r, spec)
    assert symmetry_residual(m, m_hat) > 1e-3


def test_symmetry_residual_all_singular_is_nan():
    spec = compound_spec("full", "S", "S", dim=2)
    r = RelationParams.identity(2)
    r.head.scale = np.zeros(2)
    m, m_hat = relation_matrices(r, spec)
    assert math.isnan(symmetry_residual(m, m_hat))


def test_inversion_residual_constructed_inverse_pair():
    rng = np.random.default_rng(3)
    spec = compound_spec("full", "SRT", "SRT", dim=6)
    r1 = random_relation(rng, 6)
    m1, m1_hat = relation_matrices(r1, spec)
    # relation 2 inverts relation 1's effective map: its one-sided map is
    # M1^-1 M1_hat, built from the closed-form block inverse
    m2 = np.stack([invert_compound_2d(a) @ h for a, h in zip(m1, m1_hat)])
    m2_hat = np.stack([np.eye(3)] * len(m1))
    assert inversion_residual(m1, m1_hat, m2, m2_hat) < 1e-10


def test_inversion_residual_identity_maps():
    eye = np.stack([np.eye(3)] * 3)
    assert inversion_residual(eye, eye, eye, eye) == 0.0


def test_inversion_residual_generic_counterexample():
    rng = np.random.default_rng(4)
    spec = compound_spec("full", "SRT", "SRT", dim=6)
    m1, m1_hat = relation_matrices(random_relation(rng, 6), spec)
    m2, m2_hat = relation_matrices(random_relation(rng, 6), spec)
    assert inversion_residual(m1, m1_hat, m2, m2_hat) > 0.1


def test_composition_residual_identity_case():
    eye = np.stack([np.eye(3)] * 2)
    assert composition_residual(eye, eye, eye, eye, eye, eye) == 0.0


def test_composition_residual_constructed_product():
    rng = np.random.default_rng(5)
    spec = compound_spec("full", "SRT", "SRT", dim=4)
    r1 = random_relation(rng, 4)
    r2 = random_relation(rng, 4)
    m1, m1_hat = relation_matrices(r1, spec)
    m2, m2_hat = relation_matrices(r2, spec)
    # build relation 3 whose effective map equals the composition
    eff = [
        (invert_compound_2d(h2) @ a2) @ (invert_compound_2d(h1) @ a1)
        for a1, h1, a2, h2 in zip(m1, m1_hat, m2, m2_hat)
    ]
    m3 = np.stack(eff)
    m3_hat = np.stack([np.eye(3)] * len(eff))
    assert composition_residual(m1, m1_hat, m2, m2_hat, m3, m3_hat) < 1e-10


def test_composition_residual_order_swap_differs():
    # generic operators do not commute: swapping the two inner relations
    # breaks the constructed identity
    rng = np.random.default_rng(6)
    spec = compound_spec("full", "SRT", "SRT", dim=4)
    r1 = random_relation(rng, 4)
    r2 = random_relation(rng, 4)
    m1, m1_hat = relation_matrices(r1, spec)
    m2, m2_hat = relation_matrices(r2, spec)
    eff = [
        (invert_compound_2d(h2) @ a2) @ (invert_compound_2d(h1) @ a1)
        for a1, h1, a2, h2 in zip(m1, m1_hat, m2, m2_hat)
    ]
    m3 = np.stack(eff)
    m3_hat = np.stack([np.eye(3)] * len(eff))
    swapped = composition_residual(m2, m2_hat, m1, m1_hat, m3, m3_hat)
    assert swapped > 1e-3


# ---------------------------------------------------------------------------
# whole-stack residuals against an independent per-block loop
# ---------------------------------------------------------------------------

def loop_residual(stacks, inverted, identity, tol=1e-8):
    """Per-block oracle: skip blocks where a map in ``inverted`` has
    |ad - bc| < tol, invert those maps with np.linalg.inv, evaluate
    ``identity`` on (blocks, inverses), and report the worst block."""
    worst = -1.0
    for blocks in zip(*stacks):
        need = [blocks[k] for k in inverted]
        if any(abs(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]) < tol for b in need):
            continue
        lhs, rhs = identity(blocks, [np.linalg.inv(b) for b in need])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst if worst >= 0 else math.nan


def planted_relations(rng, n, d=12):
    """Relation matrices with zero scales planted in some blocks."""
    spec = compound_spec("full", "SRT", "SRT", dim=d)
    out = []
    for _ in range(n):
        r = random_relation(rng, d)
        for side in (r.head, r.tail):
            side.scale[rng.random(d) < 0.15] = 0.0
        out.extend(relation_matrices(r, spec))
    return out


def assert_nan_equal(got, want):
    assert (math.isnan(got) and math.isnan(want)) or got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_stacked_residuals_match_per_block_loop(seed):
    rng = np.random.default_rng(100 + seed)
    m1, h1, m2, h2, m3, h3 = planted_relations(rng, 3)
    assert_nan_equal(
        symmetry_residual(m1, h1),
        loop_residual([m1, h1], [0, 1], lambda b, i: (b[0] @ i[1], b[1] @ i[0])),
    )
    assert_nan_equal(
        inversion_residual(m1, h1, m2, h2),
        loop_residual([m1, h1, m2, h2], [0, 3], lambda b, i: (i[1] @ b[2], i[0] @ b[1])),
    )
    assert_nan_equal(
        composition_residual(m1, h1, m2, h2, m3, h3),
        loop_residual(
            [m1, h1, m2, h2, m3, h3],
            [1, 3, 5],
            lambda b, i: (i[2] @ b[4], (i[1] @ b[2]) @ (i[0] @ b[0])),
        ),
    )


def test_stacked_residuals_all_singular_nan():
    rng = np.random.default_rng(9)
    m1, h1, m2, h2, m3, h3 = planted_relations(rng, 3, d=6)
    h1 = h1.copy()
    h1[:, 0, :2] = 0.0  # every block of one map singular
    assert math.isnan(loop_residual([m1, h1], [0, 1], lambda b, i: (b[0] @ i[1], b[1] @ i[0])))
    assert math.isnan(symmetry_residual(m1, h1))
    assert math.isnan(symmetry_residual(h1, m1))
    assert math.isnan(inversion_residual(m2, h2, m1, h1))
    assert math.isnan(composition_residual(m1, h1, m2, h2, m3, h3))


# ---------------------------------------------------------------------------
# sub-relation score gap
# ---------------------------------------------------------------------------

def make_scaled_pair(rng, d, gamma):
    """r1 = r2 with both scales multiplied by gamma; T zero, R shared."""
    angles = rng.uniform(-np.pi, np.pi, d // 2)
    s_head = rng.normal(size=d)
    s_tail = rng.normal(size=d)
    r2 = RelationParams(
        TransformParams(np.zeros(d), angles.copy(), s_head),
        TransformParams(np.zeros(d), angles.copy(), s_tail),
    )
    r1 = RelationParams(
        TransformParams(np.zeros(d), angles.copy(), gamma * s_head),
        TransformParams(np.zeros(d), angles.copy(), gamma * s_tail),
    )
    return r1, r2


def test_subrelation_gap_zero_at_gamma_one():
    rng = np.random.default_rng(7)
    spec = compound_spec("full", "TRS", "TRS", dim=8)
    r1, r2 = make_scaled_pair(rng, 8, 1.0)
    heads = rng.normal(size=(32, 8))
    tails = rng.normal(size=(32, 8))
    assert subrelation_score_gap(r1, r2, spec, heads, tails) == 0.0


def test_subrelation_gap_nonpositive_for_gamma_below_one():
    rng = np.random.default_rng(8)
    spec = compound_spec("full", "TRS", "TRS", dim=8)
    for gamma in (0.5, 0.9, 0.1):
        r1, r2 = make_scaled_pair(rng, 8, gamma)
        heads = rng.normal(size=(64, 8))
        tails = rng.normal(size=(64, 8))
        assert subrelation_score_gap(r1, r2, spec, heads, tails) <= 0.0


def test_subrelation_gap_positive_when_premise_violated():
    rng = np.random.default_rng(9)
    spec = compound_spec("full", "TRS", "TRS", dim=8)
    r1, r2 = make_scaled_pair(rng, 8, 2.0)
    heads = rng.normal(size=(64, 8))
    tails = rng.normal(size=(64, 8))
    assert subrelation_score_gap(r1, r2, spec, heads, tails) > 0.0


# ---------------------------------------------------------------------------
# per-relation diagnostics
# ---------------------------------------------------------------------------

def test_singularity_detection_on_zeroed_scales():
    preset = preset_pairre(6)
    model = model_from_preset(preset, 5, 1, np.random.default_rng(10))
    model.head.scales[0, 2] = 0.0
    d = relation_diagnostics(model, 0)
    assert d.singularity_fraction > 0.0
    assert d.block_det_min < 1e-8
    assert d.singular_blocks >= 1


def test_diagnostics_identity_relation():
    spec = compound_spec("full", "SRT", "SRT", dim=6)
    model = init_model(spec, 4, 1, np.random.default_rng(11))
    model.head.translations[:] = 0
    model.head.angles[:] = 0
    model.tail.translations[:] = 0
    model.tail.angles[:] = 0
    d = relation_diagnostics(model, 0)
    assert d.symmetry_residual == 0.0
    assert d.singularity_fraction == 0.0
    assert d.block_det_min == pytest.approx(1.0)


def test_no_scaling_chain_reports_zero_fraction():
    preset = preset_transe(4)
    model = model_from_preset(preset, 3, 1, np.random.default_rng(12))
    # chain contains a frozen scale op, so entries report (all ones)
    d = relation_diagnostics(model, 0)
    assert d.singularity_fraction == 0.0
    spec = compound_spec("head", "TR", "", dim=4)
    model2 = init_model(spec, 3, 1, np.random.default_rng(12))
    d2 = relation_diagnostics(model2, 0)
    assert d2.singularity_fraction == 0.0


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_histogram_all_zero_translation_single_spike(tmp_path):
    spec = compound_spec("head", "TRS", "", dim=8)
    model = init_model(spec, 3, 1, np.random.default_rng(13))
    model.head.translations[:] = 0.0
    rows = export_relation_histograms(model, 0, bins=11)
    trans = [r for r in rows if r["component"] == "translation"]
    nonzero = [r for r in trans if r["count"] > 0]
    assert len(nonzero) == 1
    assert nonzero[0]["bin_left"] <= 0.0 <= nonzero[0]["bin_right"]


def test_histogram_counts_conserved(tmp_path):
    spec = compound_spec("full", "SRT", "SRT", dim=16)
    model = init_model(spec, 3, 1, np.random.default_rng(14), shared_rotation=True)
    rows = export_relation_histograms(model, 0, bins=50)
    by_component = {}
    for r in rows:
        key = (r["component"], r["side"])
        by_component[key] = by_component.get(key, 0) + r["count"]
    assert by_component[("translation", "head")] == 16
    assert by_component[("translation", "tail")] == 16
    assert by_component[("scaling", "head")] == 16
    assert by_component[("scaling", "tail")] == 16
    assert by_component[("rotation", "shared")] == 8
    assert ("rotation", "head") not in by_component


def test_histogram_csv_columns(tmp_path):
    spec = compound_spec("head", "SRT", "", dim=4)
    model = init_model(spec, 3, 1, np.random.default_rng(15))
    out = tmp_path / "hist.csv"
    export_relation_histograms(model, 0, bins=5, out_path=out)
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["component", "side", "bin_left", "bin_right", "count"]
        assert sum(1 for _ in reader) > 0


def test_histogram_unknown_relation_name():
    spec = compound_spec("head", "SRT", "", dim=4)
    model = init_model(spec, 3, 2, np.random.default_rng(16))
    with pytest.raises(KeyError, match="unknown relation"):
        export_relation_histograms(model, "nope", relation_names=["a", "b"])


def test_histogram_by_name_lookup():
    spec = compound_spec("head", "SRT", "", dim=4)
    model = init_model(spec, 3, 2, np.random.default_rng(17))
    rows = export_relation_histograms(model, "b", bins=4, relation_names=["a", "b"])
    assert rows


def test_entity_export_shape_and_roundtrip(tmp_path):
    spec = compound_spec("head", "SRT", "", dim=4)
    model = init_model(spec, 3, 1, np.random.default_rng(18))
    out = tmp_path / "entities.csv"
    n = export_entity_embeddings(model, ["x", "y", "z"], out)
    assert n == 3
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["entity_name", "dim_0", "dim_1", "dim_2", "dim_3"]
        rows = list(reader)
    assert len(rows) == 3
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    np.testing.assert_allclose(values, model.entities, atol=1e-6)


def test_entity_export_label_join(tmp_path):
    spec = compound_spec("head", "SRT", "", dim=2)
    model = init_model(spec, 5, 1, np.random.default_rng(19))
    names = [f"e{i}" for i in range(5)]
    labels = tmp_path / "labels.tsv"
    labels.write_text("e0\tcity\ne1\tcity\ne2\tperson\ne4\tperson\n")
    out = tmp_path / "entities.csv"
    export_entity_embeddings(model, names, out, label_path=labels)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "label"
    got = {row[0]: row[-1] for row in rows[1:]}
    assert got == {"e0": "city", "e1": "city", "e2": "person", "e3": "", "e4": "person"}


def test_trained_symmetric_translation_histogram_near_zero(trained_symmetric):
    # the symmetric matching trains the relation's translation entries
    # toward zero: most histogram mass sits in the |value| < 0.1 band
    _, result = trained_symmetric
    rows = export_relation_histograms(result.model, 0, bins=50)
    trans = [r for r in rows if r["component"] == "translation"]
    total = sum(r["count"] for r in trans)
    near_zero = sum(
        r["count"] for r in trans if r["bin_left"] >= -0.1 and r["bin_right"] <= 0.1
    )
    # bins only partially inside the band undercount, so this is strict
    assert near_zero / total >= 0.8


# ---------------------------------------------------------------------------
# synthetic pattern stores
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pattern", list(SyntheticPattern))
def test_patterns_generate_and_verify(pattern):
    store = generate_synthetic_kg(pattern, seed=5)
    assert len(store.train) > 0
    assert store.n_relations >= 1
    # splits are disjoint triple sets
    seen = {tuple(t) for t in store.train}
    for split in (store.valid, store.test):
        for row in split:
            assert tuple(row) not in seen


@pytest.mark.parametrize("pattern", list(SyntheticPattern))
def test_patterns_deterministic(pattern):
    a = generate_synthetic_kg(pattern, seed=9)
    b = generate_synthetic_kg(pattern, seed=9)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.test, b.test)


def test_one_to_n_category_matches_fan_out():
    store = generate_synthetic_kg(SyntheticPattern.ONE_TO_N, seed=6, fan=3)
    cats = categorize_relations(store)
    target = cats[store.relation_ids["target"]]
    assert target.hpt == pytest.approx(1.0)
    assert target.tph == pytest.approx(3.0)
    assert target.category is Category.ONE_TO_N


def test_n_to_one_category():
    store = generate_synthetic_kg(SyntheticPattern.N_TO_ONE, seed=6, fan=3)
    cats = categorize_relations(store)
    target = cats[store.relation_ids["target"]]
    assert target.category is Category.N_TO_ONE
    assert target.hpt == pytest.approx(3.0)
    assert target.tph == pytest.approx(1.0)


def test_n_to_n_category():
    store = generate_synthetic_kg(SyntheticPattern.N_TO_N, seed=6)
    cats = categorize_relations(store)
    target = cats[store.relation_ids["target"]]
    assert target.category is Category.N_TO_N


def test_symmetric_category_is_one_to_one():
    store = generate_synthetic_kg(SyntheticPattern.SYMMETRIC, seed=6)
    cats = categorize_relations(store)
    assert cats[0].category is Category.ONE_TO_ONE


def test_infeasible_sizes_rejected():
    with pytest.raises(ValueError):
        generate_synthetic_kg(SyntheticPattern.SYMMETRIC, seed=0, n_entities=4, n_pairs=10)
    with pytest.raises(ValueError):
        generate_synthetic_kg(SyntheticPattern.ONE_TO_N, seed=0, n_groups=1)
    with pytest.raises(ValueError):
        generate_synthetic_kg(SyntheticPattern.N_TO_N, seed=0, fan=1)


def test_pattern_accepts_string_names():
    store = generate_synthetic_kg("symmetric", seed=0)
    assert store.n_relations == 1

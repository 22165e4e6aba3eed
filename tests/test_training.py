import numpy as np
import pytest
import scipy.stats

from compound_kge.errors import TrainingDivergedError
from compound_kge.model import init_model, model_from_preset
from compound_kge.scoring import PRESETS, compound_spec, preset_rotate
from compound_kge.synthetic import SyntheticPattern, generate_synthetic_kg
from compound_kge.training import (
    Adam,
    TrainConfig,
    batch_loss_and_grads,
    loss,
    normalize_entities,
    sample_negatives,
    self_adversarial_weights,
    train,
    train_step,
)

from oracles import central_difference_at, frozen_weight_loss


def tiny_store():
    """5 entities, 2 relations, a handful of facts."""
    train = np.array(
        [[0, 0, 1], [1, 0, 2], [2, 0, 3], [3, 0, 4], [0, 1, 2], [1, 1, 3], [2, 1, 4]],
        dtype=np.int64,
    )
    from compound_kge.dataset import TripleStore

    return TripleStore(
        n_entities=5,
        n_relations=2,
        train=train,
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.empty((0, 3), dtype=np.int64),
        entity_names=[f"e{i}" for i in range(5)],
        relation_names=["r0", "r1"],
    )


def fresh_model(dim=8, n_entities=5, n_relations=2, seed=0, **kw):
    spec = compound_spec("full", "SRT", "SRT", dim=dim)
    return init_model(
        spec, n_entities, n_relations, np.random.default_rng(seed), **kw
    )


@pytest.mark.parametrize("valid_limit", [0, -1])
def test_train_config_rejects_non_positive_valid_limit(valid_limit):
    with pytest.raises(ValueError, match="^valid_limit must be positive"):
        TrainConfig(valid_limit=valid_limit)


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def test_sample_negatives_support():
    rng = np.random.default_rng(0)
    ids = sample_negatives(2, (3, 5), rng)
    assert ids.shape == (3, 5)
    assert ids.dtype == np.int64
    assert set(np.unique(ids)) <= {0, 1}


def test_sample_negatives_deterministic():
    a = sample_negatives(100, (4, 32), np.random.default_rng(7))
    b = sample_negatives(100, (4, 32), np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_sample_negatives_uniform_chi2():
    rng = np.random.default_rng(123)
    draws = sample_negatives(10, 100_000, rng)
    counts = np.bincount(draws, minlength=10)
    result = scipy.stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_sample_negatives_empty_entity_set():
    with pytest.raises(ValueError, match="empty entity set"):
        sample_negatives(0, (2, 4), np.random.default_rng(0))
    with pytest.raises(ValueError, match="two entities"):
        sample_negatives(1, (2, 4), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# adversarial weights
# ---------------------------------------------------------------------------

def test_weights_uniform_for_equal_scores():
    w = self_adversarial_weights(np.full(8, 3.3), 2.5)
    np.testing.assert_allclose(w, 1 / 8, rtol=1e-15)


def test_weights_uniform_at_zero_temperature():
    rng = np.random.default_rng(0)
    w = self_adversarial_weights(rng.normal(size=16), 0.0)
    np.testing.assert_allclose(w, 1 / 16, rtol=1e-15)


def test_weights_pinned_example():
    w = self_adversarial_weights(np.array([1.0, 2.0]), 1.0)
    np.testing.assert_allclose(w, [0.26894, 0.73106], atol=1e-5)


def test_weights_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(100):
        scores = rng.normal(scale=3, size=12)
        alpha = rng.uniform(0, 4)
        w = self_adversarial_weights(scores, alpha)
        direct = np.exp(alpha * scores) / np.sum(np.exp(alpha * scores))
        np.testing.assert_allclose(w, direct, atol=1e-12)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all((w >= 0) & (w <= 1))


def test_weights_monotone_in_score():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=10)
    w = self_adversarial_weights(scores, 1.5)
    order = np.argsort(scores)
    assert np.all(np.diff(w[order]) >= 0)


def test_weights_extreme_scores_stable():
    w = self_adversarial_weights(np.array([1e4, 0.0, -1e4]), 1.0)
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w.sum(), 1.0)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_at_margin_is_two_log_two():
    margin = 4.0
    weights = np.full(6, 1 / 6)
    value = loss(margin, np.full(6, margin), weights, margin)
    assert value == pytest.approx(2 * np.log(2), rel=1e-12)


def test_loss_limit_behavior():
    margin = 5.0
    weights = np.array([1.0])
    value = loss(0.0, np.array([1e6]), weights, margin)
    expected = -np.log(1.0 / (1.0 + np.exp(-margin)))
    assert value == pytest.approx(expected, rel=1e-9)


def test_loss_matches_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(100):
        pos = rng.uniform(0, 10)
        negs = rng.uniform(0, 10, size=8)
        w = self_adversarial_weights(negs, 1.0)
        margin = rng.uniform(1, 9)
        sigmoid = lambda x: 1 / (1 + np.exp(-x))
        direct = -np.log(sigmoid(margin - pos)) - np.sum(w * np.log(sigmoid(negs - margin)))
        assert loss(pos, negs, w, margin) == pytest.approx(direct, abs=1e-12)


def test_loss_no_overflow_at_700():
    value = loss(700.0, np.array([-700.0]), np.array([1.0]), 1.0)
    assert np.isfinite(value)


# ---------------------------------------------------------------------------
# entity normalization
# ---------------------------------------------------------------------------

def test_normalize_row_three_four():
    table = np.array([[3.0, 4.0]])
    n_bad = normalize_entities(table)
    assert n_bad == 0
    np.testing.assert_allclose(table, [[0.6, 0.8]])


def test_normalize_unit_row_unchanged():
    row = np.array([[1.0, 0.0, 0.0]])
    normalize_entities(row)
    np.testing.assert_array_equal(row, [[1.0, 0.0, 0.0]])


def test_normalize_random_table():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(50, 16))
    normalize_entities(table)
    np.testing.assert_allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-9)


def test_normalize_rerandomizes_degenerate_rows():
    table = np.zeros((3, 4))
    table[1] = [1.0, 2.0, 2.0, 0.0]
    n_bad = normalize_entities(table, np.random.default_rng(5))
    assert n_bad == 2
    np.testing.assert_allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer sanity
# ---------------------------------------------------------------------------

def test_adam_matches_hand_computation():
    opt = Adam(learning_rate=0.1)
    param = np.array([[1.0, 2.0]])
    g1 = np.array([[0.5, -0.5]])
    opt.begin_step()
    opt.update("p", param, np.array([0]), g1)
    # first step: m_hat = g, v_hat = g^2  ->  theta -= lr * g/(|g|+eps)
    expected = np.array([[1.0, 2.0]]) - 0.1 * g1 / (np.abs(g1) + 1e-8)
    np.testing.assert_allclose(param, expected, rtol=1e-9)

    g2 = np.array([[0.25, 0.25]])
    opt.begin_step()
    opt.update("p", param, np.array([0]), g2)
    m = 0.9 * (0.1 * g1) + 0.1 * g2
    v = 0.999 * (0.001 * g1**2) + 0.001 * g2**2
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    expected = expected - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(param, expected, rtol=1e-9)


def test_adam_untouched_rows_stay_put():
    opt = Adam(learning_rate=0.5)
    param = np.ones((4, 2))
    opt.begin_step()
    opt.update("p", param, np.array([1]), np.array([[1.0, 1.0]]))
    np.testing.assert_array_equal(param[[0, 2, 3]], np.ones((3, 2)))
    assert np.all(param[1] < 1.0)


# ---------------------------------------------------------------------------
# full-loss gradients vs finite differences (weights held constant)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build, B",
    [
        (lambda seed: fresh_model(dim=8, seed=seed, shared_rotation=True), 4),
        (lambda seed: fresh_model(dim=8, seed=seed, shared_rotation=False), 4),
        (lambda seed: model_from_preset(preset_rotate(8), 5, 2, np.random.default_rng(seed)), 4),
        # one row: only the head-corrupted pass has rows, the tail pass is empty
        (lambda seed: fresh_model(dim=8, seed=seed, shared_rotation=True), 1),
    ],
    ids=["shared-rotation", "unshared-rotation", "rotate-preset", "one-row"],
)
def test_batch_gradients_match_finite_differences(build, B):
    store = tiny_store()
    config = TrainConfig(batch_size=B, negative_size=3, margin=3.0, max_steps=1)
    rng = np.random.default_rng(6)
    model = build(6)
    normalize_entities(model.entities, rng)
    positives = store.train[:B]
    neg_ids = rng.integers(0, 5, size=(B, 3))
    corrupt_head = np.arange(B) % 2 == 0

    _, _, grads = batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)

    _, loss_with_fixed_weights = frozen_weight_loss(model, positives, neg_ids, corrupt_head, config)
    for name, (rows, analytic) in grads.items():
        table = model.table(name)
        for k in range(min(len(rows), 3)):
            row = rows[k]
            for col in range(min(analytic.shape[1], 4)):
                fd = central_difference_at(loss_with_fixed_weights, table, (row, col), 1e-6)
                assert analytic[k, col] == pytest.approx(fd, rel=1e-4, abs=1e-7), (
                    name,
                    row,
                    col,
                )


@pytest.mark.parametrize("shape", [*PRESETS, "srt-shared-rotation", "srt-unshared-rotation"])
def test_batch_gradients_cover_exactly_the_trainable_tables(shape):
    if shape in PRESETS:
        model = model_from_preset(PRESETS[shape](8), 5, 2, np.random.default_rng(0))
    else:
        model = fresh_model(shared_rotation=shape == "srt-shared-rotation")
    tr = model.trainable
    expected = {"entities"}
    for side in ("head", "tail"):
        for group, table in (("translation", "translations"), ("rotation", "angles"), ("scale", "scales")):
            if getattr(tr, f"{side}_{group}"):
                expected.add(f"{side}.{table}")
    if model.shared_rotation:
        # one angle table, reported under the head side
        expected.discard("tail.angles")
    store = tiny_store()
    config = TrainConfig(batch_size=4, negative_size=3)
    neg_ids = np.random.default_rng(1).integers(0, 5, size=(4, 3))
    _, _, grads = batch_loss_and_grads(
        model, store.train[:4], neg_ids, np.arange(4) % 2 == 0, config
    )
    assert set(grads) == expected


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

def test_train_step_zero_lr_is_noop():
    store = tiny_store()
    config = TrainConfig(learning_rate=0.0, batch_size=4, negative_size=4, max_steps=1)
    model = fresh_model()
    normalize_entities(model.entities, np.random.default_rng(0))
    before = model.entities.copy()
    value = train_step(
        model, store.train[:4], config, np.random.default_rng(1), Adam(config.learning_rate)
    )
    assert np.isfinite(value)
    np.testing.assert_array_equal(model.entities, before)


def test_train_step_entities_stay_unit():
    store = tiny_store()
    config = TrainConfig(learning_rate=0.05, batch_size=4, negative_size=4, max_steps=1)
    model = fresh_model()
    normalize_entities(model.entities, np.random.default_rng(0))
    opt = Adam(config.learning_rate)
    rng = np.random.default_rng(2)
    for _ in range(5):
        train_step(model, store.train[:4], config, rng, opt)
    np.testing.assert_allclose(np.linalg.norm(model.entities, axis=1), 1.0, atol=1e-9)


def test_train_step_diverged_reports_triples():
    store = tiny_store()
    config = TrainConfig(batch_size=4, negative_size=4, max_steps=1)
    model = fresh_model()
    model.entities[0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_step(
                model, store.train[:4], config, np.random.default_rng(0), Adam(config.learning_rate)
            )
    assert err.value.triples  # offending ids are reported


def test_train_step_loss_decreases_on_tiny_kg():
    store = tiny_store()
    config = TrainConfig(
        learning_rate=0.02, batch_size=7, negative_size=8, margin=4.0, max_steps=200
    )
    model = fresh_model(dim=8)
    normalize_entities(model.entities, np.random.default_rng(0))
    opt = Adam(config.learning_rate)
    rng = np.random.default_rng(3)
    losses = [
        train_step(model, store.train, config, rng, opt) for _ in range(200)
    ]
    assert np.mean(losses[-10:]) < 0.5 * losses[0]


def test_train_step_deterministic_trace():
    store = tiny_store()
    config = TrainConfig(learning_rate=0.01, batch_size=4, negative_size=4, max_steps=1)

    def run():
        model = fresh_model(seed=11)
        normalize_entities(model.entities, np.random.default_rng(11))
        opt = Adam(config.learning_rate)
        rng = np.random.default_rng(42)
        return [train_step(model, store.train[:4], config, rng, opt) for _ in range(20)], model

    trace_a, model_a = run()
    trace_b, model_b = run()
    assert trace_a == trace_b  # bitwise identical floats
    np.testing.assert_array_equal(model_a.entities, model_b.entities)
    np.testing.assert_array_equal(model_a.head.translations, model_b.head.translations)


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------

def test_train_zero_steps_returns_initial_model():
    store = generate_synthetic_kg(SyntheticPattern.ANTISYMMETRIC, seed=0)
    model = fresh_model(dim=8, n_entities=store.n_entities, n_relations=store.n_relations)
    entities_before = model.entities.copy()
    normalize_entities(entities_before, np.random.default_rng(0))
    config = TrainConfig(max_steps=0, seed=0)
    result = train(store, model, config)
    np.testing.assert_array_equal(result.model.entities, entities_before)
    assert result.log_rows == []


def test_train_log_row_count_equals_steps(tmp_path):
    store = generate_synthetic_kg(SyntheticPattern.ANTISYMMETRIC, seed=0)
    model = fresh_model(dim=8, n_entities=store.n_entities, n_relations=store.n_relations)
    config = TrainConfig(
        batch_size=16, negative_size=4, max_steps=25, valid_interval=10, seed=0
    )
    log_path = tmp_path / "log.csv"
    result = train(store, model, config, log_path=log_path)
    assert len(result.log_rows) == 25
    lines = log_path.read_text().strip().split("\n")
    assert lines[0] == "step,loss,valid_mrr,elapsed_seconds"
    assert len(lines) == 26
    # validation column filled exactly on validation steps
    for line in lines[1:]:
        step, _, mrr, _ = line.split(",")
        assert (mrr != "") == (int(step) % 10 == 0)


@pytest.mark.parametrize("valid_interval, builds", [(26, 0), (5, 1)])
def test_train_builds_filter_index_once_and_only_to_validate(
    monkeypatch, valid_interval, builds
):
    import compound_kge.training as training

    calls = []
    original = training.build_filter_index

    def counting(store):
        calls.append(1)
        return original(store)

    monkeypatch.setattr(training, "build_filter_index", counting)
    store = generate_synthetic_kg(SyntheticPattern.ANTISYMMETRIC, seed=0)
    model = fresh_model(dim=8, n_entities=store.n_entities, n_relations=store.n_relations)
    config = TrainConfig(
        batch_size=16, negative_size=4, max_steps=25, valid_interval=valid_interval,
        valid_limit=5,
    )
    result = train(store, model, config)
    assert sum(1 for row in result.log_rows if row[2] != "") == 25 // valid_interval
    assert len(calls) == builds


def test_train_without_validation_copies_the_model_once(monkeypatch):
    from compound_kge.model import KGEModel

    calls = []
    original = KGEModel.copy

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(KGEModel, "copy", counting)
    store = generate_synthetic_kg(SyntheticPattern.ANTISYMMETRIC, seed=0)
    model = fresh_model(dim=8, n_entities=store.n_entities, n_relations=store.n_relations)
    config = TrainConfig(batch_size=16, negative_size=4, max_steps=5, valid_interval=10)
    result = train(store, model, config)
    assert len(calls) == 1  # the returned best model, taken after the last step
    assert result.best_model is not result.model
    np.testing.assert_array_equal(result.best_model.entities, result.model.entities)


def test_train_empty_dataset_rejected():
    from compound_kge.dataset import TripleStore

    store = TripleStore(
        n_entities=2,
        n_relations=1,
        train=np.empty((0, 3), dtype=np.int64),
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.empty((0, 3), dtype=np.int64),
        entity_names=["a", "b"],
        relation_names=["r"],
    )
    model = fresh_model(n_entities=2, n_relations=1)
    with pytest.raises(ValueError, match="empty"):
        train(store, model, TrainConfig(max_steps=1))


def test_train_symmetric_relation_learns_small_translations(trained_symmetric):
    # a symmetric matching should not need translation: the trained
    # translation magnitudes stay near zero
    _, result = trained_symmetric
    translations = result.model.head.translations[0]
    assert np.mean(np.abs(translations)) < 0.1


def test_train_symmetric_reaches_high_test_mrr(trained_symmetric):
    from compound_kge.dataset import categorize_relations
    from compound_kge.evaluation import evaluate

    store, result = trained_symmetric
    report = evaluate(result.best_model, store, "test", categorize_relations(store))
    assert report.mrr > 0.9

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from compound_kge import training
from compound_kge.errors import TrainingDivergedError
from compound_kge.model import init_model, model_from_preset
from compound_kge.scoring import PRESETS, Norm, compound_spec, preset_rotate
from compound_kge.synthetic import SyntheticPattern, generate_synthetic_kg
from compound_kge.transforms import OperatorKind
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

from oracles import (
    WholeTableAdam,
    assert_same_batch,
    central_difference_at,
    frozen_weight_loss,
    record_submissions,
)


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


@pytest.mark.parametrize("field", ["learning_rate", "adversarial_temperature", "margin"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrainConfig(**{field: value})


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


def test_adam_untouched_rows_stay_put(monkeypatch):
    """Only the named rows move: one row, or five unsorted ones, in one
    optimizer slice or in slices of one, two or three rows."""
    for slice_rows in (None, 1, 2, 3):
        if slice_rows is not None:
            monkeypatch.setattr(training, "_ADAM_BYTES", slice_rows * 2 * 8)
        for rows in ([1], [5, 1, 6, 2, 0]):
            opt = Adam(learning_rate=0.5)
            param = np.ones((8, 2))
            opt.begin_step()
            opt.update("p", param, np.array(rows), np.ones((len(rows), 2)))
            untouched = np.setdiff1d(np.arange(8), rows)
            np.testing.assert_array_equal(param[untouched], np.ones((len(untouched), 2)))
            assert np.all(param[rows] < 1.0)


@pytest.mark.parametrize("thread", ["worker", "inline"])
@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_sliced_adam_equals_the_whole_table_textbook_update(monkeypatch, order, thread):
    """Three steps over 23 distinct rows of 40 in 5-row slices (five slices,
    the last one of three rows) leave the table and both moments with the
    bits of the textbook update over the whole gathered arrays, with the odd
    slices on the worker thread or every slice on the calling one."""
    d = 6
    monkeypatch.setattr(training, "_ADAM_BYTES", 5 * d * 8)
    if thread == "inline":
        monkeypatch.setattr(training, "_worker", lambda: None)
    else:
        submitted = record_submissions(monkeypatch)
    rng = np.random.default_rng(8)
    got = rng.normal(size=(40, d))
    want = got.copy()
    sliced, whole = Adam(learning_rate=0.1), WholeTableAdam(learning_rate=0.1)
    for _ in range(3):
        rows = rng.choice(40, 23, replace=False)
        if order == "sorted":
            rows = np.sort(rows)
        grads = rng.normal(size=(23, d))
        for opt, param in ((sliced, got), (whole, want)):
            opt.begin_step()
            opt.update("p", param, rows, grads)
        assert got.tobytes() == want.tobytes()
        for got_moment, want_moment in zip(sliced._moments["p"], whole._moments["p"]):
            assert got_moment.tobytes() == want_moment.tobytes()
    if thread == "worker":
        assert len(submitted) == 3 * 2  # slices 1 and 3 of each step


def test_adam_at_the_tier_one_shape_hands_the_worker_nothing(monkeypatch):
    """At the acceptance tests' training shape (d=32, B=64, N=32) every
    table fits one optimizer slice, even with all B(N+2) entity ids of a
    step distinct, so no table pays for a hand-off to the worker; a batch
    there is one row part per group, so a whole step submits nothing."""
    submitted = record_submissions(monkeypatch)
    d, B, N = 32, 64, 32
    opt = Adam(learning_rate=0.01)
    opt.begin_step()
    rows = np.arange(B * (N + 2))
    opt.update("p", np.zeros((len(rows), d)), rows, np.ones((len(rows), d)))
    model = MIXED_BATCH_MODELS["srt-l1"](d, 3000, np.random.default_rng(2))
    positives, _, _ = mixed_batch(3000, 3 * B, N, seed=2)
    config = TrainConfig(batch_size=B, negative_size=N)
    rng, opt = np.random.default_rng(2), Adam(config.learning_rate)
    for step in range(3):
        train_step(model, positives[step * B : (step + 1) * B], config, rng, opt)
    assert submitted == []


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
    """A side's operator tables get gradient exactly when its chain holds
    the operator; under shared rotation one angle table takes both sides'."""
    T, R, S = OperatorKind
    if shape in PRESETS:
        model = model_from_preset(PRESETS[shape](8), 5, 2, np.random.default_rng(0))
    else:
        model = fresh_model(shared_rotation=shape == "srt-shared-rotation")
    expected = {"entities"}
    for side in ("head", "tail"):
        chain = getattr(model.spec, f"{side}_chain")
        for op, table in ((T, "translations"), (R, "angles"), (S, "scales")):
            if op in chain:
                owner = "head" if model.shared_rotation and op is R else side
                expected.add(f"{owner}.{table}")
    store = tiny_store()
    config = TrainConfig(batch_size=4, negative_size=3)
    neg_ids = np.random.default_rng(1).integers(0, 5, size=(4, 3))
    _, _, grads = batch_loss_and_grads(
        model, store.train[:4], neg_ids, np.arange(4) % 2 == 0, config
    )
    assert set(grads) == expected


def test_row_sums_equal_one_2d_add_at_over_the_concatenation(monkeypatch):
    """Each table's row sums are bit for bit those of np.unique and one 2-D
    np.add.at over its concatenated gradient rows, and the ids passed along
    (what the benchmark's tracer counts as rows in) name every gradient row.
    Five entities make every id recur across the pieces, and a 32-row group
    with 40 negatives gives a 1,312-row candidate piece, longer than one
    scatter chunk.  At d = 14 and d = 2 the tables are d wide, summed two
    coordinates at a time, and the angles d / 2, an odd width (7 and 1)
    summed one at a time."""
    calls = []

    def checked(ids, pieces):
        pieces = list(pieces)  # a generator: the entities' run the batch's row parts
        rows, summed = accumulate(ids, pieces)
        calls.append((ids, pieces))
        assert len(ids) == sum(len(piece) for piece in pieces)
        want_rows, inverse = np.unique(ids, return_inverse=True)
        want = np.zeros_like(summed)
        np.add.at(want, inverse, np.concatenate(pieces))
        assert np.array_equal(rows, want_rows)
        assert summed.tobytes() == want.tobytes()
        return rows, summed

    accumulate = training._accumulate_rows
    monkeypatch.setattr(training, "_accumulate_rows", checked)
    config = TrainConfig(batch_size=64, negative_size=40)
    for dim in (14, 2):
        calls.clear()
        rng = np.random.default_rng(7)
        model = fresh_model(dim=dim, seed=7)
        positives = np.stack([rng.integers(0, n, 64) for n in (5, 2, 5)], axis=1)
        neg_ids = rng.integers(0, 5, size=(64, 40))
        corrupt_head = np.arange(64) % 2 == 0
        _, _, grads = batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
        assert len(calls) == len(grads)
        assert {piece.shape[1] for _, pieces in calls for piece in pieces} == {dim, dim // 2}
        ids, pieces = calls[0]  # the entities'
        assert all(piece.strides[1] == 8 for piece in pieces)  # rows contiguous: in pairs
        assert max(len(piece) for piece in pieces) > training._SCATTER_ROWS
        assert len(np.intersect1d(ids[: len(pieces[0])], ids[len(pieces[0]) :])) == 5


def test_row_sums_of_strided_pieces_beside_contiguous_ones_change_no_bit():
    """Pieces of an even width whose coordinates are strided, summed one
    coordinate at a time, and pieces whose rows are contiguous (with or
    without gaps between the rows), summed in pairs, add into one
    accumulator with the bits of one 2-D np.add.at over the concatenation."""
    rng = np.random.default_rng(9)
    wide = rng.normal(size=(2000, 12))
    pieces = [wide[:700, ::2], rng.normal(size=(1300, 6)), wide[700:, 6:]]
    ids = rng.integers(0, 40, size=sum(len(piece) for piece in pieces))
    rows, summed = training._accumulate_rows(ids, pieces)
    want_rows, inverse = np.unique(ids, return_inverse=True)
    want = np.zeros_like(summed)
    np.add.at(want, inverse, np.concatenate(pieces))
    assert np.array_equal(rows, want_rows)
    assert summed.tobytes() == want.tobytes()


# full SRT/SRT under L1 and RotatE under L2, over n entities and 5 relations
MIXED_BATCH_MODELS = {
    "srt-l1": lambda d, n, rng: init_model(compound_spec("full", "SRT", "SRT", d), n, 5, rng),
    "rotate-l2": lambda d, n, rng: model_from_preset(preset_rotate(d, Norm.L2), n, 5, rng),
}


def mixed_batch(n, B, N, seed):
    rng = np.random.default_rng(seed)
    positives = np.stack([rng.integers(0, m, B) for m in (n, 5, n)], axis=1)
    return positives, rng.integers(0, n, (B, N)), np.arange(B) % 2 == 0


@pytest.mark.parametrize("name", list(MIXED_BATCH_MODELS))
def test_two_group_batch_holds_one_group_at_a_time(name):
    """A group's forward, loss and backward run before the next group's
    forward, so a two-group batch's traced peak exceeds that of a batch of
    its head-corrupted rows alone by less than 1.5 (B/2, 1+N, d) float64
    arrays: the first group's candidate gradients wait for the row sums,
    its tapes do not.  100 entities keep the row sums' accumulator small
    beside a group's arrays."""
    d, B, N = 64, 64, 63
    model = MIXED_BATCH_MODELS[name](d, 100, np.random.default_rng(3))
    positives, neg_ids, corrupt_head = mixed_batch(100, B, N, seed=3)
    config = TrainConfig(batch_size=B, negative_size=N)
    head_only = (positives[corrupt_head], neg_ids[corrupt_head], corrupt_head[corrupt_head])

    def traced_peak(args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch_loss_and_grads(model, *args, config)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one = traced_peak(head_only)
    two = traced_peak((positives, neg_ids, corrupt_head))
    unit = (B // 2) * (1 + N) * d * 8
    assert two - one < 1.5 * unit, ((two - one) / unit, one / unit)


def test_row_sums_beside_a_large_entity_table_add_only_their_accumulator(monkeypatch):
    """Each row part's candidate rows are summed as the part finishes, so in
    one-row parts a call over 14,541 entities holds less than one
    (B/2, 1+N, d) float64 array beside the (unique rows, d) accumulator,
    with the worker thread and on the calling thread alone: the row sums no
    longer wait for every group's candidate gradients.  On the calling
    thread alone the call also peaks above the same call over 100 entities
    by at most the accumulator.  With the worker thread both peaks also move
    with where the worker's part is when the caller's peaks, by more than
    the margin that the 100-entity call's accumulator and ids leave under
    that bound, so the difference is checked on the calling thread alone."""
    d, B, N = 64, 64, 63
    monkeypatch.setattr(training, "_PART_BYTES", (1 + N) * d * 8)
    config = TrainConfig(batch_size=B, negative_size=N)
    for worker in (training._worker, lambda: None):
        monkeypatch.setattr(training, "_worker", worker)
        peaks = {}
        for n in (100, 14541, 100, 14541):  # the first two calls start the worker thread
            model = MIXED_BATCH_MODELS["rotate-l2"](d, n, np.random.default_rng(3))
            positives, neg_ids, corrupt_head = mixed_batch(n, B, N, seed=3)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        accumulator = len(np.union1d(positives[:, [0, 2]], neg_ids)) * d * 8
        unit = (B // 2) * (1 + N) * d * 8
        assert peaks[14541] - accumulator < unit, (peaks[14541] - accumulator) / unit
    assert peaks[14541] - peaks[100] <= accumulator, (peaks[14541] - peaks[100]) / accumulator


def test_a_failing_row_part_raises_once_both_parts_are_done(monkeypatch):
    """A part that raises, on the worker thread or on the calling one while
    the worker's part is still running, fails the call with its own error
    once no part is in flight, and the next call equals a fresh one."""
    if training._worker() is None:
        pytest.skip("one CPU: every part runs on the calling thread")
    model = MIXED_BATCH_MODELS["srt-l1"](8, 7, np.random.default_rng(5))
    positives, neg_ids, corrupt_head = mixed_batch(7, 12, 4, seed=5)
    config = TrainConfig(batch_size=12, negative_size=4)
    want = batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
    monkeypatch.setattr(training, "_PART_BYTES", 2 * 5 * 8 * 8)  # 2-row parts
    backward, submitted = training.chain_backward, record_submissions(monkeypatch)
    for failing in ("worker", "caller"):

        def chain_backward(*args):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (failing == "worker"):
                raise FloatingPointError(failing)
            time.sleep(0.05)  # the other part is still running when it raises
            return backward(*args)

        submitted.clear()
        monkeypatch.setattr(training, "chain_backward", chain_backward)
        with pytest.raises(FloatingPointError, match=failing):
            batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
        assert submitted and all(future.done() for future in submitted)
        monkeypatch.setattr(training, "chain_backward", backward)
        got = batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
        assert_same_batch(got, want)


def test_one_row_parts_under_a_short_switch_interval_change_no_bit(monkeypatch):
    """64 one-row parts per group, the two threads switching every 10 µs,
    give the same bits as the same call with every part on the calling
    thread: the worker reads the model and returns its parts' results.  It
    writes only in the optimizer step, which starts once every part is
    done, and then only its own slices' distinct rows."""
    model = MIXED_BATCH_MODELS["srt-l1"](8, 40, np.random.default_rng(6))
    positives, neg_ids, corrupt_head = mixed_batch(40, 128, 4, seed=6)
    config = TrainConfig(batch_size=128, negative_size=4)
    monkeypatch.setattr(training, "_PART_BYTES", 5 * 8 * 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(training, "_worker", lambda: None)
    assert_same_batch(got, batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config))


@pytest.mark.parametrize("name", list(MIXED_BATCH_MODELS))
def test_row_loss_does_not_depend_on_the_other_group(name):
    """A row's weights and loss read only its own scores: each row's loss in
    a mixed batch is bit-identical to its loss in a batch of its own
    group's rows alone (where the other group runs on empty arrays)."""
    model = MIXED_BATCH_MODELS[name](10, 7, np.random.default_rng(4))
    positives, neg_ids, corrupt_head = mixed_batch(7, 9, 6, seed=4)
    config = TrainConfig(batch_size=9, negative_size=6)
    _, mixed, _ = batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
    for group in (corrupt_head, ~corrupt_head):
        _, alone, _ = batch_loss_and_grads(
            model, positives[group], neg_ids[group], corrupt_head[group], config
        )
        assert alone.tobytes() == mixed[group].tobytes()


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


def test_degenerate_rows_in_two_slices_draw_as_one_whole_renormalization(monkeypatch):
    """An update that leaves degenerate entity rows in the first and the
    last of several slices: train_step re-randomizes them, slice by slice,
    to the bits of one normalize_entities call over every touched row from
    the same rng state, and leaves the rng where that call does."""
    d = 8
    monkeypatch.setattr(training, "_ADAM_BYTES", 3 * d * 8)
    model = MIXED_BATCH_MODELS["srt-l1"](d, 20, np.random.default_rng(12))
    positives, _, _ = mixed_batch(20, 16, 4, seed=12)
    config = TrainConfig(batch_size=16, negative_size=4)
    rng, seen = np.random.default_rng(13), {}

    class Zeroing(Adam):
        def update(self, name, param, rows, grads):
            super().update(name, param, rows, grads)
            if name == "entities":
                param[rows[[0, -1]]] = 0.0
                seen.update(table=param.copy(), rows=rows, rng=rng.bit_generator.state)

    train_step(model, positives, config, rng, Zeroing(config.learning_rate))
    rows, want = seen["rows"], seen["table"]
    assert len(training._slices(len(rows), d * 8, training._ADAM_BYTES)) > 2
    whole_rng = np.random.default_rng()
    whole_rng.bit_generator.state = seen["rng"]
    touched = want[rows]
    assert normalize_entities(touched, whole_rng) == 2
    want[rows] = touched
    assert model.entities.tobytes() == want.tobytes()
    assert rng.bit_generator.state == whole_rng.bit_generator.state


def test_train_steps_in_small_slices_under_a_short_switch_interval_change_no_bit(monkeypatch):
    """Three train_steps in 2-row parts and 8-row optimizer slices, the two
    threads switching every 10 µs, leave every table, both moments of each
    and the rng with the bits of the same steps run on the calling thread
    alone."""
    d, n, B = 8, 60, 64
    monkeypatch.setattr(training, "_PART_BYTES", 2 * 5 * d * 8)
    monkeypatch.setattr(training, "_ADAM_BYTES", 8 * d * 8)
    config = TrainConfig(learning_rate=0.05, batch_size=B, negative_size=4)

    def run():
        model = MIXED_BATCH_MODELS["srt-l1"](d, n, np.random.default_rng(9))
        positives, _, _ = mixed_batch(n, 3 * B, 4, seed=9)
        rng, opt = np.random.default_rng(10), Adam(config.learning_rate)
        losses = np.array(
            [train_step(model, positives[s * B : (s + 1) * B], config, rng, opt) for s in range(3)]
        ).tobytes()
        moments = {name: (m.tobytes(), v.tobytes()) for name, (m, v) in opt._moments.items()}
        tables = {name: table.tobytes() for name, table in model.tables().items()}
        return losses, tables, moments, rng.bit_generator.state

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run()
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(training, "_worker", lambda: None)
    assert got == run()


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

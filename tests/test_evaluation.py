import json
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from compound_kge import evaluation, training
from compound_kge.dataset import TripleStore, build_filter_index, categorize_relations
from compound_kge.evaluation import Direction, MetricCell, evaluate, filtered_rank
from compound_kge.model import init_model
from compound_kge.scoring import compound_spec, score
from compound_kge.transforms import chain_affine_map

from oracles import known_answers, oracle_rank, random_model, random_store, record_submissions


# ---------------------------------------------------------------------------
# filtered_rank
# ---------------------------------------------------------------------------

def test_rank_one_when_truth_is_best():
    rng = np.random.default_rng(0)
    store = random_store(rng, 5, 1, 6, 2)
    spec = compound_spec("full", "SRT", "SRT", dim=4)
    model = init_model(spec, 5, 1, rng)
    triple = store.test[0]
    h, r, t = (int(x) for x in triple)
    # plant the transformed head exactly on the true tail's image
    from compound_kge.transforms import apply_chain

    params = model.relation_params(r)
    target = apply_chain(model.entities[t], spec.tail_chain, params.tail)
    # head chain is S.R.T; invert it block-wise through the oracle matrices
    from compound_kge.transforms import chain_block_matrices, invert_compound_2d

    mats = chain_block_matrices(spec.head_chain, params.head)
    h_vec = np.empty(4)
    for i, m in enumerate(mats):
        inv = invert_compound_2d(m)
        v = inv @ np.array([target[2 * i], target[2 * i + 1], 1.0])
        h_vec[2 * i : 2 * i + 2] = v[:2]
    model.entities[h] = h_vec
    index = build_filter_index(store)
    assert filtered_rank(model, triple, Direction.TAIL, index) == 1


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_rank_matches_full_sort_oracle(norm):
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        store = random_store(rng, n, 2, 3 * n, n // 2)
        model = random_model(rng, n, 2, dim=6, norm=norm)
        index, known = build_filter_index(store), known_answers(store)
        for triple in store.test[:5]:
            for direction in Direction:
                got = filtered_rank(model, triple, direction, index)
                want = oracle_rank(model, triple, direction, known)
                assert got == want


def test_rank_small_chunks_match_full_sort():
    rng = np.random.default_rng(2)
    store = random_store(rng, 40, 1, 100, 10)
    model = random_model(rng, 40, 1)
    index = build_filter_index(store)
    for triple in store.test[:5]:
        baseline = filtered_rank(model, triple, Direction.TAIL, index)
        for chunk in (1, 3, 7, 64):
            assert filtered_rank(model, triple, Direction.TAIL, index, chunk_size=chunk) == baseline


def test_filtering_reduces_rank():
    rng = np.random.default_rng(3)
    store = random_store(rng, 20, 1, 80, 10)
    model = random_model(rng, 20, 1)
    index = build_filter_index(store)
    no_triples = np.empty((0, 3), dtype=np.int64)
    empty = build_filter_index(replace(store, train=no_triples, valid=no_triples, test=no_triples))
    for triple in store.test:
        for direction in Direction:
            filtered = filtered_rank(model, triple, direction, index)
            raw = filtered_rank(model, triple, direction, empty)
            assert filtered <= raw


def test_rank_bounds():
    rng = np.random.default_rng(4)
    store = random_store(rng, 25, 1, 70, 8)
    model = random_model(rng, 25, 1)
    index = build_filter_index(store)
    for triple in store.test:
        h, r, t = (int(x) for x in triple)
        n_filtered = np.count_nonzero(index.true_tails(h, r) != t)
        rank = filtered_rank(model, triple, Direction.TAIL, index)
        assert 1 <= rank <= 25 - n_filtered


def test_tie_handling_mean_rank():
    # all entities identical: every candidate ties; mean-of-ties rank
    store = TripleStore(
        n_entities=7,
        n_relations=1,
        train=np.array([[0, 0, 1]]),
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.array([[2, 0, 3]]),
        entity_names=list("abcdefg"),
        relation_names=["r"],
    )
    spec = compound_spec("full", "SRT", "SRT", dim=4)
    model = init_model(spec, 7, 1, np.random.default_rng(0))
    model.entities[:] = 1.0 / 2.0  # all rows equal
    index = build_filter_index(store)
    rank = filtered_rank(model, store.test[0], Direction.TAIL, index)
    # 7 candidates, none filtered (no shared (h, r)); 6 ties -> 1 + 6 // 2
    assert rank == 4
    assert rank == oracle_rank(model, store.test[0], Direction.TAIL, known_answers(store))


def rescored_pairs_and_mrr(monkeypatch, norm):
    """The pairs a screen leaves to the direct path, and the MRR against the
    oracle's, on planted ties: 5% of rows copy another row exactly, 5% sit
    one ulp from one, and a fifth of the scales are zero."""
    rng = np.random.default_rng(15)
    n = 1000
    store = random_store(rng, n, 2, 3000, 10, 30)
    model = random_model(rng, n, 2, dim=8, norm=norm)
    for scales in (model.head.scales, model.tail.scales):
        scales[rng.random(scales.shape) < 0.2] = 0.0
    ents = model.entities
    ents[rng.integers(0, n, 50)] = ents[rng.integers(0, n, 50)]
    ents[rng.integers(0, n, 50)] = np.nextafter(ents[rng.integers(0, n, 50)], np.inf)

    rescored = []
    direct = evaluation._add_direct

    def counting(counts, signs, *args):
        # the screen's uncertain pairs, not the filtered ids
        rescored.append(np.count_nonzero(signs > 0))
        return direct(counts, signs, *args)

    monkeypatch.setattr(evaluation, "_add_direct", counting)
    report = evaluate(model, store, "test", None)
    monkeypatch.undo()
    known = known_answers(store)
    ranks = [oracle_rank(model, t, d, known, score_fn=score) for t in store.test for d in Direction]
    assert report.mrr == MetricCell.from_ranks(np.array(ranks)).mrr
    return sum(rescored), 2 * len(store.test), n


def test_l2_screen_rescores_under_one_percent_of_candidates(monkeypatch):
    rescored, queries, n = rescored_pairs_and_mrr(monkeypatch, "l2")
    assert queries <= rescored <= 0.01 * queries * n  # every truth is rescored


def test_l1_screen_rescores_under_one_percent_of_candidates(monkeypatch):
    rescored, queries, n = rescored_pairs_and_mrr(monkeypatch, "l1")
    assert queries <= rescored <= 0.01 * queries * n  # every truth is rescored


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_nan_entity_rows_rank_as_the_oracle(norm):
    # a NaN score sorts after every number and ties every other NaN, as in
    # np.sort: a NaN ground truth or fixed side never ranks 0 (MRR inf)
    rng = np.random.default_rng(16)
    store = random_store(rng, 20, 2, 40, 4, 6)
    model = random_model(rng, 20, 2, dim=6, norm=norm)
    # a NaN truth among finite candidates, and a NaN fixed side (all NaN)
    model.entities[[store.test[0, 0], store.test[1, 2]]] = np.nan
    with np.errstate(divide="raise"):
        report = evaluate(model, store, "test", None)
    known = known_answers(store)
    ranks = [oracle_rank(model, t, d, known, score_fn=score) for t in store.test for d in Direction]
    assert np.isfinite(report.mrr)
    assert report.mrr == MetricCell.from_ranks(np.array(ranks)).mrr


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_each_query_of_a_tile_takes_its_own_groups_band(norm):
    # at d = 16 a tile holds two queries, so the head and the tail query of
    # one test triple share a tile.  The head side scales by 1e-3; the tail
    # side rotates and then scales its two coordinates by 1e3 and 1e-3, and
    # the true tail and an unfiltered twin are planted where the large scale
    # cancels, so their image is tiny although |A||x| is about 1e3 per
    # block.  Only the tail group's own band, 1e6 times wider than the head
    # group's, covers the rounding of that cancellation in the screen; a
    # band too narrow certifies both rows on the same side of the truth,
    # which moves the rank whichever side that is.
    rng = np.random.default_rng(22)
    store = random_store(rng, 30, 1, 40, 1, 1)
    model = random_model(rng, 30, 1, dim=16, norm=norm)
    model.head.scales[...] = 1e-3
    model.head.translations[...] = 0.0
    model.tail.translations[...] = 0.0
    model.tail.scales[...] = np.tile([1e3, 1e-3], 8)
    model.tail.angles[...] = rng.uniform(np.pi / 8, 3 * np.pi / 8, size=model.tail.angles.shape)
    a, _ = chain_affine_map(model.spec.tail_chain, model.relation_params(0).tail)
    image = np.stack([np.zeros(8), 1e-3 * rng.uniform(0.5, 1.0, size=8)], axis=-1)
    h, _, t = store.test[0]
    known = known_answers(store)
    twin = min(set(range(30)) - known[0][(h, 0)] - {h})
    model.entities[[t, twin]] = np.linalg.solve(a, image[..., None]).reshape(-1)
    report = evaluate(model, store, "test", None)
    for direction in Direction:
        rank = oracle_rank(model, store.test[0], direction, known, score_fn=score)
        assert report.by_direction_category[direction.value]["all"] == MetricCell.from_ranks([rank])


@pytest.mark.parametrize("norm, scale, tiny", [("l1", 1e36, 1e-44), ("l2", 1e140, 1e-160)])
def test_each_query_of_a_tile_takes_its_own_groups_underflow_term(norm, scale, tiny):
    # the head and the tail query of one test triple share a tile at d = 16.
    # The tail side scales by `scale`, and the true tail's coordinates are
    # `tiny`, so the L1 screen's float32 cast of them, or the L2 screen's
    # float64 squares, are subnormal and lose up to half the smallest
    # subnormal each, which the tail's weights magnify a billion times past
    # every other term of the band (the fixed side is as small as the
    # truth's image).  Only the tail group's own underflow term covers that
    # loss; with the head group's, from unit scales, the screen certifies
    # the truth and an unfiltered twin of it on one side of the truth's own
    # score, which moves its rank whichever side that is.
    rng = np.random.default_rng(24)
    store = random_store(rng, 30, 1, 40, 1, 1)
    model = random_model(rng, 30, 1, dim=16, norm=norm)
    model.head.scales[...] = 1.0
    model.head.translations[...] = 0.0
    model.tail.translations[...] = 0.0
    model.tail.scales[...] = scale
    h, _, t = store.test[0]
    signs = rng.choice([-1.0, 1.0], size=(2, 16))
    model.entities[[h, t]] = signs * rng.uniform(0.5, 1.0, size=(2, 16)) * [[scale * tiny], [tiny]]
    known = known_answers(store)
    twin = min(set(range(30)) - known[0][(h, 0)] - {h})
    model.entities[twin] = model.entities[t]
    report = evaluate(model, store, "test", None)
    for direction in Direction:
        rank = oracle_rank(model, store.test[0], direction, known, score_fn=score)
        assert report.by_direction_category[direction.value]["all"] == MetricCell.from_ranks([rank])


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_one_pass_over_a_block_screens_every_group(monkeypatch, norm):
    # two test triples of different relations make four one-query groups;
    # at d = 200 a tile holds 25 queries, so each block (one, or with a
    # second CPU two) is scored once
    rng = np.random.default_rng(21)
    store = random_store(rng, 50, 2, 100, 2, 20)
    firsts = [np.flatnonzero(store.test[:, 1] == r)[0] for r in (0, 1)]
    store = replace(store, test=store.test[firsts])
    model = random_model(rng, 50, 2, dim=200, norm=norm)
    starts = []
    score_block = evaluation._score_block

    def counting(*args):
        starts.append(args[-1])
        return score_block(*args)

    monkeypatch.setattr(evaluation, "_score_block", counting)
    report = evaluate(model, store, "test", None)
    assert 0 in starts and len(set(starts)) == len(starts)
    known = known_answers(store)
    ranks = [oracle_rank(model, t, d, known, score_fn=score) for t in store.test for d in Direction]
    assert report.mrr == MetricCell.from_ranks(np.array(ranks)).mrr


@pytest.mark.parametrize(
    "norm, tiles", [("l1", ([30, 30], [25, 5])), ("l2", ([25, 25, 10], [25, 5]))]
)
def test_only_the_l2_screen_cuts_a_large_group(monkeypatch, norm, tiles):
    # 30 test triples of one relation make two 30-query groups; at d = 200
    # the L2 screen cuts the query table every 25 queries, across groups,
    # and the L1 screen, whose buffers do not grow with a tile, keeps each
    # group whole.  15 triples of 15 relations make 30 one-query groups,
    # which both screens take in tiles of 25 and 5, in every block
    sizes, screen = {}, getattr(evaluation, f"_screen_{norm}")

    def counting(*args):
        # keyed by the block's address; seg has one entry per query of the tile
        sizes.setdefault(args[1].ctypes.data, []).append(len(args[4]))
        return screen(*args)

    monkeypatch.setattr(evaluation, f"_screen_{norm}", counting)
    rng = np.random.default_rng(23)
    for n_relations, want in zip((1, 15), tiles):
        store = random_store(rng, 50, n_relations, 100, 2, 30 if n_relations == 1 else 300)
        if n_relations > 1:
            firsts = [np.flatnonzero(store.test[:, 1] == r)[0] for r in range(n_relations)]
            store = replace(store, test=store.test[firsts])
        model = random_model(rng, 50, n_relations, dim=200, norm=norm)
        sizes.clear()
        report = evaluate(model, store, "test", None)
        assert sizes and all(block == want for block in sizes.values())
        known = known_answers(store)
        ranks = [
            oracle_rank(model, t, d, known, score_fn=score) for t in store.test for d in Direction
        ]
        assert report.mrr == MetricCell.from_ranks(np.array(ranks)).mrr


# ---------------------------------------------------------------------------
# Blocks on two CPUs
# ---------------------------------------------------------------------------

def block_edges(n_entities, chunk_size, two_cpus):
    """The edges of ``_ranks``' blocks: ceil(E / chunk_size) equal cuts, an
    even number of them with a second CPU."""
    n = -(-n_entities // chunk_size)
    n += n % 2 if two_cpus else 0
    return [n_entities * k // n for k in range(n + 1)]


def record_blocks(monkeypatch):
    """Patch ``evaluation._score_block`` to record every scored block;
    returns the list of their ``(start, rows, thread, counts)``."""
    blocks, score_block = [], evaluation._score_block

    def recording(model, table, tiles, block, start):
        counts = score_block(model, table, tiles, block, start)
        blocks.append((start, len(block), threading.current_thread(), counts))
        return counts

    monkeypatch.setattr(evaluation, "_score_block", recording)
    return blocks


@pytest.mark.parametrize("chunk_size", [1, 2, 7, evaluation.DEFAULT_CHUNK_SIZE])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_ranks_do_not_depend_on_the_worker(monkeypatch, norm, chunk_size):
    """``_ranks`` and ``evaluate()`` give the same ranks and reports with the
    worker (an even number of blocks, the odd ones on the worker thread,
    switching every 10 µs with the calling one) and on the calling thread
    alone, over 30 entities with two NaN rows, one of them a test triple's
    head, and queries whose filtered ids lie on both sides of a block
    boundary in both cuts."""
    rng = np.random.default_rng(31)
    store = random_store(rng, 30, 2, 300, 2, 12)
    model = random_model(rng, 30, 2, dim=6, norm=norm)
    model.entities[[store.test[0, 0], 17]] = np.nan
    index = build_filter_index(store)
    tails = known_answers(store)[0]
    for two_cpus in (True, False):
        edges = block_edges(30, chunk_size, two_cpus)
        if len(edges) > 2:
            blocks_of = [
                set(np.searchsorted(edges, sorted(tails[h, r] - {t}), side="right"))
                for h, r, t in store.test.tolist()
            ]
            assert max(map(len, blocks_of)) > 1
    got, submitted, blocks = {}, record_submissions(monkeypatch), record_blocks(monkeypatch)
    for name in ("worker", "inline"):
        if name == "inline":
            monkeypatch.setattr(training, "_worker", lambda: None)
        blocks.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            ranks = evaluation._ranks(model, store.test, tuple(Direction), index, chunk_size)
            report = evaluate(model, store, "test", None, filter_index=index, chunk_size=chunk_size)
        finally:
            sys.setswitchinterval(interval)
        edges = block_edges(30, chunk_size, name == "worker")
        cut = [(lo, hi - lo) for lo, hi in zip(edges, edges[1:])]
        assert sorted(b[:2] for b in blocks) == sorted(2 * cut)  # in each of two calls
        got[name] = ranks, report.to_json()
    # half of the worker's blocks, in each of two calls
    assert len(submitted) == len(block_edges(30, chunk_size, True)) - 1
    assert np.array_equal(got["worker"][0], got["inline"][0])
    assert got["worker"][1] == got["inline"][1]


def test_a_one_entity_table_scores_no_empty_block(monkeypatch):
    """With the worker a one-entity table rounds its one block up to two, of
    which only the one-row block is scored, on the calling thread."""
    store = TripleStore(
        n_entities=1,
        n_relations=2,
        train=np.array([[0, 0, 0]]),
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.array([[0, 1, 0]]),
        entity_names=["e0"],
        relation_names=["r0", "r1"],
    )
    submitted, blocks = record_submissions(monkeypatch), record_blocks(monkeypatch)
    for norm in ("l1", "l2"):
        model = random_model(np.random.default_rng(32), 1, 2, norm=norm)
        blocks.clear()
        report = evaluate(model, store, "test", None)
        assert [b[:2] for b in blocks] == [(0, 1)] and not submitted
        assert report.mrr == 1.0


@pytest.mark.parametrize(
    "chunk_size, n_blocks", [(evaluation.DEFAULT_CHUNK_SIZE, 2), (8, 4), (11, 4)]
)
def test_the_worker_scores_exactly_the_odd_blocks(monkeypatch, chunk_size, n_blocks):
    """A 30-entity table in two or four blocks hands the worker blocks 1 and
    3 and nothing else; on one CPU the table is ceil(30 / chunk_size) blocks,
    all scored on the calling thread."""
    rng = np.random.default_rng(33)
    store = random_store(rng, 30, 2, 60, 2, 4)
    model = random_model(rng, 30, 2)
    submitted, blocks = record_submissions(monkeypatch), record_blocks(monkeypatch)
    evaluate(model, store, "test", None, chunk_size=chunk_size)
    blocks.sort(key=lambda b: b[0])
    assert len(blocks) == n_blocks and len(submitted) == n_blocks // 2
    for future, block in zip(submitted, blocks[1::2]):
        assert future.result() is block[3]
    monkeypatch.setattr(training, "_worker", lambda: None)
    blocks.clear()
    evaluate(model, store, "test", None, chunk_size=chunk_size)
    assert sorted(b[0] for b in blocks) == block_edges(30, chunk_size, False)[:-1]
    assert {b[2] for b in blocks} == {threading.main_thread()}


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_block_raises_once_both_blocks_are_done(monkeypatch, failing):
    """A block that raises, on the worker thread or on the calling one while
    the worker's block is still running, fails the call with its own error
    once no block is in flight, and the next call equals a fresh one."""
    if training._worker() is None:
        pytest.skip("one CPU: every block is scored on the calling thread")
    rng = np.random.default_rng(34)
    store = random_store(rng, 30, 2, 60, 2, 4)
    model = random_model(rng, 30, 2)
    want = evaluate(model, store, "test", None, chunk_size=8).to_json()
    submitted, score_block = record_submissions(monkeypatch), evaluation._score_block

    def failing_block(*args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise FloatingPointError(failing)
        time.sleep(0.05)  # the other block is still being scored when it raises
        return score_block(*args)

    monkeypatch.setattr(evaluation, "_score_block", failing_block)
    with pytest.raises(FloatingPointError, match=failing):
        evaluate(model, store, "test", None, chunk_size=8)
    assert submitted and all(future.done() for future in submitted)
    monkeypatch.setattr(evaluation, "_score_block", score_block)
    assert evaluate(model, store, "test", None, chunk_size=8).to_json() == want


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_perfect_model():
    # entities on distinct one-hot-ish points, identity relation: the
    # truth is the unique zero-score candidate in both directions
    n = 6
    store = TripleStore(
        n_entities=n,
        n_relations=1,
        train=np.array([[i, 0, i] for i in range(n)]),
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.array([[i, 0, i] for i in range(n)]),
        entity_names=[f"e{i}" for i in range(n)],
        relation_names=["same_as"],
    )
    spec = compound_spec("full", "SRT", "SRT", dim=4)
    model = init_model(spec, n, 1, np.random.default_rng(5))
    # identical chains on both sides: score(x, r, x) == 0 uniquely
    model.tail.translations[:] = model.head.translations
    model.tail.angles[:] = model.head.angles
    model.tail.scales[:] = model.head.scales
    report = evaluate(model, store, "test", categorize_relations(store))
    assert report.mrr == 1.0
    assert report.hits1 == report.hits3 == report.hits10 == 1.0


def test_evaluate_matches_oracle_cells():
    rng = np.random.default_rng(6)
    store = random_store(rng, 15, 2, 50, 6)
    model = random_model(rng, 15, 2)
    cats = categorize_relations(store)
    known = known_answers(store)
    report = evaluate(model, store, "test", cats)

    cat_of = {c.relation: c.category.value for c in cats}
    expected = {}
    for direction in Direction:
        buckets = {}
        for triple in store.test:
            r = oracle_rank(model, triple, direction, known)
            buckets.setdefault(cat_of[int(triple[1])], []).append(r)
        expected[direction.value] = buckets

    for direction, cells in report.by_direction_category.items():
        for cat, cell in cells.items():
            ranks = np.array(expected[direction][cat], dtype=float)
            assert cell.count == len(ranks)
            assert cell.mrr == pytest.approx(np.mean(1 / ranks), abs=1e-12)
            assert cell.hits10 == pytest.approx(np.mean(ranks <= 10), abs=1e-12)


def test_evaluate_overall_is_weighted_mean_of_cells():
    rng = np.random.default_rng(7)
    store = random_store(rng, 20, 3, 60, 8)
    model = random_model(rng, 20, 3)
    report = evaluate(model, store, "test", categorize_relations(store))
    total = 0.0
    count = 0
    for cells in report.by_direction_category.values():
        for cell in cells.values():
            total += cell.mrr * cell.count
            count += cell.count
    assert count == 2 * report.triple_count
    assert report.mrr == pytest.approx(total / count, abs=1e-12)


def test_evaluate_empty_split_rejected():
    rng = np.random.default_rng(10)
    store = random_store(rng, 10, 1, 30, 4)
    store.valid = np.empty((0, 3), dtype=np.int64)
    model = random_model(rng, 10, 1)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, store, "valid", None)


def test_evaluate_limit_truncates():
    rng = np.random.default_rng(11)
    store = random_store(rng, 12, 1, 40, 6)
    model = random_model(rng, 12, 1)
    report = evaluate(model, store, "test", None, limit=2)
    assert report.triple_count == 2


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"limit": 0}, "limit"),
        ({"limit": -1}, "limit"),
        ({"chunk_size": 0}, "chunk_size"),
        ({"chunk_size": -1}, "chunk_size"),
    ],
)
def test_evaluate_rejects_non_positive_limits(kwargs, name):
    rng = np.random.default_rng(11)
    store = random_store(rng, 12, 1, 40, 6)
    model = random_model(rng, 12, 1)
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        evaluate(model, store, "test", None, **kwargs)


def test_report_json_field_names():
    rng = np.random.default_rng(12)
    store = random_store(rng, 10, 1, 30, 4)
    model = random_model(rng, 10, 1)
    report = evaluate(model, store, "test", categorize_relations(store))
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "mrr", "hits1", "hits3", "hits10", "triple_count", "by_direction_category", "note"
    ]
    assert set(payload["by_direction_category"]) == {"head", "tail"}
    for cells in payload["by_direction_category"].values():
        for cell in cells.values():
            assert list(cell) == ["mrr", "hits1", "hits3", "hits10", "count"]
    assert 0.0 <= payload["mrr"] <= 1.0
    assert payload["hits1"] <= payload["hits3"] <= payload["hits10"] <= 1.0


def test_report_text_contains_tie_caveat():
    rng = np.random.default_rng(13)
    store = random_store(rng, 10, 1, 30, 4)
    model = random_model(rng, 10, 1)
    report = evaluate(model, store, "test", None)
    text = report.to_text()
    assert text.startswith("# tie policy")
    assert "overall" in text


def test_eight_cells_for_full_category_mix():
    # craft one relation per category, triples in both eval directions
    train = []
    # 1-to-1: a matching
    train += [[0, 0, 1], [2, 0, 3]]
    # 1-to-N
    train += [[4, 1, 5], [4, 1, 6], [4, 1, 7]]
    # N-to-1
    train += [[8, 2, 9], [10, 2, 9], [11, 2, 9]]
    # N-to-N
    train += [[12, 3, 13], [12, 3, 14], [15, 3, 13], [15, 3, 14]]
    test = [[2, 0, 3], [4, 1, 5], [8, 2, 9], [12, 3, 13]]
    test = [[h, r, t] for h, r, t in test]
    store = TripleStore(
        n_entities=16,
        n_relations=4,
        train=np.array(train),
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.array([[2, 0, 1], [4, 1, 8], [8, 2, 13], [12, 3, 15]]),
        entity_names=[f"e{i}" for i in range(16)],
        relation_names=["one_one", "one_n", "n_one", "n_n"],
    )
    cats = categorize_relations(store)
    model = random_model(np.random.default_rng(14), 16, 4)
    report = evaluate(model, store, "test", cats)
    labels = {
        (direction, cat)
        for direction, cells in report.by_direction_category.items()
        for cat in cells
    }
    assert labels == {
        (d, c)
        for d in ("head", "tail")
        for c in ("1-to-1", "1-to-N", "N-to-1", "N-to-N")
    }

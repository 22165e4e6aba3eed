import json

import numpy as np
import pytest

from compound_kge.dataset import TripleStore, build_filter_index, categorize_relations
from compound_kge.evaluation import Direction, evaluate, filtered_rank
from compound_kge.model import init_model
from compound_kge.scoring import compound_spec

from oracles import known_answers, oracle_rank, random_model, random_store


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
    from compound_kge.dataset import FilterIndex

    empty = FilterIndex(tails={}, heads={})
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
        n_filtered = len(index.true_tails(h, r) - {t})
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
    for key in ("mrr", "hits1", "hits3", "hits10", "triple_count", "by_direction_category"):
        assert key in payload
    assert set(payload["by_direction_category"]) == {"head", "tail"}
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

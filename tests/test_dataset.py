import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from compound_kge.dataset import (
    Category,
    TripleStore,
    build_filter_index,
    categorize_relations,
    complex_triple_fraction,
    load_dataset,
    save_dictionaries,
    save_splits,
)
from compound_kge.errors import DatasetError, DatasetParseError

from oracles import known_answers

ROOT = Path(__file__).resolve().parent.parent


def write_dataset(path, train, valid=(), test=()):
    for name, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        with open(path / name, "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")


TOY_TRAIN = [
    ("paris", "capital_of", "france"),
    ("berlin", "capital_of", "germany"),
    ("paris", "located_in", "france"),
    ("lyon", "located_in", "france"),
    ("munich", "located_in", "germany"),
]
TOY_VALID = [("berlin", "located_in", "germany")]
TOY_TEST = [("lyon", "capital_of", "france")]  # wrong but syntactically fine


def test_load_toy_dataset(tmp_path):
    write_dataset(tmp_path, TOY_TRAIN, TOY_VALID, TOY_TEST)
    store = load_dataset(tmp_path)
    assert store.n_entities == 6
    assert store.n_relations == 2
    assert len(store.train) == 5 and len(store.valid) == 1 and len(store.test) == 1
    # first-appearance order over train, then valid, then test
    assert store.entity_names[:4] == ["paris", "france", "berlin", "germany"]
    assert store.relation_names == ["capital_of", "located_in"]
    h, r, t = store.train[0]
    assert (store.entity_names[h], store.relation_names[r], store.entity_names[t]) == TOY_TRAIN[0]


def test_load_respects_dict_files(tmp_path):
    write_dataset(tmp_path, TOY_TRAIN, TOY_VALID, TOY_TEST)
    names = sorted({e for h, _, t in TOY_TRAIN + TOY_VALID + TOY_TEST for e in (h, t)})
    with open(tmp_path / "entities.dict", "w") as fh:
        for i, n in enumerate(names):
            fh.write(f"{i}\t{n}\n")
    with open(tmp_path / "relations.dict", "w") as fh:
        fh.write("0\tlocated_in\n1\tcapital_of\n")
    store = load_dataset(tmp_path)
    assert store.entity_names == names
    assert store.relation_names == ["located_in", "capital_of"]


def test_dictionary_round_trip(tmp_path):
    write_dataset(tmp_path, TOY_TRAIN, TOY_VALID, TOY_TEST)
    store = load_dataset(tmp_path)
    save_dictionaries(store, tmp_path)
    reloaded = load_dataset(tmp_path)
    assert reloaded.entity_names == store.entity_names
    assert reloaded.relation_names == store.relation_names
    np.testing.assert_array_equal(reloaded.train, store.train)


def test_save_splits_round_trip(tmp_path):
    write_dataset(tmp_path, TOY_TRAIN, TOY_VALID, TOY_TEST)
    store = load_dataset(tmp_path)
    out = tmp_path / "copy"
    save_splits(store, out)
    save_dictionaries(store, out)
    reloaded = load_dataset(out)
    np.testing.assert_array_equal(reloaded.train, store.train)
    np.testing.assert_array_equal(reloaded.test, store.test)


def test_missing_split_file(tmp_path):
    write_dataset(tmp_path, TOY_TRAIN, TOY_VALID, TOY_TEST)
    (tmp_path / "valid.txt").unlink()
    with pytest.raises(DatasetError, match="missing split file"):
        load_dataset(tmp_path)


def test_empty_train_rejected(tmp_path):
    write_dataset(tmp_path, [], TOY_VALID, TOY_TEST)
    with pytest.raises(DatasetError, match="empty training split"):
        load_dataset(tmp_path)


def test_malformed_line_reports_position(tmp_path):
    write_dataset(tmp_path, TOY_TRAIN)
    with open(tmp_path / "train.txt", "a") as fh:
        fh.write("only_two\tfields\n")
    with pytest.raises(DatasetParseError, match="train.txt:6"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name, line", [("train.txt", 3), ("entities.dict", 2)])
def test_non_utf8_byte_reports_file_and_line(tmp_path, name, line):
    write_dataset(tmp_path, TOY_TRAIN, TOY_VALID, TOY_TEST)
    save_dictionaries(load_dataset(tmp_path), tmp_path)
    path = tmp_path / name
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DatasetParseError, match=rf"{name}:{line}: byte 0xff is not valid UTF-8"):
        load_dataset(tmp_path)


def test_repeated_dictionary_name_rejected(tmp_path):
    write_dataset(tmp_path, TOY_TRAIN, TOY_VALID, TOY_TEST)
    (tmp_path / "relations.dict").write_text(
        "0\tcapital_of\n1\tlocated_in\n2\tcapital_of\n"
    )
    with pytest.raises(DatasetParseError, match=r"relations\.dict:3: repeated name"):
        load_dataset(tmp_path)


def test_overlapping_splits_rejected(tmp_path):
    # two triples shared by one pair of splits, listed against their key
    # order (relation ids: capital_of 0, located_in 1); the error names the
    # first shared triple in key order, whichever the files list first
    shared = [("munich", "located_in", "berlin"), ("lyon", "capital_of", "munich")]
    names = ["train", "valid", "test"]
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        splits = [list(TOY_TRAIN), list(TOY_VALID), list(TOY_TEST)]
        for i in (a, b):
            splits[i] += shared
        directory = tmp_path / f"{a}{b}"
        directory.mkdir()
        write_dataset(directory, *splits)
        with pytest.raises(DatasetError) as caught:
            load_dataset(directory)
        assert str(caught.value) == (
            f"splits {names[a]} and {names[b]} share 2 triples, e.g. (lyon, capital_of, munich)"
        )


def test_unseen_entities_warned_not_fatal(tmp_path, caplog):
    write_dataset(
        tmp_path,
        TOY_TRAIN,
        [("zurich", "located_in", "switzerland")],
        TOY_TEST,
    )
    with caplog.at_level("WARNING"):
        store = load_dataset(tmp_path)
    assert store.n_entities == 8
    assert any("outside the training split" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# filter index
# ---------------------------------------------------------------------------

def test_filter_index_single_triple():
    store = TripleStore(
        n_entities=2,
        n_relations=1,
        train=np.array([[0, 0, 1]]),
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.empty((0, 3), dtype=np.int64),
        entity_names=["a", "b"],
        relation_names=["r"],
    )
    index = build_filter_index(store)
    for got, want in [
        (index.true_tails(0, 0), [1]),
        (index.true_heads(0, 1), [0]),
        (index.true_tails(1, 0), []),
        (index.true_heads(0, 0), []),
    ]:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == want


def test_filter_index_collapses_duplicates():
    store = TripleStore(
        n_entities=3,
        n_relations=1,
        train=np.array([[0, 0, 2], [0, 0, 1], [0, 0, 2], [1, 0, 2]]),
        valid=np.array([[0, 0, 1]]),
        test=np.empty((0, 3), dtype=np.int64),
        entity_names=list("abc"),
        relation_names=["r"],
    )
    index = build_filter_index(store)
    assert index.true_tails(0, 0).tolist() == [1, 2]
    assert index.true_heads(0, 2).tolist() == [0, 1]
    assert index.true_heads(0, 1).tolist() == [0]


def test_filter_index_matches_brute_force():
    # a derandomized property against the dict-of-sets oracle: splits with
    # duplicates inside and across them, empty splits, and every query of
    # the id ranges, most of which no triple answers
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hypothesis.given(st.data())
    def check(data):
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        triple = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, n - 1))
        splits = [data.draw(st.lists(triple, max_size=12)) for _ in range(3)]
        store = TripleStore(
            n, m, *(np.array(s, dtype=np.int64).reshape(-1, 3) for s in splits),
            entity_names=[f"e{i}" for i in range(n)],
            relation_names=[f"r{i}" for i in range(m)],
        )
        index = build_filter_index(store)
        tails, heads = known_answers(store)
        for e in range(n):
            for r in range(m):
                for got, want in [
                    (index.true_tails(e, r), tails.get((e, r), set())),
                    (index.true_heads(r, e), heads.get((r, e), set())),
                ]:
                    assert got.dtype == np.int64 and got.tolist() == sorted(want)

    check()


def test_filter_index_matches_known_answers_on_the_wn18rr_shaped_benchmark_graph(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "benchmark_graphs", ROOT / "benchmarks" / "graphs.py"
    )
    graphs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, graphs)  # dataclasses look it up
    spec.loader.exec_module(graphs)
    shape = graphs.SHAPES["wn18rr"]
    graph = graphs.generate(shape, 1)
    store = TripleStore(
        shape.n_entities, shape.n_relations, graph.train, graph.valid, graph.test,
        entity_names=[graphs.entity_name(i) for i in range(shape.n_entities)],
        relation_names=[graphs.relation_name(r) for r in range(shape.n_relations)],
    )
    index = build_filter_index(store)
    tails, heads = known_answers(store)
    assert (len(index.tails[0]), len(index.heads[0])) == (len(tails), len(heads))
    # every relation's queries in one lookup, each answer list cut from the flat ids
    for known, is_tails in [(tails, True), (heads, False)]:
        queries = np.array(list(known))
        fixed, r = (queries[:, 0], queries[:, 1]) if is_tails else (queries[:, 1], queries[:, 0])
        got = [[] for _ in queries]
        for rid in range(shape.n_relations):
            mine = np.flatnonzero(r == rid)
            ids, owners = index.completions(rid, fixed[mine], tails=is_tails)
            for i, e in zip(mine[owners].tolist(), ids.tolist()):
                got[i].append(e)
        assert got == [sorted(answers) for answers in known.values()]


def test_filter_completeness_on_test_split():
    store = TripleStore(
        n_entities=4,
        n_relations=1,
        train=np.array([[0, 0, 1]]),
        valid=np.array([[1, 0, 2]]),
        test=np.array([[2, 0, 3], [3, 0, 0]]),
        entity_names=list("abcd"),
        relation_names=["r"],
    )
    index = build_filter_index(store)
    for h, r, t in store.test:
        assert int(t) in index.true_tails(int(h), int(r))
        assert int(h) in index.true_heads(int(r), int(t))


# ---------------------------------------------------------------------------
# relation categories
# ---------------------------------------------------------------------------

def store_from_train(train, n_entities, n_relations):
    return TripleStore(
        n_entities=n_entities,
        n_relations=n_relations,
        train=np.asarray(train, dtype=np.int64),
        valid=np.empty((0, 3), dtype=np.int64),
        test=np.empty((0, 3), dtype=np.int64),
        entity_names=[f"e{i}" for i in range(n_entities)],
        relation_names=[f"r{i}" for i in range(n_relations)],
    )


def test_categorize_n_to_one_hand_count():
    # three heads share one tail: hpt = 3, tph = 1
    store = store_from_train([[0, 0, 3], [1, 0, 3], [2, 0, 3]], 4, 1)
    (cat,) = categorize_relations(store, eta=1.5)
    assert cat.hpt == 3.0 and cat.tph == 1.0
    assert cat.category is Category.N_TO_ONE


def test_categorize_single_triple_is_one_to_one():
    store = store_from_train([[0, 0, 1]], 2, 1)
    (cat,) = categorize_relations(store)
    assert cat.hpt == 1.0 and cat.tph == 1.0
    assert cat.category is Category.ONE_TO_ONE


def test_categorize_one_to_n():
    store = store_from_train([[0, 0, 1], [0, 0, 2], [0, 0, 3]], 4, 1)
    (cat,) = categorize_relations(store)
    assert cat.category is Category.ONE_TO_N
    assert cat.tph == 3.0 and cat.hpt == 1.0


def test_categorize_n_to_n():
    store = store_from_train([[0, 0, 2], [0, 0, 3], [1, 0, 2], [1, 0, 3]], 4, 1)
    (cat,) = categorize_relations(store)
    assert cat.category is Category.N_TO_N


def test_categorize_mean_over_distinct_partners():
    # tails 2 and 3: tail 2 has heads {0, 1}, tail 3 has head {0}
    # -> hpt = (2 + 1) / 2; heads 0 and 1: tph = (2 + 1) / 2
    store = store_from_train([[0, 0, 2], [0, 0, 3], [1, 0, 2]], 4, 1)
    (cat,) = categorize_relations(store)
    assert cat.hpt == pytest.approx(1.5)
    assert cat.tph == pytest.approx(1.5)
    assert cat.category is Category.N_TO_N  # boundary: >= eta flips to many


def test_categorize_missing_relation_flagged(caplog):
    store = store_from_train([[0, 0, 1]], 2, 2)
    with caplog.at_level("WARNING"):
        cats = categorize_relations(store)
    assert cats[1].category is Category.ONE_TO_ONE
    assert cats[1].hpt == 0.0 and cats[1].tph == 0.0
    assert not cats[1].in_training


def test_categorize_exactly_one_category_any_eta():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n_ent = int(rng.integers(3, 10))
        triples = rng.integers(0, n_ent, size=(30, 3))
        triples[:, 1] = rng.integers(0, 3, size=30)
        store = store_from_train(triples, n_ent, 3)
        for eta in (0.5, 1.0, 1.5, 2.0, 10.0):
            cats = categorize_relations(store, eta=eta)
            assert len(cats) == 3
            for c in cats:
                assert isinstance(c.category, Category)


def test_eta_zero_makes_everything_n_to_n():
    store = store_from_train([[0, 0, 1]], 2, 1)
    (cat,) = categorize_relations(store, eta=0.0)
    assert cat.category is Category.N_TO_N


def test_complex_triple_fraction():
    train = [[0, 0, 1], [0, 1, 2], [0, 1, 3], [1, 1, 2]]
    store = store_from_train(train, 4, 2)
    cats = categorize_relations(store)
    assert cats[0].category is Category.ONE_TO_ONE
    assert cats[1].category is Category.N_TO_N
    assert complex_triple_fraction(store, cats) == pytest.approx(3 / 4)

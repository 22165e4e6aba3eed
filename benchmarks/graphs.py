"""Deterministic synthetic graphs shaped like FB15k-237 and WN18RR.

The real datasets are not bundled, so the benchmark generates graphs of
the same size and skew from a seed and writes them in the on-disk layout
``load_dataset`` parses (``train/valid/test.txt`` plus ``.dict`` files).

Shape of a generated graph:

* relation frequencies are skewed: Zipf-like over FB15k-237's 237
  relations, WN18RR's published per-relation training counts for its 11;
* entity degrees are skewed: every pool is drawn by weighted sampling
  without replacement from a Zipf-like entity popularity;
* every relation gets its own head-pool and tail-pool sizes, chosen from
  a cardinality category.  A 1-to-N relation has a few heads that each
  own several distinct tails, N-to-1 mirrors it, N-to-N draws pairs from
  two small pools, 1-to-1 pairs two disjoint draws.  Fan-outs are at
  least 2.5, so ``categorize_relations`` on the training split (88-90% of
  the triples) sees every category, and most training triples sit in
  relations that are not 1-to-1.

Run as a script to write a graph::

    python3 benchmarks/graphs.py --shape fb237 --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ONE_TO_ONE, ONE_TO_N, N_TO_ONE, N_TO_N = "1-to-1", "1-to-N", "N-to-1", "N-to-N"
CATEGORIES = (ONE_TO_ONE, ONE_TO_N, N_TO_ONE, N_TO_N)
# Probability of each entry of CATEGORIES for a relation without a fixed
# category: FB15k-237's published split of its 237 relations into
# 17 / 26 / 81 / 113 relations.
CATEGORY_MIX = (0.07, 0.11, 0.34, 0.48)
# Range of the mean number of entities one side owns per entity of the
# other side, drawn log-uniformly per relation.
FANOUT_RANGE = (2.5, 25.0)


@dataclass(frozen=True)
class GraphShape:
    name: str
    n_entities: int
    n_train: int
    n_valid: int
    n_test: int
    # relative triple counts, one per relation
    relation_weights: tuple[float, ...]
    # a fixed category per relation, or None to draw from CATEGORY_MIX
    relation_categories: tuple[str, ...] | None = None

    @property
    def n_relations(self) -> int:
        return len(self.relation_weights)

    @property
    def n_triples(self) -> int:
        return self.n_train + self.n_valid + self.n_test


def _zipf_weights(n: int, exponent: float) -> tuple[float, ...]:
    return tuple(float(w) for w in np.arange(1, n + 1, dtype=np.float64) ** -exponent)


# WN18RR training counts per relation: hypernym, derivationally_related_form,
# member_meronym, has_part, synset_domain_topic_of, instance_hypernym,
# also_see, verb_group, member_of_domain_region, member_of_domain_usage,
# similar_to.
_WN18RR_COUNTS = (34796, 29715, 7402, 4816, 3116, 2921, 1299, 1138, 923, 629, 80)
_WN18RR_CATEGORIES = (
    N_TO_ONE, ONE_TO_ONE, ONE_TO_N, ONE_TO_N, N_TO_ONE, N_TO_ONE,
    N_TO_N, N_TO_N, N_TO_ONE, N_TO_ONE, ONE_TO_ONE,
)

SHAPES = {
    "fb237": GraphShape(
        name="fb237",
        n_entities=14541,
        n_train=272115,
        n_valid=17535,
        n_test=20466,
        relation_weights=_zipf_weights(237, 0.7),
    ),
    "wn18rr": GraphShape(
        name="wn18rr",
        n_entities=40943,
        n_train=86835,
        n_valid=3034,
        n_test=3134,
        relation_weights=tuple(float(c) for c in _WN18RR_COUNTS),
        relation_categories=_WN18RR_CATEGORIES,
    ),
}


@dataclass
class Graph:
    shape: GraphShape
    seed: int
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    categories: tuple[str, ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        for split in (self.train, self.valid, self.test):
            h.update(np.ascontiguousarray(split, dtype="<i8").tobytes())
        return h.hexdigest()[:16]


def _relation_counts(shape: GraphShape, rng: np.random.Generator) -> np.ndarray:
    """Triples per relation summing exactly to the graph size."""
    w = np.asarray(shape.relation_weights, dtype=np.float64)
    if shape.relation_categories is None:
        w = rng.permutation(w)
    counts = np.maximum(1, np.floor(w / w.sum() * shape.n_triples)).astype(np.int64)
    counts[np.argmax(counts)] += shape.n_triples - counts.sum()
    return counts


def _relation_categories(
    shape: GraphShape, counts: np.ndarray, rng: np.random.Generator
) -> list[str]:
    if shape.relation_categories is not None:
        return list(shape.relation_categories)
    cats = [str(c) for c in rng.choice(CATEGORIES, size=len(counts), p=CATEGORY_MIX)]
    # a side of distinct entities per triple only fits in a small relation
    too_big = counts > shape.n_entities // 2
    cats = [N_TO_N if big else c for c, big in zip(cats, too_big)]
    small = [r for r in np.argsort(counts) if not too_big[r]]
    for i, cat in enumerate(CATEGORIES):
        if cat not in cats:
            cats[small[i]] = cat
    return cats


def _pool(popularity_keys: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` distinct entities drawn by popularity, most popular first.

    Weighted sampling without replacement by the Gumbel top-k trick.
    """
    keys = popularity_keys + rng.gumbel(size=popularity_keys.shape)
    top = np.argpartition(-keys, m - 1)[:m]
    return top[np.argsort(-keys[top])]


def _skewed_index(size: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Indices in [0, m) with density falling off from index 0."""
    return np.minimum(m - 1, (m * rng.random(size) ** 2).astype(np.int64))


def _fanout(rng: np.random.Generator) -> float:
    lo, hi = FANOUT_RANGE
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _relation_pairs(
    category: str, n: int, keys: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``n`` distinct (head, tail) pairs with the category's pool sizes."""
    if category == ONE_TO_ONE:
        return np.stack([_pool(keys, n, rng), rng.permutation(_pool(keys, n, rng))], 1)
    if category in (ONE_TO_N, N_TO_ONE):
        owners = _pool(keys, max(1, int(np.ceil(n / _fanout(rng)))), rng)
        owned = _pool(keys, n, rng)
        pairs = np.stack([owners[_skewed_index(n, len(owners), rng)], owned], 1)
        return pairs if category == ONE_TO_N else pairs[:, ::-1]
    n_heads = max(2, int(np.ceil(n / _fanout(rng))))
    # the grid holds at least twice the pairs needed, so draws stay cheap
    n_tails = max(int(np.ceil(n / _fanout(rng))), int(np.ceil(2 * n / n_heads)))
    heads, tails = _pool(keys, n_heads, rng), _pool(keys, n_tails, rng)
    codes = np.empty(0, dtype=np.int64)
    while len(codes) < n:
        fresh = _skewed_index(2 * n, len(heads), rng) * len(tails) + _skewed_index(
            2 * n, len(tails), rng
        )
        codes = np.concatenate([codes, fresh])
        _, first = np.unique(codes, return_index=True)
        codes = codes[np.sort(first)]
    codes = codes[:n]
    return np.stack([heads[codes // len(tails)], tails[codes % len(tails)]], 1)


def generate(shape: GraphShape, seed: int) -> Graph:
    """The graph of ``shape`` for ``seed``; the same seed gives the same graph."""
    rng = np.random.default_rng([seed, sum(map(ord, shape.name))])
    ranks = rng.permutation(shape.n_entities) + 1
    popularity_keys = -0.75 * np.log(ranks)
    counts = _relation_counts(shape, rng)
    categories = _relation_categories(shape, counts, rng)
    parts = []
    for r, (cat, n) in enumerate(zip(categories, counts)):
        pairs = _relation_pairs(cat, int(n), popularity_keys, rng)
        parts.append(np.column_stack([pairs[:, 0], np.full(len(pairs), r), pairs[:, 1]]))
    triples = rng.permutation(np.concatenate(parts).astype(np.int64))
    a, b = shape.n_train, shape.n_train + shape.n_valid
    return Graph(shape, seed, triples[:a], triples[a:b], triples[b:], tuple(categories))


def entity_name(i: int) -> str:
    return f"e{i:05d}"


def relation_name(r: int) -> str:
    return f"r{r:03d}"


def write_graph(graph: Graph, directory) -> None:
    """Write the splits and id dictionaries that ``load_dataset`` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ents = [entity_name(i) for i in range(graph.shape.n_entities)]
    rels = [relation_name(r) for r in range(graph.shape.n_relations)]
    for fname, split in (
        ("train.txt", graph.train),
        ("valid.txt", graph.valid),
        ("test.txt", graph.test),
    ):
        lines = [f"{ents[h]}\t{rels[r]}\t{ents[t]}\n" for h, r, t in split.tolist()]
        (directory / fname).write_text("".join(lines), encoding="utf-8")
    for fname, names in (("entities.dict", ents), ("relations.dict", rels)):
        text = "".join(f"{i}\t{name}\n" for i, name in enumerate(names))
        (directory / fname).write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one synthetic graph.")
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    graph = generate(SHAPES[args.shape], args.seed)
    write_graph(graph, args.out)
    info = {
        "digest": graph.digest(),
        "generated_categories": {c: graph.categories.count(c) for c in CATEGORIES},
    }
    Path(args.out, "graph.json").write_text(json.dumps(info) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

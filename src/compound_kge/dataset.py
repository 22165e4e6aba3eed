"""Triple-file ingestion, id mapping, filter indices, relation categories.

On-disk layout: a directory with ``train.txt``, ``valid.txt``,
``test.txt`` holding one ``head<TAB>relation<TAB>tail`` fact per line
(UTF-8), plus optional ``entities.dict`` / ``relations.dict`` files of
``id<TAB>name`` lines that pin the id assignment.  Without dict files,
ids are assigned by first appearance over train, then valid, then test.

Which triples exist is held one way, as sorted integer keys
``(r * n + h) * n + t`` over ``n`` entities: the split-overlap check
intersects the splits' keys, the relation categories count distinct keys,
and the filter index is every split's keys in both directions.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DatasetError, DatasetParseError

__all__ = [
    "TripleStore",
    "FilterIndex",
    "Category",
    "RelationCategory",
    "load_dataset",
    "save_dictionaries",
    "build_filter_index",
    "categorize_relations",
    "complex_triple_fraction",
]

log = logging.getLogger(__name__)

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


@dataclass
class TripleStore:
    """Integer-encoded triples for all three splits, plus name tables."""

    n_entities: int
    n_relations: int
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    entity_names: list[str]
    relation_names: list[str]
    entity_ids: dict[str, int] = field(default_factory=dict)
    relation_ids: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.entity_ids:
            self.entity_ids = {n: i for i, n in enumerate(self.entity_names)}
        if not self.relation_ids:
            self.relation_ids = {n: i for i, n in enumerate(self.relation_names)}

    def split(self, name: str) -> np.ndarray:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test], axis=0)


def _triple_keys(triples, n: int) -> np.ndarray:
    """The sorted distinct integer keys ``(r * n + h) * n + t`` of ``(h, r, t)``
    rows over ``n`` entities: equal sets of triples have equal keys."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return _distinct((triples[:, 1] * n + triples[:, 0]) * n + triples[:, 2])


def _distinct(keys) -> np.ndarray:
    """``np.unique`` of nonnegative integer ``keys``, by one sort: numpy 2.4's
    hashes them first, and took 0.35 s against this one's 6 ms on the
    310,116 keys of the FB15k-237-shaped benchmark graph (x86-64)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _check_disjoint(store: TripleStore) -> None:
    """Raise DatasetError if two splits share a triple, naming the first
    shared triple in key order."""
    n = store.n_entities
    keys = {s: _triple_keys(store.split(s), n) for s in ("train", "valid", "test")}
    for a, b in combinations(keys, 2):
        shared = np.intersect1d(keys[a], keys[b], assume_unique=True)
        if len(shared):
            r, rest = divmod(int(shared[0]), n * n)
            h, t = (store.entity_names[i] for i in divmod(rest, n))
            raise DatasetError(
                f"splits {a} and {b} share {len(shared)} triples, "
                f"e.g. ({h}, {store.relation_names[r]}, {t})"
            )


def _numbered_lines(path: Path):
    """``(line number, line)`` of a UTF-8 text file's nonempty lines, without
    their newline.  A byte that is not UTF-8 raises DatasetParseError on its
    line."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise DatasetParseError(
                path, lineno, f"byte 0x{data[exc.start]:02x} is not valid UTF-8"
            ) from None
        raise


def _read_triple_file(path: Path) -> list[tuple[str, str, str]]:
    rows = []
    for lineno, line in _numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DatasetParseError(
                path, lineno, f"expected 3 tab-separated fields, got {len(parts)}"
            )
        rows.append((parts[0], parts[1], parts[2]))
    return rows


def _read_dict_file(path: Path) -> dict[str, int]:
    """Read ``id<TAB>name`` lines; names and ids must be unique and the
    ids exactly 0..n-1."""
    mapping: dict[str, int] = {}
    line_of_id: dict[int, int] = {}
    for lineno, line in _numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DatasetParseError(
                path, lineno, f"expected 'id<TAB>name', got {len(parts)} fields"
            )
        idx, name = parts
        try:
            i = int(idx)
        except ValueError:
            raise DatasetParseError(path, lineno, f"non-integer id {idx!r}") from None
        if name in mapping:
            raise DatasetParseError(path, lineno, f"repeated name {name!r}")
        if i in line_of_id:
            raise DatasetParseError(
                path, lineno, f"id {i} already used on line {line_of_id[i]}"
            )
        mapping[name] = i
        line_of_id[i] = lineno
    n = len(mapping)
    for i, lineno in line_of_id.items():
        if not 0 <= i < n:
            raise DatasetParseError(
                path, lineno, f"id {i} outside 0..{n - 1}: ids must be exactly 0..n-1"
            )
    return mapping


def load_dataset(directory) -> TripleStore:
    """Load a triple directory into an integer-encoded store.

    Entities or relations that appear only in valid/test are allowed but
    counted and logged as a warning, since nothing will train them.
    """
    directory = Path(directory)
    raw = {}
    for fname in SPLIT_FILES:
        path = directory / fname
        if not path.exists():
            raise DatasetError(f"missing split file: {path}")
        raw[fname] = _read_triple_file(path)
    if not raw["train.txt"]:
        raise DatasetError(f"empty training split in {directory}")

    def ids(dict_file, fields):
        """The dictionary file's ids, else the names in ``fields`` of the
        triples numbered by first appearance."""
        if (directory / dict_file).exists():
            return _read_dict_file(directory / dict_file)
        names = dict.fromkeys(row[i] for f in SPLIT_FILES for row in raw[f] for i in fields)
        return {name: i for i, name in enumerate(names)}

    entity_ids = ids("entities.dict", (0, 2))
    relation_ids = ids("relations.dict", (1,))
    # the ids are exactly 0..n-1
    entity_names = sorted(entity_ids, key=entity_ids.get)
    relation_names = sorted(relation_ids, key=relation_ids.get)

    def encode(rows, fname):
        try:
            coded = [(entity_ids[h], relation_ids[r], entity_ids[t]) for h, r, t in rows]
        except KeyError as exc:
            raise DatasetError(
                f"{fname}: name {exc.args[0]!r} missing from dictionary files"
            ) from None
        return np.array(coded, dtype=np.int64).reshape(-1, 3)

    store = TripleStore(
        len(entity_ids),
        len(relation_ids),
        *(encode(raw[f], f) for f in SPLIT_FILES),
        entity_names=entity_names,
        relation_names=relation_names,
    )
    _check_disjoint(store)
    unseen_ents = store.n_entities - len(_distinct(store.train[:, [0, 2]].ravel()))
    unseen_rels = store.n_relations - len(_distinct(store.train[:, 1]))
    if unseen_ents or unseen_rels:
        log.warning(
            "%d entities and %d relations appear only outside the training split",
            unseen_ents,
            unseen_rels,
        )
    log.info(
        "loaded %s: %d entities, %d relations, %d/%d/%d train/valid/test triples",
        directory,
        store.n_entities,
        store.n_relations,
        len(store.train),
        len(store.valid),
        len(store.test),
    )
    return store


def save_dictionaries(store: TripleStore, directory) -> None:
    """Write ``entities.dict`` / ``relations.dict`` next to the splits."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "entities.dict", "w", encoding="utf-8") as fh:
        for i, name in enumerate(store.entity_names):
            fh.write(f"{i}\t{name}\n")
    with open(directory / "relations.dict", "w", encoding="utf-8") as fh:
        for i, name in enumerate(store.relation_names):
            fh.write(f"{i}\t{name}\n")


def save_splits(store: TripleStore, directory) -> None:
    """Write train/valid/test triple files (names, tab-separated)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, arr in (
        ("train.txt", store.train),
        ("valid.txt", store.valid),
        ("test.txt", store.test),
    ):
        with open(directory / fname, "w", encoding="utf-8") as fh:
            for h, r, t in arr:
                fh.write(
                    f"{store.entity_names[h]}\t{store.relation_names[r]}"
                    f"\t{store.entity_names[t]}\n"
                )


# ---------------------------------------------------------------------------
# Filter index
# ---------------------------------------------------------------------------

@dataclass
class FilterIndex:
    """Known-true completions over train + valid + test, in compressed sparse
    row form: ``tails`` is ``(keys, offsets, ids)``, the distinct queries
    ``r * n_entities + h`` in ascending order, the bounds of their runs in
    ``ids``, and each query's true tails, sorted and distinct in its run;
    ``heads`` holds the queries ``r * n_entities + t`` the same way."""

    n_entities: int
    tails: tuple[np.ndarray, np.ndarray, np.ndarray]
    heads: tuple[np.ndarray, np.ndarray, np.ndarray]

    def completions(self, r, fixed, tails: bool):
        """``(ids, queries)``: the true tails (or heads) of relation ``r``'s
        queries with fixed sides ``fixed`` (ids in 0..n_entities-1), query by
        query and each query's sorted, and the index in ``fixed`` of each id's
        query.  One ``searchsorted`` finds every run; an unseen query has none."""
        keys, offsets, ids = self.tails if tails else self.heads
        wanted = np.asarray(fixed, dtype=np.int64) + np.int64(r) * self.n_entities
        starts, stops = offsets[np.searchsorted(keys, np.stack([wanted, wanted + 1]))]
        lengths = stops - starts
        queries = np.repeat(np.arange(len(wanted)), lengths)
        # each output place, moved from its run's start in the output to the run's start in ids
        at = np.arange(len(queries)) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        return ids[at], queries

    def true_tails(self, h: int, r: int) -> np.ndarray:
        return self.completions(r, [h], tails=True)[0]

    def true_heads(self, r: int, t: int) -> np.ndarray:
        return self.completions(r, [t], tails=False)[0]


def build_filter_index(store: TripleStore) -> FilterIndex:
    """Index every triple of every split in both directions: a key's query is
    its ``r * n + h`` and its completion its ``t``, and the head direction's
    keys are those of the reversed triples ``(t, r, h)``."""
    n, triples = store.n_entities, store.all_triples()
    runs = []
    for keys in (_triple_keys(triples, n), _triple_keys(triples[:, ::-1], n)):
        queries, ids = np.divmod(keys, n)
        starts = np.flatnonzero(np.diff(queries, prepend=-1))
        runs.append((queries[starts], np.append(starts, len(ids)), ids))
    return FilterIndex(n, *runs)


# ---------------------------------------------------------------------------
# Relation categories
# ---------------------------------------------------------------------------

class Category(enum.Enum):
    ONE_TO_ONE = "1-to-1"
    ONE_TO_N = "1-to-N"
    N_TO_ONE = "N-to-1"
    N_TO_N = "N-to-N"


@dataclass(frozen=True)
class RelationCategory:
    relation: int
    hpt: float
    tph: float
    category: Category
    in_training: bool = True


def _categorize(hpt: float, tph: float, eta: float) -> Category:
    if hpt < eta and tph < eta:
        return Category.ONE_TO_ONE
    if hpt < eta and tph >= eta:
        return Category.ONE_TO_N
    if hpt >= eta and tph < eta:
        return Category.N_TO_ONE
    return Category.N_TO_N


def categorize_relations(store: TripleStore, eta: float = 1.5) -> list[RelationCategory]:
    """Classify every relation by its head/tail co-occurrence averages.

    Statistics come from the training split only (test structure must
    not leak into evaluation buckets): ``hpt`` is the mean number of
    distinct heads per distinct tail of the relation, that is its
    distinct triples over its distinct (r, t) pairs, and ``tph`` the mean
    number of distinct tails per distinct head.  Both below ``eta``
    means one-to-one; each side at or above ``eta`` flips that side to
    many.  Relations absent from the training split are classified
    one-to-one with zero statistics and flagged.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    n, m = store.n_entities, store.n_relations
    keys = _triple_keys(store.train, n)
    rels = keys // (n * n)
    n_triples = np.bincount(rels, minlength=m)
    n_heads = np.bincount(_distinct(keys // n) // n, minlength=m)  # distinct (r, h) pairs
    n_tails = np.bincount(_distinct(rels * n + keys % n) // n, minlength=m)  # distinct (r, t)
    out = []
    for r in range(m):
        if n_triples[r] == 0:
            log.warning(
                "relation %r has no training triples; categorized 1-to-1",
                store.relation_names[r] if r < len(store.relation_names) else r,
            )
            out.append(RelationCategory(r, 0.0, 0.0, Category.ONE_TO_ONE, False))
            continue
        hpt = float(n_triples[r] / n_tails[r])
        tph = float(n_triples[r] / n_heads[r])
        out.append(RelationCategory(r, hpt, tph, _categorize(hpt, tph, eta)))
    return out


def complex_triple_fraction(store: TripleStore, categories: list[RelationCategory]) -> float:
    """Fraction of the training triples whose relation is not one-to-one."""
    triples = store.train
    if len(triples) == 0:
        return 0.0
    complex_relations = [c.relation for c in categories if c.category is not Category.ONE_TO_ONE]
    return float(np.mean(np.isin(triples[:, 1], complex_relations)))

"""Triple-file ingestion, id mapping, filter indices, relation categories.

On-disk layout: a directory with ``train.txt``, ``valid.txt``,
``test.txt`` holding one ``head<TAB>relation<TAB>tail`` fact per line
(UTF-8), plus optional ``entities.dict`` / ``relations.dict`` files of
``id<TAB>name`` lines that pin the id assignment.  Without dict files,
ids are assigned by first appearance over train, then valid, then test.
"""

from __future__ import annotations

import enum
import logging
from collections import defaultdict
from dataclasses import dataclass, field
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

    ent_dict_path = directory / "entities.dict"
    rel_dict_path = directory / "relations.dict"
    if ent_dict_path.exists():
        entity_ids = _read_dict_file(ent_dict_path)
    else:
        entity_ids = {}
        for fname in SPLIT_FILES:
            for h, _, t in raw[fname]:
                entity_ids.setdefault(h, len(entity_ids))
                entity_ids.setdefault(t, len(entity_ids))
    if rel_dict_path.exists():
        relation_ids = _read_dict_file(rel_dict_path)
    else:
        relation_ids = {}
        for fname in SPLIT_FILES:
            for _, r, _ in raw[fname]:
                relation_ids.setdefault(r, len(relation_ids))

    entity_names = [""] * len(entity_ids)
    for name, i in entity_ids.items():
        entity_names[i] = name
    relation_names = [""] * len(relation_ids)
    for name, i in relation_ids.items():
        relation_names[i] = name

    def encode(rows, fname):
        out = np.empty((len(rows), 3), dtype=np.int64)
        for i, (h, r, t) in enumerate(rows):
            try:
                out[i] = entity_ids[h], relation_ids[r], entity_ids[t]
            except KeyError as exc:
                raise DatasetError(
                    f"{fname}: name {exc.args[0]!r} missing from dictionary files"
                ) from None
        return out

    splits = {f: encode(raw[f], f) for f in SPLIT_FILES}

    as_sets = {
        f: {(int(h), int(r), int(t)) for h, r, t in splits[f]} for f in SPLIT_FILES
    }
    for i, a in enumerate(SPLIT_FILES):
        for b in SPLIT_FILES[i + 1 :]:
            overlap = as_sets[a] & as_sets[b]
            if overlap:
                h, r, t = next(iter(overlap))
                raise DatasetError(
                    f"splits {a} and {b} share {len(overlap)} triples, e.g. "
                    f"({entity_names[h]}, {relation_names[r]}, {entity_names[t]})"
                )

    train_ents = set(splits["train.txt"][:, 0]) | set(splits["train.txt"][:, 2])
    train_rels = set(splits["train.txt"][:, 1])
    unseen_ents = (len(entity_ids) - len(train_ents)) if entity_ids else 0
    unseen_rels = len(relation_ids) - len(train_rels)
    if unseen_ents or unseen_rels:
        log.warning(
            "%d entities and %d relations appear only outside the training split",
            unseen_ents,
            unseen_rels,
        )

    store = TripleStore(
        n_entities=len(entity_ids),
        n_relations=len(relation_ids),
        train=splits["train.txt"],
        valid=splits["valid.txt"],
        test=splits["test.txt"],
        entity_names=entity_names,
        relation_names=relation_names,
        entity_ids=entity_ids,
        relation_ids=relation_ids,
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
    """Known-true completions over train + valid + test.

    ``tails[(h, r)]`` is the set of true tail ids, ``heads[(r, t)]`` the
    set of true head ids.  Lookups of unseen keys return an empty set.
    """

    tails: dict[tuple[int, int], set[int]]
    heads: dict[tuple[int, int], set[int]]

    def true_tails(self, h: int, r: int) -> set[int]:
        return self.tails.get((h, r), set())

    def true_heads(self, r: int, t: int) -> set[int]:
        return self.heads.get((r, t), set())


def build_filter_index(store: TripleStore) -> FilterIndex:
    """Index every triple of every split in both lookup directions."""
    tails: dict[tuple[int, int], set[int]] = defaultdict(set)
    heads: dict[tuple[int, int], set[int]] = defaultdict(set)
    for h, r, t in store.all_triples():
        tails[(int(h), int(r))].add(int(t))
        heads[(int(r), int(t))].add(int(h))
    return FilterIndex(tails=dict(tails), heads=dict(heads))


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
    train = np.asarray(store.train, dtype=np.int64)
    # distinct (r, h, t) triples as integer keys (r * n + h) * n + t
    keys = np.unique((train[:, 1] * n + train[:, 0]) * n + train[:, 2])
    rels = keys // (n * n)
    n_triples = np.bincount(rels, minlength=m)
    n_heads = np.bincount(np.unique(keys // n) // n, minlength=m)  # distinct (r, h) pairs
    n_tails = np.bincount(np.unique(rels * n + keys % n) // n, minlength=m)  # distinct (r, t)
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


def complex_triple_fraction(
    store: TripleStore, categories: list[RelationCategory], split: str = "train"
) -> float:
    """Fraction of a split's triples whose relation is not one-to-one."""
    triples = store.split(split)
    if len(triples) == 0:
        return 0.0
    complex_relations = [c.relation for c in categories if c.category is not Category.ONE_TO_ONE]
    return float(np.mean(np.isin(triples[:, 1], complex_relations)))

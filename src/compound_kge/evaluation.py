"""Filtered link-prediction evaluation: MRR and Hits@k.

For every evaluated triple both completion directions are ranked: all
entities are substituted on the predicted side, known-true candidates
other than the ground truth are filtered out, and the ground truth's
rank among the survivors determines the metrics.  Ties contribute the
mean rank among the tied candidates (floored), so a constant-score
model cannot inflate its numbers.

Candidates are scored in fixed-size blocks of entity rows, by default
``DEFAULT_CHUNK_SIZE`` = 65,536 rows, which bounds peak memory on large
entity sets.  Smaller blocks (``chunk_size=512``) are faster but less
steady; the comment on the constant has the measurements.  The block
size changes only speed: the chunked computation is exactly equivalent
to materializing and sorting all candidate scores.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .dataset import FilterIndex, RelationCategory, TripleStore, build_filter_index
from .model import KGEModel
from .scoring import _distance
from .transforms import apply_chain

__all__ = [
    "Direction",
    "MetricCell",
    "EvalReport",
    "filtered_rank",
    "evaluate",
    "DEFAULT_CHUNK_SIZE",
    "TIE_POLICY_NOTE",
]

# Candidate rows per block.  Small blocks are faster while the host is
# quiet: timed with one BLAS thread on a 2-core Xeon VM (2 MiB of L2 per
# core) over the generated graphs of benchmarks/graphs.py at d=200,
# 512-row blocks ranked 1.4-1.7x as many queries/s as one whole-table
# block (FB15k-237 shape, SRT/SRT, L1: 28.6 against 16.8; WN18RR shape,
# rotate, L2: 14.5 against 7.9), with identical ranks.  Their speed
# follows the load that a shared host's other tenants put on the core
# and its caches, though.  Interleaved on the WN shape for five minutes,
# the fastest call of each 20-call window ranged 15.6-21.6 queries/s at
# 512 rows (quartile spread 0.19 of the median; 1024 and 4096 rows
# alike) against 10.8-13.4 (0.12) for the whole table, which is bounded
# by memory; over ten benchmark runs each the WN eval read 13.8-19.1
# against 9.8-11.9.  So the default keeps tables of up to 65,536 rows in
# one block, and ``evaluate(..., chunk_size=512)`` trades that steadiness
# for speed.
DEFAULT_CHUNK_SIZE = 2**16

# Comparability caveat carried in every report header: published numbers
# do not always state their tie rule, and optimistic tie-breaking can
# differ from the mean-rank rule used here.
TIE_POLICY_NOTE = (
    "tie policy: mean rank among tied candidates (floored); "
    "rankings from other implementations may break ties optimistically"
)


class Direction(enum.Enum):
    """Which side of the triple is being predicted."""

    HEAD = "head"
    TAIL = "tail"


def _score_block(model: KGEModel, rid: int, fixed: np.ndarray, direction: Direction, block: np.ndarray):
    """Scores of candidate entity rows substituted on the predicted side."""
    spec = model.spec
    r = model.relation_params(rid)
    if direction is Direction.TAIL:
        moved = apply_chain(block, spec.tail_chain, r.tail)
    else:
        moved = apply_chain(block, spec.head_chain, r.head)
    return _distance(moved - fixed, spec.norm)


def _fixed_side(model: KGEModel, triple, direction: Direction) -> np.ndarray:
    h, rid, t = (int(x) for x in triple)
    r = model.relation_params(rid)
    if direction is Direction.TAIL:
        return apply_chain(model.entities[h], model.spec.head_chain, r.head)
    return apply_chain(model.entities[t], model.spec.tail_chain, r.tail)


def filtered_rank(
    model: KGEModel,
    triple,
    direction: Direction,
    filter_index: FilterIndex,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Filtered rank of the ground-truth entity for one triple.

    rank = 1 + #strictly-better candidates + floor(#tied candidates / 2),
    computed after removing every known-true candidate except the
    ground truth itself.  Lower score is better.
    """
    h, rid, t = (int(x) for x in triple)
    true_id = t if direction is Direction.TAIL else h
    if direction is Direction.TAIL:
        known = filter_index.true_tails(h, rid)
    else:
        known = filter_index.true_heads(rid, t)
    filtered = np.fromiter((e for e in known if e != true_id), dtype=np.int64)

    fixed = _fixed_side(model, triple, direction)
    true_score = float(
        _score_block(model, rid, fixed, direction, model.entities[true_id : true_id + 1])[0]
    )

    n = model.n_entities
    drop = np.zeros(n, dtype=bool)
    drop[filtered] = True
    less = 0
    equal = 0
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        scores = _score_block(model, rid, fixed, direction, model.entities[start:stop])
        keep = ~drop[start:stop]
        less += int(np.count_nonzero((scores < true_score) & keep))
        equal += int(np.count_nonzero((scores == true_score) & keep))
    ties = equal - 1  # the ground truth always matches its own score
    return 1 + less + ties // 2


@dataclass
class MetricCell:
    mrr: float = 0.0
    hits1: float = 0.0
    hits3: float = 0.0
    hits10: float = 0.0
    count: int = 0

    @classmethod
    def from_ranks(cls, ranks: np.ndarray) -> "MetricCell":
        ranks = np.asarray(ranks, dtype=np.float64)
        return cls(
            mrr=float(np.mean(1.0 / ranks)),
            hits1=float(np.mean(ranks <= 1)),
            hits3=float(np.mean(ranks <= 3)),
            hits10=float(np.mean(ranks <= 10)),
            count=int(ranks.size),
        )

    def as_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits1": self.hits1,
            "hits3": self.hits3,
            "hits10": self.hits10,
            "count": self.count,
        }


@dataclass
class EvalReport:
    """Link-prediction metrics, overall and per direction x category."""

    mrr: float
    hits1: float
    hits3: float
    hits10: float
    triple_count: int
    by_direction_category: dict[str, dict[str, MetricCell]]
    note: str = TIE_POLICY_NOTE

    def as_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits1": self.hits1,
            "hits3": self.hits3,
            "hits10": self.hits10,
            "triple_count": self.triple_count,
            "by_direction_category": {
                direction: {cat: cell.as_dict() for cat, cell in cells.items()}
                for direction, cells in self.by_direction_category.items()
            },
            "note": self.note,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)

    def to_text(self) -> str:
        lines = [f"# {self.note}"]
        lines.append(
            f"{'':>14} {'MRR':>8} {'Hits@1':>8} {'Hits@3':>8} {'Hits@10':>8} {'count':>8}"
        )
        lines.append(
            f"{'overall':>14} {self.mrr:>8.4f} {self.hits1:>8.4f} "
            f"{self.hits3:>8.4f} {self.hits10:>8.4f} {self.triple_count:>8d}"
        )
        for direction in sorted(self.by_direction_category):
            for cat in sorted(self.by_direction_category[direction]):
                cell = self.by_direction_category[direction][cat]
                label = f"{direction}/{cat}"
                lines.append(
                    f"{label:>14} {cell.mrr:>8.4f} {cell.hits1:>8.4f} "
                    f"{cell.hits3:>8.4f} {cell.hits10:>8.4f} {cell.count:>8d}"
                )
        return "\n".join(lines)


def evaluate(
    model: KGEModel,
    store: TripleStore,
    split: str,
    categories: list[RelationCategory] | None,
    *,
    filter_index: FilterIndex | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    limit: int | None = None,
) -> EvalReport:
    """Rank every triple of a split in both directions.

    ``categories`` buckets the per-direction cells by relation category;
    passing None collapses them into a single "all" bucket.  ``limit``
    truncates to the first triples of the split (handy for periodic
    validation).
    """
    if limit is not None and limit < 1:
        raise ValueError(
            f"limit must be positive (or None for the whole split), got {limit}"
        )
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    triples = store.split(split)
    if limit is not None:
        triples = triples[:limit]
    if len(triples) == 0:
        raise ValueError(f"split {split!r} is empty")
    if filter_index is None:
        filter_index = build_filter_index(store)

    ranks = np.empty((len(triples), 2), dtype=np.int64)
    for i, triple in enumerate(triples):
        ranks[i, 0] = filtered_rank(model, triple, Direction.HEAD, filter_index, chunk_size)
        ranks[i, 1] = filtered_rank(model, triple, Direction.TAIL, filter_index, chunk_size)

    if categories is not None:
        cat_of = {c.relation: c.category.value for c in categories}
        labels = [cat_of[int(r)] for r in triples[:, 1]]
    else:
        labels = ["all"] * len(triples)
    labels = np.array(labels)

    by_dir: dict[str, dict[str, MetricCell]] = {}
    for j, direction in enumerate((Direction.HEAD, Direction.TAIL)):
        cells = {}
        for cat in sorted(set(labels)):
            sel = labels == cat
            if np.any(sel):
                cells[cat] = MetricCell.from_ranks(ranks[sel, j])
        by_dir[direction.value] = cells

    overall = MetricCell.from_ranks(ranks.ravel())
    return EvalReport(
        mrr=overall.mrr,
        hits1=overall.hits1,
        hits3=overall.hits3,
        hits10=overall.hits10,
        triple_count=int(len(triples)),
        by_direction_category=by_dir,
    )

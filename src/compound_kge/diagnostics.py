"""Numerical diagnostics of learned relation operators.

Every relation is a pair of per-block affine maps (M for the head
chain, M-hat for the tail chain).  Relation patterns correspond to
algebraic identities between those maps:

* symmetric:    M M^-1-hat  ==  M-hat M^-1
* inverse pair: M2-hat^-1 M2  ==  M1^-1 M1-hat
* transitive:   M3-hat^-1 M3  ==  (M2-hat^-1 M2)(M1-hat^-1 M1)
* many-to-x:    the relevant side's map is singular
* sub-relation: scales equal up to a factor gamma <= 1 with shared
  translation/rotation, which makes one score dominate the other.

Residuals measure the max-abs deviation from the identity, per block,
worst block reported.  Every identity is evaluated on whole
(ceil(d/2), 3, 3) block stacks; at an odd ``d`` the padded last block
counts like any other.  A block is singular when its |det A| is below
``transforms.DET_TOLERANCE``: one rule, on one closed-form determinant,
for the inverses' masks and ``singular_blocks``, whose smallest value is
``block_det_min``.  Singular blocks cannot enter identities that need an
inverse; they are masked out and counted separately.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import KGEModel
from .scoring import CompoundSpec, RelationParams, score
from .transforms import (
    DET_TOLERANCE,
    OperatorKind,
    _invert_with_det,
    chain_block_matrices,
    invert_blocks,
)

__all__ = [
    "relation_matrices",
    "symmetry_residual",
    "inversion_residual",
    "composition_residual",
    "subrelation_score_gap",
    "RelationDiagnostics",
    "relation_diagnostics",
    "export_relation_histograms",
    "export_entity_embeddings",
    "TRAINED_SCALE_TOLERANCE",
    "EXACT_SCALE_TOLERANCE",
]

log = logging.getLogger(__name__)

# Trained scale values cluster near zero without hitting it exactly, so
# singularity_fraction uses a loose threshold; singular blocks use the
# strict one, DET_TOLERANCE.
TRAINED_SCALE_TOLERANCE = 1e-2
EXACT_SCALE_TOLERANCE = DET_TOLERANCE


def relation_matrices(r: RelationParams, spec: CompoundSpec):
    """Per-block homogeneous matrices (M, M_hat) of one relation."""
    m = chain_block_matrices(spec.head_chain, r.head)
    m_hat = chain_block_matrices(spec.tail_chain, r.tail)
    return m, m_hat


def _masked_max_abs(lhs, rhs, applicable, name) -> float:
    """Worst max-abs difference over the applicable blocks of two stacks.

    NaN when no block was applicable; blocks whose difference is NaN are
    ignored.
    """
    skipped = int(np.count_nonzero(~applicable))
    if skipped:
        log.debug("%s skipped %d singular blocks", name, skipped)
    per_block = np.max(np.abs(lhs - rhs), axis=(-2, -1))[applicable]
    worst = np.fmax.reduce(per_block, initial=-1.0)
    return float(worst) if worst >= 0 else math.nan


def symmetry_residual(m, m_hat) -> float:
    """Deviation from the symmetric-relation identity M M_hat^-1 == M_hat M^-1.

    Blocks where either map is singular (``|det A| < DET_TOLERANCE``) are
    masked out (and counted in the log); returns NaN if nothing is
    applicable.
    """
    return _symmetry_residual(m, m_hat, *invert_blocks(m), *invert_blocks(m_hat))


def _symmetry_residual(m, m_hat, inv_m, sing_m, inv_h, sing_h) -> float:
    """:func:`symmetry_residual` from both stacks' inverses and singular masks."""
    return _masked_max_abs(
        m @ inv_h, m_hat @ inv_m, ~(sing_m | sing_h), "symmetry_residual"
    )


def inversion_residual(m1, m1_hat, m2, m2_hat) -> float:
    """Deviation from the inverse-relation identity
    M2_hat^-1 M2 == M1^-1 M1_hat, over the blocks where neither inverted
    map is singular (``|det A| < DET_TOLERANCE``)."""
    inv_h2, sing_h2 = invert_blocks(m2_hat)
    inv_m1, sing_m1 = invert_blocks(m1)
    return _masked_max_abs(
        inv_h2 @ m2, inv_m1 @ m1_hat, ~(sing_m1 | sing_h2), "inversion_residual"
    )


def composition_residual(m1, m1_hat, m2, m2_hat, m3, m3_hat) -> float:
    """Deviation from the transitivity identity
    M3_hat^-1 M3 == (M2_hat^-1 M2)(M1_hat^-1 M1), over the blocks where no
    inverted map is singular (``|det A| < DET_TOLERANCE``)."""
    inv1, sing1 = invert_blocks(m1_hat)
    inv2, sing2 = invert_blocks(m2_hat)
    inv3, sing3 = invert_blocks(m3_hat)
    return _masked_max_abs(
        inv3 @ m3,
        (inv2 @ m2) @ (inv1 @ m1),
        ~(sing1 | sing2 | sing3),
        "composition_residual",
    )


def subrelation_score_gap(
    r1: RelationParams,
    r2: RelationParams,
    spec: CompoundSpec,
    heads,
    tails,
) -> float:
    """Largest score difference f_r1 - f_r2 over sample (h, t) pairs.

    When r1 equals r2 except for scales multiplied by a factor
    gamma <= 1 (translations zero, rotations shared), the gap cannot be
    positive: the narrower relation never scores worse.
    """
    heads = np.asarray(heads, dtype=np.float64)
    tails = np.asarray(tails, dtype=np.float64)
    f1 = score(heads, r1, tails, spec)
    f2 = score(heads, r2, tails, spec)
    return float(np.max(f1 - f2))


@dataclass
class RelationDiagnostics:
    """Per-relation operator health indicators.

    ``singularity_fraction`` is the share of scale entries (over the
    sides whose chain scales) with magnitude below
    ``TRAINED_SCALE_TOLERANCE``; ``block_det_min`` the smallest |det A|
    over both sides' blocks; ``symmetry_residual`` the symmetric-identity
    deviation (NaN when every block is singular).  ``singular_blocks``
    counts the blocks, over both sides, whose |det A| is below
    ``DET_TOLERANCE``.
    """

    relation: int
    singularity_fraction: float
    block_det_min: float
    symmetry_residual: float
    singular_blocks: int


def relation_diagnostics(model: KGEModel, rid: int) -> RelationDiagnostics:
    spec = model.spec
    r = model.relation_params(rid)
    m, m_hat = relation_matrices(r, spec)

    scales = []
    if OperatorKind.SCALING in spec.head_chain:
        scales.append(r.head.scale)
    if OperatorKind.SCALING in spec.tail_chain:
        scales.append(r.tail.scale)
    if scales:
        entries = np.concatenate(scales)
        singularity_fraction = float(np.mean(np.abs(entries) < TRAINED_SCALE_TOLERANCE))
    else:
        singularity_fraction = 0.0

    inv_m, singular, det = _invert_with_det(m)
    inv_h, singular_hat, det_hat = _invert_with_det(m_hat)
    return RelationDiagnostics(
        relation=rid,
        singularity_fraction=singularity_fraction,
        block_det_min=float(np.minimum(np.abs(det).min(), np.abs(det_hat).min())),
        symmetry_residual=_symmetry_residual(m, m_hat, inv_m, singular, inv_h, singular_hat),
        singular_blocks=int(np.count_nonzero(singular) + np.count_nonzero(singular_hat)),
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

HISTOGRAM_COLUMNS = ("component", "side", "bin_left", "bin_right", "count")

# (operator, TransformParams field, exported component), in export order
_HISTOGRAM_COMPONENTS = (
    (OperatorKind.TRANSLATION, "translation", "translation"),
    (OperatorKind.SCALING, "scale", "scaling"),
    (OperatorKind.ROTATION, "angles", "rotation"),
)


def _histogram_rows(values, component, side, bins):
    counts, edges = np.histogram(values, bins=bins)
    return [
        {
            "component": component,
            "side": side,
            "bin_left": float(edges[i]),
            "bin_right": float(edges[i + 1]),
            "count": int(counts[i]),
        }
        for i in range(len(counts))
    ]


def export_relation_histograms(
    model: KGEModel, relation: int, bins: int = 50, out_path=None
) -> list[dict]:
    """Binned parameter-value counts for relation id ``relation``.

    One row per (component, side, bin); counts per component sum to the
    number of exported entries.  Sides follow the chains: components an
    operator chain does not contain are not exported, and a shared
    rotation is exported once with side ``"shared"``.  Returns the rows;
    also writes them as CSV when ``out_path`` is given.  An id outside
    ``0..n_relations-1`` raises ``KeyError``.
    """
    rid = int(relation)
    if not 0 <= rid < model.n_relations:
        raise KeyError(f"relation id {rid} out of range")

    spec = model.spec
    r = model.relation_params(rid)
    shared = model.shared_rotation and spec.both_rotations
    rows = []
    for op, field, component in _HISTOGRAM_COMPONENTS:
        for side, chain, params in (
            ("head", spec.head_chain, r.head),
            ("tail", spec.tail_chain, r.tail),
        ):
            if op not in chain:
                continue
            if shared and op is OperatorKind.ROTATION:
                if side == "tail":
                    continue  # the head's angles, already exported
                side = "shared"
            rows += _histogram_rows(getattr(params, field), component, side, bins)

    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=HISTOGRAM_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def export_entity_embeddings(
    model: KGEModel,
    entity_names: list[str],
    out_path,
    label_path=None,
) -> int:
    """Write the entity table as CSV: ``entity_name,dim_0..dim_{d-1}[,label]``.

    An optional label file (``entity<TAB>label`` lines) adds a label
    column; entities missing from it are warned about and left blank.
    Returns the number of data rows written.
    """
    labels = None
    if label_path is not None:
        labels = {}
        with open(label_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"label line needs 'entity<TAB>label': {line!r}")
                labels[parts[0]] = parts[1]
        missing = [n for n in entity_names if n not in labels]
        if missing:
            log.warning(
                "%d entities have no label (e.g. %r); exported unlabeled",
                len(missing),
                missing[0],
            )

    d = model.dim
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["entity_name"] + [f"dim_{j}" for j in range(d)]
        if labels is not None:
            header.append("label")
        writer.writerow(header)
        for i, name in enumerate(entity_names):
            row = [name] + [f"{x:.9g}" for x in model.entities[i]]
            if labels is not None:
                row.append(labels.get(name, ""))
            writer.writerow(row)
    return len(entity_names)

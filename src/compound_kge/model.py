"""Model state: the entity table and per-relation operator tables.

This module owns the table vocabulary.  Each side (head, tail) of a
relation's compound operator has a translation, an angle and a scale
table; a table's name is ``entities`` or ``<side>.<field>`` such as
``head.angles``.  Optimizer state, training gradients and checkpoint
arrays are keyed by these names, and :func:`table_names` lists them in
checkpoint order.  Under shared rotation the tail angle table is the
head's: it is not listed, and its gradient is the head's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .scoring import CompoundSpec, ModelPreset, RelationParams
from .transforms import OperatorKind, TransformParams

__all__ = [
    "ParamTables", "KGEModel", "init_model", "model_from_preset", "normalize_entities", "table_names"
]

log = logging.getLogger(__name__)


# each operator's TransformParams field and ParamTables field
_PARAM_GROUPS = (
    (OperatorKind.TRANSLATION, "translation", "translations"),
    (OperatorKind.ROTATION, "angles", "angles"),
    (OperatorKind.SCALING, "scale", "scales"),
)


def table_names(shared_rotation: bool) -> list[str]:
    """Names of a model's distinct tables, in checkpoint order."""
    names = ["entities"] + [
        f"{side}.{f.name}" for side in ("head", "tail") for f in fields(ParamTables)
    ]
    if shared_rotation:
        names.remove("tail.angles")  # the head's table
    return names


@dataclass
class ParamTables:
    """Stacked relation parameters for one side (head or tail).

    Shapes: translations (m, d), angles (m, d // 2), scales (m, d).
    """

    translations: np.ndarray
    angles: np.ndarray
    scales: np.ndarray

    def __getitem__(self, rows) -> TransformParams:
        """The operator parameters of relation rows ``rows``: views for an
        integer or slice, gathered copies for an index array."""
        return TransformParams(
            self.translations[rows], self.angles[rows], self.scales[rows]
        )

    def copy(self) -> "ParamTables":
        return ParamTables(
            self.translations.copy(), self.angles.copy(), self.scales.copy()
        )


@dataclass
class KGEModel:
    """Trainable state of one embedding model.

    ``entities`` has one unit-norm row per entity.  With
    ``shared_rotation`` the tail angle table aliases the head table, so
    a single angle vector per relation drives both chains.
    """

    spec: CompoundSpec
    entities: np.ndarray
    head: ParamTables
    tail: ParamTables
    shared_rotation: bool = False
    preset_name: str | None = None
    step: int = 0

    def __post_init__(self):
        if self.shared_rotation:
            self.tail.angles = self.head.angles

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.head.translations.shape[0]

    @property
    def dim(self) -> int:
        return self.spec.dim

    def table(self, name: str) -> np.ndarray:
        """The array a table name refers to (see :func:`table_names`);
        ``tail.angles`` resolves to the head's table under shared rotation."""
        if name == "entities":
            return self.entities
        side, field = name.split(".")
        return getattr(getattr(self, side), field)

    def tables(self) -> dict[str, np.ndarray]:
        """Every distinct table by name, in checkpoint order."""
        return {name: self.table(name) for name in table_names(self.shared_rotation)}

    def relation_params(self, rid: int) -> RelationParams:
        """Per-relation view (shares memory with the tables)."""
        return RelationParams(self.head[rid], self.tail[rid], self.shared_rotation)

    def copy(self) -> "KGEModel":
        return KGEModel(
            spec=self.spec,
            entities=self.entities.copy(),
            head=self.head.copy(),
            tail=self.tail.copy(),
            shared_rotation=self.shared_rotation,
            preset_name=self.preset_name,
            step=self.step,
        )


def _init_side(rng: np.random.Generator, m: int, d: int, chain) -> ParamTables:
    scale_init = 0.5 / np.sqrt(d)
    if OperatorKind.TRANSLATION in chain:
        translations = rng.uniform(-scale_init, scale_init, size=(m, d))
    else:
        translations = np.zeros((m, d))
    if OperatorKind.ROTATION in chain:
        angles = rng.uniform(-np.pi, np.pi, size=(m, d // 2))
    else:
        angles = np.zeros((m, d // 2))
    return ParamTables(translations, angles, np.ones((m, d)))


def normalize_entities(table: np.ndarray, rng: np.random.Generator | None = None) -> int:
    """Project every entity row to unit L2 norm, in place.

    Rows with norm below 1e-12 cannot be normalized; they are
    re-randomized first (then normalized) and counted.  Returns the
    number of re-randomized rows.
    """
    norms = np.linalg.norm(table, axis=1)
    degenerate = norms < 1e-12
    n_bad = int(np.count_nonzero(degenerate))
    if n_bad:
        if rng is None:
            rng = np.random.default_rng(0)
        d = table.shape[1]
        table[degenerate] = rng.uniform(-0.5, 0.5, size=(n_bad, d)) / np.sqrt(d)
        norms = np.linalg.norm(table, axis=1)
        log.warning("re-randomized %d degenerate entity rows", n_bad)
    table /= norms[:, None]
    return n_bad


def init_model(
    spec: CompoundSpec,
    n_entities: int,
    n_relations: int,
    rng: np.random.Generator,
    shared_rotation: bool = False,
    preset_name: str | None = None,
) -> KGEModel:
    """Fresh model state.

    Entities start uniform in [-0.5, 0.5] / sqrt(d) and are projected to
    unit norm.  Translations in a side's chain start in the same range,
    angles in its chain uniform in [-pi, pi]; scales start at one, and
    tables of operators a chain lacks hold the identity (0 / 0 / 1).
    """
    if n_entities < 1 or n_relations < 1:
        raise ValueError("need at least one entity and one relation")
    d = spec.dim
    entities = rng.uniform(-0.5, 0.5, size=(n_entities, d)) / np.sqrt(d)
    normalize_entities(entities, rng)
    head = _init_side(rng, n_relations, d, spec.head_chain)
    tail = _init_side(rng, n_relations, d, spec.tail_chain)
    return KGEModel(
        spec=spec,
        entities=entities,
        head=head,
        tail=tail,
        shared_rotation=shared_rotation and spec.both_rotations,
        preset_name=preset_name,
    )


def model_from_preset(
    preset: ModelPreset,
    n_entities: int,
    n_relations: int,
    rng: np.random.Generator,
) -> KGEModel:
    return init_model(preset.spec, n_entities, n_relations, rng, preset_name=preset.name)

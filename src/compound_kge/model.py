"""Model state: the entity table and per-relation operator tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scoring import CompoundSpec, ModelPreset, RelationParams, TrainableMask
from .transforms import TransformParams

__all__ = ["ParamTables", "KGEModel", "init_model", "model_from_preset"]


@dataclass
class ParamTables:
    """Stacked relation parameters for one side (head or tail).

    Shapes: translations (m, d), angles (m, d // 2), scales (m, d).
    """

    translations: np.ndarray
    angles: np.ndarray
    scales: np.ndarray

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
    trainable: TrainableMask
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
        """The array a table name refers to: ``entities`` or
        ``<side>.<field>`` such as ``head.angles``.  Optimizer state,
        gradients and checkpoint arrays are keyed by these names."""
        if name == "entities":
            return self.entities
        side, field = name.split(".")
        return getattr(getattr(self, side), field)

    def relation_params(self, rid: int) -> RelationParams:
        """Per-relation view (shares memory with the tables)."""
        return RelationParams(
            head=TransformParams(
                self.head.translations[rid],
                self.head.angles[rid],
                self.head.scales[rid],
            ),
            tail=TransformParams(
                self.tail.translations[rid],
                self.tail.angles[rid],
                self.tail.scales[rid],
            ),
            shared_rotation=self.shared_rotation,
        )

    def copy(self) -> "KGEModel":
        return KGEModel(
            spec=self.spec,
            entities=self.entities.copy(),
            head=self.head.copy(),
            tail=self.tail.copy(),
            trainable=self.trainable,
            shared_rotation=self.shared_rotation,
            preset_name=self.preset_name,
            step=self.step,
        )


def _init_side(
    rng: np.random.Generator,
    m: int,
    d: int,
    translation_trainable: bool,
    rotation_trainable: bool,
) -> ParamTables:
    scale_init = 0.5 / np.sqrt(d)
    if translation_trainable:
        translations = rng.uniform(-scale_init, scale_init, size=(m, d))
    else:
        translations = np.zeros((m, d))
    if rotation_trainable:
        angles = rng.uniform(-np.pi, np.pi, size=(m, d // 2))
    else:
        angles = np.zeros((m, d // 2))
    return ParamTables(translations, angles, np.ones((m, d)))


def init_model(
    spec: CompoundSpec,
    n_entities: int,
    n_relations: int,
    rng: np.random.Generator,
    trainable: TrainableMask | None = None,
    shared_rotation: bool = False,
    preset_name: str | None = None,
) -> KGEModel:
    """Fresh model state.

    Entities start uniform in [-0.5, 0.5] / sqrt(d) and are projected to
    unit norm.  Trainable translations start in the same range, trainable
    angles uniform in [-pi, pi]; scales start at one; frozen groups start
    at their identity values (0 / 0 / 1).
    """
    if n_entities < 1 or n_relations < 1:
        raise ValueError("need at least one entity and one relation")
    d = spec.dim
    if trainable is None:
        trainable = TrainableMask.for_spec(spec)
    entities = rng.uniform(-0.5, 0.5, size=(n_entities, d)) / np.sqrt(d)
    norms = np.linalg.norm(entities, axis=1, keepdims=True)
    entities = entities / np.where(norms < 1e-12, 1.0, norms)
    head = _init_side(
        rng, n_relations, d, trainable.head_translation, trainable.head_rotation
    )
    tail = _init_side(
        rng, n_relations, d, trainable.tail_translation, trainable.tail_rotation
    )
    shared = shared_rotation and spec.both_rotations
    if shared:
        # one angle draw drives both chains
        tail.angles = head.angles
    return KGEModel(
        spec=spec,
        entities=entities,
        head=head,
        tail=tail,
        trainable=trainable,
        shared_rotation=shared,
        preset_name=preset_name,
    )


def model_from_preset(
    preset: ModelPreset,
    n_entities: int,
    n_relations: int,
    rng: np.random.Generator,
) -> KGEModel:
    return init_model(
        preset.spec,
        n_entities,
        n_relations,
        rng,
        trainable=preset.trainable,
        shared_rotation=preset.shared_rotation,
        preset_name=preset.name,
    )

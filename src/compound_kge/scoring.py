"""Distance scoring of triples under compound relation operators.

A relation transforms the head and/or tail entity vector with its own
operator chain; the score of a triple is the L1 or L2 norm of the gap
between the two transformed vectors.  Lower scores mean more plausible
triples.  Classic distance-based models fall out as restrictions:
translation only (TransE), rotation only (RotatE), two-sided scaling
(PairRE), head translation plus two-sided scaling (LinearRE).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .transforms import (
    OperatorKind,
    TransformParams,
    apply_chain,
    chain_backward,
    chain_forward_tape,
    chain_from_string,
    validate_chain,
)

__all__ = [
    "Variant",
    "Norm",
    "CompoundSpec",
    "RelationParams",
    "ModelPreset",
    "ScoreGradients",
    "score",
    "grad_score",
    "preset_transe",
    "preset_rotate",
    "preset_pairre",
    "preset_linearre",
    "compound_spec",
    "PRESETS",
]

_T = OperatorKind.TRANSLATION
_R = OperatorKind.ROTATION
_S = OperatorKind.SCALING


class Variant(enum.Enum):
    """Which side(s) of a triple the relation operator acts on."""

    HEAD = "head"
    TAIL = "tail"
    FULL = "full"


class Norm(enum.Enum):
    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class CompoundSpec:
    """Declarative description of a scoring-function variant.

    ``head_chain`` / ``tail_chain`` are operator products in written
    order (rightmost applies first).  The HEAD variant requires an empty
    tail chain, TAIL an empty head chain, FULL two nonempty chains.
    """

    variant: Variant
    head_chain: tuple[OperatorKind, ...]
    tail_chain: tuple[OperatorKind, ...]
    dim: int
    norm: Norm = Norm.L1

    def __post_init__(self):
        object.__setattr__(self, "head_chain", validate_chain(self.head_chain))
        object.__setattr__(self, "tail_chain", validate_chain(self.tail_chain))
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.variant is Variant.HEAD and self.tail_chain:
            raise ValueError("HEAD variant must have an empty tail chain")
        if self.variant is Variant.TAIL and self.head_chain:
            raise ValueError("TAIL variant must have an empty head chain")
        if self.variant is Variant.FULL and not (self.head_chain and self.tail_chain):
            raise ValueError("FULL variant needs nonempty head and tail chains")
        if _R in self.head_chain + self.tail_chain and self.dim % 2 != 0:
            raise ValueError(f"rotation requires an even dim, got {self.dim}")

    @property
    def both_rotations(self) -> bool:
        return _R in self.head_chain and _R in self.tail_chain


@dataclass
class RelationParams:
    """One relation's operator parameters for head and tail chains.

    When ``shared_rotation`` is set, ``head.angles`` and ``tail.angles``
    alias the same array so one angle vector drives both sides.
    """

    head: TransformParams
    tail: TransformParams
    shared_rotation: bool = False

    def __post_init__(self):
        if self.shared_rotation:
            self.tail.angles = self.head.angles

    @classmethod
    def identity(cls, dim: int, shared_rotation: bool = False) -> "RelationParams":
        return cls(
            TransformParams.identity(dim),
            TransformParams.identity(dim),
            shared_rotation,
        )


@dataclass(frozen=True)
class ModelPreset:
    """A classic model as a named compound spec: its chains hold only the
    operators the model has, so they are all it trains."""

    name: str
    spec: CompoundSpec


def _distance(diff: np.ndarray, norm: Norm, out: np.ndarray | None = None) -> np.ndarray:
    """L1 or L2 norm of the transformed gap along the last axis.

    ``out`` (``diff``'s shape, or ``diff`` itself) receives the elementwise
    absolute values or squares, so no gap-sized temporary is allocated.
    """
    if norm is Norm.L1:
        return np.sum(np.abs(diff, out=out), axis=-1)
    return np.sqrt(np.sum(np.multiply(diff, diff, out=out), axis=-1))


def _norm_and_grad(diff: np.ndarray, norm: Norm):
    """Score and its gradient with respect to the transformed gap.

    Under L1 ``diff`` is overwritten with its absolute values, so callers
    pass a gap they no longer need.  Under L2 one gap-sized buffer holds
    the squares and then the gradient.
    """
    if norm is Norm.L1:
        # subgradient at the kink is taken as 0 (np.sign(0) == 0)
        g = np.sign(diff)
        return _distance(diff, norm, out=diff), g
    g = np.empty_like(diff)
    f = _distance(diff, norm, out=g)
    safe = np.where(f == 0.0, 1.0, f)
    return f, np.divide(diff, safe[..., None], out=g)


def score(h, r: RelationParams, t, spec: CompoundSpec):
    """Score a triple: the norm of the transformed head/tail gap.

    Nonnegative; exactly zero iff the two transformed vectors coincide.
    Broadcasts over leading batch dimensions of ``h`` and ``t``.
    """
    h = np.asarray(h, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if h.shape[-1] != spec.dim or t.shape[-1] != spec.dim:
        raise ValueError(
            f"entity dimension mismatch: spec.dim={spec.dim}, "
            f"h has {h.shape[-1]}, t has {t.shape[-1]}"
        )
    u = apply_chain(h, spec.head_chain, r.head)
    v = apply_chain(t, spec.tail_chain, r.tail)
    return _distance(u - v, spec.norm)


@dataclass
class ScoreGradients:
    """Partial derivatives of a score.

    ``head``/``tail`` hold the per-chain parameter gradients in the
    parameters' shapes; groups absent from a chain are zero.  With shared
    rotation the total angle gradient (both sides) is reported under
    ``head.angles`` and ``tail.angles`` is zero.
    """

    h: np.ndarray
    t: np.ndarray
    head: TransformParams
    tail: TransformParams


def grad_score(h, r: RelationParams, t, spec: CompoundSpec) -> ScoreGradients:
    """Analytic gradients of :func:`score` for one triple."""
    h = np.asarray(h, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    u, tape_h = chain_forward_tape(h, spec.head_chain, r.head)
    v, tape_t = chain_forward_tape(t, spec.tail_chain, r.tail)
    _, g = _norm_and_grad(u - v, spec.norm)
    gh, head_grads = chain_backward(g, r.head, tape_h)
    gt, tail_grads = chain_backward(-g, r.tail, tape_t)
    if r.shared_rotation:
        head_grads.angles = head_grads.angles + tail_grads.angles
        tail_grads.angles = np.zeros_like(tail_grads.angles)
    return ScoreGradients(h=gh, t=gt, head=head_grads, tail=tail_grads)


# ---------------------------------------------------------------------------
# Presets: classic models as restrictions of the compound score
# ---------------------------------------------------------------------------

def preset_transe(dim: int, norm: Norm = Norm.L1) -> ModelPreset:
    """Head translation only: ||h + r - t||."""
    return ModelPreset("transe", CompoundSpec(Variant.HEAD, (_T,), (), dim, norm))


def preset_rotate(dim: int, norm: Norm = Norm.L1) -> ModelPreset:
    """Head block rotation only: h rotated per block, minus t."""
    return ModelPreset("rotate", CompoundSpec(Variant.HEAD, (_R,), (), dim, norm))


def preset_pairre(dim: int, norm: Norm = Norm.L1) -> ModelPreset:
    """Scaling-only chains on both sides: ||h*s_head - t*s_tail||."""
    return ModelPreset("pairre", CompoundSpec(Variant.FULL, (_S,), (_S,), dim, norm))


def preset_linearre(dim: int, norm: Norm = Norm.L1) -> ModelPreset:
    """Two-sided scaling plus a head translation:
    ||h*s_head + r - t*s_tail||."""
    return ModelPreset("linearre", CompoundSpec(Variant.FULL, (_T, _S), (_S,), dim, norm))


def compound_spec(
    variant: Variant | str = Variant.FULL,
    head_order: str = "SRT",
    tail_order: str = "SRT",
    dim: int = 200,
    norm: Norm | str = Norm.L1,
) -> CompoundSpec:
    """Build a general spec from order strings like ``"SRT"``."""
    if isinstance(variant, str):
        variant = Variant(variant.lower())
    if isinstance(norm, str):
        norm = Norm(norm.lower())
    head_chain = chain_from_string(head_order) if variant is not Variant.TAIL else ()
    tail_chain = chain_from_string(tail_order) if variant is not Variant.HEAD else ()
    return CompoundSpec(variant, head_chain, tail_chain, dim, norm)


PRESETS = {
    "transe": preset_transe,
    "rotate": preset_rotate,
    "pairre": preset_pairre,
    "linearre": preset_linearre,
}

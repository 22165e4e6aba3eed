"""Affine operator algebra on 2D coordinate blocks.

Embedding vectors of dimension ``d`` are treated as ``ceil(d/2)`` planar
blocks: coordinates ``(2i, 2i+1)`` form block ``i``, and at an odd ``d``
the last coordinate pairs with a padding coordinate that no operator
moves.  Three elementary operators act on the blocks:

* translation by a vector ``t`` (elementwise addition),
* rotation of every block by its own angle (counterclockwise),
* scaling by a vector ``s`` (elementwise product).

A chain of distinct operators, written in matrix-product order, composes
into a single affine map per block.  ``chain = (T, R, S)`` denotes the
product T.R.S, so scaling is applied first and translation last.  Each
block's compound map has a homogeneous 3x3 matrix representation with
bottom row (0, 0, 1); products and inverses of those matrices stay in
that form, which is what makes the operator family closed under
composition and (when the scaling is nonzero) inversion.  Applying a
chain runs that affine map, ``y = A x + b`` per block, as ``A``'s factors
one at a time and then ``b``, and its gradients come from the map's one
vector-Jacobian product, returned as a ``TransformParams`` of gradients in
the parameters' shapes.

All functions are pure and broadcast over leading batch dimensions.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularOperatorError

__all__ = [
    "OperatorKind",
    "TransformParams",
    "apply_translation",
    "apply_rotation",
    "apply_scaling",
    "apply_chain",
    "chain_from_string",
    "chain_to_string",
    "validate_chain",
    "compound_matrix_2d",
    "invert_compound_2d",
    "invert_blocks",
    "chain_block_matrices",
    "chain_affine_map",
    "DET_TOLERANCE",
]

# |det A| below this is treated as singular when inverting a block.
DET_TOLERANCE = 1e-8


class OperatorKind(enum.Enum):
    """The three elementary block operators."""

    TRANSLATION = "T"
    ROTATION = "R"
    SCALING = "S"


_KIND_BY_LETTER = {k.value: k for k in OperatorKind}


def validate_chain(chain) -> tuple[OperatorKind, ...]:
    """Check a chain (sequence of OperatorKind) and return it as a tuple.

    A valid chain has length 0..3 and pairwise distinct kinds.  An empty
    chain is the identity map.
    """
    chain = tuple(chain)
    for op in chain:
        if not isinstance(op, OperatorKind):
            raise ValueError(f"chain entries must be OperatorKind, got {op!r}")
    if len(chain) > 3 or len(set(chain)) != len(chain):
        raise ValueError(
            f"chain must hold at most one of each operator kind, got {chain}"
        )
    return chain


def chain_from_string(order: str) -> tuple[OperatorKind, ...]:
    """Parse an order string like ``"SRT"`` into an operator chain.

    The string is read as a matrix product, so the last letter is the
    first operator applied.  Valid letters: T (translation), R
    (rotation), S (scaling), each at most once.
    """
    try:
        chain = tuple(_KIND_BY_LETTER[c] for c in order.upper())
    except KeyError as exc:
        raise ValueError(
            f"invalid operator letter {exc.args[0]!r} in order string {order!r}; "
            "valid tokens are T, R, S"
        ) from None
    return validate_chain(chain)


def chain_to_string(chain) -> str:
    return "".join(op.value for op in chain)


@dataclass
class TransformParams:
    """Parameters of one compound operator over all blocks.

    Attributes
    ----------
    translation : ndarray, shape (d,)
        Per-coordinate offset.
    angles : ndarray, shape (d // 2,)
        Per-block rotation angle in radians.  Stored unconstrained;
        application is periodic so no wrapping is needed.
    scale : ndarray, shape (d,)
        Per-coordinate factor.  Zeros are allowed: singular scaling is
        how many-to-one behaviour is expressed, not an error.
    """

    translation: np.ndarray
    angles: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.translation = np.asarray(self.translation, dtype=np.float64)
        self.angles = np.asarray(self.angles, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        d = self.translation.shape[-1]
        if self.scale.shape[-1] != d:
            raise ValueError(
                f"translation ({d}) and scale ({self.scale.shape[-1]}) "
                "must share the embedding dimension"
            )
        if self.angles.shape[-1] != d // 2:
            raise ValueError(
                f"angles must have dimension d//2 = {d // 2}, "
                f"got {self.angles.shape[-1]}"
            )

    @property
    def dim(self) -> int:
        return self.translation.shape[-1]

    @classmethod
    def identity(cls, dim: int) -> "TransformParams":
        return cls(np.zeros(dim), np.zeros(dim // 2), np.ones(dim))

    def copy(self) -> "TransformParams":
        return TransformParams(
            self.translation.copy(), self.angles.copy(), self.scale.copy()
        )


def _check_same_dim(x, other, name):
    if x.shape[-1] != other.shape[-1]:
        raise ValueError(
            f"dimension mismatch: x has {x.shape[-1]}, {name} has {other.shape[-1]}"
        )


def apply_translation(x, t):
    """Return ``x + t`` elementwise."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    _check_same_dim(x, t, "translation")
    return x + t


def apply_scaling(x, s):
    """Return the elementwise product ``x * s``."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    _check_same_dim(x, s, "scale")
    return x * s


def apply_rotation(x, angles):
    """Rotate each 2D block of ``x`` counterclockwise by its angle.

    Block ``i`` holds coordinates ``(2i, 2i+1)``; ``angles`` supplies one
    angle per block.  Each block's Euclidean norm is preserved.
    """
    x = np.asarray(x, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    d = x.shape[-1]
    if d % 2 != 0:
        raise ValueError(f"rotation needs an even dimension, got d={d}")
    if angles.shape[-1] != d // 2:
        raise ValueError(
            f"expected {d // 2} angles for dimension {d}, got {angles.shape[-1]}"
        )
    return apply_chain(x, (OperatorKind.ROTATION,), TransformParams(np.zeros(d), angles, np.ones(d)))


def apply_chain(x, chain, params: TransformParams):
    """Apply an operator chain to ``x``.

    The chain is written in matrix-product order: the last operator in
    the sequence acts first.  An empty chain returns ``x`` unchanged.
    """
    return chain_forward_tape(x, chain, params)[0]


# ---------------------------------------------------------------------------
# Homogeneous 3x3 block matrices
# ---------------------------------------------------------------------------

def _operator_blocks(op: OperatorKind, params: TransformParams) -> np.ndarray:
    """Stack of one elementary operator's 3x3 matrices, one per block."""
    angles = params.angles
    m = np.zeros(angles.shape + (3, 3))
    m[..., 2, 2] = 1.0
    if op is OperatorKind.TRANSLATION:
        m[..., 0, 0] = m[..., 1, 1] = 1.0
        m[..., 0, 2] = params.translation[..., 0::2]
        m[..., 1, 2] = params.translation[..., 1::2]
    elif op is OperatorKind.ROTATION:
        c, s = np.cos(angles), np.sin(angles)
        m[..., 0, 0], m[..., 0, 1] = c, -s
        m[..., 1, 0], m[..., 1, 1] = s, c
    else:
        m[..., 0, 0] = params.scale[..., 0::2]
        m[..., 1, 1] = params.scale[..., 1::2]
    return m


def _pad(a, value, width):  # fill the last axis up to width entries
    return np.concatenate([a, np.full(a.shape[:-1] + (width - a.shape[-1],), value)], axis=-1)


def _compile_chain(chain, params: TransformParams, width):
    """Each operator's block stack paired with the chain's product up to it;
    the last product is the chain's map.  Blocks that no operator moves pad
    the parameters to ``width`` coordinates (an odd ``d``'s last block)."""
    if width > params.dim:
        t, a, s = params.translation, params.angles, params.scale
        params = TransformParams(_pad(t, 0.0, width), _pad(a, 0.0, width // 2), _pad(s, 1.0, width))
    factors = [_operator_blocks(op, params) for op in chain]
    return list(zip(factors, itertools.accumulate(factors, np.matmul)))


def chain_block_matrices(chain, params: TransformParams) -> np.ndarray:
    """Stack of per-block homogeneous 3x3 matrices of a chain.

    Returns an array of shape (..., ceil(d/2), 3, 3); block ``i``
    transforms coordinates ``(2i, 2i+1)``.  It is the map that
    :func:`apply_chain` runs, with its bottom row exactly (0, 0, 1); an odd
    dimension's last block pairs the last coordinate with a padding
    coordinate that no operator moves.  An empty chain gives identity
    blocks.
    """
    chain = validate_chain(chain)
    if not chain:
        shape = params.angles.shape[:-1] + ((params.dim + 1) // 2, 3, 3)
        return np.broadcast_to(np.eye(3), shape).copy()
    m = _compile_chain(chain, params, params.dim + params.dim % 2)[-1][1]
    m[..., 2, :] = (0.0, 0.0, 1.0)
    return m


def compound_matrix_2d(chain, block_params) -> np.ndarray:
    """Homogeneous 3x3 matrix of a chain on a single block.

    Parameters
    ----------
    chain : sequence of OperatorKind
        Operator product, written order (rightmost applies first).
    block_params : tuple (v_x, v_y, theta, s_x, s_y)
        Translation offsets, rotation angle, and scale factors for the
        block.  Entries of operators absent from the chain are ignored.

    Returns
    -------
    ndarray, shape (3, 3)
        The compound map; bottom row is exactly (0, 0, 1).  For the full
        chain (T, R, S) it equals
        ``[[s_x cos(theta), -s_y sin(theta), v_x],
        [s_x sin(theta), s_y cos(theta), v_y], [0, 0, 1]]``.
    """
    v_x, v_y, theta, s_x, s_y = (float(p) for p in block_params)
    params = TransformParams([v_x, v_y], [theta], [s_x, s_y])
    return chain_block_matrices(chain, params)[0]


def invert_blocks(m, det_tolerance: float = DET_TOLERANCE):
    """Invert a stack of homogeneous block matrices in closed block form.

    For ``m = [[A, v], [0, 1]]`` the inverse is ``[[A^-1, -A^-1 v], [0, 1]]``.
    Blocks with ``|det A| < det_tolerance`` have no usable inverse: they
    are flagged in the returned mask and their inverse entries are NaN.

    Returns
    -------
    (inverse, singular_mask)
        Arrays of shapes (..., 3, 3) and (...).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a stack of 3x3 matrices, got shape {m.shape}")
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * d - b * c
    singular = np.abs(det) < det_tolerance
    det = np.where(singular, 1.0, det)
    out = np.zeros(m.shape)
    out[..., 0, 0], out[..., 0, 1] = d / det, -b / det
    out[..., 1, 0], out[..., 1, 1] = -c / det, a / det
    out[..., :2, 2] = (-out[..., :2, :2] @ m[..., :2, 2:])[..., 0]
    out[..., 2, 2] = 1.0
    out[singular] = np.nan
    return out, singular


def invert_compound_2d(m, det_tolerance: float = DET_TOLERANCE) -> np.ndarray:
    """Invert one homogeneous block matrix (see :func:`invert_blocks`).

    Raises
    ------
    SingularOperatorError
        If ``|det A| < det_tolerance``.  Singular blocks are a modelling
        feature of many-to-x relations, so this error is a signal, not a
        failure of the caller's math.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    out, singular = invert_blocks(m, det_tolerance)
    if singular:
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        raise SingularOperatorError(
            f"block determinant {det:.3e} below tolerance {det_tolerance:.1e}"
        )
    return out


# ---------------------------------------------------------------------------
# Chain forward with tape / vector-Jacobian backward (scoring, training, eval)
# ---------------------------------------------------------------------------

def chain_affine_map(chain, params: TransformParams):
    """The per-block map ``y = A x + b`` that :func:`apply_chain` runs.

    Returns ``(A, b)`` of shapes (..., ceil(d/2), 2, 2) and
    (..., ceil(d/2), 2): the top rows of :func:`chain_block_matrices`.
    """
    m = chain_block_matrices(chain, params)
    return m[..., :2, :2], m[..., :2, 2]


def _apply_linear(v, chain, blocks, out, transpose=False):
    """``A v`` (or ``A^T v``) for a taped chain's map ``A = A_1 ... A_K``,
    one factor at a time into ``out``, right to left (left to right): a
    rotation multiplies the complex view of each block by ``cos + i sin``
    (``cos - i sin``), a scaling is an elementwise product and a translation
    has no linear part.  Returns ``out``, or ``v`` if no factor is linear."""
    factors = [(op, f) for op, (f, _) in zip(chain, blocks)]
    for op, f in factors if transpose else factors[::-1]:
        if op is OperatorKind.ROTATION:
            w = f[..., 0, 0] + (-1j if transpose else 1j) * f[..., 1, 0]
            np.multiply(v.view(np.complex128), w, out=out.view(np.complex128))
        elif op is OperatorKind.SCALING:
            np.multiply(v, f[..., [0, 1], [0, 1]].reshape(f.shape[:-3] + (2 * f.shape[-3],)), out=out)
        else:
            continue
        v = out
    return v


def chain_forward_tape(x, chain, params: TransformParams):
    """Apply a chain, recording it for backprop: its linear factors act one
    at a time into one output buffer, and the compiled translation ``b`` of
    :func:`chain_affine_map` is added once, last, so ``y = A x + b`` with
    ``A`` as its factors and ``b`` bit for bit.  A row's result is
    bit-identical alone or in a batch.  Returns ``(y, tape)`` with ``tape =
    (chain, x, blocks)``: ``x`` padded as the kernel ran it, and ``blocks``
    pairing each operator's block stack with the chain's product up to it.
    An empty chain returns ``x``."""
    chain = validate_chain(chain)
    x = np.asarray(x, dtype=np.float64)
    if not chain:
        return x, (chain, x, [])
    _check_same_dim(x, params.translation, "translation")
    # an odd d gains a padding coordinate, and one block an identity block:
    # numpy rounds a complex product over a one-element inner loop its own way
    d = x.shape[-1]
    width = max(4, d + d % 2)
    x = np.ascontiguousarray(_pad(x, 0.0, width) if width > d else x)  # for the complex view
    blocks = _compile_chain(chain, params, width)
    m = blocks[-1][1]
    y = np.empty(np.broadcast_shapes(x.shape[:-1], m.shape[:-3]) + (width,))
    v = _apply_linear(x, chain, blocks, y)
    if OperatorKind.TRANSLATION in chain:  # otherwise b is zero
        np.add(v, m[..., :2, 2].reshape(m.shape[:-3] + (width,)), out=y)
    return y[..., :d], (chain, x, blocks)


def chain_backward(grad_out, params: TransformParams, tape):
    """Vector-Jacobian product back through a taped chain application.

    For a block map ``M = F_1 ... F_K`` factor ``k`` gets
    ``dF_k = P_k^T dM S_k^T`` (``P_k``, ``S_k``: products of the factors
    before and after it; ``dM``: ``g x^T`` and ``g`` summed over the axes
    the parameters were broadcast along, the first as one batched matrix
    product per block).  Translation reads ``dF[:2, 2]``, scaling the
    diagonal, rotation ``<dF, dR/dtheta>``.  The input gradient
    ``A^T g = A_K^T ... A_1^T g`` is applied one factor at a time.

    Parameters
    ----------
    grad_out : ndarray, shape (..., d)
        Gradient of the scalar objective with respect to the chain output.
    params : TransformParams
        Parameters the forward pass used.
    tape : tuple
        The record produced by :func:`chain_forward_tape`.

    Returns
    -------
    (grad_x, TransformParams)
        Gradient with respect to the chain input, and per-operator
        parameter gradients in the parameters' shapes, summed over the axes
        the parameters were broadcast along; operators absent from the
        chain get zeros.  A chain without rotation or scaling has
        ``A = I``, and its ``grad_x`` is ``grad_out`` itself.
    """
    chain, x, blocks = tape
    g = np.asarray(grad_out, dtype=np.float64)
    grads = TransformParams(*map(np.zeros_like, (params.translation, params.angles, params.scale)))
    if not chain:
        return g, grads
    d, width = g.shape[-1], x.shape[-1]
    g = np.ascontiguousarray(_pad(g, 0.0, width) if width > d else g)
    m = blocks[-1][1]
    # dM is summed over the axes that broadcasting the parameters added or
    # stretched; they go last and flat, so each block's dA is one (2, S) @ (S, 2)
    n = g.ndim - 1
    lead = n - (m.ndim - 3)
    axes = [i for i in range(n) if i < lead or m.shape[i - lead] == 1 < g.shape[i]]
    kept = [i for i in range(n) if i not in axes]
    flat = math.prod(g.shape[i] for i in axes)
    gb = g.reshape(g.shape[:-1] + m.shape[-3:-2] + (2,))
    xb = np.broadcast_to(x, g.shape).reshape(gb.shape)
    dm = np.zeros(m.shape)
    dm[..., :2, :2] = np.matmul(
        gb.transpose(kept + [n, n + 1] + axes).reshape(m.shape[:-2] + (2, flat)),
        xb.transpose(kept + [n] + axes + [n + 1]).reshape(m.shape[:-2] + (flat, 2)),
    )
    dm[..., :2, 2] = gb.sum(axis=tuple(axes)).reshape(m.shape[:-2] + (2,))
    pairs = m.shape[:-3] + (2 * m.shape[-3],)
    right = dm  # dM S_k^T: the transposed factors after k, in reverse order
    for k in reversed(range(len(chain))):
        f = blocks[k][0]
        df = right if k == 0 else np.swapaxes(blocks[k - 1][1], -1, -2) @ right
        if k:
            right = right @ np.swapaxes(f, -1, -2)
        if chain[k] is OperatorKind.TRANSLATION:
            grads.translation = df[..., [0, 1], [2, 2]].reshape(pairs)[..., :d]
        elif chain[k] is OperatorKind.SCALING:
            grads.scale = df[..., [0, 1], [0, 1]].reshape(pairs)[..., :d]
        else:  # f holds cos and sin of the angles
            d_angle = f[..., 0, 0] * (df[..., 1, 0] - df[..., 0, 1])
            grads.angles = (d_angle - f[..., 1, 0] * (df[..., 0, 0] + df[..., 1, 1]))[..., : d // 2]
    gx = _apply_linear(g, chain, blocks, np.empty(g.shape), transpose=True)
    return gx[..., :d], grads

"""Affine operator algebra on 2D coordinate blocks.

Embedding vectors of dimension ``d`` are treated as ``ceil(d/2)`` planar
blocks: coordinates ``(2i, 2i+1)`` form block ``i``, and at an odd ``d``
the last coordinate pairs with a padding coordinate that no operator
moves.  Three elementary operators act on the blocks:

* translation by a vector ``t`` (elementwise addition),
* rotation of every block by its own angle (counterclockwise),
* scaling by a vector ``s`` (elementwise product).

A chain of distinct operators, written in matrix-product order, composes
into a single affine map ``y = A x + b`` per block.  ``chain = (T, R, S)``
denotes the product T.R.S, so scaling is applied first and translation
last.  A chain compiles once to its factors' parameters (a rotation's
``cos + i sin`` per block, a scaling's coordinates) and to ``b``, its one
translation moved by the linear factors written before it.  The forward
applies ``A``'s factors one at a time and then adds ``b``; the backward is
the map's one vector-Jacobian product.  Only diagnostics and the public
3x3 API build the homogeneous form ``[[A, b], [0, 1]]``, which products
and (for nonzero scaling) inverses keep in that form.

All functions are pure and broadcast over leading batch dimensions.
"""

from __future__ import annotations

import enum
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

# |det A| below this marks a block singular (see _block_det).
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
# Block matrices (diagnostics, the evaluation screens, the public 3x3 API)
# ---------------------------------------------------------------------------

def chain_affine_map(chain, params: TransformParams):
    """The per-block map ``y = A x + b`` that :func:`apply_chain` runs.

    Returns ``(A, b)`` of shapes (..., ceil(d/2), 2, 2) and
    (..., ceil(d/2), 2).  ``b`` is the forward's own, bit for bit, and the
    columns of ``A`` are the unit vectors as the forward's factors map them.
    """
    chain = validate_chain(chain)
    lead = params.angles.shape[:-1]
    width = _width(params.dim)
    blocks = (params.dim + 1) // 2
    factors, b = _compile_chain(chain, params, width)
    columns = np.zeros((2,) + lead + (width,))
    columns[0, ..., 0::2] = columns[1, ..., 1::2] = 1.0
    columns = _apply_linear(columns, chain, factors, columns).reshape((2,) + lead + (width // 2, 2))
    a = columns.transpose(*range(1, columns.ndim), 0)[..., :blocks, :, :]
    if b is None:
        return a, np.zeros(a.shape[:-1])
    return a, b.reshape(b.shape[:-1] + (width // 2, 2))[..., :blocks, :].copy()


def chain_block_matrices(chain, params: TransformParams) -> np.ndarray:
    """:func:`chain_affine_map`'s ``(A, b)`` as homogeneous 3x3 matrices
    ``[[A, b], [0, 1]]``, shape (..., ceil(d/2), 3, 3): block ``i`` maps
    coordinates ``(2i, 2i+1)``, an odd ``d``'s last block pairs the last one
    with a padding coordinate, and an empty chain gives identity blocks."""
    chain = validate_chain(chain)
    m = np.zeros(params.angles.shape[:-1] + ((params.dim + 1) // 2, 3, 3))
    if chain:
        m[..., :2, :2], m[..., :2, 2] = chain_affine_map(chain, params)
    else:  # the identity, without a compile
        m[..., 0, 0] = m[..., 1, 1] = 1.0
    m[..., 2, 2] = 1.0
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


def _block_det(m):
    """Each block's ``det A`` of a (..., 3, 3) stack, in closed form, and
    the singular mask ``|det A| < DET_TOLERANCE``."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return det, np.abs(det) < DET_TOLERANCE


def invert_blocks(m):
    """Invert a stack of homogeneous block matrices in closed block form.

    For ``m = [[A, v], [0, 1]]`` the inverse is ``[[A^-1, -A^-1 v], [0, 1]]``.
    Blocks with ``|det A| < DET_TOLERANCE`` have no usable inverse: they
    are flagged in the returned mask and their inverse entries are NaN.

    Returns
    -------
    (inverse, singular_mask)
        Arrays of shapes (..., 3, 3) and (...).
    """
    return _invert_with_det(m)[:2]


def _invert_with_det(m):
    """:func:`invert_blocks`' ``(inverse, singular_mask)`` and each block's
    ``det A`` beside them, for callers that need all three."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a stack of 3x3 matrices, got shape {m.shape}")
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det, singular = _block_det(m)
    safe = np.where(singular, 1.0, det)
    out = np.zeros(m.shape)
    out[..., 0, 0], out[..., 0, 1] = d / safe, -b / safe
    out[..., 1, 0], out[..., 1, 1] = -c / safe, a / safe
    out[..., :2, 2] = -(out[..., :2, 0] * m[..., :1, 2] + out[..., :2, 1] * m[..., 1:2, 2])
    out[..., 2, 2] = 1.0
    out[singular] = np.nan
    return out, singular, det


def invert_compound_2d(m) -> np.ndarray:
    """Invert one homogeneous block matrix (see :func:`invert_blocks`).

    Raises
    ------
    SingularOperatorError
        If ``|det A| < DET_TOLERANCE``.  Singular blocks are a modelling
        feature of many-to-x relations, so this error is a signal, not a
        failure of the caller's math.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    det, singular = _block_det(m)
    if singular:
        raise SingularOperatorError(
            f"block determinant {det:.3e} below tolerance {DET_TOLERANCE:.1e}"
        )
    return invert_blocks(m)[0]


# ---------------------------------------------------------------------------
# The chain compile, its forward with tape and its vector-Jacobian backward
# ---------------------------------------------------------------------------

def _pad(a, value, width):  # fill the last axis up to width entries
    return np.concatenate([a, np.full(a.shape[:-1] + (width - a.shape[-1],), value)], axis=-1)


def _width(d):  # the coordinates a chain runs over (see chain_forward_tape)
    return max(4, d + d % 2)


def _compile_chain(chain, params: TransformParams, width):
    """Each operator's parameters as the forward applies them (a rotation's
    ``cos + i sin`` per block, a scaling's or a translation's coordinates),
    padded to ``width`` with blocks no operator moves, and the map's ``b``:
    the translation moved by the linear factors written before it, or None."""
    t, a, s = params.translation, params.angles, params.scale
    if width > params.dim:
        t, a, s = _pad(t, 0.0, width), _pad(a, 0.0, width // 2), _pad(s, 1.0, width)
    compiled = {OperatorKind.TRANSLATION: t, OperatorKind.SCALING: s}
    if OperatorKind.ROTATION in chain:
        compiled[OperatorKind.ROTATION] = np.exp(1j * a)
    factors = [compiled[op] for op in chain]
    if OperatorKind.TRANSLATION not in chain:
        return factors, None
    k = chain.index(OperatorKind.TRANSLATION)
    b = np.empty(a.shape[:-1] + (width,))
    return factors, _apply_linear(np.ascontiguousarray(t), chain[:k], factors[:k], b)


def _apply_linear(v, chain, factors, out, transpose=False):
    """``A v`` (or ``A^T v``) for compiled ``factors``, one factor at a time
    into ``out``: a rotation multiplies each block's complex view by ``cos
    + i sin`` (``cos - i sin``), a scaling is an elementwise product.
    Returns ``out``, or ``v`` if no factor is linear."""
    pairs = list(zip(chain, factors))
    for op, f in pairs if transpose else pairs[::-1]:
        if op is OperatorKind.ROTATION:
            w = f.conj() if transpose else f
            np.multiply(v.view(np.complex128), w, out=out.view(np.complex128))
        elif op is OperatorKind.SCALING:
            np.multiply(v, f, out=out)
        else:
            continue
        v = out
    return v


def chain_forward_tape(x, chain, params: TransformParams):
    """Apply a chain, recording it for backprop: its linear factors act one
    at a time into one output buffer, and the ``b`` of :func:`chain_affine_map`
    is added once, last, bit for bit.  A row's result is bit-identical alone
    or in a batch.  Returns ``(y, tape)``, the tape ``(chain, x, factors)``
    holding ``x`` padded as the kernel ran it and each operator's compiled
    parameters.  An empty chain returns ``x``."""
    chain = validate_chain(chain)
    x = np.asarray(x, dtype=np.float64)
    if not chain:
        return x, (chain, x, [])
    _check_same_dim(x, params.translation, "translation")
    # an odd d gains a padding coordinate, and one block an identity block:
    # numpy rounds a complex product over a one-element inner loop its own way
    d = x.shape[-1]
    width = _width(d)
    x = np.ascontiguousarray(_pad(x, 0.0, width) if width > d else x)  # for the complex view
    factors, b = _compile_chain(chain, params, width)
    y = np.empty(np.broadcast_shapes(x.shape[:-1], params.angles.shape[:-1]) + (width,))
    v = _apply_linear(x, chain, factors, y)
    if b is not None:
        np.add(v, b, out=y)
    return y[..., :d], (chain, x, factors)


def _transposed(op, f):  # a linear factor's (..., k, 2, 2) blocks, transposed
    if op is OperatorKind.ROTATION:
        return np.stack([f.real, f.imag, -f.imag, f.real], axis=-1).reshape(f.shape + (2, 2))
    return f.reshape(f.shape[:-1] + (f.shape[-1] // 2, 2, 1)) * np.eye(2)


def chain_backward(grad_out, params: TransformParams, tape):
    """Vector-Jacobian product back through a taped chain application.

    With the map's gradients ``dA = g x^T`` and ``db = g`` summed over the
    axes the parameters were broadcast along (``dA`` by one batched matrix
    product), a linear factor gets ``dF_k = L_k^T (dA A_k^T + db b_k^T)``
    and the translation ``L_k^T db``: ``L_k`` is the linear factors written
    before ``k``, ``(A_k, b_k)`` the map of those after it.  Only a chain
    with both linear factors builds their 2x2 blocks; ``L_k^T db`` and
    ``A^T g = A_K^T ... A_1^T g`` are applied one factor at a time.

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
    chain, x, factors = tape
    g = np.asarray(grad_out, dtype=np.float64)
    grads = TransformParams(*map(np.zeros_like, (params.translation, params.angles, params.scale)))
    if not chain:
        return g, grads
    d, width = g.shape[-1], x.shape[-1]
    g = np.ascontiguousarray(_pad(g, 0.0, width) if width > d else g)
    # dA and db sum the axes that broadcasting the parameters added or stretched;
    # they go last and flat, so each block's dA is one (2, S) @ (S, 2)
    lead = params.angles.shape[:-1]
    n = g.ndim - 1
    added = n - len(lead)
    axes = [i for i in range(n) if i < added or lead[i - added] == 1 < g.shape[i]]
    kept = [i for i in range(n) if i not in axes]
    flat = math.prod(g.shape[i] for i in axes)
    blocks = lead + (width // 2,)
    pairs = lead + (width,)
    gb = g.reshape(g.shape[:-1] + (width // 2, 2))
    xb = np.broadcast_to(x, g.shape).reshape(gb.shape)
    right = np.matmul(  # dA A_k^T + db b_k^T, from the last factor down
        gb.transpose(kept + [n, n + 1] + axes).reshape(blocks + (2, flat)),
        xb.transpose(kept + [n] + axes + [n + 1]).reshape(blocks + (flat, 2)),
    )
    db = gb.sum(axis=tuple(axes)).reshape(blocks + (2,))
    del tape, x, xb  # the input rows' last use: not held beside grad_x
    linear = [k for k, op in enumerate(chain) if op is not OperatorKind.TRANSLATION]
    for k in reversed(range(len(chain))):
        op = chain[k]
        f = factors[k]
        if op is OperatorKind.TRANSLATION:
            gt = _apply_linear(db.reshape(pairs), chain[:k], factors[:k], np.empty(pairs), True)
            grads.translation = gt[..., :d]
            if k:  # linear factors are written before it
                right = right + db[..., None] * f.reshape(f.shape[:-1] + (width // 2, 1, 2))
            continue
        df = right
        if len(linear) == 2 and k == linear[1]:  # L_k is the first linear factor
            df = _transposed(chain[linear[0]], factors[linear[0]]) @ right
            right = right @ _transposed(op, f)
        if op is OperatorKind.SCALING:
            grads.scale = df[..., [0, 1], [0, 1]].reshape(pairs)[..., :d]
        else:
            d_angle = f.real * (df[..., 1, 0] - df[..., 0, 1])
            grads.angles = (d_angle - f.imag * (df[..., 0, 0] + df[..., 1, 1]))[..., : d // 2]
    gx = _apply_linear(g, chain, factors, np.empty(g.shape), transpose=True)
    return gx[..., :d], grads

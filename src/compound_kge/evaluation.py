"""Filtered link-prediction evaluation: MRR and Hits@k.

For every evaluated triple both completion directions are ranked: all
entities are substituted on the predicted side, known-true candidates
other than the ground truth are filtered out, and the ground truth's
rank among the survivors determines the metrics.  Ties contribute the
mean rank among the tied candidates (floored), so a constant-score
model cannot inflate its numbers.  Scores are ordered as ``np.sort``
orders them: a NaN score sorts after every number and ties every other
NaN, so a NaN ground truth still gets a rank of at least 1.

A candidate's transform depends only on the relation and the predicted
side, so :func:`evaluate` builds its queries once, as one table ordered by
(relation, direction) group, with each group's fixed sides and ground
truths transformed as one batch and its per-block map compiled once.  It
then reads the candidate table block by block and screens each block in
chunks of ``_SCREEN_ROWS`` rows against every query of a tile, a slice of
at most ``max(1, d // 8)`` queries of the table, so a chunk is read once
per tile, not once per group.  Under L2 a squared score is a quadratic
form in the raw entity row, so a chunk is screened by matrix products
against the tile's stacked weights (:func:`_screen_l2`).  Under L1 a chunk
is cast to complex64 once, moved by each group's map in complex form and
summed in float32 per query (:func:`_screen_l1`).  Either way only the
candidates whose screened score lies within a proven rounding bound of
the ground truth's are rescored on the direct float64 path, group by
group, so the ranks equal the direct path's exactly.  Filtering needs no
entity-sized mask: a query's counts of better and tied candidates over
the whole block, minus the same counts over its known-true ids inside the
block, are its filtered counts.  :func:`filtered_rank` is the one-query
case.

The entity table is cut into ``ceil(E / chunk_size)`` blocks of equal
size (give or take a row) of at most ``chunk_size`` rows (by default
``DEFAULT_CHUNK_SIZE`` = 65,536), which bounds the memory that a tile's
screened values take on large entity sets.  When the process may use a
second CPU the block count is rounded up to an even number and two blocks
are scored at a time, one on the calling thread and one on training's
worker thread (``training._run_parts``).  Each block counts into its own
array and the caller adds them up.  Above ``DEFAULT_CHUNK_SIZE`` rows two
blocks' buffers are then in flight at once; up to it each of the two
holds half of the table.  The counts are exact integers, so no rank
depends on the cut or on the number of CPUs.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import training
from .dataset import FilterIndex, RelationCategory, TripleStore, build_filter_index
from .model import KGEModel
from .scoring import Norm, _distance
from .transforms import apply_chain, chain_affine_map

__all__ = [
    "Direction",
    "MetricCell",
    "EvalReport",
    "filtered_rank",
    "evaluate",
    "DEFAULT_CHUNK_SIZE",
    "TIE_POLICY_NOTE",
]

# Most candidate rows per block: it bounds memory (the L2 screen's (block
# rows, queries) buffers, and the rescored pairs), not speed, since both
# screens work in chunks of _SCREEN_ROWS.  Blocks are equal cuts of the
# table; with a second CPU their count is even and two are in flight at
# once, so a table of up to 65,536 rows is one block on one CPU and two
# half-size blocks on two.
DEFAULT_CHUNK_SIZE = 2**16

# Candidate rows per screen chunk: the chunk and its buffers stay in a
# core's L2 cache.  Timed with one BLAS thread on a 2-core x86-64 VM over a
# WN18RR-shaped rotate model (40,943 x 200), a group of two L2 queries took
# 19-20, 17.5, 21-21.5 and 33-34 ms in chunks of 128, 256, 512 and 1024 rows;
# over 4,096 rows of a full S.R.T / S.R.T L1 model (d = 200), two L1 queries
# took 3.7, 2.8, 2.6, 2.9 and 3.9 ms in chunks of 64 to 1024 rows.
_SCREEN_ROWS = 256
# Screened L1 values classified in one pass, over all of a tile's queries:
# a small tile classifies a whole block at once (a one-query group over a
# 14,541-row table took 7.8 ms against 9.2 ms classified chunk by chunk).
_SCREEN_SPAN = 2**16
# The screens' band is this multiple of their proven error bound; the margin
# absorbs the second-order terms and the roundings of the band itself.
_BAND_SAFETY = 2.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
_UNIT_ROUNDOFF_32 = np.finfo(np.float32).eps / 2
_SMALLEST_SUBNORMAL_32 = float(np.finfo(np.float32).smallest_subnormal)

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


@dataclass
class _Queries:
    """One :func:`_ranks` call's queries as a flat table, ordered group by
    group.  Per group its predicted side's ``(chain, params)``, with the
    per-block maps ``y = A x + b`` stacked in ``a`` (G, ceil(d/2), 2, 2) and
    ``b`` (G, ceil(d/2), 2); per query its group, transformed fixed side and
    ground truth's score; the filtered ids flat, sorted by their query."""

    sides: list
    a: np.ndarray
    b: np.ndarray
    group: np.ndarray
    fixed: np.ndarray
    true_scores: np.ndarray
    known_ids: np.ndarray
    known_queries: np.ndarray


def _ranks(model: KGEModel, triples, directions, filter_index, chunk_size) -> np.ndarray:
    """Filtered ranks of ``triples`` in each of ``directions``, shape
    (len(triples), len(directions)).

    A group is a (relation, predicted side) pair.  Its fixed sides and
    ground truths are transformed as one batch each, the truths with the
    group's own params on the path that rescores candidates, so a truth's
    score equals its score as a candidate bit for bit.  A tile is a slice
    of at most ``max(1, d // 8)`` queries of the table.  Under L2 the table
    is cut every that many queries, which keeps the screen's two (block
    rows, queries) buffers within an eighth of the block each.  Under L1
    consecutive groups share a tile and a larger group stays whole: the L1
    screen's buffers are bounded by ``_SCREEN_SPAN`` whatever the tile
    holds, and every tile casts and moves each chunk again.  The blocks of
    the entity table (see the module docstring) are skipped when empty and
    scored through ``training._run_parts``, the odd ones on the worker
    thread when there is one.
    """
    ents, spec, norm = model.entities, model.spec, model.spec.norm
    n_queries = len(triples) * len(directions)
    fixed, true_scores = np.empty((n_queries, model.dim)), np.empty(n_queries)
    sides, starts, where, known, q0 = [], [], [], [], 0
    for rid in np.unique(triples[:, 1]):
        rows, r = np.flatnonzero(triples[:, 1] == rid), model.relation_params(rid)
        heads, tails = (0, spec.head_chain, r.head), (2, spec.tail_chain, r.tail)
        for j, direction in enumerate(directions):
            tail = direction is Direction.TAIL
            # the fixed side's column, chain and params, then the predicted side's
            (anchor, *fixed_side), (truth, *side) = (heads, tails) if tail else (tails, heads)
            mine = slice(q0, q0 + len(rows))
            fixed[mine] = apply_chain(ents[triples[rows, anchor]], *fixed_side)
            true_scores[mine] = _direct_scores(ents[triples[rows, truth]], *side, fixed[mine], norm)
            ids, queries = filter_index.completions(rid, triples[rows, anchor], tail)
            keep = ids != triples[rows[queries], truth]
            known.append((ids[keep], queries[keep] + q0))
            sides.append(side)
            starts.append(q0)
            where.append(rows * len(directions) + j)
            q0 += len(rows)
    group = np.repeat(np.arange(len(sides)), np.diff(starts + [n_queries]))
    a, b = (np.stack(m) for m in zip(*(chain_affine_map(*side) for side in sides)))
    known_ids, known_queries = (np.concatenate(k) for k in zip(*known))
    table = _Queries(sides, a, b, group, fixed, true_scores, known_ids, known_queries)

    size = max(1, model.dim // 8)
    if norm is Norm.L2:
        cuts = list(range(0, n_queries, size))
    else:
        cuts = [0]
        for g0, g1 in zip(starts, starts[1:] + [n_queries]):
            if g0 > cuts[-1] and g1 - cuts[-1] > size:
                cuts.append(g0)
    tiles = list(zip(cuts, cuts[1:] + [n_queries]))
    n_blocks = -(-model.n_entities // chunk_size)
    if training._worker() is not None:
        n_blocks += n_blocks % 2
    edges = [model.n_entities * k // n_blocks for k in range(n_blocks + 1)]
    blocks = [
        functools.partial(_score_block, model, table, tiles, ents[lo:hi], lo)
        for lo, hi in zip(edges, edges[1:])
        if hi > lo
    ]
    less, equal = sum(training._run_parts(blocks)).T
    ties = equal - 1  # the ground truth always matches its own score
    ranks = np.empty(n_queries, dtype=np.int64)
    ranks[np.concatenate(where)] = 1 + less + ties // 2
    return ranks.reshape(len(triples), len(directions))


def _score_block(model, table, tiles, block, start):
    """The filtered ``(less, equal)`` counts of one block of candidates
    (entity rows from ``start`` on), a (queries, 2) int64 array over every
    tile's queries.

    Each tile ``[q0, q1)`` of ``table`` is screened in one pass over the
    block, which counts the candidates the screen certifies better than
    each query's ground truth and returns the ``(block row, query)`` pairs
    it cannot certify.  A query's counts over the whole block, minus those
    at its filtered ids inside the block, are its filtered counts: the ids
    are distinct and exclude the ground truth.  A certified sign equals the
    direct comparison, so subtracting the filtered ids' rescored outcome is
    exact.  The uncertain pairs (sign +1) and the filtered ids (sign -1)
    are rescored together, in one direct-path call per group of the tile.
    """
    norm = model.spec.norm
    screen = _screen_l1 if norm is Norm.L1 else _screen_l2
    end = start + len(block)
    counts = np.zeros((len(table.group), 2), dtype=np.int64)
    for q0, q1 in tiles:
        tile_counts = counts[q0:q1]
        fixed, true_scores = table.fixed[q0:q1], table.true_scores[q0:q1]
        g0, g1 = table.group[q0], table.group[q1 - 1] + 1
        seg = table.group[q0:q1] - g0
        uncertain = screen(
            tile_counts, block, table.a[g0:g1], table.b[g0:g1], seg, fixed, true_scores
        )
        known = slice(*np.searchsorted(table.known_queries, (q0, q1)))
        ids, owners = table.known_ids[known], table.known_queries[known]
        inside = (ids >= start) & (ids < end)
        rows = np.concatenate((uncertain[0], ids[inside] - start))
        queries = np.concatenate((uncertain[1], owners[inside] - q0))
        signs = np.repeat((1, -1), (len(uncertain[0]), np.count_nonzero(inside)))
        order = np.argsort(seg[queries], kind="stable")
        bounds = np.searchsorted(seg[queries[order]], np.arange(g1 - g0 + 1))
        for (chain, params), p0, p1 in zip(table.sides[g0:g1], bounds, bounds[1:]):
            pairs = order[p0:p1]
            direct = (block, chain, params, norm, fixed, true_scores)
            _add_direct(tile_counts, signs[pairs], *direct, rows[pairs], queries[pairs])
    return counts


def _gamma(k, unit_roundoff=_UNIT_ROUNDOFF):
    """Higham's ``k u / (1 - k u)``: the relative error bound of ``k`` chained
    roundings."""
    return k * unit_roundoff / (1 - k * unit_roundoff)


def _screen_l2(counts, block, a, b, seg, fixed, true_scores):
    """Add the L2 candidates of ``block`` certified better than each query's
    ground truth to ``counts[:, 0]``, screened without transforming the
    block; return the uncertain ``(rows, queries)``.  ``a`` and ``b`` stack
    the ``(A, b)`` of the tile's groups and ``seg`` gives each query's index
    into them.

    Per 2D block a group's predicted side is ``y = A x + b``, so a
    candidate ``x``'s squared score against an anchor ``f`` is

        ||A x + c||^2 = x^T G x + 2 (A^T c)^T x + ||c||^2,
        G = A^T A,  c = b - f,

    linear in the features ``[x*x, x_even*x_odd]`` (weights ``diag G`` and
    ``2 G_01``, the same for every query of a group) and in ``x`` (weights
    ``2 A^T c``, one column per query).  ``A`` and ``b`` are the arrays the
    direct path applies.  Each chunk of ``_SCREEN_ROWS`` rows is read once
    for the whole tile: one feature pass, one product against the stacked
    quadratic and band columns of the tile's groups, and one against the
    linear columns of all its queries.  Each query then takes its group's
    columns of the chunk, so only the screened values and their bands,
    one (block rows, queries) buffer each, span the block.

    **The bound.**  With ``u`` the unit roundoff and ``g_k = gamma(k)``, let
    ``p = |A||x|`` and ``r = |b| + |f|`` per coordinate, ``P = sum p^2`` and
    ``R = sum r^2``.  The direct path (the chain's factors, ``+ b``,
    subtract, square, sum, ``sqrt``) gives ``D`` with each gap coordinate
    within ``g_6 (p + r)`` of exact: a scaling's product and a rotation's
    complex product (two roundings per coordinate, with or without FMA) put
    the factors' product within ``g_3 |R||S||x|`` of ``R S x`` in either
    order, ``|R||S| = |RS|`` entrywise because ``S`` is diagonal, ``A`` is
    ``RS`` rounded once per entry, and adding ``b`` and subtracting ``f``
    round once each.  Then ``g_d`` for the squares and the sum and ``2u``
    for ``sqrt`` give ``|D^2 - ||A x + c||^2| <= 2 g_{d+15} (P + R)``.
    Gradual underflow in the factors' products and in ``A``'s entries moves
    a gap coordinate by at most ``e = eta (2 + |x_2i| + |x_2i+1|)``, which
    costs ``2 (p + r) e <= g_1 (p + r)^2 + e^2 / g_1``: ``g_2 (P + R)`` and
    terms of order ``eta^2 / u``, far below ``eta``.  The screen
    rounds ``G`` by ``g_2 |A|^T|A|``, which with the feature products and the
    ``3d/2``-term sum costs ``g_{3d/2+4} P`` since ``|x|^T |A|^T|A| |x| = P``;
    ``c`` and ``2 A^T c`` cost ``2 g_3 |x|^T|A|^T|c|`` and the ``d``-term
    product ``g_d`` more, together ``g_{d+4} (P + R)`` since
    ``2 p |c| <= p^2 + r^2``; ``||c||^2`` costs ``g_{d+4} R``; the truth's
    ``t^2`` and the three sums that fold ``S - t^2`` cost
    ``g_2 (2P + 2R + t^2)`` and ``2u t^2``.  These add up to
    ``g_{9d/2+44} P + g_{4d+44} R``, so the screened ``S - t^2`` is within

        beta = g_{5d+46} (P + R) + g_4 t^2 + eta (3 ||x||^2 + W + 5d + 4)

    of ``D^2 - t^2``, where the last term covers gradual underflow (each
    product may lose ``eta/2``, the smallest subnormal; ``W`` sums the
    quadratic weights' magnitudes).  ``P`` is over-estimated by the row
    sums of ``|A|^T|A|`` against ``x*x``, one more column of the chunk's
    quadratic product.  Every ``g_k`` above bounds a ``k``-term sum in any
    order, so the bound holds however BLAS orders a product, and however
    many columns the tile stacks beside a query's.

    **Classification.**  A candidate with ``|S - t^2| > 2 beta`` is ranked
    by the sign of ``S - t^2``, which is then the sign of ``D - t``.  Every
    other candidate, and every one whose screened value or band is not
    finite (a NaN ground truth among them), is left to the direct path,
    on which the ground truth, whose screen always falls inside its band,
    matches ``true_score`` exactly.
    """
    n_queries, d = fixed.shape
    pairs, n_groups = d // 2, len(a)
    gamma = _gamma(5 * d + 46)
    # G = A^T A and the row sums of |A|^T |A| per block, written out
    # elementwise: a rotation's G_01 is then exactly zero
    (a00, a01), (a10, a11) = np.moveaxis(a, (-2, -1), (0, 1))
    diag = np.stack([a00 * a00 + a10 * a10, a01 * a01 + a11 * a11], axis=-1)
    abs_off = np.abs(a00 * a01) + np.abs(a10 * a11)
    # per group, a column of quadratic weights and one of the band's
    quad_weights = np.zeros((d + pairs, 2 * n_groups))
    quad_weights[:d, :n_groups] = diag.reshape(n_groups, -1)[:, :d].T
    quad_weights[d:, :n_groups] = 2 * (a00 * a01 + a10 * a11)[:, :pairs].T
    quad_weights[:d, n_groups:] = _BAND_SAFETY * (
        gamma * (diag + abs_off[..., None]).reshape(n_groups, -1)[:, :d].T
        + 3 * _SMALLEST_SUBNORMAL
    )
    # each query's b, c = b - f and linear weights 2 A^T c
    b = b.reshape(n_groups, -1)[seg]
    anchors = np.zeros_like(b)
    anchors[:, :d] = fixed
    c = b - anchors
    lin = 2 * np.einsum("qkji,qkj->qki", a[seg], c.reshape(n_queries, -1, 2))
    lin_weights = np.ascontiguousarray(lin.reshape(n_queries, -1)[:, :d].T)
    t2 = true_scores * true_scores
    offset = t2 - np.sum(c * c, axis=-1)
    r2 = np.sum(np.square(np.abs(b) + np.abs(anchors)), axis=-1)
    underflow = _SMALLEST_SUBNORMAL * (np.abs(quad_weights[:, :n_groups]).sum(axis=0) + 5 * d + 4)
    band_q = _BAND_SAFETY * (gamma * r2 + _gamma(4) * t2 + underflow[seg])

    cross = np.any(quad_weights[d:, :n_groups])  # zero for rotations, translations, scalings
    chunk = min(_SCREEN_ROWS, len(block))
    features = np.empty((chunk, d + pairs if cross else d))
    quad_band = np.empty((chunk, 2 * n_groups))
    diff, band = np.empty((2, len(block), n_queries))
    for r0 in range(0, len(block), chunk):
        x = block[r0 : r0 + chunk]
        rows, phi, qb = slice(r0, r0 + len(x)), features[: len(x)], quad_band[: len(x)]
        np.multiply(x, x, out=phi[:, :d])
        if cross:
            np.multiply(x[:, 0 : 2 * pairs : 2], x[:, 1 : 2 * pairs : 2], out=phi[:, d:])
        np.matmul(phi, quad_weights[: phi.shape[1]], out=qb)
        np.matmul(x, lin_weights, out=diff[rows])
        diff[rows] += qb[:, seg]
        np.take(qb, n_groups + seg, axis=1, out=band[rows])
    diff -= offset
    band += band_q
    better = diff < 0
    size = np.abs(diff, out=diff)
    certain = (size > band) & (size < np.inf)
    counts[:, 0] += np.count_nonzero(certain & better, axis=0)
    return np.nonzero(~certain)


# float32 overflow is expected: it leaves a screened value non-finite, and so
# sends its candidate to the direct path
@np.errstate(over="ignore", invalid="ignore")
def _screen_l1(counts, block, a, b, seg, fixed, true_scores):
    """Add the L1 candidates of ``block`` certified better than each query's
    ground truth to ``counts[:, 0]``, screened in float32; return the
    uncertain ``(rows, queries)``.  ``a`` and ``b`` stack the ``(A, b)`` of
    the tile's groups and ``seg`` gives each query's index into them, in
    ascending order.

    Per 2D block a group's predicted side is ``y = A x + b``.  In complex
    form, with ``z = x_even + i x_odd``, that is

        y = alpha z + beta conj(z) + b,
        alpha = ((A00 + A11) + i (A10 - A01)) / 2,
        beta = ((A00 - A11) + i (A10 + A01)) / 2,

    so a chunk of ``_SCREEN_ROWS`` rows is cast once for the whole tile
    into a complex64 buffer (an odd ``d`` padded with a zero coordinate)
    and moved once per group, and each query adds ``c = b - f``, takes
    ``abs`` of the float32 view and sums it by a float32 product against
    ones.  ``A`` and ``b`` are the arrays the direct path applies.  The
    screened values of a span of chunks (``_SCREEN_SPAN`` values over all
    the queries) are classified at once.

    **The bound.**  With ``u`` float32's unit roundoff, ``g_k = gamma(k)``
    in it, ``eta`` float32's smallest subnormal, ``m = ceil(d/2)`` and
    ``w_i = max(|A00|, |A11|) + max(|A01|, |A10|)`` per block (which is
    ``|Re alpha| + |Im alpha| + |Re beta| + |Im beta|``, and bounds both
    column sums of ``|A|``), let ``B = sum_i w_i (|x_2i| + |x_2i+1|)`` and
    ``R = sum |b| + |f|``, so the exact score ``E = ||A x + c||_1`` is at
    most ``B + R``.  The direct path (five roundings in the map, which
    applies ``A`` as its factors and adds ``b`` last, as the L2 screen's
    bound counts them, one in the subtraction, then a ``d``-term float64
    sum) is within ``g^64_{d+5} (B + R) + eta_64 (4m + 2 ||x||_1) <= g_1 (B
    + R) + eta`` of ``E`` (an ``x`` past float32's range overflows the
    screen).  In the screen, ``alpha``, ``beta`` and ``c`` are rounded in
    float64 and again by the cast (``g_2`` relative) and ``x`` by the cast
    (``u``), so each product of rounded inputs is within ``g_3`` of the
    exact one; a coordinate's four products and ``c`` then pass through
    at most four float32 roundings (the product, the complex product's
    add, ``+ beta conj(z)`` and ``+ c``).  The products' magnitudes sum to
    ``B`` over the coordinates, so every coordinate together is within
    ``g_7 (B + ||c||_1)``.  The ``2m``-term float32 sum of the absolute
    values, in any order, adds ``g_{2m-1}`` of at most ``E`` plus those
    errors.  Every rounded product and cast may also lose ``eta/2`` to
    gradual underflow, scaled by at most ``|x|``, a coefficient or 1.  So
    the screened ``S`` is within

        delta = g_{2m+7} (B + R) + eta (16 ||x||_1 + 16 m + 4 sum w + 1)

    of the direct ``D``.  The per-row part is one float32 product of
    ``|x|`` (as cast) against every group's weights ``g_{2m+7} w_i + 16
    eta``, one column per group; its own roundings, in any order, and
    those of the rest of the band, are within the safety factor, so the
    bound holds however many groups the tile stacks.  The padding
    coordinate of an odd ``d`` is exactly zero in both ``E`` and the
    screen.  An overflow anywhere in float32 (a cast, product or sum past
    3.4e38) leaves ``S`` infinite or NaN.

    **Classification.**  A candidate with ``|S - t| > 2 delta`` is ranked by
    the sign of ``S - t``, which is then the sign of ``D - t``.  Every other
    candidate, and every one whose screened value or band is not finite (a
    NaN ground truth among them), is left to the direct path, on which the
    ground truth, whose screen always falls inside its band, matches
    ``true_score`` exactly.
    """
    n_queries, d = fixed.shape
    n_groups, pairs = b.shape[:2]
    chunk = min(_SCREEN_ROWS, len(block))
    gamma, eta = _gamma(2 * pairs + 7, _UNIT_ROUNDOFF_32), _SMALLEST_SUBNORMAL_32
    (a00, a01), (a10, a11) = np.moveaxis(a, (-2, -1), (0, 1))
    # whole chunk-sized operands: numpy's complex loops run faster on them
    # than on broadcast ones
    alpha, beta = np.empty((2, n_groups, chunk, pairs), dtype=np.complex64)
    alpha.real, alpha.imag = ((a00 + a11) / 2)[:, None], ((a10 - a01) / 2)[:, None]
    beta.real, beta.imag = ((a00 - a11) / 2)[:, None], ((a10 + a01) / 2)[:, None]
    weight = np.maximum(np.abs(a00), np.abs(a11)) + np.maximum(np.abs(a01), np.abs(a10))
    row_weights = _BAND_SAFETY * (gamma * np.repeat(weight, 2, axis=-1) + 16 * eta)
    row_weights = row_weights.T.astype(np.float32, order="C")
    b = b.reshape(n_groups, -1)[seg]  # each query's
    anchors = np.zeros_like(b)
    anchors[:, :d] = fixed
    c = (b - anchors).astype(np.float32).view(np.complex64)
    r1 = np.sum(np.abs(b) + np.abs(anchors), axis=-1)
    band_q = _BAND_SAFETY * (gamma * r1 + eta * (16 * pairs + 4 * weight.sum(axis=-1)[seg] + 1))

    z, z_conj, y, g = np.zeros((4, chunk, pairs), dtype=np.complex64)
    z_flat, g_flat = z.view(np.float32), g.view(np.float32)
    ones = np.ones(2 * pairs, dtype=np.float32)
    members = np.searchsorted(seg, np.arange(n_groups + 1))  # seg ascends
    span = chunk * max(1, _SCREEN_SPAN // (n_queries * chunk))
    screened = np.empty((n_queries, span), dtype=np.float32)
    band = np.empty((span, n_groups), dtype=np.float32)
    uncertain = []
    for s0 in range(0, len(block), span):
        s1 = min(s0 + span, len(block))
        for r0 in range(s0, s1, chunk):
            n = min(chunk, s1 - r0)
            rows = slice(r0 - s0, r0 - s0 + n)
            z_flat[:n, :d] = block[r0 : r0 + n]
            zn, zn_conj, yn, gn, gn_flat = z[:n], z_conj[:n], y[:n], g[:n], g_flat[:n]
            np.matmul(np.abs(z_flat[:n], out=gn_flat), row_weights, out=band[rows])
            np.conjugate(zn, out=zn_conj)
            for k in range(n_groups):
                np.multiply(zn, alpha[k, :n], out=yn)
                np.multiply(zn_conj, beta[k, :n], out=gn)
                yn += gn
                for q in range(members[k], members[k + 1]):
                    np.add(yn, c[q], out=gn)
                    np.matmul(np.abs(gn_flat, out=gn_flat), ones, out=screened[q, rows])
        diff = screened[:, : s1 - s0] - true_scores[:, None]
        size = np.abs(diff)
        certain = (size > band[: s1 - s0].T[seg] + band_q[:, None]) & (size < np.inf)
        counts[:, 0] += np.count_nonzero(certain & (diff < 0), axis=1)
        queries, rows = np.nonzero(~certain)
        uncertain.append((rows + s0, queries))
    return tuple(map(np.concatenate, zip(*uncertain)))


def _direct_scores(x, chain, params, anchors, norm):
    """Scores of gathered rows ``x`` of the predicted side against their
    transformed anchors; ``x`` may be overwritten.  The ground truths and
    the rescored candidates both take this path, so a truth's score equals
    its score as a candidate bit for bit, which the tie count relies on."""
    gap = apply_chain(x, chain, params)
    return _distance(np.subtract(gap, anchors, out=gap), norm, out=gap)


def _add_direct(counts, signs, block, chain, params, norm, fixed, true_scores, rows, queries):
    """Add the direct-path ``(less, equal)`` outcomes of ``(block row,
    query)`` pairs, each times its sign in ``signs``, to ``counts``,
    ``_SCREEN_ROWS`` pairs at a time.  Scores compare as ``np.sort`` orders
    them: NaN after every number, and equal to NaN."""
    for i in range(0, len(rows), _SCREEN_ROWS):
        part = slice(i, i + _SCREEN_ROWS)
        q, sign = queries[part], signs[part]
        scores = _direct_scores(block[rows[part]], chain, params, fixed[q], norm)
        truth_nan, nan = np.isnan(true_scores[q]), np.isnan(scores)
        np.add.at(counts, (q, 0), sign * ((scores < true_scores[q]) | (truth_nan & ~nan)))
        np.add.at(counts, (q, 1), sign * ((scores == true_scores[q]) | (truth_nan & nan)))


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
    ground truth itself.  Lower score is better.  This is the one-query
    case of the grouped ranking that :func:`evaluate` runs.
    """
    triples = np.array([[int(x) for x in triple]], dtype=np.int64)
    return int(_ranks(model, triples, (direction,), filter_index, chunk_size)[0, 0])


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
        return asdict(self)

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

    directions = (Direction.HEAD, Direction.TAIL)
    ranks = _ranks(model, triples, directions, filter_index, chunk_size)

    if categories is not None:
        cat_of = {c.relation: c.category.value for c in categories}
        labels = [cat_of[int(r)] for r in triples[:, 1]]
    else:
        labels = ["all"] * len(triples)
    labels = np.array(labels)

    by_dir = {
        direction.value: {
            cat: MetricCell.from_ranks(ranks[labels == cat, j]) for cat in sorted(set(labels))
        }
        for j, direction in enumerate(directions)
    }

    overall = MetricCell.from_ranks(ranks.ravel())
    return EvalReport(
        mrr=overall.mrr,
        hits1=overall.hits1,
        hits3=overall.hits3,
        hits10=overall.hits10,
        triple_count=int(len(triples)),
        by_direction_category=by_dir,
    )

"""Training loop with self-adversarial negative sampling.

Each positive triple is paired with uniformly drawn corruptions of one
side; corruption alternates head/tail across the batch so both
prediction directions train.  Negative triples are weighted by a
temperature-scaled softmax of their own scores, and those weights are
treated as constants during backpropagation.  After every optimizer
step entity rows are projected back to unit norm.  The optimizer step
and the projection run over consecutive row slices of about a MiB, so
their temporaries stay in cache; with a second CPU the worker thread
takes every other optimizer slice.

A positive is candidate 0 of its corrupted side, ahead of its N
negatives.  The rows run in two corruption groups (head-corrupted,
tail-corrupted), one after the other, each in row parts of a few MiB: a
part scores its own (rows, 1+N) array by one chain pass per side through
the affine-map kernel and distance that ``scoring.score`` and evaluation
use, with the relation parameters broadcast over the candidates, then
takes its rows' weights, losses and backward, since a row's weights and
loss read only its own scores.  With a second CPU two parts run at a
time, one on a worker thread; the entity row sums take each part's rows
as it finishes, in an order that does not depend on the parts, so every
result is the same on one CPU or more.  Gradients are collected per
table name (``entities``, ``head.angles``, ...; see
``model.table_names``) for the tables of the operators each side's chain
holds; under shared rotation both chains' angle gradients go to
``head.angles``.

The filter index for validation (``dataset.FilterIndex``: sorted key
arrays over every split) is built once, on the first validation step, so
a run that never validates never builds it.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
import time
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from .dataset import TripleStore, build_filter_index
from .errors import TrainingDivergedError
from .model import _PARAM_GROUPS, KGEModel, normalize_entities
from .scoring import _norm_and_grad
from .transforms import OperatorKind, chain_backward, chain_forward_tape

__all__ = [
    "TrainConfig",
    "sample_negatives",
    "self_adversarial_weights",
    "loss",
    "log_sigmoid",
    "normalize_entities",
    "Adam",
    "train_step",
    "train",
    "TrainResult",
    "LOG_HEADER",
]

log = logging.getLogger(__name__)

LOG_HEADER = "step,loss,valid_mrr,elapsed_seconds"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    learning_rate: float = 1e-3
    batch_size: int = 256
    negative_size: int = 64
    adversarial_temperature: float = 1.0
    margin: float = 6.0
    max_steps: int = 10000
    seed: int = 0
    valid_interval: int = 1000
    valid_limit: int | None = None

    def __post_init__(self):
        for name in ("learning_rate", "adversarial_temperature", "margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size < 1 or self.negative_size < 1:
            raise ValueError("batch_size and negative_size must be positive")
        if self.adversarial_temperature < 0:
            raise ValueError("adversarial_temperature must be nonnegative")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        if self.valid_interval < 1:
            raise ValueError("valid_interval must be positive")
        if self.valid_limit is not None and self.valid_limit < 1:
            raise ValueError(
                "valid_limit must be positive (or None for the whole split), "
                f"got {self.valid_limit}"
            )


def sample_negatives(n_entities: int, size, rng: np.random.Generator) -> np.ndarray:
    """Draw replacement entity ids uniformly, with replacement.

    ``size`` is the output shape, e.g. (B, N) for N corruptions of each
    of B positives.  No filtering against known-true triples happens
    here; filtering is purely an evaluation concept.
    """
    if n_entities < 1:
        raise ValueError("cannot sample negatives from an empty entity set")
    if n_entities < 2:
        raise ValueError("negative sampling needs at least two entities")
    return rng.integers(0, n_entities, size=size, dtype=np.int64)


def log_sigmoid(x):
    """Numerically stable log of the logistic function."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def self_adversarial_weights(neg_scores, temperature: float):
    """Softmax of ``temperature * score`` along the last axis.

    Zero temperature gives uniform weights.  The result is meant to be
    used as constants: no gradient flows through these weights.
    """
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    z = temperature * np.asarray(neg_scores, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    w = np.exp(z)
    return w / np.sum(w, axis=-1, keepdims=True)


def loss(pos_score, neg_scores, weights, margin: float):
    """Negative-sampling loss of one positive and its negatives.

    ``-log sigma(margin - f_pos) - sum_i w_i log sigma(f_neg_i - margin)``
    with ``weights`` summing to one along the last axis.  Stable for
    score magnitudes far beyond the overflow range of a naive sigmoid.
    """
    pos_term = -log_sigmoid(margin - np.asarray(pos_score, dtype=np.float64))
    neg_term = -np.sum(
        np.asarray(weights) * log_sigmoid(np.asarray(neg_scores) - margin), axis=-1
    )
    return pos_term + neg_term


# ---------------------------------------------------------------------------
# Optimizer (sparse row updates over embedding tables)
# ---------------------------------------------------------------------------

class Adam:
    """Adam with lazy sparse updates: only rows that received gradient
    move, and only their moment entries decay.  Bias correction uses
    the global step count."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def begin_step(self):
        self.t += 1

    def update(self, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray):
        """Update ``param``'s distinct ``rows`` from their gradient rows.

        The rows run in consecutive slices of at most ``_ADAM_BYTES`` of
        gradient, small enough to stay in cache, two at a time with a
        second CPU (see ``_run_parts``).  The rows are distinct, so slices
        write disjoint rows, and each row's arithmetic is elementwise: the
        bits do not depend on the slices or the threads.
        """
        if name not in self._moments:
            self._moments[name] = (np.zeros_like(param), np.zeros_like(param))
        m, v = self._moments[name]
        correction = 1 - self.beta1**self.t, 1 - self.beta2**self.t
        tasks = [
            functools.partial(self._update_rows, param, m, v, rows[cut], grads[cut], *correction)
            for cut in _slices(len(rows), grads.shape[1] * 8, _ADAM_BYTES)
        ]
        for _ in _run_parts(tasks):
            pass

    def _update_rows(self, param, m, v, rows, grads, correction1, correction2):
        # Each moment's rows are gathered once and updated in place (rows are
        # distinct, so they are what the scatter stores); the operations and
        # their order are those of the textbook expressions.
        m_rows, v_rows = m[rows], v[rows]
        m_rows *= self.beta1
        m_rows += (1 - self.beta1) * grads
        v_rows *= self.beta2
        v_rows += (1 - self.beta2) * grads * grads
        m[rows], v[rows] = m_rows, v_rows
        m_rows /= correction1  # m_hat
        v_rows /= correction2  # v_hat
        np.sqrt(v_rows, out=v_rows)
        v_rows += self.eps
        m_rows *= self.learning_rate
        m_rows /= v_rows
        param[rows] -= m_rows


# ---------------------------------------------------------------------------
# Batched forward/backward
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


# rows per scatter in _accumulate_rows, so its flat index array stays small
_SCATTER_ROWS = 1024
# bytes of a row part's (rows, 1+N, d) float64 candidate array
_PART_BYTES = 4 << 20
# bytes of an optimizer slice's (rows, d) float64 gradient rows
_ADAM_BYTES = 1 << 20
_pool = None  # (pid, executor) of the worker thread, made on first use
_pool_lock = threading.Lock()


def _slices(n, row_bytes, limit):
    """Consecutive slices of ``n`` rows of ``row_bytes`` each, at most
    ``limit`` bytes a slice (at least one row); one slice when ``n`` is 0."""
    size = max(1, limit // row_bytes)
    return [slice(lo, lo + size) for lo in range(0, max(n, 1), size)]


def _accumulate_rows(ids, pieces):
    """Sum gradient rows sharing an id; returns (unique_ids, summed).

    ``pieces`` yields the 2-D gradient arrays whose rows ``ids`` (their
    concatenated row ids) name, in order.  It may be a generator: it is
    consumed after the ids are sorted, one piece at a time, so a piece can
    be made after the one before it was summed.  Each piece is scattered
    into one accumulator through flat indices, a chunk of rows at a time,
    visiting the rows in the order of ``ids``, so the sums are those of one
    2-D ``np.add.at`` over the concatenated rows, bit for bit.  When the
    width is even, a piece whose rows are contiguous is scattered through
    complex128 views, two coordinates per element: a complex add is two
    float adds, so every sum keeps its order and its bits.
    """
    rows, inverse = np.unique(ids, return_inverse=True)
    acc = None
    start = 0
    for piece in pieces:
        if acc is None:
            d = piece.shape[1]
            acc = np.zeros((len(rows), d))
        paired = d % 2 == 0 and piece.strides[1] == piece.itemsize
        view = piece.view(np.complex128) if paired else piece
        width = view.shape[1]
        flat = (acc.view(np.complex128) if paired else acc).reshape(-1)
        columns = np.arange(width)
        for lo in range(0, len(view), _SCATTER_ROWS):
            part = view[lo : lo + _SCATTER_ROWS]
            at = inverse[start + lo : start + lo + len(part), None] * width + columns
            np.add.at(flat, at.ravel(), part.ravel())
        start += len(piece)
        piece = view = part = None  # summed: not held while the next piece is made
    return rows, acc


def _worker():
    """The one worker thread, made on first use, for training's row parts
    and optimizer slices and for evaluation's entity blocks; None when the
    process may run on one CPU only."""
    global _pool
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():  # a forked child has no worker thread
            _pool = os.getpid(), futures.ThreadPoolExecutor(1, "compound-kge-part")
        return _pool[1]


def _run_parts(tasks):
    """Yield ``tasks[0](), tasks[1](), ...`` in order.

    With a worker thread the calling thread runs the even tasks and the
    worker the odd ones, each odd task submitted just before the calling
    thread runs the even task ahead of it, so at most two are in flight.
    If a task raises, the other one in flight is waited for before the
    error propagates.
    """
    pool = _worker() if len(tasks) > 1 else None
    if pool is None:
        for task in tasks:
            yield task()
        return
    ahead = pool.submit(tasks[1])
    try:
        for p in range(0, len(tasks), 2):
            yield tasks[p]()
            if p + 1 < len(tasks):
                out = ahead.result()
                ahead = pool.submit(tasks[p + 3]) if p + 3 < len(tasks) else None
                yield out
                del out  # not held while the next task runs
    finally:
        if ahead is not None:
            futures.wait([ahead])


def _part_loss_and_grads(model, config, B, side, r, ids, w):
    """Forward, losses and backward of one row part of a corruption group.

    ``side`` is the corrupted side, ``r`` the part's relation ids, ``ids``
    each side's entity ids ((rows, 1+N) on the corrupted side, (rows, 1) on
    the other) and ``w`` its rows' weights (None: self-adversarial).
    Returns the rows' losses and, per side, the (rows, 1+N or 1, d) entity
    gradient and the ``TransformParams`` gradients.
    """
    spec = model.spec
    params, out, tapes = {}, {}, {}
    for s in ("head", "tail"):
        params[s] = getattr(model, s)[r[:, None]]
        chain = getattr(spec, f"{s}_chain")
        out[s], tapes[s] = chain_forward_tape(model.entities[ids[s]], chain, params[s])
    # the gap (head - tail) is formed in place in the corrupted side's output
    f, g = _norm_and_grad(np.subtract(out["head"], out["tail"], out=out[side]), spec.norm)
    del out
    f_pos, f_neg = f[:, 0], f[:, 1:]
    if w is None:
        w = self_adversarial_weights(f_neg, config.adversarial_temperature)
    per_row = loss(f_pos, f_neg, w, config.margin)

    # d loss / d score, divided by the whole batch's size
    c = np.empty_like(f)
    c[:, 0] = _sigmoid(f_pos - config.margin) / B
    c[:, 1:] = -w * _sigmoid(config.margin - f_neg) / B
    # the tail is subtracted in the gap, so its candidates' sign is folded into c
    g *= (c if side == "head" else -c)[:, :, None]
    upstreams = {s: g if s == side else -np.sum(g, axis=1, keepdims=True) for s in tapes}
    del g
    grads = {s: chain_backward(upstreams.pop(s), params[s], tapes.pop(s)) for s in ("head", "tail")}
    return per_row, grads


def batch_loss_and_grads(
    model: KGEModel,
    positives: np.ndarray,
    neg_ids: np.ndarray,
    corrupt_head: np.ndarray,
    config: TrainConfig,
    weights: np.ndarray | None = None,
):
    """Mean loss of a batch and gradients for every table the chains use.

    ``positives`` is (B, 3), ``neg_ids`` (B, N), ``corrupt_head`` a
    boolean row mask choosing which side each row's negatives replace.
    ``weights`` overrides the self-adversarial weights (used by
    gradient checks, which must hold them constant).

    A group's corrupted side transforms (B_g, 1+N) candidates, the
    positive first, and its other side (B_g, 1) entities; the corrupted
    side's upstream gradient is the candidates' own and the other side's
    their negated sum.  The head-corrupted group runs before the
    tail-corrupted one, each in consecutive row parts whose candidate
    arrays hold at most ``_PART_BYTES``.  A part's forward, losses and
    backward read only its own rows, and with a second CPU two parts run
    at a time (see ``_run_parts``).  A group with no rows runs as one part
    on empty arrays.

    Every entity id is known before the forward, so the entity row sums
    are set up first, and each part's candidate rows are summed as soon as
    the part finishes, in part order; the other side's rows follow at the
    group's end.  So every table's rows are added in one order however the
    rows are cut: group by group, a group's corrupted side over its parts,
    then its other side.

    Returns ``(mean_loss, per_positive_loss, grads)`` with ``grads``
    mapping table names (see :meth:`KGEModel.table`) to
    ``(rows, grad_rows)`` pairs.
    """
    spec = model.spec
    B = len(positives)
    per_pos = np.empty(B)
    groups, entity_ids = [], []
    for side, in_group in (("head", corrupt_head), ("tail", ~corrupt_head)):
        rows = np.flatnonzero(in_group)
        ids = {"head": positives[rows, :1], "tail": positives[rows, 2:]}
        ids[side] = np.hstack([ids[side], neg_ids[rows]])
        cuts = _slices(len(rows), ids[side].shape[1] * spec.dim * 8, _PART_BYTES)
        other = "tail" if side == "head" else "head"
        entity_ids += [ids[side].ravel(), ids[other].ravel()]
        groups.append((side, other, rows, ids, cuts))
    tables = {}  # relation table name -> (row id arrays, gradient arrays)

    def entity_pieces():
        for side, other, rows, ids, cuts in groups:
            r = positives[rows, 1]
            tasks = [
                functools.partial(
                    _part_loss_and_grads, model, config, B, side, r[cut],
                    {s: ids[s][cut] for s in ids}, None if weights is None else weights[rows[cut]],
                )
                for cut in cuts
            ]
            other_rows, par = [], {side: [], other: []}
            for cut, (per_row, grads) in zip(cuts, _run_parts(tasks)):
                per_pos[rows[cut]] = per_row
                yield grads[side][0].reshape(-1, spec.dim)
                other_rows.append(grads[other][0].reshape(-1, spec.dim))
                for s in par:
                    par[s].append(grads[s][1])
                del per_row, grads  # not held while the next part runs
            yield from other_rows
            for s in (side, other):
                for op, field, table in _PARAM_GROUPS:
                    if op in getattr(spec, f"{s}_chain"):
                        # under shared rotation the head's angle table owns both sides
                        owner = "head" if model.shared_rotation and op is OperatorKind.ROTATION else s
                        row_list, grad_list = tables.setdefault(f"{owner}.{table}", ([], []))
                        for cut, g_par in zip(cuts, par[s]):
                            grad = getattr(g_par, field)
                            row_list.append(r[cut])
                            grad_list.append(grad.reshape(len(grad), grad.shape[-1]))

    grads = {"entities": _accumulate_rows(np.concatenate(entity_ids), entity_pieces())}
    for name, (row_list, grad_list) in tables.items():
        grads[name] = _accumulate_rows(np.concatenate(row_list), grad_list)
    return float(np.mean(per_pos)), per_pos, grads


def train_step(
    model: KGEModel,
    positives: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    optimizer,
) -> float:
    """One optimization step over a batch of positive triples.

    Negatives are drawn uniformly per positive; rows alternate between
    head and tail corruption.  After the parameter update the touched
    entity rows are re-projected to unit norm (untouched rows are
    already unit, so the whole table stays normalized), slice by slice
    on the calling thread.
    """
    positives = np.asarray(positives, dtype=np.int64)
    if positives.ndim != 2 or positives.shape[1] != 3:
        raise ValueError("positives must be a (B, 3) integer array")
    B = positives.shape[0]
    neg_ids = sample_negatives(model.n_entities, (B, config.negative_size), rng)
    corrupt_head = np.arange(B) % 2 == 0

    mean_loss, per_pos, grads = batch_loss_and_grads(
        model, positives, neg_ids, corrupt_head, config
    )
    if not np.isfinite(mean_loss):
        bad = [tuple(int(x) for x in positives[i]) for i in np.where(~np.isfinite(per_pos))[0]]
        raise TrainingDivergedError(model.step, bad)

    optimizer.begin_step()
    for name, (rows, g) in grads.items():
        optimizer.update(name, model.table(name), rows, g)

    # the optimizer's slices, in order: a degenerate row draws the same doubles
    touched = grads["entities"][0]
    for cut in _slices(len(touched), model.dim * 8, _ADAM_BYTES):
        rows = model.entities[touched[cut]]
        normalize_entities(rows, rng)
        model.entities[touched[cut]] = rows
    model.step += 1
    return mean_loss


@dataclass
class TrainResult:
    model: KGEModel
    best_model: KGEModel
    best_valid_mrr: float
    best_step: int
    log_rows: list[tuple] = field(default_factory=list)
    final_rng_state: dict | None = None
    best_rng_state: dict | None = None


def train(
    store: TripleStore,
    model: KGEModel,
    config: TrainConfig,
    *,
    log_path=None,
) -> TrainResult:
    """Run the full training loop.

    Batches are drawn uniformly from the training split.  Every
    ``valid_interval`` steps the model is scored on the validation
    split (optionally truncated to ``config.valid_limit`` triples) and
    the best-validation-MRR snapshot is retained.  One log row is
    emitted per step: ``step,loss,valid_mrr,elapsed_seconds`` with the
    MRR column empty between validations.
    """
    from .evaluation import evaluate  # local import, avoids cycle at module load

    if len(store.train) == 0:
        raise ValueError("training split is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(config.learning_rate)
    normalize_entities(model.entities, rng)

    filter_index = None
    best_model = None  # the best validation's snapshot, else the final model's
    best_mrr = -np.inf
    best_step = 0
    best_rng_state = rng.bit_generator.state
    log_rows: list[tuple] = []
    fh = open(log_path, "a", encoding="utf-8") if log_path else None
    if fh and fh.tell() == 0:
        fh.write(LOG_HEADER + "\n")
    t0 = time.monotonic()
    try:
        for step in range(1, config.max_steps + 1):
            batch_idx = rng.integers(0, len(store.train), size=config.batch_size)
            step_loss = train_step(model, store.train[batch_idx], config, rng, optimizer)
            valid_mrr = ""
            if len(store.valid) and step % config.valid_interval == 0:
                if filter_index is None:
                    filter_index = build_filter_index(store)
                report = evaluate(
                    model,
                    store,
                    "valid",
                    categories=None,
                    filter_index=filter_index,
                    limit=config.valid_limit,
                )
                valid_mrr = report.mrr
                if valid_mrr > best_mrr:
                    best_mrr = valid_mrr
                    best_model = model.copy()
                    best_step = step
                    best_rng_state = rng.bit_generator.state
                log.info("step %d loss %.4f valid MRR %.4f", step, step_loss, valid_mrr)
            row = (step, step_loss, valid_mrr, time.monotonic() - t0)
            log_rows.append(row)
            if fh:
                mrr_txt = f"{valid_mrr:.6f}" if valid_mrr != "" else ""
                fh.write(f"{row[0]},{row[1]:.6f},{mrr_txt},{row[3]:.3f}\n")
    finally:
        if fh:
            fh.close()

    final_rng_state = rng.bit_generator.state
    if best_mrr == -np.inf:
        best_model = model.copy()
        best_mrr = float("nan")
        best_step = model.step
        best_rng_state = final_rng_state
    return TrainResult(
        model,
        best_model,
        float(best_mrr),
        best_step,
        log_rows,
        final_rng_state=final_rng_state,
        best_rng_state=best_rng_state,
    )

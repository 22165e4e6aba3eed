"""Training loop with self-adversarial negative sampling.

Each positive triple is paired with uniformly drawn corruptions of one
side; corruption alternates head/tail across the batch so both
prediction directions train.  Negative triples are weighted by a
temperature-scaled softmax of their own scores, and those weights are
treated as constants during backpropagation.  After every optimizer
step entity rows are projected back to unit norm.

A batch runs four chain passes through the same affine-map kernel and
distance that ``scoring.score`` and evaluation use: positive heads,
positive tails, head-corrupted negatives and tail-corrupted negatives.
The backward walks the four passes in that order and collects row ids
and gradients per table name (``entities``, ``head.angles``, ...; see
``model.table_names``); a negative pass's operator gradients arrive
summed over its negatives, and under shared rotation both chains'
angle gradients go to ``head.angles``.

The filtered index for validation is built on the first validation
step, so a run that never validates never builds it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import TripleStore, build_filter_index
from .errors import TrainingDivergedError
from .model import KGEModel
from .scoring import _PARAM_GROUPS, _norm_and_grad
from .transforms import chain_backward, chain_forward_tape

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
        if name not in self._moments:
            self._moments[name] = (np.zeros_like(param), np.zeros_like(param))
        m, v = self._moments[name]
        m[rows] = self.beta1 * m[rows] + (1 - self.beta1) * grads
        v[rows] = self.beta2 * v[rows] + (1 - self.beta2) * grads * grads
        m_hat = m[rows] / (1 - self.beta1**self.t)
        v_hat = v[rows] / (1 - self.beta2**self.t)
        param[rows] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Batched forward/backward
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _accumulate_rows(ids, grads):
    """Sum gradient rows sharing an id; returns (unique_ids, summed)."""
    rows, inverse = np.unique(ids, return_inverse=True)
    acc = np.zeros((len(rows),) + grads.shape[1:], dtype=np.float64)
    np.add.at(acc, inverse, grads)
    return rows, acc


def batch_loss_and_grads(
    model: KGEModel,
    positives: np.ndarray,
    neg_ids: np.ndarray,
    corrupt_head: np.ndarray,
    config: TrainConfig,
    weights: np.ndarray | None = None,
):
    """Mean loss of a batch and gradients for every trainable table.

    ``positives`` is (B, 3), ``neg_ids`` (B, N), ``corrupt_head`` a
    boolean row mask choosing which side each row's negatives replace.
    ``weights`` overrides the self-adversarial weights (used by
    gradient checks, which must hold them constant).

    Four chain passes carry the batch: positive heads, positive tails,
    head-corrupted negatives and tail-corrupted negatives.  A pass with
    no rows runs on empty arrays.

    Returns ``(mean_loss, per_positive_loss, grads)`` with ``grads``
    mapping table names (see :meth:`KGEModel.table`) to
    ``(rows, grad_rows)`` pairs.
    """
    spec = model.spec
    h_ids, r_ids, t_ids = positives[:, 0], positives[:, 1], positives[:, 2]
    B, N = neg_ids.shape
    idx_h = np.where(corrupt_head)[0]
    idx_t = np.where(~corrupt_head)[0]
    passes = []  # (side, relation rows, entity ids, params, tape)

    def forward(side, rows, ids):
        """Transform entity rows ``ids`` by ``side``'s chain of relations ``rows``."""
        r = rows[:, None] if ids.ndim == 2 else rows  # broadcast over the negatives
        p = getattr(model, side)[r]
        y, tape = chain_forward_tape(model.entities[ids], getattr(spec, f"{side}_chain"), p)
        passes.append((side, rows, ids, p, tape))
        return y

    u = forward("head", r_ids, h_ids)
    v = forward("tail", r_ids, t_ids)
    f_pos, g_u = _norm_and_grad(u - v, spec.norm)
    # a negative pass's gap is formed in place in its transformed vectors
    y = forward("head", r_ids[idx_h], neg_ids[idx_h])
    y -= v[idx_h][:, None, :]
    f_h, g_h = _norm_and_grad(y, spec.norm)
    y = forward("tail", r_ids[idx_t], neg_ids[idx_t])
    np.subtract(u[idx_t][:, None, :], y, out=y)
    f_t, g_t = _norm_and_grad(y, spec.norm)
    del y
    f_neg = np.empty((B, N))
    f_neg[idx_h] = f_h
    f_neg[idx_t] = f_t

    if weights is None:
        weights = self_adversarial_weights(f_neg, config.adversarial_temperature)
    per_pos = loss(f_pos, f_neg, weights, config.margin)
    mean_loss = float(np.mean(per_pos))

    # d loss / d score, already divided by the batch size
    c_pos = _sigmoid(f_pos - config.margin) / B
    c_neg = -weights * _sigmoid(config.margin - f_neg) / B

    # upstream gradients of each pass's transformed vectors
    g_u *= c_pos[:, None]
    g_v = -g_u
    g_h *= c_neg[idx_h][:, :, None]
    g_v[idx_h] -= np.sum(g_h, axis=1)
    g_t *= c_neg[idx_t][:, :, None]
    g_u[idx_t] += np.sum(g_t, axis=1)
    np.negative(g_t, out=g_t)

    tables = {}  # table name -> (row id arrays, gradient arrays)

    def collect(name, rows, grad):
        row_list, grad_list = tables.setdefault(name, ([], []))
        row_list.append(rows)
        grad_list.append(grad)

    # each pass's tape and upstream are released once it has been walked,
    # so the (B, N, d) intermediates do not pile up
    upstreams = [g_u, g_v, g_h, g_t]
    del g_u, g_v, g_h, g_t
    while passes:
        (side, rows, ids, p, tape), upstream = passes.pop(0), upstreams.pop(0)
        gx, g_par = chain_backward(upstream, p, tape)
        collect("entities", ids.ravel(), gx.reshape(-1, spec.dim))
        for group, field, table in _PARAM_GROUPS:
            # under shared rotation the head's rotation group owns both sides
            owner = "head" if model.shared_rotation and group == "rotation" else side
            if getattr(model.trainable, f"{owner}_{group}"):
                g = getattr(g_par, field)
                collect(f"{owner}.{table}", rows, g.reshape(len(rows), g.shape[-1]))

    grads = {
        name: _accumulate_rows(np.concatenate(row_list), np.concatenate(grad_list))
        for name, (row_list, grad_list) in tables.items()
    }
    return mean_loss, per_pos, grads


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
    already unit, so the whole table stays normalized).
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

    touched = grads["entities"][0]
    rows = model.entities[touched]
    normalize_entities(rows, rng)
    model.entities[touched] = rows
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

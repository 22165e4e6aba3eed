"""Slow, independent references that the test suite checks the library against.

Each reference exists once, here, and is written for clarity rather
than speed: per-block homogeneous 3x3 matrices built from scratch,
candidates scored one at a time, a complete sort for the filtered rank,
known answers read straight from the triples, and central differences
for gradients.  The random builders fix the order of their draws, so a
seeded test sees the same numbers whichever module calls them.
"""

import numpy as np

from compound_kge.dataset import TripleStore
from compound_kge.evaluation import Direction
from compound_kge.model import init_model
from compound_kge.scoring import Norm, RelationParams, compound_spec, score
from compound_kge.training import batch_loss_and_grads, self_adversarial_weights
from compound_kge.transforms import OperatorKind, TransformParams

T, R, S = OperatorKind.TRANSLATION, OperatorKind.ROTATION, OperatorKind.SCALING


# ---------------------------------------------------------------------------
# Operator algebra and scores
# ---------------------------------------------------------------------------

def block_matrix(chain, v_x, v_y, theta, s_x, s_y):
    """One block's homogeneous 3x3 matrix: each elementary matrix built from
    scratch and multiplied in written order."""
    mats = {
        T: np.array([[1, 0, v_x], [0, 1, v_y], [0, 0, 1]], dtype=float),
        R: np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1],
            ]
        ),
        S: np.array([[s_x, 0, 0], [0, s_y, 0], [0, 0, 1]], dtype=float),
    }
    m = np.eye(3)
    for op in chain:
        m = m @ mats[op]
    return m


def block_transform(x, chain, params):
    """Push each homogeneous block of a vector through its matrix.  At an odd
    dimension the last coordinate pairs with a zero, under zero translation
    and angle and unit scale, as the kernel pads it."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    if d % 2:
        x = np.append(x, 0.0)
        params = TransformParams(
            np.append(params.translation, 0.0),
            np.append(params.angles, 0.0),
            np.append(params.scale, 1.0),
        )
    out = np.empty_like(x)
    for i in range(len(x) // 2):
        m = block_matrix(
            chain,
            params.translation[2 * i],
            params.translation[2 * i + 1],
            params.angles[i],
            params.scale[2 * i],
            params.scale[2 * i + 1],
        )
        block = m @ np.array([x[2 * i], x[2 * i + 1], 1.0])
        out[2 * i : 2 * i + 2] = block[:2]
    return out[:d]


def _norm(diff, norm):
    return np.sum(np.abs(diff)) if norm is Norm.L1 else np.linalg.norm(diff)


def two_sided_score(h, r, t, spec):
    """``|| M_r h - M_hat_r t ||`` with both sides through :func:`block_transform`;
    rows of (n, d) inputs are scored one at a time."""
    if np.ndim(h) == 2:
        return np.array([two_sided_score(a, r, b, spec) for a, b in zip(h, t)])
    u = block_transform(h, spec.head_chain, r.head)
    v = block_transform(t, spec.tail_chain, r.tail)
    return _norm(u - v, spec.norm)


# The classic models' published score formulas, in either norm.

def transe_score(h, r, t, norm):
    return _norm(h + r.head.translation - t, norm)


def rotate_score(h, r, t, norm):
    hc = h[0::2] + 1j * h[1::2]
    tc = t[0::2] + 1j * t[1::2]
    diff = hc * np.exp(1j * r.head.angles) - tc
    if norm is Norm.L1:
        return np.sum(np.abs(diff.real)) + np.sum(np.abs(diff.imag))
    return np.sqrt(np.sum(diff.real**2) + np.sum(diff.imag**2))


def pairre_score(h, r, t, norm):
    return _norm(h * r.head.scale - t * r.tail.scale, norm)


def linearre_score(h, r, t, norm):
    return _norm(h * r.head.scale + r.head.translation - t * r.tail.scale, norm)


# ---------------------------------------------------------------------------
# Filtered rank
# ---------------------------------------------------------------------------

def known_answers(store):
    """Every split's true completions as ``({(h, r): tails}, {(r, t): heads})``."""
    tails, heads = {}, {}
    for h, r, t in np.concatenate([store.train, store.valid, store.test]).tolist():
        tails.setdefault((h, r), set()).add(t)
        heads.setdefault((r, t), set()).add(h)
    return tails, heads


def full_sort_rank(scores, truth, known):
    """Rank of ``scores[truth]`` (lower is better) among the candidates not in
    ``known`` or equal to ``truth``, from a complete sort: one plus the
    strictly better scores plus half the ties, floored."""
    keep = np.ones(len(scores), dtype=bool)
    for e in known:
        if e != truth:
            keep[e] = False
    kept = np.sort(scores[keep])
    s = scores[truth]
    less = int(np.searchsorted(kept, s, side="left"))
    ties = int(np.searchsorted(kept, s, side="right")) - less - 1
    return 1 + less + ties // 2


def oracle_rank(model, triple, direction, known, score_fn=two_sided_score):
    """Filtered rank of one triple with every entity substituted on the
    predicted side and scored by ``score_fn(heads, r, tails, spec)`` on (n, d)
    stacks; ``known`` comes from :func:`known_answers`."""
    h, rid, t = (int(x) for x in triple)
    r, ents, spec = model.relation_params(rid), model.entities, model.spec
    tails, heads = known
    if direction is Direction.TAIL:
        scores = score_fn(np.broadcast_to(ents[h], ents.shape), r, ents, spec)
        return full_sort_rank(np.asarray(scores), t, tails[h, rid])
    scores = score_fn(ents, r, np.broadcast_to(ents[t], ents.shape), spec)
    return full_sort_rank(np.asarray(scores), h, heads[rid, t])


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def central_difference_at(fn, array, index, step):
    """Central difference of the scalar ``fn()`` in ``array[index]``, which is
    moved up and down by ``step`` in place and then restored."""
    original = array[index]
    array[index] = original + step
    up = fn()
    array[index] = original - step
    down = fn()
    array[index] = original
    return (up - down) / (2 * step)


def central_differences(fn, x, step):
    """Central-difference gradient of the scalar ``fn(x)``, one entry at a time."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        g[i] = central_difference_at(lambda: fn(x), x, i, step)
    return g


def rel_err(analytic, numeric, floor=1e-8):
    """Worst absolute gap over the largest numeric magnitude (at least ``floor``)."""
    denom = max(np.max(np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric))) / denom


def frozen_weight_loss(model, positives, neg_ids, corrupt_head, config):
    """The batch's mean loss as a function of the model's tables, with the
    self-adversarial weights frozen at the current negatives, each scored
    alone, so that a central difference moves only the scores.

    Returns ``(weights, loss)``; ``loss()`` reads the tables as they are.
    """
    B, N = neg_ids.shape
    f_neg = np.empty((B, N))
    for i in range(B):
        r = model.relation_params(int(positives[i, 1]))
        for j in range(N):
            if corrupt_head[i]:
                f_neg[i, j] = score(
                    model.entities[neg_ids[i, j]], r, model.entities[positives[i, 2]], model.spec
                )
            else:
                f_neg[i, j] = score(
                    model.entities[positives[i, 0]], r, model.entities[neg_ids[i, j]], model.spec
                )
    weights = self_adversarial_weights(f_neg, config.adversarial_temperature)

    def loss():
        _, per_pos, _ = batch_loss_and_grads(
            model, positives, neg_ids, corrupt_head, config, weights=weights
        )
        return float(np.mean(per_pos))

    return weights, loss


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def random_transform(rng, d, shape=()):
    """Normal translations, angles uniform on [-pi, pi) and normal scales,
    drawn in that order, with leading ``shape``."""
    return TransformParams(
        rng.normal(size=shape + (d,)),
        rng.uniform(-np.pi, np.pi, shape + (d // 2,)),
        rng.normal(size=shape + (d,)),
    )


def random_relation(rng, d, shared_rotation=False):
    """A relation with head then tail drawn by :func:`random_transform`."""
    head = random_transform(rng, d)
    tail = random_transform(rng, d)
    return RelationParams(head, tail, shared_rotation)


def random_store(
    rng, n_entities, n_relations, n_train, n_valid, n_test=None, *, separate_draws=False
):
    """Distinct random triples, sorted and split in order into train, valid and
    test (``n_test`` defaults to ``n_valid``).  A triple draws (h, t) in one
    call and then r, or, with ``separate_draws``, h, r and t one call each."""
    n_test = n_valid if n_test is None else n_test
    triples = set()
    while len(triples) < n_train + n_valid + n_test:
        if separate_draws:
            h, r, t = (int(rng.integers(0, n)) for n in (n_entities, n_relations, n_entities))
        else:
            h, t = rng.integers(0, n_entities, size=2)
            r = rng.integers(0, n_relations)
        triples.add((int(h), int(r), int(t)))
    triples = sorted(triples)
    a, b = n_train, n_train + n_valid
    return TripleStore(
        n_entities=n_entities,
        n_relations=n_relations,
        train=np.array(triples[:a]),
        valid=np.array(triples[a:b]),
        test=np.array(triples[b:]),
        entity_names=[f"e{i}" for i in range(n_entities)],
        relation_names=[f"r{i}" for i in range(n_relations)],
    )


def random_model(rng, n_entities, n_relations, dim=6, norm="l1"):
    """A full S.R.T / S.R.T model with rough parameters: entities off the unit
    sphere, normal head translations and tail scales.  The ranking code must
    not assume anything about the state it evaluates."""
    spec = compound_spec("full", "SRT", "SRT", dim=dim, norm=norm)
    model = init_model(spec, n_entities, n_relations, rng)
    model.entities = rng.normal(size=(n_entities, dim))
    model.head.translations = rng.normal(size=model.head.translations.shape)
    model.tail.scales = rng.normal(size=model.tail.scales.shape)
    return model

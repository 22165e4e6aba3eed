"""Acceptance suite: one test per release criterion.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (visible
with ``pytest -s``) and asserts the criterion at its stated tolerance.
Criteria 6, 7, and 10 need the FB15k-237 / WN18RR benchmark files,
which are not redistributable with this repository; point
``COMPOUND_KGE_DATA`` at a directory containing ``FB15k-237/`` and
``WN18RR/`` split files to enable them (they skip otherwise).
Criterion 10 is a multi-hour soft-target run and additionally requires
``COMPOUND_KGE_RUN_WN18RR=1``; see ``demos/wn18rr_smoke.py``.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from compound_kge.dataset import (
    build_filter_index,
    categorize_relations,
    complex_triple_fraction,
    load_dataset,
    save_dictionaries,
    save_splits,
)
from compound_kge.diagnostics import (
    composition_residual,
    inversion_residual,
    relation_diagnostics,
    relation_matrices,
    subrelation_score_gap,
    symmetry_residual,
)
from compound_kge.evaluation import Direction, evaluate, filtered_rank
from compound_kge.model import init_model, model_from_preset
from compound_kge.scoring import (
    Norm,
    RelationParams,
    compound_spec,
    grad_score,
    preset_linearre,
    preset_pairre,
    preset_rotate,
    preset_transe,
    score,
)
from compound_kge.synthetic import SyntheticPattern, generate_synthetic_kg
from compound_kge.training import (
    TrainConfig,
    batch_loss_and_grads,
    normalize_entities,
    self_adversarial_weights,
    train,
)
from compound_kge.transforms import (
    OperatorKind,
    TransformParams,
    compound_matrix_2d,
    invert_compound_2d,
)

T, R, S = OperatorKind.TRANSLATION, OperatorKind.ROTATION, OperatorKind.SCALING


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def data_root():
    root = Path(os.environ.get("COMPOUND_KGE_DATA", "data"))
    return root if root.is_dir() else None


def require_benchmark(name):
    root = data_root()
    if root is None or not (root / name / "train.txt").exists():
        pytest.skip(
            f"benchmark dataset {name} not found; place its train/valid/test "
            "files under $COMPOUND_KGE_DATA or ./data to run this criterion"
        )
    return root / name


# ---------------------------------------------------------------------------
# 1. closed-form compound matrix
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_algebra():
    rng = np.random.default_rng(10)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        v_x, v_y = rng.normal(size=2) * 3
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        s_x, s_y = rng.normal(size=2) * 3
        got = compound_matrix_2d((T, R, S), (v_x, v_y, theta, s_x, s_y))
        want = np.array(
            [
                [s_x * np.cos(theta), -s_y * np.sin(theta), v_x],
                [s_x * np.sin(theta), s_y * np.cos(theta), v_y],
                [0.0, 0.0, 1.0],
            ]
        )
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"max-abs error {worst:.2e} over 1000 draws in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. preset reductions
# ---------------------------------------------------------------------------

def _preset_oracles():
    def transe(h, r, t):
        return np.sum(np.abs(h + r.head.translation - t))

    def rotate(h, r, t):
        hc = h[0::2] + 1j * h[1::2]
        tc = t[0::2] + 1j * t[1::2]
        diff = hc * np.exp(1j * r.head.angles) - tc
        return np.sum(np.abs(diff.real)) + np.sum(np.abs(diff.imag))

    def pairre(h, r, t):
        return np.sum(np.abs(h * r.head.scale - t * r.tail.scale))

    def linearre(h, r, t):
        return np.sum(
            np.abs(h * r.head.scale + r.head.translation - t * r.tail.scale)
        )

    return {
        "transe": (preset_transe, transe, ("head", "translation")),
        "rotate": (preset_rotate, rotate, ("head", "angles")),
        "pairre": (preset_pairre, pairre, ("head", "scale", "tail", "scale")),
        "linearre": (
            preset_linearre,
            linearre,
            ("head", "translation", "head", "scale", "tail", "scale"),
        ),
    }


def test_criterion_2_reduction_equivalence():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    worst = {}
    for name, (factory, oracle, fields) in _preset_oracles().items():
        preset = factory(16)
        err = 0.0
        for _ in range(1000):
            r = RelationParams.identity(16)
            for side, field in zip(fields[0::2], fields[1::2]):
                params = getattr(r, side)
                size = 8 if field == "angles" else 16
                value = (
                    rng.uniform(-np.pi, np.pi, size=size)
                    if field == "angles"
                    else rng.normal(size=size)
                )
                setattr(params, field, value)
            h, t = rng.normal(size=16), rng.normal(size=16)
            err = max(err, abs(float(score(h, r, t, preset.spec)) - oracle(h, r, t)))
        worst[name] = err
    elapsed = time.perf_counter() - start
    ok = all(v < 1e-9 for v in worst.values()) and elapsed < 5.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(2, ok, f"abs errors {detail} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. gradient correctness (score and full loss)
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def _fd(fn, x, step=FD_STEP):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        g.flat[i] = (fn(xp) - fn(xm)) / (2 * step)
    return g


def _rel_err(analytic, numeric):
    denom = max(np.max(np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / denom


def _clear_of_l1_kinks(h, r, t, spec):
    from compound_kge.transforms import apply_chain

    u = apply_chain(h, spec.head_chain, r.head)
    v = apply_chain(t, spec.tail_chain, r.tail)
    return np.min(np.abs(u - v)) > 1e-3


def _score_grad_worst_error(spec, rng, instances):
    worst = 0.0
    d = spec.dim
    for _ in range(instances):
        while True:
            r = RelationParams(
                TransformParams(
                    rng.normal(size=d),
                    rng.uniform(-np.pi, np.pi, d // 2),
                    rng.normal(size=d),
                ),
                TransformParams(
                    rng.normal(size=d),
                    rng.uniform(-np.pi, np.pi, d // 2),
                    rng.normal(size=d),
                ),
            )
            h, t = rng.normal(size=d), rng.normal(size=d)
            if spec.norm is Norm.L2 or _clear_of_l1_kinks(h, r, t, spec):
                break
        g = grad_score(h, r, t, spec)
        worst = max(worst, _rel_err(g.h, _fd(lambda v: score(v, r, t, spec), h)))
        worst = max(worst, _rel_err(g.t, _fd(lambda v: score(h, r, v, spec), t)))

        for side_name, chain, grads in (
            ("head", spec.head_chain, g.head),
            ("tail", spec.tail_chain, g.tail),
        ):
            for op, field, got in (
                (T, "translation", grads.translation),
                (R, "angles", grads.angles),
                (S, "scale", grads.scale),
            ):
                if op not in chain:
                    continue

                def probe(v, side_name=side_name, field=field):
                    r2 = RelationParams(r.head.copy(), r.tail.copy())
                    setattr(getattr(r2, side_name), field, np.asarray(v, dtype=float))
                    return score(h, r2, t, spec)

                base = getattr(getattr(r, side_name), field)
                worst = max(worst, _rel_err(got, _fd(probe, base)))
    return worst


def _batch_gaps(model, positives, neg_ids, corrupt_head):
    """Every transformed head/tail gap the batch loss takes a norm of: each
    positive's and each of its negatives', flattened."""
    from compound_kge.transforms import apply_chain

    spec, ents = model.spec, model.entities
    gaps = []
    for (h, rid, t), negs, head_side in zip(positives, neg_ids, corrupt_head):
        r = model.relation_params(int(rid))
        u = apply_chain(ents[h], spec.head_chain, r.head)
        v = apply_chain(ents[t], spec.tail_chain, r.tail)
        if head_side:
            neg = apply_chain(ents[negs], spec.head_chain, r.head) - v
        else:
            neg = u - apply_chain(ents[negs], spec.tail_chain, r.tail)
        gaps += [u - v, neg.ravel()]
    return np.concatenate(gaps)


def _loss_grad_worst_error(spec, rng):
    n_entities, B, N = 6, 4, 3
    corrupt_head = np.arange(B) % 2 == 0
    while True:
        model = init_model(spec, n_entities, 2, rng)
        normalize_entities(model.entities, rng)
        positives = np.stack(
            [
                rng.integers(0, n_entities, size=B),
                rng.integers(0, 2, size=B),
                rng.integers(0, n_entities, size=B),
            ],
            axis=1,
        )
        neg_ids = rng.integers(0, n_entities, size=(B, N))
        # a central difference must not straddle an L1 kink
        gaps = _batch_gaps(model, positives, neg_ids, corrupt_head)
        if spec.norm is Norm.L2 or np.min(np.abs(gaps)) > 1e-3:
            break
    config = TrainConfig(batch_size=B, negative_size=N, margin=3.0, max_steps=1)

    from compound_kge.scoring import score as score_fn

    f_neg = np.empty((B, N))
    for i in range(B):
        r = model.relation_params(int(positives[i, 1]))
        for j in range(N):
            if corrupt_head[i]:
                f_neg[i, j] = score_fn(
                    model.entities[neg_ids[i, j]],
                    r,
                    model.entities[positives[i, 2]],
                    spec,
                )
            else:
                f_neg[i, j] = score_fn(
                    model.entities[positives[i, 0]],
                    r,
                    model.entities[neg_ids[i, j]],
                    spec,
                )
    frozen_w = self_adversarial_weights(f_neg, config.adversarial_temperature)

    _, _, grads = batch_loss_and_grads(
        model, positives, neg_ids, corrupt_head, config, weights=frozen_w
    )

    def loss_value():
        _, per_pos, _ = batch_loss_and_grads(
            model, positives, neg_ids, corrupt_head, config, weights=frozen_w
        )
        return float(np.mean(per_pos))

    worst = 0.0
    for name, (rows, analytic) in grads.items():
        table = model.table(name)
        probes = [(k, c) for k in range(len(rows)) for c in range(analytic.shape[1])]
        rng.shuffle(probes)
        for k, c in probes[:6]:
            row = rows[k]
            original = table[row, c]
            table[row, c] = original + FD_STEP
            up = loss_value()
            table[row, c] = original - FD_STEP
            down = loss_value()
            table[row, c] = original
            fd = (up - down) / (2 * FD_STEP)
            denom = max(abs(fd), 1e-6)
            worst = max(worst, abs(analytic[k, c] - fd) / denom)
    return worst


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    worst_score, worst_loss = 0.0, 0.0
    orderings = ["".join(p) for p in itertools.permutations("TRS")]
    cases = itertools.product(("l1", "l2"), ("head", "tail", "full"), orderings)
    for case, (norm, variant, order) in enumerate(cases):
        spec = compound_spec(variant, order, order, dim=8, norm=norm)
        rng = np.random.default_rng(case)
        worst_score = max(worst_score, _score_grad_worst_error(spec, rng, 50))
        worst_loss = max(worst_loss, _loss_grad_worst_error(spec, rng))
    elapsed = time.perf_counter() - start
    ok = worst_score < 1e-4 and worst_loss < 1e-4 and elapsed < 60.0
    report(
        3,
        ok,
        f"worst rel err: score {worst_score:.2e}, loss {worst_loss:.2e} "
        f"({len(orderings) * 6} combos x 50 instances in {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 4. adversarial softmax
# ---------------------------------------------------------------------------

def test_criterion_4_adversarial_softmax():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(500):
        scores = rng.normal(scale=4, size=16)
        alpha = rng.uniform(0, 3)
        got = self_adversarial_weights(scores, alpha)
        direct = np.exp(alpha * scores) / np.sum(np.exp(alpha * scores))
        worst = max(worst, float(np.max(np.abs(got - direct))))
    uniform = self_adversarial_weights(rng.normal(size=32), 0.0)
    uniform_ok = np.max(np.abs(uniform - 1 / 32)) < 1e-15
    report(
        4,
        worst < 1e-12 and uniform_ok,
        f"max deviation from direct softmax {worst:.2e}; uniform at zero "
        f"temperature: {uniform_ok}",
    )


# ---------------------------------------------------------------------------
# 5. evaluation against a full-sort oracle
# ---------------------------------------------------------------------------

def _oracle_rank(model, triple, direction, index):
    h, rid, t = (int(x) for x in triple)
    n = model.n_entities
    r = model.relation_params(rid)
    if direction is Direction.TAIL:
        fixed = score(
            np.broadcast_to(model.entities[h], (n, model.dim)),
            r,
            model.entities,
            model.spec,
        )
        truth, known = t, index.true_tails(h, rid)
        scores = np.asarray(fixed)
    else:
        scores = np.asarray(
            score(
                model.entities,
                r,
                np.broadcast_to(model.entities[t], (n, model.dim)),
                model.spec,
            )
        )
        truth, known = h, index.true_heads(rid, t)
    keep = np.ones(n, dtype=bool)
    for e in known:
        if e != truth:
            keep[e] = False
    kept = np.sort(scores[keep])
    s = scores[truth]
    less = int(np.searchsorted(kept, s, "left"))
    ties = int(np.searchsorted(kept, s, "right")) - less - 1
    return 1 + less + ties // 2


def test_criterion_5_evaluation_oracle():
    rng = np.random.default_rng(50)
    start = time.perf_counter()
    checked = 0
    for state in range(100):
        n = int(rng.integers(8, 51))
        triples = set()
        while len(triples) < 4 * n:
            triples.add(
                (int(rng.integers(0, n)), int(rng.integers(0, 2)), int(rng.integers(0, n)))
            )
        triples = sorted(triples)
        from compound_kge.dataset import TripleStore

        store = TripleStore(
            n_entities=n,
            n_relations=2,
            train=np.array(triples[: 3 * n]),
            valid=np.array(triples[3 * n : 3 * n + n // 2]),
            test=np.array(triples[3 * n + n // 2 :]),
            entity_names=[f"e{i}" for i in range(n)],
            relation_names=["r0", "r1"],
        )
        spec = compound_spec("full", "SRT", "SRT", dim=6)
        model = init_model(spec, n, 2, rng)
        model.entities = rng.normal(size=(n, 6))
        model.head.translations = rng.normal(size=model.head.translations.shape)
        model.tail.scales = rng.normal(size=model.tail.scales.shape)
        if state % 3 == 0:
            # quantized states force heavy score ties
            model.entities = np.round(model.entities * 2) / 2
            model.head.translations = np.round(model.head.translations)
            model.tail.scales = np.round(model.tail.scales)
        index = build_filter_index(store)
        for triple in store.test[:4]:
            for direction in Direction:
                got = filtered_rank(model, triple, direction, index, chunk_size=16)
                want = _oracle_rank(model, triple, direction, index)
                assert got == want, (state, triple, direction)
                checked += 1
    elapsed = time.perf_counter() - start
    report(5, True, f"{checked} ranks equal the full-sort oracle in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6 + 7. benchmark datasets
# ---------------------------------------------------------------------------

TABLE_COUNTS = {
    "FB15k-237": (14541, 237, 272115, 17535, 20466),
    "WN18RR": (40943, 11, 86835, 3034, 3134),
}


@pytest.mark.benchmark_data
def test_criterion_6_fb15k237_complex_fraction():
    path = require_benchmark("FB15k-237")
    start = time.perf_counter()
    store = load_dataset(path)
    categories = categorize_relations(store, eta=1.5)
    fraction = complex_triple_fraction(store, categories)
    elapsed = time.perf_counter() - start
    report(
        6,
        fraction > 0.98 and elapsed < 30.0,
        f"non-1-to-1 training-triple fraction {fraction:.4f} in {elapsed:.1f}s",
    )


@pytest.mark.benchmark_data
def test_criterion_7_dataset_statistics():
    results = {}
    for name, want in TABLE_COUNTS.items():
        path = require_benchmark(name)
        store = load_dataset(path)
        got = (
            store.n_entities,
            store.n_relations,
            len(store.train),
            len(store.valid),
            len(store.test),
        )
        results[name] = (got, want)
    ok = all(got == want for got, want in results.values())
    report(7, ok, "; ".join(f"{k}: {got}" for k, (got, want) in results.items()))


# ---------------------------------------------------------------------------
# 8. proposition suite
# ---------------------------------------------------------------------------

def _random_relation(rng, d):
    return RelationParams(
        TransformParams(
            rng.normal(size=d), rng.uniform(-np.pi, np.pi, d // 2), rng.normal(size=d)
        ),
        TransformParams(
            rng.normal(size=d), rng.uniform(-np.pi, np.pi, d // 2), rng.normal(size=d)
        ),
    )


def test_criterion_8_proposition_suite():
    rng = np.random.default_rng(80)
    spec = compound_spec("full", "SRT", "SRT", dim=8)
    start = time.perf_counter()
    checks = {}

    # symmetric: equal maps satisfy, generic pairs do not
    r = _random_relation(rng, 8)
    r.tail = r.head.copy()
    m, m_hat = relation_matrices(r, spec)
    checks["symmetric_zero"] = symmetry_residual(m, m_hat)
    m, m_hat = relation_matrices(_random_relation(rng, 8), spec)
    checks["symmetric_counter"] = symmetry_residual(m, m_hat)

    # inverse: relation 2 realizes the block-inverse of relation 1
    r1 = _random_relation(rng, 8)
    m1, m1_hat = relation_matrices(r1, spec)
    m2 = np.stack([invert_compound_2d(a) @ h for a, h in zip(m1, m1_hat)])
    eye = np.stack([np.eye(3)] * len(m1))
    checks["inverse_zero"] = inversion_residual(m1, m1_hat, m2, eye)
    mo, mo_hat = relation_matrices(_random_relation(rng, 8), spec)
    checks["inverse_counter"] = inversion_residual(m1, m1_hat, mo, mo_hat)

    # transitive: relation 3 constructed as the composition of 1 and 2
    r2 = _random_relation(rng, 8)
    m2f, m2f_hat = relation_matrices(r2, spec)
    comp = np.stack(
        [
            (invert_compound_2d(h2) @ a2) @ (invert_compound_2d(h1) @ a1)
            for a1, h1, a2, h2 in zip(m1, m1_hat, m2f, m2f_hat)
        ]
    )
    checks["transitive_zero"] = composition_residual(m1, m1_hat, m2f, m2f_hat, comp, eye)
    checks["transitive_counter"] = composition_residual(
        m2f, m2f_hat, m1, m1_hat, comp, eye
    )

    # sub-relation: scales shrunk by gamma <= 1, shared everything else
    angles = rng.uniform(-np.pi, np.pi, 4)
    s_head, s_tail = rng.normal(size=8), rng.normal(size=8)
    wide = RelationParams(
        TransformParams(np.zeros(8), angles.copy(), s_head),
        TransformParams(np.zeros(8), angles.copy(), s_tail),
    )
    narrow = RelationParams(
        TransformParams(np.zeros(8), angles.copy(), 0.5 * s_head),
        TransformParams(np.zeros(8), angles.copy(), 0.5 * s_tail),
    )
    violated = RelationParams(
        TransformParams(np.zeros(8), angles.copy(), 2.0 * s_head),
        TransformParams(np.zeros(8), angles.copy(), 2.0 * s_tail),
    )
    hs, ts = rng.normal(size=(64, 8)), rng.normal(size=(64, 8))
    sub_spec = compound_spec("full", "TRS", "TRS", dim=8)
    checks["subrelation_gap"] = subrelation_score_gap(narrow, wide, sub_spec, hs, ts)
    checks["subrelation_counter"] = subrelation_score_gap(violated, wide, sub_spec, hs, ts)

    # non-commutativity witness on the relation-composition products
    prod_12 = [
        (a1 @ invert_compound_2d(h1)) @ (a2 @ invert_compound_2d(h2))
        for a1, h1, a2, h2 in zip(m1, m1_hat, m2f, m2f_hat)
    ]
    prod_21 = [
        (a2 @ invert_compound_2d(h2)) @ (a1 @ invert_compound_2d(h1))
        for a1, h1, a2, h2 in zip(m1, m1_hat, m2f, m2f_hat)
    ]
    checks["non_commutative"] = max(
        float(np.max(np.abs(p - q))) for p, q in zip(prod_12, prod_21)
    )

    elapsed = time.perf_counter() - start
    ok = (
        checks["symmetric_zero"] < 1e-10
        and checks["inverse_zero"] < 1e-10
        and checks["transitive_zero"] < 1e-10
        and checks["subrelation_gap"] <= 0.0
        and checks["symmetric_counter"] > 1e-3
        and checks["inverse_counter"] > 1e-3
        and checks["transitive_counter"] > 1e-3
        and checks["subrelation_counter"] > 1e-3
        and checks["non_commutative"] > 1e-3
        and elapsed < 10.0
    )
    detail = ", ".join(f"{k}={v:.2e}" for k, v in checks.items())
    report(8, ok, f"{detail} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. trained-behavior smoke tests
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9a_symmetric_pattern():
    store = generate_synthetic_kg(SyntheticPattern.SYMMETRIC, seed=1)
    make_model = lambda rng: model_from_preset(
        preset_rotate(32), store.n_entities, store.n_relations, rng
    )
    config = TrainConfig(
        learning_rate=1e-2,
        batch_size=64,
        negative_size=32,
        adversarial_temperature=1.0,
        margin=6.0,
        max_steps=3000,
        seed=0,
        valid_interval=1000,
    )
    start = time.perf_counter()
    result = train(store, make_model(np.random.default_rng(0)), config)
    # the residual is a property of the converged operator, so inspect
    # the final state rather than an early best-validation snapshot
    trained = result.model
    mrr = evaluate(trained, store, "test", categorize_relations(store)).mrr

    def residual_of(model):
        m, m_hat = relation_matrices(model.relation_params(0), model.spec)
        return symmetry_residual(m, m_hat)

    trained_residual = residual_of(trained)
    draws = [
        residual_of(make_model(np.random.default_rng(1000 + k))) for k in range(20)
    ]
    threshold = float(np.percentile(draws, 10))
    elapsed = time.perf_counter() - start
    ok = mrr >= 0.9 and trained_residual < threshold and elapsed < 300
    report(
        "9a",
        ok,
        f"test MRR {mrr:.3f} (>= 0.9), symmetry residual {trained_residual:.4f} "
        f"< untrained 10th percentile {threshold:.4f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_9b_n_to_n_singularity():
    store = generate_synthetic_kg(SyntheticPattern.N_TO_N, seed=2)
    spec = compound_spec("full", "SRT", "SRT", dim=32)
    model = init_model(
        spec, store.n_entities, store.n_relations, np.random.default_rng(0),
        shared_rotation=True,
    )
    config = TrainConfig(
        learning_rate=1e-2,
        batch_size=64,
        negative_size=32,
        adversarial_temperature=2.0,
        margin=2.0,
        max_steps=3000,
        seed=0,
        valid_interval=10**9,
    )
    start = time.perf_counter()
    result = train(store, model, config)
    diag = relation_diagnostics(result.model, store.relation_ids["target"])
    elapsed = time.perf_counter() - start
    ok = diag.singularity_fraction > 0.3 and elapsed < 300
    report(
        "9b",
        ok,
        f"singularity fraction {diag.singularity_fraction:.3f} (> 0.3), "
        f"min block det {diag.block_det_min:.2e}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_9c_one_to_n_beats_translation_only():
    store = generate_synthetic_kg(SyntheticPattern.ONE_TO_N, seed=3)
    cats = categorize_relations(store)
    config = TrainConfig(
        learning_rate=1e-2,
        batch_size=64,
        negative_size=32,
        adversarial_temperature=1.0,
        margin=6.0,
        max_steps=2000,
        seed=0,
        valid_interval=10**9,
    )
    start = time.perf_counter()
    spec = compound_spec("full", "SRT", "SRT", dim=32)
    full = init_model(
        spec, store.n_entities, store.n_relations, np.random.default_rng(0),
        shared_rotation=True,
    )
    mrr_full = evaluate(train(store, full, config).model, store, "test", cats).mrr
    transe = model_from_preset(
        preset_transe(32), store.n_entities, store.n_relations, np.random.default_rng(0)
    )
    mrr_transe = evaluate(train(store, transe, config).model, store, "test", cats).mrr
    elapsed = time.perf_counter() - start
    ok = mrr_full > mrr_transe and elapsed < 600
    report(
        "9c",
        ok,
        f"two-sided compound MRR {mrr_full:.3f} > translation-only MRR "
        f"{mrr_transe:.3f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. bounded WN18RR run (soft target, reported, opt-in)
# ---------------------------------------------------------------------------

@pytest.mark.benchmark_data
@pytest.mark.slow
def test_criterion_10_wn18rr_bounded_smoke(tmp_path):
    if not os.environ.get("COMPOUND_KGE_RUN_WN18RR"):
        pytest.skip(
            "multi-hour soft-target run; set COMPOUND_KGE_RUN_WN18RR=1 (and "
            "COMPOUND_KGE_DATA) to execute, or use demos/wn18rr_smoke.py"
        )
    path = require_benchmark("WN18RR")
    store = load_dataset(path)
    spec = compound_spec("full", "RST", "ST", dim=200)
    model = init_model(
        spec, store.n_entities, store.n_relations, np.random.default_rng(0)
    )
    config = TrainConfig(
        learning_rate=1e-3,
        batch_size=512,
        negative_size=64,
        adversarial_temperature=0.5,
        margin=6.0,
        max_steps=60000,
        seed=0,
        valid_interval=10000,
        valid_limit=500,
    )
    log_path = tmp_path / "wn18rr_log.csv"
    result = train(store, model, config, log_path=log_path)
    cats = categorize_relations(store)
    mrr = evaluate(result.best_model, store, "test", cats).mrr
    detail = f"filtered test MRR {mrr:.4f} (soft target 0.35); curve: {log_path}"
    if mrr < 0.35:
        detail += " -- SHORTFALL, see training curve"
    print(f"ACCEPTANCE 10 {'PASS' if mrr >= 0.35 else 'REPORTED'}: {detail}")
    # soft target: the criterion asks for the number and the curve, not a gate


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    from compound_kge.cli import main

    data = tmp_path / "kg"
    store = generate_synthetic_kg(SyntheticPattern.INVERSE, seed=4)
    save_splits(store, data)
    save_dictionaries(store, data)

    blobs, reports = [], []
    for name in ("one", "two"):
        save = tmp_path / name
        out = tmp_path / f"{name}.json"
        assert (
            main(
                [
                    "train",
                    "--data", str(data),
                    "--dim", "8",
                    "--steps", "40",
                    "--batch-size", "16",
                    "--neg-size", "8",
                    "--seed", "9",
                    "--valid-interval", "20",
                    "--deterministic",
                    "--save", str(save),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "eval",
                    "--checkpoint", str(save / "best.ckpt"),
                    "--data", str(data),
                    "--split", "test",
                    "--out", str(out),
                ]
            )
            == 0
        )
        blobs.append(
            ((save / "best.ckpt").read_bytes(), (save / "last.ckpt").read_bytes())
        )
        reports.append(out.read_text())
    ok = blobs[0] == blobs[1] and reports[0] == reports[1]
    report(
        11,
        ok,
        "two deterministic runs: checkpoints byte-identical "
        f"({len(blobs[0][0])} bytes), reports identical",
    )

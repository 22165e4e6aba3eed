"""Property tests: the fast paths against the references in ``oracles`` on
generated inputs (QuickCheck-style, with Hypothesis).

The examples are derandomized, so every run checks the same inputs, and no
example database is written.  Continuous values come from a numpy generator
seeded by Hypothesis; the structure around them (sizes, chains, norms,
planted ties, block sizes) is drawn by Hypothesis itself.
"""

import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, given, settings
from hypothesis import strategies as st

from compound_kge.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from compound_kge.dataset import build_filter_index, categorize_relations
from compound_kge.diagnostics import (
    export_relation_histograms,
    relation_diagnostics,
    relation_matrices,
)
from compound_kge.evaluation import Direction, MetricCell, evaluate, filtered_rank
from compound_kge.model import init_model, model_from_preset
from compound_kge import evaluation, training
from compound_kge.scoring import PRESETS, Norm, compound_spec, preset_pairre, preset_rotate, score
from compound_kge.training import TrainConfig, batch_loss_and_grads
from compound_kge.transforms import (
    apply_chain,
    chain_affine_map,
    chain_backward,
    chain_block_matrices,
    chain_forward_tape,
    invert_blocks,
    TransformParams,
)

from oracles import (
    R,
    S,
    T,
    assert_same_batch,
    block_transform,
    central_difference_at,
    chain_vjp,
    frozen_weight_loss,
    known_answers,
    linearre_score,
    oracle_rank,
    pairre_score,
    random_model,
    random_relation,
    random_transform,
    random_store,
    rel_err,
    rotate_score,
    summed_in_side_order,
    transe_score,
    two_sided_score,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


# every nonempty chain, written as an order string
ORDERS = ["".join(p) for k in (1, 2, 3) for p in itertools.permutations("TRS", k)]
# every chain, the empty one included
CHAINS = [c for k in range(4) for c in itertools.permutations([T, R, S], k)]
seeds = st.integers(0, 2**32 - 1)
norms = st.sampled_from(["l1", "l2"])


@st.composite
def planted_tie_graphs(draw):
    """A tiny random store and a rough model with planted score ties:
    duplicated entity rows and zeroed scales (all of them, at the extreme,
    so every candidate ties), plus a candidate block size."""
    n, n_relations = draw(st.integers(2, 10)), draw(st.integers(1, 3))
    room = n * n * n_relations  # distinct triples there can be
    n_test = draw(st.integers(1, min(4, room - 2)))
    n_valid = draw(st.integers(1, min(2, room - 1 - n_test)))
    n_train = draw(st.integers(1, min(3 * n, room - n_valid - n_test)))
    rng = np.random.default_rng(draw(seeds))
    store = random_store(rng, n, n_relations, n_train, n_valid, n_test)
    dim = draw(st.sampled_from([2, 4, 6]))
    model = random_model(rng, n, n_relations, dim=dim, norm=draw(norms))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for src, dst in draw(st.lists(pairs, max_size=n)):
        model.entities[dst] = model.entities[src]
    for scales in (model.head.scales, model.tail.scales):
        scales[rng.random(scales.shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    return store, model, draw(st.integers(1, n + 1))


@PROPERTY
@given(planted_tie_graphs())
def test_filtered_rank_equals_full_sort_oracle(case):
    store, model, chunk_size = case
    index, known = build_filter_index(store), known_answers(store)
    for triple in store.test:
        for direction in Direction:
            got = filtered_rank(model, triple, direction, index, chunk_size=chunk_size)
            assert got == oracle_rank(model, triple, direction, known, score_fn=score)


@st.composite
def near_tie_graphs(
    draw,
    norms=norms,
    magnitudes=st.sampled_from([1.0, 1e-40, 1e36, 1e39]),
    dims=None,
    relations=st.integers(1, 2),
    tests=st.integers(1, 4),
):
    """A tiny store and model built against screens that trust rounded
    scores: candidates one ``np.nextafter`` step from another row (often a
    ground truth) and exact duplicates, translations and scales up to 1e6,
    entity rows and translations near float32's subnormal range (1e-40),
    just within its largest value (1e36, which the scales carry past it)
    or past it (1e39), full S.R.T, ``rotate``, and ``pairre``
    and ``linearre`` at odd dimensions too, zeroed scales, and NaN rows on
    any entity, ground truths and fixed sides included.  ``dims``, when
    given, sets the dimension of every kind of model."""
    norm = Norm(draw(norms))
    n, n_relations = draw(st.integers(3, 10)), draw(relations)
    n_test = min(draw(tests), n * n * n_relations - 2)
    n_train = draw(st.integers(1, min(2 * n, n * n * n_relations - 1 - n_test)))
    rng = np.random.default_rng(draw(seeds))
    store = random_store(rng, n, n_relations, n_train, 1, n_test)
    kind = draw(st.sampled_from(["full", "rotate", "pairre", "linearre"]))
    big = draw(st.sampled_from([1.0, 1e3, 1e6]))
    magnitude = draw(magnitudes)
    if dims is not None:
        dim = draw(dims)
    elif kind == "full":
        dim = draw(st.sampled_from([2, 4, 6]))
    else:
        dim = draw(st.integers(1, 7)) if kind != "rotate" else 2 * draw(st.integers(1, 3))
    if kind == "full":
        model = random_model(rng, n, n_relations, dim=dim, norm=norm.value)
    else:
        model = model_from_preset(PRESETS[kind](dim, norm), n, n_relations, rng)
        model.entities = rng.normal(size=model.entities.shape)
    for side in (model.head, model.tail):
        if kind != "rotate":
            side.translations[...] = big * rng.normal(size=side.translations.shape)
            side.scales[...] = big * rng.normal(size=side.scales.shape)
            side.scales[rng.random(side.scales.shape) < 0.2] = 0.0
        side.translations *= magnitude
    ents = model.entities
    ents *= magnitude
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for src, dst in draw(st.lists(pairs, max_size=n)):
        step = draw(st.sampled_from([-np.inf, np.inf, None]))
        moved = rng.random(model.dim) < 0.5
        ents[dst] = np.where(moved, np.nextafter(ents[src], step), ents[src]) if step else ents[src]
    ents[draw(st.lists(st.integers(0, n - 1), max_size=2))] = np.nan
    return store, model, draw(st.integers(1, n + 1))


def ranks_equal_oracle(case) -> bool:
    store, model, chunk_size = case
    index, known = build_filter_index(store), known_answers(store)
    return all(
        filtered_rank(model, triple, direction, index, chunk_size=chunk_size)
        == oracle_rank(model, triple, direction, known, score_fn=score)
        for triple in store.test
        for direction in Direction
    )


@PROPERTY
@given(near_tie_graphs())
def test_screened_ranks_equal_full_sort_oracle_on_near_ties(case):
    assert ranks_equal_oracle(case)


@PROPERTY
@given(near_tie_graphs(magnitudes=st.sampled_from([1e-40, 1e36, 1e39])))
def test_screened_ranks_equal_full_sort_oracle_at_float32_extremes(case):
    # the L1 screen's float32 underflows near 1e-40 and overflows past 3.4e38
    assert ranks_equal_oracle(case)


def misranked_without_the_band(monkeypatch, graphs, equals_oracle=ranks_equal_oracle):
    # the band is what makes a screen exact: without it some near-tie graph
    # is ranked differently from the oracle (a misranked query may rank 0,
    # which makes its cell's MRR inf)
    monkeypatch.setattr(evaluation, "_BAND_SAFETY", 0.0)
    with np.errstate(divide="ignore"):
        find(graphs, lambda case: not equals_oracle(case), settings=PROPERTY)


def test_screen_without_its_band_misranks_near_ties(monkeypatch):
    misranked_without_the_band(monkeypatch, near_tie_graphs(st.just("l2")))


def test_l1_screen_without_its_band_misranks_near_ties(monkeypatch):
    misranked_without_the_band(monkeypatch, near_tie_graphs(st.just("l1")))


def self_certified(chain, params, x, anchors, norm):
    """How many rows of ``x`` the norm's screen certifies against a query
    whose ground truth is the row itself: its own direct score against its
    anchor, the row of ``anchors`` with its index."""
    true_scores = evaluation._direct_scores(x.copy(), chain, params, anchors, norm)
    a, b = chain_affine_map(chain, params)
    screen = evaluation._screen_l1 if norm is Norm.L1 else evaluation._screen_l2
    counts = np.zeros((len(x), 2), dtype=np.int64)
    seg = np.zeros(len(x), dtype=np.int64)
    rows, queries = screen(counts, x, a[None], b[None], seg, anchors, true_scores)
    return len(x) - np.count_nonzero(rows == queries)


def test_no_screen_certifies_a_row_against_its_own_direct_score():
    """A candidate screened against its own direct score is never certified
    better or worse than itself, by either screen: the direct path applies
    the ``(A, b)`` the screens bound, within the rounding their bands allow.
    Random cases cover every chain, d up to 200 and magnitudes from 1e-30 to
    1e25.  Targeted ones translate by ``t``, with ``|t|`` far above
    ``|x|``, before a rotation by pi/4 that cancels ``t`` in one coordinate
    of each block, and scale the other coordinate to nearly zero; adding
    ``t`` in chain order, before the rotation, loses ``x`` to that
    cancellation."""
    rng = np.random.default_rng(16)

    def magnitude(*shape):
        return 10.0 ** rng.uniform(-30, 25, shape)

    cases = []
    for chain in CHAINS:
        for _ in range(16):
            d = int(rng.integers(1, 201))
            params = random_transform(rng, d)
            params.translation *= magnitude()
            params.scale *= magnitude()
            x, anchors = rng.normal(size=(2, 16, d)) * magnitude(2, 16, 1)
            cases.append((chain, params, x, anchors))
    for _ in range(64):
        d = 2 * int(rng.integers(1, 101))
        t = 10.0 ** rng.uniform(4, 14) * rng.normal(size=d // 2)
        params = TransformParams(
            np.stack([t, t + rng.normal(size=d // 2)], axis=-1).ravel(),
            np.full(d // 2, np.pi / 4),
            np.stack([rng.normal(size=d // 2), 10.0 ** rng.uniform(-30, -10, d // 2)], -1).ravel(),
        )
        x, anchors = rng.normal(size=(2, 16, d))
        cases.append(((S, R, T), params, x, anchors))
    for norm in Norm:
        assert sum(self_certified(*case, norm) for case in cases) == 0, norm


def cells_equal_oracle(case) -> bool:
    """Whether ``evaluate()``'s report equals the cells of the oracle's ranks."""
    store, model, chunk_size, by_category = case
    categories = categorize_relations(store) if by_category else None
    report = evaluate(model, store, "test", categories, chunk_size=chunk_size)
    known = known_answers(store)
    ranks = np.array(
        [
            [oracle_rank(model, triple, d, known, score_fn=score) for d in Direction]
            for triple in store.test
        ]
    )
    labels = np.array(
        [categories[r].category.value if categories else "all" for r in store.test[:, 1]]
    )
    cells = {
        direction.value: {c: MetricCell.from_ranks(ranks[labels == c, j]) for c in set(labels)}
        for j, direction in enumerate(Direction)
    }
    overall = MetricCell.from_ranks(ranks.ravel())
    return report.by_direction_category == cells and (
        report.mrr, report.hits1, report.hits3, report.hits10, report.triple_count
    ) == (overall.mrr, overall.hits1, overall.hits3, overall.hits10, len(store.test))


@st.composite
def fused_tie_graphs(draw, norms=norms):
    """Near-tie graphs at d = 16 or 24, where a tile holds 2 or 3 queries,
    with 4-8 test triples over 1-3 relations: one ``evaluate()`` call packs
    several groups into a tile and, under L2, cuts a large group across
    tiles."""
    graphs = near_tie_graphs(
        norms, dims=st.sampled_from([16, 24]), relations=st.integers(1, 3), tests=st.integers(4, 8)
    )
    return (*draw(graphs), draw(st.booleans()))


@pytest.mark.parametrize("norm", ["l1", "l2"])
@PROPERTY
@given(data=st.data())
def test_fused_screen_cells_equal_full_sort_oracle_on_near_ties(norm, data):
    assert cells_equal_oracle(data.draw(fused_tie_graphs(st.just(norm))))


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_fused_screen_without_its_band_misranks_near_ties(monkeypatch, norm):
    misranked_without_the_band(monkeypatch, fused_tie_graphs(st.just(norm)), cells_equal_oracle)


@st.composite
def grouped_eval_graphs(draw):
    """A planted-tie graph whose test split repeats relations: queries that
    share a (relation, direction) group, a duplicated test triple, and test
    triples that share a head (or a tail) and relation with another, so one
    query's ground truth is another query's filtered answer."""
    store, model, chunk_size = draw(planted_tie_graphs())
    n, test = store.n_entities, [tuple(t) for t in store.test.tolist()]
    taken = {tuple(t) for t in store.all_triples().tolist()}
    h, r, t = test[0]
    siblings = [(h, r, e) for e in range(n)] + [(e, r, t) for e in range(n)]
    for triple in draw(st.lists(st.sampled_from(siblings), max_size=3, unique=True)):
        if triple not in taken:
            taken.add(triple)
            test.append(triple)
    test += draw(st.lists(st.sampled_from(test), min_size=1, max_size=2))  # duplicates
    test = draw(st.permutations(test))
    store = replace(store, test=np.array(test, dtype=np.int64))
    return store, model, chunk_size, draw(st.booleans())


@PROPERTY
@given(grouped_eval_graphs())
def test_evaluate_cells_equal_full_sort_oracle(case):
    assert cells_equal_oracle(case)


@st.composite
def specs(draw, max_dim=8):
    """A spec over variant x chain orders x norm.  Chains without rotation
    also run at odd dimensions."""
    variant = draw(st.sampled_from(["head", "tail", "full"]))
    head = "" if variant == "tail" else draw(st.sampled_from(ORDERS))
    tail = "" if variant == "head" else draw(st.sampled_from(ORDERS))
    if "R" in head + tail:
        dim = 2 * draw(st.integers(1, max_dim // 2))
    else:
        dim = draw(st.integers(1, max_dim))
    return compound_spec(variant, head, tail, dim=dim, norm=draw(norms))


@st.composite
def score_cases(draw):
    """A spec, a random relation with or without shared rotation, and a head
    and a tail."""
    spec = draw(specs())
    rng = np.random.default_rng(draw(seeds))
    r = random_relation(rng, spec.dim, shared_rotation=draw(st.booleans()))
    return spec, r, rng.normal(size=spec.dim), rng.normal(size=spec.dim)


@PROPERTY
@given(score_cases())
def test_score_equals_block_matrix_oracle(case):
    spec, r, h, t = case
    np.testing.assert_allclose(
        score(h, r, t, spec), two_sided_score(h, r, t, spec), rtol=1e-12, atol=1e-12
    )


PRESET_FORMULAS = {
    "transe": transe_score,
    "rotate": rotate_score,
    "pairre": pairre_score,
    "linearre": linearre_score,
}


@PROPERTY
@given(st.sampled_from(sorted(PRESETS)), st.integers(1, 8), norms, seeds)
def test_preset_score_equals_classic_formula(name, dim, norm, seed):
    """Under a preset's spec the compound score is the classic model's
    formula, whatever the relation's other operator tables hold."""
    if name == "rotate":
        dim += dim % 2
    spec = PRESETS[name](dim, Norm(norm)).spec
    rng = np.random.default_rng(seed)
    r = random_relation(rng, dim)
    h, t = rng.normal(size=dim), rng.normal(size=dim)
    np.testing.assert_allclose(
        score(h, r, t, spec), PRESET_FORMULAS[name](h, r, t, spec.norm), rtol=1e-12, atol=1e-12
    )


@PROPERTY
@given(seeds, st.sampled_from(ORDERS), st.sampled_from(ORDERS), st.sampled_from([0.0, 0.3]))
def test_composed_and_inverted_block_maps_keep_the_bottom_row(seed, head, tail, zero):
    rng = np.random.default_rng(seed)
    spec = compound_spec("full", head, tail, dim=6)
    maps = []
    for _ in range(2):
        r = random_relation(rng, 6)
        for side in (r.head, r.tail):
            side.scale[rng.random(6) < zero] = 0.0
        maps.extend(relation_matrices(r, spec))
    m1, m1_hat, m2, m2_hat = maps
    inv, singular = invert_blocks(m1_hat)
    effective = (inv @ m1)[~singular]  # relation 1 as a one-sided map
    bottom = (0.0, 0.0, 1.0)
    for product in (m1 @ m2, m2_hat @ m1, inv[~singular], effective, effective @ m2[~singular]):
        assert (product[..., 2, :] == bottom).all()


def rough_model(rng, spec, n_entities, n_relations, shared_rotation):
    """A model of ``spec`` whose every table is drawn at random, so no
    parameter sits at its identity value and no score at a kink."""
    model = init_model(spec, n_entities, n_relations, rng, shared_rotation=shared_rotation)
    for table in model.tables().values():
        table[...] = rng.normal(size=table.shape)
    return model


@PROPERTY
@given(specs(), seeds, st.booleans())
def test_every_spec_has_block_matrices_and_diagnostics(spec, seed, shared_rotation):
    """At every dimension a spec allows, odd ones too, a chain's block
    matrices are the map that apply_chain runs, with its affine part
    sliced out of them, and every relation can be diagnosed and exported."""
    rng = np.random.default_rng(seed)
    model = rough_model(rng, spec, 3, 2, shared_rotation)
    d, blocks = spec.dim, (spec.dim + 1) // 2
    x = rng.normal(size=(4, d))
    homogeneous = np.concatenate([x, np.zeros((4, d % 2))], axis=1).reshape(4, blocks, 2)
    homogeneous = np.concatenate([homogeneous, np.ones((4, blocks, 1))], axis=2)
    for rid in range(model.n_relations):
        r = model.relation_params(rid)
        for chain, params in ((spec.head_chain, r.head), (spec.tail_chain, r.tail)):
            m = chain_block_matrices(chain, params)
            a, b = chain_affine_map(chain, params)
            assert m.shape == (blocks, 3, 3)
            assert (m[..., 2, :] == (0.0, 0.0, 1.0)).all()
            assert np.array_equal(m[..., :2, :2], a) and np.array_equal(m[..., :2, 2], b)
            mapped = np.einsum("kij,nkj->nki", m, homogeneous)[..., :2].reshape(4, -1)[:, :d]
            np.testing.assert_allclose(
                mapped, apply_chain(x, chain, params), rtol=1e-12, atol=1e-12
            )
        assert relation_diagnostics(model, rid).relation == rid
        exported = {row["component"] for row in export_relation_histograms(model, rid, bins=4)}
        names = {"T": "translation", "R": "rotation", "S": "scaling"}
        assert exported == {names[op.value] for op in spec.head_chain + spec.tail_chain}


@pytest.mark.parametrize("side", ["fixed", "candidates"])
@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "".join(op.value for op in c) or "empty")
@settings(PROPERTY, max_examples=10)
@given(st.integers(1, 3), st.integers(1, 4), seeds)
def test_chain_forward_equals_block_matrix_oracle(chain, side, batch, negatives, seed):
    """The kernel's forward against the block-matrix oracle, within rounding,
    for both broadcast shapes training uses (see the VJP test below), at
    d = 1, 2, 3 and 8 and on an empty batch.  Zero rows map exactly to
    ``chain_affine_map``'s ``b``, the screens' premise.  Non-contiguous
    inputs (a reversed-column view, a Fortran-order array and a column
    slice) give the same bits as their contiguous copies."""
    rng = np.random.default_rng(seed)
    rows = 1 if side == "fixed" else 1 + negatives
    for d, B in itertools.product((1, 2, 3, 8), (0, batch)):
        x = rng.normal(size=(B, rows, d))
        params = random_transform(rng, d, (B, 1))
        y, tape = chain_forward_tape(x, chain, params)
        row_params = [
            TransformParams(params.translation[i, 0], params.angles[i, 0], params.scale[i, 0])
            for i in range(B)
        ]
        want = [block_transform(x[i, j], chain, row_params[i]) for i in range(B) for j in range(rows)]
        np.testing.assert_allclose(y, np.reshape(want, x.shape), rtol=1e-12, atol=1e-12)
        b = chain_affine_map(chain, params)[1].reshape(B, 1, 2 * ((d + 1) // 2))[..., :d]
        zero = apply_chain(np.zeros(x.shape), chain, params)
        assert np.array_equal(zero, np.broadcast_to(b, zero.shape))
        wide = rng.normal(size=(B, rows, d + 3))
        for view in (x[..., ::-1], np.asfortranarray(x), wide[..., 1 : d + 1]):
            got = chain_forward_tape(view, chain, params)[0]
            assert np.array_equal(got, apply_chain(view.copy(order="C"), chain, params))


@pytest.mark.parametrize("side", ["fixed", "candidates"])
@pytest.mark.parametrize(
    "chain",
    [c for k in range(4) for c in itertools.permutations([T, R, S], k)],
    ids=lambda c: "".join(op.value for op in c) or "empty",
)
@settings(PROPERTY, max_examples=10)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), seeds)
def test_chain_backward_equals_block_matrix_vjp(chain, side, half, batch, negatives, seed):
    """The kernel's VJP against the block-matrix oracle, within rounding, for
    both broadcast shapes training uses: (B, 1, d) rows against (B, 1)
    parameters on the fixed side, and (B, 1+N, d) rows on the candidates'
    side; at an even and an odd dimension, and on an empty batch."""
    rng = np.random.default_rng(seed)
    rows = 1 if side == "fixed" else 1 + negatives
    for d, B in itertools.product((2 * half, 2 * half + 1), (0, batch)):
        x, g = rng.normal(size=(2, B, rows, d))
        params = random_transform(rng, d, (B, 1))
        gx, grads = chain_backward(g, params, chain_forward_tape(x, chain, params)[1])
        want_gx, want = chain_vjp(g, x, chain, params)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        for field in ("translation", "angles", "scale"):
            got = getattr(grads, field)
            assert got.shape == getattr(params, field).shape
            np.testing.assert_allclose(got, getattr(want, field), rtol=1e-12, atol=1e-12)


@st.composite
def batch_cases(draw):
    """A tiny rough model, a batch with its negatives, and a corruption mask:
    every row head-corrupted, every row tail-corrupted, or mixed."""
    spec = draw(specs(max_dim=4))
    n_entities, n_relations = draw(st.integers(2, 5)), draw(st.integers(1, 2))
    mask = draw(st.sampled_from(["head", "tail", "mixed"]))
    B, N = draw(st.integers(2 if mask == "mixed" else 1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    model = rough_model(rng, spec, n_entities, n_relations, draw(st.booleans()))
    positives = np.stack(
        [rng.integers(0, n, B) for n in (n_entities, n_relations, n_entities)], axis=1
    )
    neg_ids = rng.integers(0, n_entities, (B, N))
    corrupt_head = {
        "head": np.ones(B, bool), "tail": np.zeros(B, bool), "mixed": rng.permutation(B) % 2 == 0
    }[mask]
    config = TrainConfig(batch_size=B, negative_size=N, margin=draw(st.sampled_from([1.0, 6.0])))
    return model, positives, neg_ids, corrupt_head, config


@PROPERTY
@given(batch_cases())
def test_batch_gradients_match_central_differences(case):
    model, positives, neg_ids, corrupt_head, config = case
    _, _, grads = batch_loss_and_grads(model, positives, neg_ids, corrupt_head, config)
    _, frozen_loss = frozen_weight_loss(model, positives, neg_ids, corrupt_head, config)
    for name, (rows, analytic) in grads.items():
        table = model.table(name)
        numeric = np.array(
            [
                [central_difference_at(frozen_loss, table, (row, col), 1e-6) for col in cols]
                for row in rows
                for cols in [range(table.shape[1])]
            ]
        )
        assert rel_err(analytic, numeric) < 1e-6, name


# the models whose row parts are checked: (spec, shared rotation)
ROW_PART_MODELS = {
    "srt-l1-shared-rotation": (compound_spec("full", "SRT", "SRT", dim=6, norm="l1"), True),
    "rotate-l2": (preset_rotate(6, Norm.L2).spec, False),
    "pairre": (preset_pairre(5).spec, False),
    "head-trs": (compound_spec("head", "TRS", "", dim=6), False),
}


@st.composite
def row_part_cases(draw):
    """A rough model of ``ROW_PART_MODELS``, a batch of 1 to 9 rows over a
    few entities and relations (so ids recur across parts and sides), a
    mask leaving one group empty or mixing both, the caller's weights or
    none, and a part size of 1, 2 or 3 rows."""
    spec, shared_rotation = ROW_PART_MODELS[draw(st.sampled_from(list(ROW_PART_MODELS)))]
    n_entities, n_relations = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    B, N = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    mask = draw(st.sampled_from(["head", "tail", "mixed"]))
    rng = np.random.default_rng(draw(seeds))
    model = rough_model(rng, spec, n_entities, n_relations, shared_rotation)
    positives = np.stack(
        [rng.integers(0, n, B) for n in (n_entities, n_relations, n_entities)], axis=1
    )
    neg_ids = rng.integers(0, n_entities, (B, N))
    corrupt_head = {
        "head": np.ones(B, bool), "tail": np.zeros(B, bool), "mixed": rng.random(B) < 0.5
    }[mask]
    weights = rng.dirichlet(np.ones(N), size=B) if draw(st.booleans()) else None
    config = TrainConfig(batch_size=B, negative_size=N)
    return model, (positives, neg_ids, corrupt_head, config), weights, draw(st.integers(1, 3))


@PROPERTY
@given(row_part_cases())
def test_row_parts_change_no_bit(case):
    """Cut into row parts of 1 to 3 rows (run two at a time when a second
    CPU is there), a batch's mean loss, per-row losses and every table's
    rows and gradients are bit for bit those of the call in one part per
    group, and of ``summed_in_side_order``, which sums every table's rows
    group by group, corrupted side then other side, in one ``np.add.at``."""
    model, batch, weights, part_rows = case
    positives, neg_ids, corrupt_head, config = batch
    want = summed_in_side_order(model, *batch, weights=weights)
    assert_same_batch(batch_loss_and_grads(model, *batch, weights=weights), want)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_PART_BYTES", part_rows * (1 + config.negative_size) * model.dim * 8)
        assert_same_batch(batch_loss_and_grads(model, *batch, weights=weights), want)


@st.composite
def checkpoints(draw):
    """A rough model, its magnitude anywhere from float32's subnormals to
    near its largest values, with arbitrary names, step and RNG state."""
    spec = draw(specs(max_dim=4))
    n_entities, n_relations = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    model = rough_model(rng, spec, n_entities, n_relations, draw(st.booleans()))
    magnitude = draw(st.sampled_from([1e-42, 1e-3, 1.0, 1e30]))
    for table in model.tables().values():
        table *= magnitude
    model.step = draw(st.integers(0, 2**40))
    rng_state = np.random.default_rng(rng.integers(2**32)).bit_generator.state
    return Checkpoint(
        model=model,
        entity_names=[draw(st.text()) for _ in range(n_entities)],
        relation_names=[draw(st.text()) for _ in range(n_relations)],
        rng_state=draw(st.sampled_from([None, rng_state])),
    )


@PROPERTY
@given(checkpoints())
def test_checkpoint_round_trip_is_the_identity(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.ckpt"), Path(tmp, "second.ckpt")
        save_checkpoint(first, ckpt)
        loaded = load_checkpoint(first)
        save_checkpoint(second, loaded)
        again = load_checkpoint(second)
        assert first.read_bytes() == second.read_bytes()
    for name, table in ckpt.model.tables().items():
        np.testing.assert_array_equal(loaded.model.table(name), table.astype(np.float32))
        assert again.model.table(name).tobytes() == loaded.model.table(name).tobytes()
    for got in (loaded, again):
        model = got.model
        assert (model.spec, model.shared_rotation, model.step) == (
            ckpt.model.spec, ckpt.model.shared_rotation, ckpt.model.step
        )
        assert (got.entity_names, got.relation_names) == (ckpt.entity_names, ckpt.relation_names)
        assert got.rng_state == ckpt.rng_state

"""Property tests: the fast paths against the references in ``oracles`` on
generated inputs (QuickCheck-style, with Hypothesis).

The examples are derandomized, so every run checks the same inputs, and no
example database is written.  Continuous values come from a numpy generator
seeded by Hypothesis; the structure around them (sizes, chains, norms,
planted ties, block sizes) is drawn by Hypothesis itself.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from compound_kge.dataset import build_filter_index
from compound_kge.diagnostics import relation_matrices
from compound_kge.evaluation import Direction, filtered_rank
from compound_kge.scoring import compound_spec, score
from compound_kge.transforms import invert_blocks

from oracles import (
    known_answers,
    oracle_rank,
    random_model,
    random_relation,
    random_store,
    two_sided_score,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


# every nonempty chain, written as an order string
ORDERS = ["".join(p) for k in (1, 2, 3) for p in itertools.permutations("TRS", k)]
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
def score_cases(draw):
    """A spec over variant x chain orders x norm, a random relation with or
    without shared rotation, and a head and a tail.  Chains without rotation
    also run at odd dimensions."""
    variant = draw(st.sampled_from(["head", "tail", "full"]))
    head = "" if variant == "tail" else draw(st.sampled_from(ORDERS))
    tail = "" if variant == "head" else draw(st.sampled_from(ORDERS))
    dim = 2 * draw(st.integers(1, 4)) if "R" in head + tail else draw(st.integers(1, 8))
    spec = compound_spec(variant, head, tail, dim=dim, norm=draw(norms))
    rng = np.random.default_rng(draw(seeds))
    r = random_relation(rng, dim, shared_rotation=draw(st.booleans()))
    return spec, r, rng.normal(size=dim), rng.normal(size=dim)


@PROPERTY
@given(score_cases())
def test_score_equals_block_matrix_oracle(case):
    spec, r, h, t = case
    np.testing.assert_allclose(
        score(h, r, t, spec), two_sided_score(h, r, t, spec), rtol=1e-12, atol=1e-12
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

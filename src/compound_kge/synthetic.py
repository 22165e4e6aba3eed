"""Synthetic knowledge graphs realizing specific relation patterns.

Each generator emits a :class:`~compound_kge.dataset.TripleStore` whose
primary relation (id 0, named ``"target"``) realizes the named pattern
by construction, verified exhaustively before the store is returned.
Held-out triples are always entailed by the training split through the
pattern itself (reversal, inversion, relation equivalence, composition,
or implication), so a model that captures the pattern can actually
predict them.

Two patterns carry auxiliary relations: the one-to-many and
many-to-one stores pin the fanned-out side to shared anchor entities
through a ``slot`` relation and duplicate the mapping under a
``target_alias`` relation.  Without the anchors a translation-only
model could co-locate all fanned-out entities and sidestep the
cardinality conflict the pattern is supposed to create.
"""

from __future__ import annotations

import enum

import numpy as np

from .dataset import TripleStore, _check_disjoint, _triple_keys

__all__ = ["SyntheticPattern", "generate_synthetic_kg"]


class SyntheticPattern(enum.Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    INVERSE = "inverse"
    ONE_TO_N = "one_to_n"
    N_TO_ONE = "n_to_one"
    N_TO_N = "n_to_n"
    TRANSITIVE = "transitive"
    SUB_RELATION = "sub_relation"
    NON_COMMUTATIVE = "non_commutative"


def _store(n_entities, relation_names, train, valid, test) -> TripleStore:
    def arr(rows):  # distinct rows, sorted
        return np.unique(np.array(rows, dtype=np.int64).reshape(-1, 3), axis=0)

    store = TripleStore(
        n_entities=n_entities,
        n_relations=len(relation_names),
        train=arr(train),
        valid=arr(valid),
        test=arr(test),
        entity_names=[f"e{i}" for i in range(n_entities)],
        relation_names=list(relation_names),
    )
    _check_disjoint(store)
    return store


def _sample_pairs(rng, n_entities, n_pairs, ordered=False):
    """Distinct entity pairs without self-loops."""
    limit = n_entities * (n_entities - 1)
    if not ordered:
        limit //= 2
    if n_pairs > limit:
        raise ValueError(
            f"cannot draw {n_pairs} distinct pairs from {n_entities} entities"
        )
    pairs = set()
    while len(pairs) < n_pairs:
        a, b = rng.integers(0, n_entities, size=2)
        if a == b:
            continue
        key = (int(a), int(b)) if ordered else (min(int(a), int(b)), max(int(a), int(b)))
        pairs.add(key)
    return sorted(pairs)


def _split_indices(rng, n, holdout_fraction):
    """Index sets (train, valid, test); valid/test alternate inside the holdout."""
    order = rng.permutation(n)
    n_hold = max(2, int(round(holdout_fraction * n))) if n >= 4 else 0
    hold = order[:n_hold]
    return set(order[n_hold:].tolist()), set(hold[0::2].tolist()), set(hold[1::2].tolist())


def _generate_symmetric(rng, n_entities=120, n_pairs=None, holdout_fraction=0.4):
    """Symmetric matching: every entity has at most one partner.

    A matching is exactly representable by an operator whose square is
    the identity, so a model that learns the symmetry can rank every
    held-out reversal first.  Denser symmetric graphs force entities to
    co-locate (rotating twice along a path returns to the start), which
    caps the reachable MRR regardless of the operator.
    """
    if n_pairs is None:
        n_pairs = n_entities // 2
    if 2 * n_pairs > n_entities:
        raise ValueError("symmetric matching needs 2 * n_pairs <= n_entities")
    perm = rng.permutation(n_entities)
    pairs = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(n_pairs)]
    train, valid, test = [], [], []
    tr, va, te = _split_indices(rng, len(pairs), holdout_fraction)
    for i, (a, b) in enumerate(pairs):
        if i in tr:
            train += [(a, 0, b), (b, 0, a)]
        else:
            # one direction trains, the reverse is held out: predicting it
            # requires the relation to act symmetrically
            if rng.integers(0, 2):
                a, b = b, a
            train.append((a, 0, b))
            (valid if i in va else test).append((b, 0, a))
    store = _store(n_entities, ["target"], train, valid, test)
    facts, n = store.all_triples(), n_entities
    reverse = _triple_keys(facts[:, ::-1], n)
    assert np.array_equal(_triple_keys(facts, n), reverse), "symmetric closure violated"
    # under the closure, an entity with one partner heads one fact
    assert len(np.unique(facts[:, 0])) == len(facts), "matching violated"
    return store


def _generate_antisymmetric(rng, n_entities=60, n_pairs=150, holdout_fraction=0.2):
    pairs = _sample_pairs(rng, n_entities, n_pairs)
    # orient every pair low -> high: the reverse never occurs
    facts = [(a, 0, b) for a, b in pairs]
    tr, va, te = _split_indices(rng, len(facts), holdout_fraction)
    train = [facts[i] for i in tr]
    valid = [facts[i] for i in va]
    test = [facts[i] for i in te]
    store = _store(n_entities, ["target"], train, valid, test)
    facts, n = store.all_triples(), n_entities
    reverse = _triple_keys(facts[:, ::-1], n)
    assert not np.intersect1d(_triple_keys(facts, n), reverse).size, "antisymmetry violated"
    return store


def _generate_inverse(rng, n_entities=120, n_pairs=None, holdout_fraction=0.4):
    """Bijective pairing: ``target`` maps a to b, ``target_inverse`` b to a.

    A matching keeps both relations 1-to-1, so an operator pair with
    mutually inverse effective maps can fit the store exactly.
    """
    if n_pairs is None:
        n_pairs = n_entities // 2
    if 2 * n_pairs > n_entities:
        raise ValueError("inverse matching needs 2 * n_pairs <= n_entities")
    perm = rng.permutation(n_entities)
    pairs = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(n_pairs)]
    train, valid, test = [], [], []
    tr, va, te = _split_indices(rng, len(pairs), holdout_fraction)
    for i, (a, b) in enumerate(pairs):
        train.append((a, 0, b))
        inv = (b, 1, a)
        if i in tr:
            train.append(inv)
        else:
            (valid if i in va else test).append(inv)
    store = _store(n_entities, ["target", "target_inverse"], train, valid, test)
    facts, n = store.all_triples(), n_entities
    partners = _triple_keys(np.column_stack([facts[:, 2], 1 - facts[:, 1], facts[:, 0]]), n)
    assert np.array_equal(_triple_keys(facts, n), partners), "inverse closure violated"
    return store


def _generate_fanned(rng, n_groups=20, fan=4, one_to_n=True):
    """Shared machinery of the 1-to-N / N-to-1 stores.

    Each of ``n_groups`` hub entities maps to ``fan + 1`` spokes under
    both ``target`` and ``target_alias``; one target fact per hub is
    held out (still entailed through the alias).  Spoke j of every hub
    is pinned to anchor j by the ``slot`` relation, which stops the
    spokes of a hub from simply collapsing onto one point.
    """
    if n_groups < 2 or fan < 2:
        raise ValueError("need at least 2 groups and fan >= 2")
    n_spokes = fan + 1
    hubs = list(range(n_groups))
    spokes = [
        [n_groups + h * n_spokes + j for j in range(n_spokes)] for h in range(n_groups)
    ]
    anchors = [n_groups + n_groups * n_spokes + j for j in range(n_spokes)]
    n_entities = n_groups + n_groups * n_spokes + n_spokes

    def orient(a, b):
        return (a, 0, b) if one_to_n else (b, 0, a)

    def orient_alias(a, b):
        return (a, 1, b) if one_to_n else (b, 1, a)

    train, valid, test = [], [], []
    for h in hubs:
        held = int(rng.integers(0, n_spokes))
        for j, s in enumerate(spokes[h]):
            train.append(orient_alias(h, s))
            train.append((s, 2, anchors[j]))
            if j == held:
                (valid if h % 2 == 0 else test).append(orient(h, s))
            else:
                train.append(orient(h, s))
    store = _store(
        n_entities, ["target", "target_alias", "slot"], train, valid, test
    )

    facts = store.all_triples()
    heads, _, tails = facts[facts[:, 1] == 0].T
    many_side, single_side = (heads, tails) if one_to_n else (tails, heads)
    assert len(np.unique(single_side)) == len(single_side), "fanned side must be unique"
    assert np.all(np.unique(many_side, return_counts=True)[1] == n_spokes), "hub fan-out mismatch"
    return store


def _generate_n_to_n(rng, n_heads=30, n_tails=30, fan=6, holdout_fraction=0.15):
    """Random bipartite co-occurrence: every head links several tails
    and every tail several heads.

    Every core entity is additionally tagged with its own anchor entity
    through an injective ``tag`` relation.  The tags keep entities that
    share partners from simply merging into one point; the only way to
    satisfy the bipartite facts tightly is then to null out directions,
    i.e. drive scale entries toward zero.
    """
    if fan < 2 or fan > n_tails:
        raise ValueError("fan must be in [2, n_tails]")
    n_core = n_heads + n_tails
    heads = list(range(n_heads))
    tails = [n_heads + j for j in range(n_tails)]
    anchors = [n_core + i for i in range(n_core)]
    facts = []
    for i, h in enumerate(heads):
        # one systematic link keeps the tail-side degrees >= 2
        chosen = set([i % n_tails])
        while len(chosen) < fan:
            chosen.add(int(rng.integers(0, n_tails)))
        facts += [(h, 0, tails[j]) for j in sorted(chosen)]
    tr, va, te = _split_indices(rng, len(facts), holdout_fraction)
    train = [facts[i] for i in tr]
    train += [(x, 1, anchors[x]) for x in range(n_core)]
    store = _store(
        2 * n_core,
        ["target", "tag"],
        train,
        [facts[i] for i in va],
        [facts[i] for i in te],
    )
    facts = store.all_triples()
    heads, _, tails = facts[facts[:, 1] == 0].T
    assert np.mean(np.unique(heads, return_counts=True)[1]) >= 2, "heads must fan out"
    assert np.mean(np.unique(tails, return_counts=True)[1]) >= 2, "tails must fan in"
    return store


def _generate_transitive(rng, n_instances=50, holdout_fraction=0.3):
    """Chains e1 -r1-> e2 -r2-> e3 with the composite e1 -r3-> e3."""
    train, valid, test = [], [], []
    tr, va, te = _split_indices(rng, n_instances, holdout_fraction)
    for i in range(n_instances):
        e1, e2, e3 = 3 * i, 3 * i + 1, 3 * i + 2
        train += [(e1, 0, e2), (e2, 1, e3)]
        comp = (e1, 2, e3)
        if i in tr:
            train.append(comp)
        else:
            (valid if i in va else test).append(comp)
    store = _store(3 * n_instances, ["first", "second", "composite"], train, valid, test)
    facts = store.all_triples().tolist()
    firsts = {(h, t) for h, r, t in facts if r == 0}
    seconds = {(h, t) for h, r, t in facts if r == 1}
    composites = {(h, t) for h, r, t in facts if r == 2}
    derived = {(a, c) for a, b in firsts for b2, c in seconds if b == b2}
    assert derived == composites, "composition structure violated"
    return store


def _generate_sub_relation(rng, n_entities=80, n_pairs=120, extra_fraction=0.5, holdout_fraction=0.4):
    """``special`` implies ``general``; ``general`` also holds on extra pairs."""
    n_extra = int(round(n_pairs * extra_fraction))
    pairs = _sample_pairs(rng, n_entities, n_pairs + n_extra, ordered=True)
    rng.shuffle(pairs)
    special_pairs = pairs[:n_pairs]
    extra_pairs = pairs[n_pairs:]
    train, valid, test = [], [], []
    tr, va, te = _split_indices(rng, len(special_pairs), holdout_fraction)
    for i, (a, b) in enumerate(special_pairs):
        train.append((a, 1, b))  # the narrow relation always trains
        general = (a, 0, b)
        if i in tr:
            train.append(general)
        else:
            (valid if i in va else test).append(general)
    train += [(a, 0, b) for a, b in extra_pairs]
    store = _store(n_entities, ["general", "special"], train, valid, test)
    facts = store.all_triples().tolist()
    special = {(h, t) for h, r, t in facts if r == 1}
    general = {(h, t) for h, r, t in facts if r == 0}
    assert special <= general, "implication violated"
    assert general - special, "sub-relation must be strictly narrower"
    return store


def _generate_non_commutative(rng, n_instances=40, holdout_fraction=0.3):
    """Composing ``first . second`` and ``second . first`` lands on two
    different composite relations."""
    train, valid, test = [], [], []
    tr, va, te = _split_indices(rng, 2 * n_instances, holdout_fraction)
    for i in range(n_instances):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        base = 3 * n_instances
        a2, b2, c2 = base + 3 * i, base + 3 * i + 1, base + 3 * i + 2
        train += [(a, 0, b), (b, 1, c)]
        train += [(a2, 1, b2), (b2, 0, c2)]
        for k, comp in ((2 * i, (a, 2, c)), (2 * i + 1, (a2, 3, c2))):
            if k in tr:
                train.append(comp)
            else:
                (valid if k in va else test).append(comp)
    store = _store(
        6 * n_instances,
        ["first", "second", "first_then_second", "second_then_first"],
        train,
        valid,
        test,
    )
    facts = store.all_triples().tolist()
    r0 = {(h, t) for h, r, t in facts if r == 0}
    r1 = {(h, t) for h, r, t in facts if r == 1}
    r2 = {(h, t) for h, r, t in facts if r == 2}
    r3 = {(h, t) for h, r, t in facts if r == 3}
    comp_01 = {(a, c) for a, b in r0 for b2, c in r1 if b == b2}
    comp_10 = {(a, c) for a, b in r1 for b2, c in r0 if b == b2}
    assert comp_01 == r2 and comp_10 == r3, "ordered composition violated"
    assert r2.isdisjoint(r3), "the two composition orders must differ"
    return store


_GENERATORS = {
    SyntheticPattern.SYMMETRIC: _generate_symmetric,
    SyntheticPattern.ANTISYMMETRIC: _generate_antisymmetric,
    SyntheticPattern.INVERSE: _generate_inverse,
    SyntheticPattern.ONE_TO_N: lambda rng, **kw: _generate_fanned(rng, one_to_n=True, **kw),
    SyntheticPattern.N_TO_ONE: lambda rng, **kw: _generate_fanned(rng, one_to_n=False, **kw),
    SyntheticPattern.N_TO_N: _generate_n_to_n,
    SyntheticPattern.TRANSITIVE: _generate_transitive,
    SyntheticPattern.SUB_RELATION: _generate_sub_relation,
    SyntheticPattern.NON_COMMUTATIVE: _generate_non_commutative,
}


def generate_synthetic_kg(
    pattern: SyntheticPattern | str, seed: int = 0, **size_params
) -> TripleStore:
    """Generate a store realizing ``pattern``; deterministic per seed.

    Size keywords depend on the pattern (for instance ``n_entities`` and
    ``n_pairs`` for the pairwise patterns, ``n_groups`` and ``fan`` for
    the fanned ones).  Infeasible sizes raise ValueError.
    """
    if isinstance(pattern, str):
        pattern = SyntheticPattern(pattern.lower())
    rng = np.random.default_rng(seed)
    return _GENERATORS[pattern](rng, **size_params)

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext.errors import CycleDetected, DuplicateLabel, UnknownElement
from linext.poset import (
    Poset,
    _bits,
    _max_matching,
    comparability_profile,
    disjoint_sum,
    grid_poset,
    is_convex_in_grid,
    max_incomparable_pair,
    transitive_closure,
    transitive_reduction,
    _unpack_masks,
)
from linext.families import antichain, builtin_corpus, chain, random_poset, young_diagram
from linext.lattice import augmented_poset
from oracles import (
    box_ideal,
    brute_width,
    greedy_matching,
    konig_antichain,
    matmul_reduction,
    matrix_from_covers,
    max_bipartite_matching,
    pairwise_grid_poset,
    warshall_closure,
)
from conftest import random_posets, shuffled_chain


def vee() -> Poset:
    return Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])


def test_from_covers_closes_transitively():
    p = Poset.from_covers("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert p.less("a", "d")
    assert p.covers == (("a", "b"), ("b", "c"), ("c", "d"))


def test_redundant_generators_are_absorbed():
    p = Poset.from_covers("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    # (a, c) is implied, so it is not a cover
    assert p.covers == (("a", "b"), ("b", "c"))


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        Poset.from_covers("ab", [("a", "b"), ("b", "a")])


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        Poset.from_covers(["x", "x"], [])


def test_unknown_element_rejected():
    with pytest.raises(UnknownElement):
        Poset.from_covers("ab", [("a", "z")])


def test_dict_round_trip():
    p = vee()
    assert Poset.from_dict(p.to_dict()) == p


def test_dual_involution():
    p = vee()
    d = p.dual()
    assert d.less("b", "a") and d.less("c", "a")
    assert d.dual() == p


def test_subposet_keeps_induced_relations():
    p = Poset.from_covers("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
    q = p.subposet(["a", "c", "d"])
    assert q.less("a", "c")  # via the removed b
    assert q.less("a", "d")
    assert not q.comparable("c", "d")


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 130])
def test_mask_tables_match_their_definition(n):
    # one packbits per table must give the per-element masks bit for bit,
    # including across byte and 64-bit boundaries
    p = random_poset(n, min(0.3, 4 / max(n, 1)), seed=n)
    lt = p.lt

    def covers(i, j):
        return lt[i, j] and not (lt[i] & lt[:, j]).any()

    def mask(test):
        return tuple(sum(1 << j for j in range(n) if test(i, j)) for i in range(n))

    assert p._pred_masks == mask(lambda i, j: lt[j, i])
    assert p._succ_masks == mask(lambda i, j: lt[i, j])
    assert p._incomp_masks == mask(
        lambda i, j: i != j and not lt[i, j] and not lt[j, i]
    )
    assert p._upper_cover_masks == mask(covers)
    assert all(type(m) is int for m in p._incomp_masks)
    if n >= 64:  # the top byte of every table is in use
        for table in (p._pred_masks, p._incomp_masks):
            assert max(table).bit_length() == n


def test_chain_and_antichain_predicates():
    assert Poset.from_covers("abc", [("a", "b"), ("b", "c")]).is_chain()
    assert Poset.from_covers("abc", []).is_antichain()
    assert not vee().is_chain()
    assert not vee().is_antichain()


def test_incomparables_listing():
    p = vee()
    assert p.incomparables("b") == ("c",)
    assert p.incomparables("a") == ()


def test_disjoint_sum_width():
    p = disjoint_sum(vee(), Poset.from_covers("xy", [("x", "y")]))
    assert p.n == 5
    profile = comparability_profile(p)
    assert profile.width == 3  # {b, c} plus one of the new chain


@pytest.mark.parametrize("poset", random_posets(60, nmax=7, seed=101))
def test_width_matches_subset_search(poset):
    assert comparability_profile(poset).width == brute_width(poset)


def test_profile_antichain_is_one():
    for poset in random_posets(40, nmax=7, seed=102):
        profile = comparability_profile(poset)
        chain_free = profile.antichain
        assert len(chain_free) == profile.width
        for u in chain_free:
            for v in chain_free:
                assert u == v or not poset.comparable(u, v)


def test_profile_counts_agree_with_incomparables():
    p = vee()
    profile = comparability_profile(p)
    assert profile.counts == {"a": 0, "b": 1, "c": 1}
    assert profile.max_count == 1


MATCHING_INPUTS = {
    "corpus": lambda: [p for _, p in builtin_corpus()],
    "random2000": lambda: random_posets(2000, nmax=9, seed=23),
    "young13x5": lambda: [young_diagram((13,) * 5).poset],
    "random400": lambda: [random_poset(400, 0.05, seed=3)],
    "shuffled_chains": lambda: [shuffled_chain(n, seed) for n in (50, 170, 500) for seed in (0, 1)],
}


@pytest.mark.parametrize("name", MATCHING_INPUTS)
def test_matching_is_the_recursive_kuhn_matching(name):
    # the stack-based search tries successors in the order the recursive
    # one does, so from the same greedy start the match list, hence the
    # width and the antichain, is the same element for element
    for p in MATCHING_INPUTS[name]():
        adj = [list(_bits(m)) for m in p._succ_masks]
        match = max_bipartite_matching(adj, p.n, greedy_matching(adj, p.n))
        assert _max_matching(p._succ_masks) == match
        profile = comparability_profile(p)
        assert len(profile.antichain) == profile.width == p.n - sum(v != -1 for v in match)
        for u, v in itertools.combinations(profile.antichain, 2):
            assert not p.comparable(u, v)


@pytest.mark.parametrize("name", MATCHING_INPUTS)
def test_a_greedy_start_keeps_the_antichain(name):
    # the profile's matching starts from a greedy one, so its match list
    # may differ from the empty-start search's; König's antichain does not
    moved = 0
    for p in MATCHING_INPUTS[name]():
        succ = p._succ_masks
        match = max_bipartite_matching([list(_bits(m)) for m in succ], p.n)
        started = _max_matching(succ)
        assert sum(v != -1 for v in started) == sum(v != -1 for v in match)
        assert comparability_profile(p).antichain == konig_antichain(p, match)
        moved += started != match
    if name.startswith("random"):  # there it ends in other maximum matchings
        assert moved


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_closure_is_idempotent(n, data):
    rel = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                rel[i, j] = True
    closed = transitive_closure(rel)
    assert (transitive_closure(closed) == closed).all()


def _acyclic_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random pairs that climb a hidden random order: acyclic, often redundant."""
    rank = rng.sample(range(n), n)
    pairs = []
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        pairs.append((i, j) if rank[i] < rank[j] else (j, i))
    return pairs


@pytest.mark.parametrize("n", [0, 1, 8, 64, 65, 400])
def test_closure_matches_warshall(n):
    rng = random.Random(n)
    labels = [f"e{i}" for i in range(n)]
    for _ in range(3):
        pairs = _acyclic_pairs(n, rng)
        rel = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            rel[i, j] = True
        expected = warshall_closure(rel)
        closed = transitive_closure(rel)
        assert closed.dtype == bool and np.array_equal(closed, expected)
        # pairs the closure already implies, and repeats, change nothing
        implied = [tuple(ij) for ij in np.argwhere(expected & ~rel).tolist()]
        generators = pairs + rng.sample(implied, min(n, len(implied))) + pairs[: n // 2]
        rng.shuffle(generators)
        p = Poset.from_covers(labels, [(labels[i], labels[j]) for i, j in generators])
        assert np.array_equal(p.lt, expected)
        assert p == Poset(labels, expected)  # passes the checked constructor too


def test_closure_rejects_cycles_and_self_loops():
    rels = [[[1]], [[0, 1], [1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
    for rel in rels:
        with pytest.raises(CycleDetected, match="relation contains a cycle"):
            transitive_closure(np.array(rel, dtype=bool))
    ring = [(f"e{i}", f"e{(i + 1) % 400}") for i in range(400)]
    cases = [("a", [("a", "a")]), ("abc", [("a", "b"), ("b", "c"), ("c", "a")])]
    for labels, covers in cases + [([f"e{i}" for i in range(400)], ring)]:
        with pytest.raises(CycleDetected, match="cover relation generates a cycle"):
            Poset.from_covers(labels, covers)


def test_guard_messages_are_unchanged():
    with pytest.raises(DuplicateLabel, match="label 'x' appears twice"):
        Poset.from_covers(["x", "y", "x"], [])
    with pytest.raises(UnknownElement, match="unknown element 'z' in cover"):
        Poset.from_covers("ab", [("a", "b"), ("z", "a")])


def _generator_sets(n: int, rng: random.Random) -> list[list[tuple[int, int]]]:
    """Seeded generator sets on n elements, as index pairs.

    None at all; random pairs up a hidden order, redundant, then repeated;
    a chain given by every one of its relations; two chains with empty, full
    and random cross sets (x below y).
    """
    rank = rng.sample(range(n), n)
    by_rank = sorted(range(n), key=rank.__getitem__)
    pairs = _acyclic_pairs(n, rng)
    xs, ys = by_rank[: n // 2], by_rank[n // 2 :]
    chains = list(zip(xs, xs[1:])) + list(zip(ys, ys[1:]))
    return [
        [],
        pairs + pairs[: n // 2] + pairs[::3],
        [(a, b) for k, a in enumerate(by_rank) for b in by_rank[k + 1 :]],
        chains,
        chains + [(x, y) for x in xs for y in ys],
        chains + [(x, y) for x in xs for y in ys if rng.random() < 3 / n],
    ]


TABLES = ("_succ_masks", "_pred_masks", "_upper_cover_masks", "covers")


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 130, 400])
def test_from_covers_matches_the_matrix_route(n):
    # the tables from_covers keeps from its closure equal what closing a
    # boolean matrix and packing it back derives, under shuffled labels and
    # shuffled, redundant, repeated generators
    rng = random.Random(1000 + n)
    for gens in _generator_sets(n, rng):
        labels = [f"e{i}" for i in range(n)]
        rng.shuffle(labels)
        rng.shuffle(gens)
        covers = [(labels[i], labels[j]) for i, j in gens]
        p = Poset.from_covers(labels, covers)
        ref = matrix_from_covers(labels, covers)
        assert p.lt.dtype == bool and not p.lt.flags.writeable
        assert np.array_equal(p.lt, ref["lt"])
        assert np.array_equal(_unpack_masks(p._upper_cover_masks, p.n), ref["_cover_matrix"])
        for name in TABLES:
            assert getattr(p, name) == ref[name], name
        assert all(type(m) is int for name in TABLES[:3] for m in getattr(p, name))
        # a poset with no generators at hand derives the same tables from lt
        q = Poset._closed(tuple(labels), ref["lt"])
        assert q == p and all(getattr(q, name) == ref[name] for name in TABLES)


def _rejection(build, labels, covers):
    try:
        build(labels, covers)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("no exception")


def test_from_covers_rejects_as_the_matrix_route():
    ring = [(f"e{i}", f"e{(i + 1) % 400}") for i in range(400)]
    long = ([f"e{i}" for i in range(400)], ring + [("e0", "e7"), ("e3", "e90")])
    cases = [
        ("a", [("a", "a")]),  # self-loop
        ("abc", [("a", "b"), ("c", "c")]),
        ("abc", [("a", "b"), ("b", "a")]),  # 2-cycle
        ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]),
        long,  # long cycle with chords
        ("ab", [("a", "b"), ("z", "a")]),  # unknown lo
        ("ab", [("a", "z")]),  # unknown hi
        ("ab", [("y", "z")]),  # both unknown: lo is named
        ("ab", [("a", "a"), ("b", "z")]),  # unknown wins over a cycle read first
        (["x", "y", "x"], []),  # duplicate label
        (["x", "y", "x"], [("q", "x")]),  # duplicate before unknown
        (["x", "x"], [("x", "x")]),  # duplicate before self-loop
    ]
    seen = set()
    for labels, covers in cases:
        got = _rejection(Poset.from_covers, labels, covers)
        assert got == _rejection(matrix_from_covers, labels, covers)
        seen.add(got[0])
    assert seen == {CycleDetected, UnknownElement, DuplicateLabel}


def test_augmented_poset_is_none_on_contradictions():
    p = Poset.from_covers("abcd", [("a", "b"), ("b", "c")])
    assert augmented_poset(p, [("c", "a")]) is None
    assert augmented_poset(p, [("d", "a"), ("c", "d")]) is None
    assert augmented_poset(p, [("b", "b")]) is None
    q = augmented_poset(p, [("c", "d")])
    assert q == Poset.from_covers("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def test_long_chain_builds_closed():
    n = 3000
    labels = [f"c{i}" for i in range(n)]
    p = Poset.from_covers(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])
    assert np.array_equal(p.lt, np.triu(np.ones((n, n), dtype=bool), 1))


@pytest.mark.parametrize("n", [0, 1, 8, 64, 65, 400])
def test_reduction_matches_matmul(n):
    rng = random.Random(n)
    for _ in range(3):
        rel = np.zeros((n, n), dtype=bool)
        for i, j in _acyclic_pairs(n, rng):
            rel[i, j] = True
        lt = transitive_closure(rel)
        expected = matmul_reduction(lt)
        assert np.array_equal(transitive_reduction(lt), expected)
        p = Poset._closed(tuple(f"e{i}" for i in range(n)), lt)
        assert np.array_equal(_unpack_masks(p._upper_cover_masks, p.n), expected)
    # a chain numbered top down is the worst order for the unrenumbered union
    top_down = np.tril(np.ones((n, n), dtype=bool), -1)
    assert np.array_equal(transitive_reduction(top_down), matmul_reduction(top_down))


def test_unclosed_and_cyclic_matrices_keep_their_errors():
    cases = [
        ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], ValueError, "relation is not transitively closed"),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], ValueError, "relation is not transitively closed"),
        ([[1, 0], [0, 0]], CycleDetected, "relation contains a cycle"),
        ([[0, 1], [1, 0]], CycleDetected, "relation contains a 2-cycle"),
    ]
    for rel, error, message in cases:
        with pytest.raises(error, match=message):
            Poset("abc"[: len(rel)], np.array(rel, dtype=bool))
    n = 70  # past one machine word, with one pair of a 70-chain missing
    lt = np.triu(np.ones((n, n), dtype=bool), 1)
    lt[3, 50] = False
    with pytest.raises(ValueError, match="relation is not transitively closed"):
        Poset([f"e{i}" for i in range(n)], lt)


def test_families_build_closed_matrices():
    for n in (0, 1, 5, 70):
        for p in (chain(n), antichain(n)):
            assert p == Poset(p.labels, p.lt)
    left, right = chain(3), vee()
    both = disjoint_sum(left, right)
    assert both == Poset(both.labels, both.lt)


def test_derived_posets_match_the_checked_constructor():
    for p in random_posets(40, nmax=9, seed=3):
        assert p.dual() == Poset(p.labels, p.lt.T)
        keep = p.labels[::2]
        idx = [p.index(x) for x in keep]
        assert p.subposet(keep) == Poset(keep, p.lt[np.ix_(idx, idx)])


# -- max incomparable pairs ------------------------------------------------


def test_pair_exact_on_two_chains():
    from linext.families import two_equal_chains

    pair = max_incomparable_pair(two_equal_chains(3))
    assert pair.product == 9
    assert pair.mu == 1


def test_pair_greedy_reaches_max_pi():
    for poset in random_posets(30, nmax=8, seed=103):
        if poset.is_chain():
            continue
        profile = comparability_profile(poset)
        pair = max_incomparable_pair(poset, mode="greedy")
        assert pair.product >= profile.max_count
        assert len(pair.b) >= len(pair.a)
        for u in pair.a:
            for v in pair.b:
                assert not poset.comparable(u, v)


def test_pair_exact_dominates_greedy():
    for poset in random_posets(25, nmax=7, seed=104):
        if poset.is_chain():
            continue
        exact = max_incomparable_pair(poset, mode="exact")
        greedy = max_incomparable_pair(poset, mode="greedy")
        assert exact.product >= greedy.product
        assert greedy.mu <= 1


def test_pair_on_chain_raises():
    from linext.errors import NotApplicable
    from linext.families import chain

    with pytest.raises(NotApplicable):
        max_incomparable_pair(chain(4))


# -- grid embeddings -------------------------------------------------------


def test_grid_poset_product_order():
    p = grid_poset([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert p.less("1,1", "2,2")
    assert not p.comparable("1,2", "2,1")


def test_convexity_verdicts():
    square = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert is_convex_in_grid(square).convex
    assert is_convex_in_grid(square).ideal
    # remove the middle of a chain of cells: not convex
    gappy = [(1, 1), (1, 3)]
    assert not is_convex_in_grid(gappy).convex
    # skew shape: convex but not an ideal
    skew = [(1, 2), (2, 1), (2, 2)]
    verdict = is_convex_in_grid(skew)
    assert verdict.convex and not verdict.ideal


def test_grid_poset_matches_the_pairwise_order():
    # non-convex sets, where unit steps between cells would miss relations
    sets = [[(1, 1), (3, 3)], [(1, 2), (2, 1)], [(2, 5), (1, 1), (3, 2), (1, 7)]]
    sets += [[], [(1,)], [(4,), (2,), (9,)], [(1, 1, 1), (2, 2, 2), (1, 3, 1)]]
    rng = random.Random(31)
    for _ in range(200):
        d = rng.randint(1, 4)
        grid = list(itertools.product(range(1, 5), repeat=d))
        sets.append(rng.sample(grid, rng.randint(0, min(len(grid), 12))))
    for pts in sets:
        assert grid_poset(pts) == pairwise_grid_poset(pts), pts


def test_grid_poset_of_no_points_is_empty():
    p = grid_poset([])
    assert (p.labels, p.lt.shape) == ((), (0, 0))


def test_ideal_verdicts_match_the_box_enumeration():
    rng = random.Random(8)
    verdicts = []
    for _ in range(600):
        d = rng.randint(1, 3)
        grid = list(itertools.product(range(1, 5), repeat=d))
        if rng.random() < 0.5:  # a random set: almost never an ideal
            pts = rng.sample(grid, rng.randint(0, min(len(grid), 10)))
        else:  # an ideal, perhaps with one point taken out
            gens = rng.sample(grid, rng.randint(1, 3))
            pts = [q for q in grid if any(all(a <= b for a, b in zip(q, g)) for g in gens)]
            if rng.random() < 0.5:
                pts.remove(rng.choice(pts))
        verdict = is_convex_in_grid(pts).ideal
        assert verdict == box_ideal(pts), pts
        verdicts.append(verdict)
    assert 150 < sum(verdicts) < 450

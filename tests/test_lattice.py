import random
from fractions import Fraction

import pytest

from linext import lattice
from linext.errors import BudgetExceeded, ComparablePair, ConditionNullEvent
from linext.families import (
    antichain,
    builtin_corpus,
    chain,
    chain_plus_point,
    random_poset,
    young_diagram,
)
from linext.lattice import (
    DownsetLattice,
    EventSpec,
    augmented_poset,
    build_lattice,
    conditional_probability,
    count_extensions,
    event_probability,
    position_distribution,
    sample_extension,
    sample_extensions,
    sorting_probability,
)
from linext.poset import Poset
from oracles import (
    brute_conditional_probability,
    brute_count,
    brute_event_probability,
    brute_extensions,
    brute_marginal,
    brute_pair_counts,
    brute_sorting_probability,
)
from conftest import count_constructions, random_posets


def test_count_small_fixtures():
    assert count_extensions(chain(5)) == 1
    assert count_extensions(antichain(4)) == 24
    assert count_extensions(chain_plus_point(3)) == 3


@pytest.mark.parametrize("poset", random_posets(120, nmax=8, seed=11))
def test_count_matches_brute_force(poset):
    assert count_extensions(poset) == brute_count(poset)


def test_lattice_levels_partition_by_size():
    p = chain_plus_point(4)
    lat = build_lattice(p)
    for size, level in enumerate(lat.levels):
        for mask in level:
            assert bin(mask).count("1") == size
    assert lat.levels[0] == [0]
    assert lat.levels[-1] == [(1 << p.n) - 1]


def test_down_counts_sum_along_levels():
    # down * up over each level's ideals totals the extension count
    p = random_poset(7, 0.3, seed=42)
    lat = build_lattice(p)
    for level in lat.levels:
        assert sum(lat.down[m] * lat.up[m] for m in level) == lat.extension_count


def test_marginals_match_brute_force():
    for poset in random_posets(40, nmax=7, seed=12):
        lat = build_lattice(poset)
        margs = lat.marginals()
        for x in poset.labels:
            assert list(margs[x]) == brute_marginal(poset, x)


def test_marginals_rows_sum_to_one():
    p = random_poset(8, 0.25, seed=13)
    for probs in build_lattice(p).marginals().values():
        assert sum(probs) == 1


def test_position_distribution_mean_bounds():
    p = chain_plus_point(5)
    dist = position_distribution(p, "z")
    assert dist.mean == Fraction(3)  # uniform over 5 slots
    assert dist.variance() == Fraction(2)


def test_sorting_probability_matches_brute_force():
    for poset in random_posets(40, nmax=7, seed=14):
        labels = poset.labels
        for x in labels:
            for y in labels:
                if x < y and not poset.comparable(x, y):
                    assert sorting_probability(poset, x, y) == brute_sorting_probability(poset, x, y)


def test_sorting_probability_complement():
    p = random_poset(7, 0.2, seed=15)
    for x in p.labels:
        for y in p.labels:
            if x < y and not p.comparable(x, y):
                assert sorting_probability(p, x, y) + sorting_probability(p, y, x) == 1


def test_sorting_probability_rejects_equal():
    with pytest.raises(ComparablePair):
        sorting_probability(antichain(3), "a1", "a1")


def test_event_probability_matches_brute_force(rng):
    for poset in random_posets(30, nmax=7, seed=16):
        incomp = [
            (x, y)
            for x in poset.labels
            for y in poset.labels
            if x != y and not poset.comparable(x, y)
        ]
        if not incomp:
            continue
        pairs = [incomp[rng.randrange(len(incomp))] for _ in range(2)]
        spec = EventSpec.of(*pairs)
        assert event_probability(poset, spec) == brute_event_probability(poset, pairs)


def test_conditional_probability_matches_brute_force(rng):
    for poset in random_posets(30, nmax=7, seed=17):
        incomp = [
            (x, y)
            for x in poset.labels
            for y in poset.labels
            if x != y and not poset.comparable(x, y)
        ]
        if len(incomp) < 2:
            continue
        ev = [incomp[rng.randrange(len(incomp))]]
        given = [incomp[rng.randrange(len(incomp))]]
        try:
            got = conditional_probability(poset, EventSpec.of(*ev), EventSpec.of(*given))
        except ConditionNullEvent:
            continue
        assert got == brute_conditional_probability(poset, ev, given)


def test_contradictory_event_has_zero_probability():
    p = antichain(2)
    spec = EventSpec.of(("a1", "a2"), ("a2", "a1"))
    assert event_probability(p, spec) == 0


def test_conditioning_on_null_event_raises():
    p = chain(3)
    with pytest.raises(ConditionNullEvent):
        conditional_probability(p, EventSpec.of(("c1", "c2")), EventSpec.of(("c3", "c1")))


def test_event_conjunction_operator():
    p = antichain(3)
    both = EventSpec.of(("a1", "a2")) & EventSpec.of(("a2", "a3"))
    assert event_probability(p, both) == Fraction(1, 6)


# -- exact sampling --------------------------------------------------------


def test_samples_are_extensions():
    p = random_poset(7, 0.35, seed=18)
    pos = {lab: i for i, lab in enumerate(p.labels)}
    for sample in sample_extensions(p, 50, seed=5):
        ranks = {lab: k for k, lab in enumerate(sample)}
        for u, v in p.covers:
            assert ranks[u] < ranks[v]
        assert sorted(sample) == sorted(pos)


def test_sampling_is_deterministic_per_seed():
    p = random_poset(6, 0.3, seed=19)
    assert sample_extensions(p, 10, seed=1) == sample_extensions(p, 10, seed=1)
    assert sample_extension(p, seed=2) == sample_extension(p, seed=2)


def test_sampler_covers_all_extensions_uniformly():
    p = antichain(3)
    seen = {}
    for sample in sample_extensions(p, 3000, seed=7):
        seen[sample] = seen.get(sample, 0) + 1
    assert len(seen) == 6


def test_small_sample_set_is_exhaustive():
    p = chain(4)
    assert sample_extensions(p, 3, seed=0) == [("c1", "c2", "c3", "c4")] * 3


def test_sample_matches_brute_support():
    p = random_poset(5, 0.4, seed=20)
    allowed = set(brute_extensions(p))
    for sample in sample_extensions(p, 200, seed=3):
        assert sample in allowed


# -- budgets ---------------------------------------------------------------


def test_budget_exceeded_reports_sizes():
    p = antichain(12)  # 2^12 ideals
    with pytest.raises(BudgetExceeded) as info:
        count_extensions(p, budget=100)
    assert info.value.budget == 100
    assert info.value.nodes > 100


def test_budget_boundary_is_inclusive():
    p = antichain(3)
    assert count_extensions(p, budget=8) == 6


def test_cached_lattice_is_held_to_the_budget():
    p = antichain(10)
    assert count_extensions(p) == 3628800
    with pytest.raises(BudgetExceeded) as info:
        count_extensions(p, budget=5)
    assert (info.value.nodes, info.value.budget) == (1024, 5)
    assert count_extensions(p, budget=1024) == 3628800
    assert count_extensions(p) == 3628800


# -- events on the poset's own ideals ---------------------------------------


def _augmented_event(p, pairs):
    """Reference: count the extensions of the poset with the pairs added."""
    aug = augmented_poset(p, pairs)
    if aug is None:
        return Fraction(0)
    return Fraction(count_extensions(aug), count_extensions(p))


def _augmented_conditional(p, event, given):
    base = augmented_poset(p, given)
    if base is None:
        raise ConditionNullEvent("reference: null condition")
    return _augmented_event(base, event)


def _random_pairs(rng, labels):
    # u == v and pairs against the order are kept on purpose
    return [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(1, 3))]


def _assert_matches_augmented_route(p, rng):
    event = _random_pairs(rng, p.labels)
    given = _random_pairs(rng, p.labels)
    assert event_probability(p, EventSpec.of(*event)) == _augmented_event(p, event)
    try:
        expected = _augmented_conditional(p, event, given)
    except ConditionNullEvent:
        with pytest.raises(ConditionNullEvent):
            conditional_probability(p, event, given)
        return "null"
    assert conditional_probability(p, event, given) == expected
    return "zero" if expected == 0 else "positive"


def test_events_match_augmented_route_on_corpus():
    rng = random.Random(21)
    for _, p in builtin_corpus():
        for _ in range(5):
            _assert_matches_augmented_route(p, rng)


def test_events_match_augmented_route_on_random_posets():
    rng = random.Random(22)
    seen = set()
    for p in random_posets(2000, nmax=9, seed=23):
        seen.add(_assert_matches_augmented_route(p, rng))
    assert seen == {"null", "zero", "positive"}


def test_budget_threshold_is_the_augmented_lattice_size():
    p = antichain(6)
    given = [("a1", "a2"), ("a2", "a3")]
    event = [("a4", "a5")]
    assert DownsetLattice(augmented_poset(p, given)).node_count == 32
    with pytest.raises(BudgetExceeded):
        conditional_probability(p, event, given, budget=31)
    assert conditional_probability(p, event, given, budget=32) == Fraction(1, 2)
    checked = 0
    for q in random_posets(30, nmax=8, seed=24):
        pairs = [(q.labels[0], q.labels[-1])]
        aug = augmented_poset(q, pairs)
        if aug is None:
            continue
        checked += 1
        n_aug = DownsetLattice(aug).node_count
        event = [(q.labels[1], q.labels[0])]
        with pytest.raises(BudgetExceeded):
            conditional_probability(q, event, pairs, budget=n_aug - 1)
        got = conditional_probability(q, event, pairs, budget=n_aug)
        assert got == _augmented_conditional(q, event, pairs)
        # an unconditioned event also reads the poset's own lattice
        need = max(n_aug, DownsetLattice(q).node_count)
        with pytest.raises(BudgetExceeded):
            event_probability(q, pairs, budget=need - 1)
        assert event_probability(q, pairs, budget=need) == _augmented_event(q, pairs)
    assert checked == 20


def test_queries_share_one_lattice(monkeypatch):
    p = random_poset(8, 0.2, seed=25)
    built = count_constructions(monkeypatch, DownsetLattice, Poset)
    rng = random.Random(26)
    for _ in range(10):
        event_probability(p, _random_pairs(rng, p.labels))
    for _ in range(5):
        try:
            conditional_probability(p, _random_pairs(rng, p.labels), [rng.sample(p.labels, 2)])
        except ConditionNullEvent:
            pass
    assert built == ["DownsetLattice"]


# -- the successor kernel against a scan of every unplaced element ----------


def _scan_lattice(p):
    """Reference lattice: test every unplaced element at every ideal.

    Returns levels (in order of discovery), down and up counts, the edges
    in sweep order, and the pair counts summed over every later element.
    """
    n, pred = p.n, p._pred_masks
    full = (1 << n) - 1

    def addable(mask):
        return [x for x in range(n) if not (mask >> x) & 1 and not pred[x] & ~mask]

    levels, down = [[0]], {0: 1}
    for _ in range(n):
        grown = {}
        for mask in levels[-1]:
            for x in addable(mask):
                new = mask | 1 << x
                grown[new] = None
                down[new] = down.get(new, 0) + down[mask]
        levels.append(list(grown))
    up = {full: 1}
    for level in reversed(levels[:-1]):
        for mask in level:
            up[mask] = sum(up[mask | 1 << x] for x in addable(mask))
    edges = [(m, x, m | 1 << x) for level in levels for m in level for x in addable(m)]
    pairs = [[0] * n for _ in range(n)]
    for mask, x, new in edges:
        for y in range(n):
            if not (new >> y) & 1:
                pairs[x][y] += down[mask] * up[new]
    return levels, down, up, edges, pairs


def _assert_matches_scan(p):
    lat = build_lattice(p)
    levels, down, up, edges, pairs = _scan_lattice(p)
    # random_cwsig_instance draws from this order, so it is pinned too
    assert lat.levels == levels
    assert lat.down == down
    assert lat.up == up
    assert list(lat.edges()) == edges
    assert lat.pair_counts() == pairs
    assert lat.node_count == len(down)


def test_kernel_matches_scan_on_corpus():
    for _, p in builtin_corpus():
        _assert_matches_scan(p)


def test_kernel_matches_scan_on_random_posets():
    for p in random_posets(2000, nmax=9, seed=23):
        _assert_matches_scan(p)


def test_kernel_matches_scan_past_64_elements():
    p = young_diagram((13,) * 5).poset
    assert p.n == 65
    _assert_matches_scan(p)


def test_up_counts_extensions_of_the_complement():
    posets = [p for _, p in builtin_corpus()] + random_posets(150, nmax=7, seed=27)
    for p in posets:
        lat = build_lattice(p)
        for mask, count in lat.up.items():
            rest = [lab for i, lab in enumerate(p.labels) if not (mask >> i) & 1]
            assert count == brute_count(p.subposet(rest))


def test_pair_counts_match_brute_force():
    posets = [antichain(0), antichain(1), chain(4)]
    posets += [p for _, p in builtin_corpus()] + random_posets(150, nmax=8, seed=28)
    for p in posets:
        assert build_lattice(p).pair_counts() == brute_pair_counts(p)


def test_samples_pinned():
    # outputs of the free-bit-scan sampler this kernel replaced
    assert sample_extensions(random_poset(8, 0.25, seed=31), 3, seed=5) == [
        ("v5", "v6", "v7", "v3", "v2", "v4", "v1", "v8"),
        ("v5", "v6", "v3", "v7", "v2", "v4", "v1", "v8"),
        ("v5", "v6", "v3", "v2", "v4", "v7", "v1", "v8"),
    ]
    assert sample_extensions(young_diagram((3, 3, 2)).poset, 3, seed=9) == [
        ("1,1", "2,1", "1,2", "2,2", "1,3", "2,3", "3,1", "3,2"),
        ("1,1", "2,1", "3,1", "1,2", "2,2", "3,2", "1,3", "2,3"),
        ("1,1", "2,1", "1,2", "2,2", "1,3", "2,3", "3,1", "3,2"),
    ]
    assert sample_extensions(antichain(4), 4, seed=0) == [
        ("a3", "a2", "a1", "a4"),
        ("a3", "a2", "a4", "a1"),
        ("a3", "a2", "a1", "a4"),
        ("a2", "a1", "a3", "a4"),
    ]


def test_implied_pairs_read_the_cached_lattice(monkeypatch):
    p = chain_plus_point(4)  # c1 < c2 < c3, z free
    lat = build_lattice(p)
    calls = []
    down_pass = lattice._down_pass

    def counting(n, pred, cand, budget):
        calls.append(pred)
        return down_pass(n, pred, cand, budget)

    monkeypatch.setattr(lattice, "_down_pass", counting)
    assert event_probability(p, EventSpec(())) == 1
    assert event_probability(p, [("c1", "c3"), ("c2", "c3")]) == 1
    assert conditional_probability(p, [("c1", "c2")], [("c1", "c3")]) == 1
    assert calls == []
    assert event_probability(p, [("c1", "c3"), ("z", "c2")]) == Fraction(1, 2)
    assert len(calls) == 1
    c2 = p.index("c2")
    assert calls[0][c2] == p._pred_masks[c2] | 1 << p.index("z")
    # contradictory and u == v pairs still walk and count 0
    assert event_probability(p, [("c3", "c1")]) == 0
    assert event_probability(p, [("z", "z")]) == 0
    assert len(calls) == 3
    # the budget still bounds the lattice the answer comes from
    with pytest.raises(BudgetExceeded):
        event_probability(p, [("c1", "c2")], budget=lat.node_count - 1)
    assert event_probability(p, [("c1", "c2")], budget=lat.node_count) == 1

import random
from fractions import Fraction

import pytest

from linext.errors import BudgetExceeded, ComparablePair, ConditionNullEvent
from linext.families import (
    antichain,
    builtin_corpus,
    chain,
    chain_plus_point,
    random_poset,
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

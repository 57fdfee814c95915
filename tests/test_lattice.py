import random
from fractions import Fraction

import numpy as np
import pytest

from linext import lattice
from linext.errors import BudgetExceeded, ComparablePair, ConditionNullEvent
from linext.families import (
    antichain,
    builtin_corpus,
    chain,
    chain_plus_point,
    random_poset,
    two_equal_chains,
    young_diagram,
)
from linext.lattice import (
    DownsetLattice,
    EventSpec,
    SplitLattice,
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
from linext.poset import Poset, disjoint_sum
from oracles import (
    brute_conditional_probability,
    brute_count,
    brute_event_probability,
    brute_extensions,
    brute_marginal,
    brute_pair_counts,
    brute_sorting_probability,
    ideal_levels,
    lattice_edges,
    path_counts,
    weight_list_sampler,
)
from conftest import count_constructions, random_posets
from test_arrays import _held_arrays, _kernel


def test_count_small_fixtures():
    assert count_extensions(chain(5)) == 1
    assert count_extensions(antichain(4)) == 24
    assert count_extensions(chain_plus_point(3)) == 3


@pytest.mark.parametrize("poset", random_posets(120, nmax=8, seed=11))
def test_count_matches_brute_force(poset):
    assert count_extensions(poset) == brute_count(poset)


def test_lattice_levels_partition_by_size():
    p = chain_plus_point(4)
    levels = ideal_levels(DownsetLattice(p))
    for size, level in enumerate(levels):
        for mask in level:
            assert bin(mask).count("1") == size
    assert levels[0] == [0]
    assert levels[-1] == [(1 << p.n) - 1]


def test_down_counts_sum_along_levels():
    # down * up over each level's ideals totals the extension count
    p = random_poset(7, 0.3, seed=42)
    lat = DownsetLattice(p)
    down, up = path_counts(lat)
    for level in ideal_levels(lat):
        assert sum(down[m] * up[m] for m in level) == lat.extension_count


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


def _outcome(query, *args):
    """What a query returns, or the type and arguments of what it raises."""
    try:
        return query(*args)
    except BudgetExceeded as e:
        return type(e), e.args


def test_sorting_probability_is_the_one_pair_event(corpus):
    # both resolve one pair through the same step: every ordered pair on
    # fresh posets and on one that caches its lattice, split posets too;
    # under a budget below the lattice both raise the same (nodes, budget)
    # unless the poset orders the pair the other way
    posets = [p for _, p in corpus]
    posets += [
        disjoint_sum(young_diagram((3, 3, 2)).poset, young_diagram((4, 3)).poset),
        disjoint_sum(chain(3), antichain(2)),
    ]
    assert isinstance(build_lattice(posets[-2]), SplitLattice)
    for p in posets:
        pairs = [(x, y) for x in p.labels for y in p.labels if x != y]
        cached = Poset.from_dict(p.to_dict())
        nodes = build_lattice(cached).node_count
        for budget in (None, nodes - 1):
            for x, y in pairs:
                event = EventSpec.of((x, y))
                fresh = [Poset.from_dict(p.to_dict()) for _ in range(2)]
                got = _outcome(sorting_probability, fresh[0], x, y, budget)
                assert got == _outcome(event_probability, fresh[1], event, budget)
                assert _outcome(sorting_probability, cached, x, y, budget) == _outcome(
                    event_probability, cached, event, budget
                )
                if budget is not None:
                    assert (got == 0) == p.less(y, x)


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
    p = antichain(12)  # 12 one-element parts, 2 nodes each
    with pytest.raises(BudgetExceeded) as info:
        count_extensions(p, budget=20)
    assert info.value.budget == 20
    assert info.value.nodes > 20


def test_budget_boundary_is_inclusive():
    p = antichain(3)
    assert count_extensions(p, budget=8) == 6


def test_cached_lattice_is_held_to_the_budget():
    p = antichain(10)
    assert count_extensions(p) == 3628800
    with pytest.raises(BudgetExceeded) as info:
        count_extensions(p, budget=5)
    # ten one-element parts: 20 nodes built, not the product's 1024
    assert (info.value.nodes, info.value.budget) == (20, 5)
    assert count_extensions(p, budget=20) == 3628800
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
        own = build_lattice(q).node_count  # the nodes built, summed over q's parts
        implied = q.less(*pairs[0])
        n_cond = n_aug
        if implied:
            # the condition adds nothing and reads q's own lattice; the
            # event walks its own augmented ideals (a contradictory one
            # stops early, inside that bound here)
            with_event = augmented_poset(q, event)
            n_cond = max(own, 0 if with_event is None else DownsetLattice(with_event).node_count)
        with pytest.raises(BudgetExceeded):
            conditional_probability(q, event, pairs, budget=n_cond - 1)
        got = conditional_probability(q, event, pairs, budget=n_cond)
        assert got == _augmented_conditional(q, event, pairs)
        # an unconditioned event of one pair, open or implied, reads the
        # poset's own lattice
        with pytest.raises(BudgetExceeded):
            event_probability(q, pairs, budget=own - 1)
        assert event_probability(q, pairs, budget=own) == _augmented_event(q, pairs)
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


# -- one open pair from the cached lattice's pair counts ---------------------


def _one_open_pair_events(p, rng, sample=None):
    """Events of one pair (x, y) p may leave open, as (pairs, (x, y)).

    Every (x, y), or ``sample`` of them, u == v and pairs against the order
    included, alone; then a few repeated, or between pairs p orders.
    """
    labels = p.labels
    pairs = [(x, y) for x in labels for y in labels]
    ordered = [(x, y) for x, y in pairs if p.less(x, y)]
    if sample is not None:
        free = [(x, y) for x, y in pairs if x != y and not p.comparable(x, y)]
        against = [(y, x) for x, y in ordered[:3]]
        pairs = rng.sample(free, min(sample, len(free))) + against + [(labels[0],) * 2]
    events = [([pair], pair) for pair in pairs]
    for pair in rng.sample(pairs, min(4, len(pairs))):
        events.append(([pair, pair], pair))
        if ordered:
            events.append(([rng.choice(ordered), pair, rng.choice(ordered)], pair))
    return events


def _spy_down_pass(monkeypatch):
    """The real ``_down_pass``, and the list of the arguments of each call to it."""
    down_pass = lattice._down_pass
    calls = []

    def counting(*args):
        calls.append(args)
        return down_pass(*args)

    monkeypatch.setattr(lattice, "_down_pass", counting)
    return down_pass, calls


def _augmented_masks(p, pairs):
    """``pred`` and ``cand`` of ``p`` with each v also waiting for its u."""
    pred = list(p._pred_masks)
    cand = list(p._upper_cover_masks)
    for u, v in pairs:
        u, v = p.index(u), p.index(v)
        pred[v] |= 1 << u
        cand[u] |= 1 << v
    return pred, cand


def _assert_one_open_pair_reads_the_sweep(monkeypatch, p, events, brute):
    """``event_probability`` against the constrained down pass on the
    augmented ``pred``/``cand`` and, with ``brute``, the brute-force oracle."""
    down_pass, calls = _spy_down_pass(monkeypatch)
    total = count_extensions(p)
    counts = brute_pair_counts(p) if brute else None
    for pairs, (x, y) in events:
        got = event_probability(p, pairs)
        assert calls == []
        assert got == Fraction(down_pass(p.n, *_augmented_masks(p, pairs), None), total)
        if brute:
            assert got == Fraction(counts[p.index(x)][p.index(y)], total)
            if len(pairs) > 1:
                assert got == brute_event_probability(p, pairs)
    monkeypatch.undo()


def test_one_open_pair_matches_the_down_pass_on_corpus(monkeypatch):
    rng = random.Random(31)
    for _, p in builtin_corpus():
        _assert_one_open_pair_reads_the_sweep(monkeypatch, p, _one_open_pair_events(p, rng), True)


def test_one_open_pair_matches_the_down_pass_on_random_posets(monkeypatch):
    rng = random.Random(32)
    across = 0
    posets = random_posets(150, nmax=8, seed=33) + [_three_parts()]
    for p in posets:
        events = _one_open_pair_events(p, rng)
        _assert_one_open_pair_reads_the_sweep(monkeypatch, p, events, True)
        lat = build_lattice(p)
        if isinstance(lat, SplitLattice):
            part = {x: k for k, (idx, _) in enumerate(lat.parts) for x in idx}
            across += sum(
                part[p.index(x)] != part[p.index(y)] for pairs, (x, y) in events if len(pairs) == 1
            )
    assert across > 500


def test_one_open_pair_matches_the_down_pass_on_the_array_kernel(monkeypatch):
    p = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    lat = build_lattice(p)
    assert isinstance(lat, DownsetLattice) and lat._arrays is not None
    events = _one_open_pair_events(p, random.Random(34), sample=30)
    _assert_one_open_pair_reads_the_sweep(monkeypatch, p, events, False)


# -- conjunctions and conditionals by a masked pass over the cached lattice --


def _masked_queries(p, rng, count):
    """``count`` conjunctions and ``count`` (event, given) conditionals,
    then queries on the pairs of extreme windows.

    Two or three pairs p leaves open, each with a twist now and then: a
    repeat, a pair p orders, one against the order, its reverse (a cycle),
    or u == v.  Every fifth condition is null.  A pair (u, v) can break
    only at ideal sizes |down v| to n - |up u|, its window.  The last
    queries take the free pairs of the lowest window (v minimal, where p
    has one), the highest (u maximal), the narrowest (one level, where p
    has one) and two far apart (disjoint, where p has them).  A
    conditional whose event repeats its one-pair condition walks that
    pair's window alone.
    """
    labels = p.labels
    free = [(x, y) for x in labels for y in labels if x != y and not p.comparable(x, y)]
    ordered = [(x, y) for x in labels for y in labels if p.less(x, y)]
    window = {
        (x, y): (sum(p.less(z, y) for z in labels) + 1, p.n - 1 - sum(p.less(x, z) for z in labels))
        for x, y in free
    }

    def pairs():
        out = [rng.choice(free) for _ in range(rng.randint(2, 3))] if free else []
        twist = rng.randrange(8)
        if twist == 0:
            out.append(out[0] if out else (labels[0],) * 2)
        elif twist == 1 and ordered:
            out.insert(rng.randrange(len(out) + 1), rng.choice(ordered))
        elif twist == 2 and ordered:
            out.append(rng.choice(ordered)[::-1])
        elif twist == 3 and out:
            out.append(out[-1][::-1])
        elif twist == 4:
            out.append((rng.choice(labels),) * 2)
        return out

    events = [pairs() for _ in range(count)]
    conditionals = []
    for k in range(count):
        given = pairs()[: rng.randint(1, 3)]
        if k % 5 == 0 and free:
            x, y = rng.choice(free)
            given = [(x, y), (y, x)]
        conditionals.append((pairs()[: rng.randint(1, 3)], given))
    if free:
        low = min(free, key=lambda pair: window[pair][0])
        high = max(free, key=lambda pair: window[pair][1])
        narrow = min(free, key=lambda pair: window[pair][1] - window[pair][0])
        first = min(free, key=lambda pair: window[pair][1])
        last = max(free, key=lambda pair: window[pair][0])
        events += [[low, high], [narrow, narrow[::-1]], [first, last]]
        conditionals += [([low], [low]), ([narrow], [narrow]), ([high], [low]), ([last], [first])]
    return events, conditionals


def _assert_masked_route(monkeypatch, p, queries, brute):
    """Conjunctions and conditionals on ``p``'s cached array lattice, each
    against the constrained down pass on the augmented ``pred``/``cand``
    and, with ``brute``, the brute-force oracle; none calls ``_down_pass``.
    Returns the number of null conditions seen."""
    lat = build_lattice(p)
    assert isinstance(lat, DownsetLattice) and lat._arrays is not None
    down_pass, calls = _spy_down_pass(monkeypatch)
    total = count_extensions(p)

    def walked(pairs):
        return down_pass(p.n, *_augmented_masks(p, pairs), None)

    events, conditionals = queries
    nulls = 0
    # the conditionals first: an event of one open pair makes the pair
    # sweep, and a condition of one is read from it after that
    for event, given in conditionals:
        base = walked(given)
        if base == 0:
            nulls += 1
            with pytest.raises(ConditionNullEvent):
                conditional_probability(p, event, given)
            continue
        got = conditional_probability(p, event, given)
        assert got == Fraction(walked(given + event), base)
        if brute:
            assert got == brute_conditional_probability(p, event, given)
    for pairs in events:
        got = event_probability(p, pairs)
        assert got == Fraction(walked(pairs), total)
        if brute:
            assert got == brute_event_probability(p, pairs)
    assert calls == []
    monkeypatch.undo()
    return nulls


def test_masked_route_matches_the_down_pass_on_the_array_kernel(monkeypatch):
    p = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    queries = _masked_queries(p, random.Random(35), 40)
    assert _assert_masked_route(monkeypatch, p, queries, False) > 0


def test_masked_route_matches_the_down_pass_on_random_posets(monkeypatch):
    # connected posets, and split ones small enough to be built whole,
    # forced onto the array kernel
    rng = random.Random(36)
    checked = nulls = 0
    for p in random_posets(150, nmax=9, seed=37) + [young_diagram((3, 3, 2)).poset]:
        _kernel(monkeypatch, True)
        if not isinstance(build_lattice(p), DownsetLattice):
            continue
        nulls += _assert_masked_route(monkeypatch, p, _masked_queries(p, rng, 4), True)
        checked += 1
    assert checked > 120 and nulls > 50


def test_masked_pass_shares_one_pass_between_pair_lists(monkeypatch):
    _kernel(monkeypatch, True)
    p = young_diagram((3, 3, 2)).poset
    arrays = build_lattice(p)._arrays
    labels = p.labels
    sets = [
        [(labels[1], labels[3])],
        [(labels[1], labels[3]), (labels[6], labels[2])],
        [(labels[3], labels[1]), (labels[6], labels[2]), (labels[7], labels[5])],
        [(labels[0], labels[7]), (labels[7], labels[0])],
    ]
    got = arrays.masked([[(p.index(u), p.index(v)) for u, v in pairs] for pairs in sets])
    assert got == [brute_event_probability(p, pairs) * arrays.total for pairs in sets]


@pytest.mark.parametrize("shape", ["young13x5", "random40"])
def test_masked_route_matches_the_down_pass_on_wide_lattices(monkeypatch, shape):
    # two words per ideal, and levels of several chunks (up to 13,139
    # ideals on random40), each run of a level summed into its own sources
    p = young_diagram((13,) * 5).poset if shape == "young13x5" else random_poset(40, 0.1, seed=5)
    lat = build_lattice(p)
    chunks = max(len(level) for level in lat._arrays.runs)
    assert (p.n > 64, chunks > 1) == (shape == "young13x5", shape == "random40")
    _assert_masked_route(monkeypatch, p, _masked_queries(p, random.Random(p.n), 2), False)


def test_masked_pass_walks_only_the_levels_its_pairs_can_break(monkeypatch):
    # an ideal breaks (u, v) only if it holds v and not u, so only at sizes
    # |down v| to n - |up u|: the pass sums one level per step from the top
    # of the union of its pairs' windows down to the bottom, and reads the
    # levels outside it off the stored down and up counts
    _kernel(monkeypatch, True)
    p = random_poset(8, 0.2, seed=4)
    arrays = build_lattice(p)._arrays
    assert arrays is not None
    steps = []
    kernel = lattice._segment_sums
    monkeypatch.setattr(lattice, "_segment_sums", lambda counts, runs, m: steps.append(m) or kernel(counts, runs, m))
    lt, labels = p.lt, p.labels
    window = {
        (u, v): (int(lt[:, v].sum()) + 1, p.n - 1 - int(lt[u].sum()))
        for u in range(p.n) for v in range(p.n) if u != v and not lt[u, v] and not lt[v, u]
    }
    low = min(window, key=lambda pair: window[pair][0])
    high = max(window, key=lambda pair: window[pair][1])
    narrow = min(window, key=lambda pair: window[pair][1] - window[pair][0])
    first = min(window, key=lambda pair: window[pair][1])
    last = max(window, key=lambda pair: window[pair][0])
    # both ends, a window of one level inside, and two disjoint windows
    assert (window[low][0], window[high][1]) == (1, p.n - 1)
    assert window[narrow] == (3, 3) and window[first][1] < window[last][0]
    cases = [
        [[low]], [[high]], [[narrow]], [[low], [high]], [[first], [last]],
        [[narrow, narrow[::-1]]], [[first, last], [narrow]],
    ]
    for sets in cases:
        steps.clear()
        got = arrays.masked(sets)
        spans = [window[pair] for pairs in sets for pair in pairs]
        assert len(steps) == max(top for _, top in spans) - min(bottom for bottom, _ in spans)
        named = [[(labels[u], labels[v]) for u, v in pairs] for pairs in sets]
        assert got == [brute_event_probability(p, pairs) * arrays.total for pairs in named]
    assert arrays.masked([[narrow, narrow[::-1]]]) == [0]


def _route_pairs(p):
    """A conjunction of two pairs p leaves open, and a condition of one."""
    free = [(x, y) for i, x in enumerate(p.labels) for y in p.labels[i + 1 :] if not p.comparable(x, y)]
    return [free[0], free[-1][::-1]], [free[len(free) // 2]]


def _routes(monkeypatch, p, budget=None):
    """``_down_pass`` calls made by one conjunction and one conditional on ``p``."""
    event, given = _route_pairs(p)
    down_pass, calls = _spy_down_pass(monkeypatch)
    # the conditional first: an event builds and caches the lattice for
    # its denominator
    got = (conditional_probability(p, event, given, budget), event_probability(p, event, budget))
    monkeypatch.undo()
    expected = (
        Fraction(
            down_pass(p.n, *_augmented_masks(p, given + event), None),
            down_pass(p.n, *_augmented_masks(p, given), None),
        ),
        Fraction(down_pass(p.n, *_augmented_masks(p, event), None), count_extensions(p)),
    )
    assert got == expected
    return calls


def test_masked_route_needs_an_array_lattice_cached_within_the_budget(monkeypatch):
    young = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    event, given = _route_pairs(young)
    # no cached lattice: one constrained down pass per count, with the
    # augmented masks and the budget as given
    fresh = Poset.from_dict(young.to_dict())
    calls = _routes(monkeypatch, fresh, budget=10**6)
    assert [call[1:] for call in calls] == [
        (*_augmented_masks(fresh, pairs), 10**6) for pairs in (given, given + event, event)
    ]
    # the cached array lattice within the budget: no down pass at all
    nodes = build_lattice(young).node_count
    assert _routes(monkeypatch, young, budget=nodes) == []
    assert _routes(monkeypatch, young) == []
    # a cached lattice larger than the budget leaves the conditional's two
    # counts to the down pass (an event's denominator refuses that lattice)
    _, calls = _spy_down_pass(monkeypatch)
    conditional_probability(young, event, given, budget=nodes - 1)
    monkeypatch.undo()
    assert [call[1:] for call in calls] == [
        (*_augmented_masks(young, pairs), nodes - 1) for pairs in (given, given + event)
    ]
    # a dict-kernel lattice, and a split one, keep the down pass
    small = random_poset(9, 0.2, seed=3)
    assert build_lattice(small)._arrays is None
    assert len(_routes(monkeypatch, small)) == 3
    split = disjoint_sum(young_diagram((3, 3, 2)).poset, young_diagram((4, 3)).poset)
    assert isinstance(build_lattice(split), SplitLattice)
    assert len(_routes(monkeypatch, split)) == 3


def test_masked_route_keeps_the_budget_of_the_down_pass():
    # a conditional's budget bounds its augmented lattices, cached lattice
    # or not: the masked route reads only a cached lattice within the
    # budget, and that holds every augmented lattice
    p = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    event, given = _route_pairs(p)
    aug = DownsetLattice(augmented_poset(p, given)).node_count
    fresh = Poset.from_dict(p.to_dict())
    nodes = build_lattice(p).node_count
    assert aug < nodes
    expected = conditional_probability(p, event, given)
    for q in (fresh, p):
        for budget in (aug, nodes - 1, nodes):
            assert conditional_probability(q, event, given, budget) == expected
        with pytest.raises(BudgetExceeded):
            conditional_probability(q, event, given, aug - 1)
    assert "lattice" not in fresh._cache


def test_impossible_events_count_zero_under_any_budget():
    # an open pair u == v, or one the poset orders the other way, counts 0
    # before the pair-count, masked and down-pass routes, so a budget of 1
    # answers it and builds no lattice; low is not minimal, so a down pass
    # would meet more than one ideal
    p = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    labels = p.labels
    low, high = [(x, y) for x in labels for y in labels if p.less(x, y)][-1]
    free = next((x, y) for x in labels for y in labels if x != y and not p.comparable(x, y))
    for impossible in ((low, low), (high, low)):
        for pairs in ([impossible, free], [free, impossible], [impossible]):
            assert event_probability(p, pairs, budget=1) == 0
            with pytest.raises(ConditionNullEvent):
                conditional_probability(p, [free], pairs, budget=1)
    assert sorting_probability(p, high, low, budget=1) == 0
    with pytest.raises(ComparablePair):
        sorting_probability(p, low, low, budget=1)
    assert "lattice" not in p._cache


# -- a conditional's one open pair from pair counts the lattice already holds --


def _one_pair_conditionals(p, rng, count):
    """``count`` (event, given) pairs whose given leaves one pair open.

    The open pair (x, y) stands alone, beside a pair p orders, or twice;
    or the given is a pair against the order, or u == v (both null).
    """
    labels = p.labels
    free = [(x, y) for x in labels for y in labels if x != y and not p.comparable(x, y)]
    ordered = [(x, y) for x in labels for y in labels if p.less(x, y)]
    out = []
    for k in range(count):
        x, y = rng.choice(free)
        given = [[(x, y)], [(x, y), (x, y)], [(x, y)], [(x, x)], [(x, y)]][k % 5]
        if ordered and k % 5 == 2:
            given.insert(rng.randrange(2), rng.choice(ordered))
        elif ordered and k % 5 == 4:
            given = [rng.choice(ordered)[::-1]]
        event = [rng.choice(free + ordered) for _ in range(rng.randint(1, 2))]
        out.append((event, given))
    return out


def _open_pairs_walked(monkeypatch, p):
    """The number of open pairs of each ``_down_pass`` and ``masked`` count."""
    down_pass = lattice._down_pass
    masked = lattice._Arrays.masked
    walked = []

    def counting(n, pred, cand, budget):
        walked.append(sum((q & ~was).bit_count() for q, was in zip(pred, p._pred_masks)))
        return down_pass(n, pred, cand, budget)

    def counting_masked(self, sets):
        walked.extend(len(pairs) for pairs in sets)
        return masked(self, sets)

    monkeypatch.setattr(lattice, "_down_pass", counting)
    monkeypatch.setattr(lattice._Arrays, "masked", counting_masked)
    return walked


def _conditional_or_null(p, event, given, budget=None):
    try:
        return conditional_probability(p, event, given, budget)
    except ConditionNullEvent:
        return None


@pytest.mark.parametrize("arrays", [False, True])
def test_conditionals_read_pair_counts_the_lattice_holds(monkeypatch, arrays):
    # against the constrained route (no lattice cached) and the brute-force
    # oracle, on either kernel and on split lattices; a conditional never
    # starts the pair sweep, and once it is made no count of one open
    # pair is walked
    rng = random.Random(38)
    kinds = set()
    posets = [p for p in random_posets(80, nmax=8, seed=39) if not p.is_chain()]
    for p in posets + [_three_parts()]:
        _kernel(monkeypatch, arrays)
        queries = _one_pair_conditionals(p, rng, 5)
        fresh = Poset.from_dict(p.to_dict())
        expected = [_conditional_or_null(fresh, event, given) for event, given in queries]
        assert "lattice" not in fresh._cache
        for (event, given), want in zip(queries, expected):
            if want is None:
                assert brute_event_probability(p, given) == 0
            else:
                assert want == brute_conditional_probability(p, event, given)
        lat = build_lattice(p)
        kinds.add(type(lat).__name__ if isinstance(lat, SplitLattice) else lat._arrays is not None)
        assert [_conditional_or_null(p, e, g) for e, g in queries] == expected
        assert lat._pair_counts is None
        lat.pair_counts()
        walked = _open_pairs_walked(monkeypatch, p)
        assert [_conditional_or_null(p, e, g) for e, g in queries] == expected
        assert 1 not in walked
        if isinstance(lat, DownsetLattice):
            # past the budget the cached counts are not read (a split
            # lattice's budget is its parts', below what the walk holds)
            del walked[:]
            _conditional_or_null(p, *queries[0], budget=lat.node_count - 1)
            assert walked[0] == 1
        monkeypatch.undo()
    assert kinds == {arrays, "SplitLattice"}


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


def _assert_matches_scan(p, arrays: bool = False):
    lat = DownsetLattice(p)
    levels, down, up, edges, pairs = _scan_lattice(p)
    assert (lat._arrays is not None) == arrays
    if not arrays:
        # _walk lists each level in order of discovery, and
        # random_cwsig_instance draws from _walk's order, so it is pinned too
        assert ideal_levels(lat) == levels
        assert lattice_edges(lat) == edges
    else:  # the array kernel lists each level by key
        assert [sorted(level) for level in ideal_levels(lat)] == [sorted(level) for level in levels]
        assert sorted(lattice_edges(lat)) == sorted(edges)
    lat_down, lat_up = path_counts(lat)
    assert lat_down == down
    assert lat_up == up
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
    _assert_matches_scan(p, arrays=True)


def test_up_counts_extensions_of_the_complement():
    posets = [p for _, p in builtin_corpus()] + random_posets(150, nmax=7, seed=27)
    for p in posets:
        lat = DownsetLattice(p)
        for mask, count in path_counts(lat)[1].items():
            rest = [lab for i, lab in enumerate(p.labels) if not (mask >> i) & 1]
            assert count == brute_count(p.subposet(rest))


def test_pair_counts_match_brute_force():
    posets = [antichain(0), antichain(1), chain(4)]
    posets += [p for _, p in builtin_corpus()] + random_posets(150, nmax=8, seed=28)
    for p in posets:
        assert build_lattice(p).pair_counts() == brute_pair_counts(p)


def test_samples_pinned():
    # outputs of the free-bit-scan sampler this kernel replaced; the first
    # and last posets split but are small enough to be built whole
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


class _CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_sampler_matches_the_weight_list_draw(monkeypatch):
    # the draw below tot[s] in the index tables and the early stop keep
    # every seed's extensions: the weight-list loop is the reference
    dict_young = young_diagram((4, 3, 2)).poset
    young33 = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    young13x5 = young_diagram((13,) * 5).poset
    young8x8 = young_diagram((8,) * 8).poset
    split = disjoint_sum(young_diagram((5, 4, 3, 2)).poset, two_equal_chains(6))
    posets = [dict_young, young33, young13x5, split, antichain(0), chain(1), young8x8]
    posets += [antichain(2), antichain(4)]
    assert build_lattice(dict_young)._arrays is None
    assert build_lattice(young33)._arrays is not None and young33.n <= 64
    assert build_lattice(young13x5)._arrays is not None and young13x5.n > 64
    assert isinstance(build_lattice(split), SplitLattice)
    assert build_lattice(young8x8).extension_count >= 1 << 64
    fast = [[sample_extensions(p, 3, seed) for seed in range(50)] for p in posets]
    monkeypatch.setattr(DownsetLattice, "sampler", weight_list_sampler)
    for p, got in zip(posets, fast):
        assert got == [sample_extensions(p, 3, seed) for seed in range(50)]
    # antichain(2) draws below up = 2 from 2 bits, so some steps redraw
    monkeypatch.undo()
    rng = _CountingRandom(0)
    draw = build_lattice(antichain(2)).sampler()
    for _ in range(50):
        draw(rng)
    assert rng.calls > 50


def _lattices(lat) -> list[DownsetLattice]:
    """``lat`` itself, or the lattices of its parts."""
    return [part for _, part in lat.parts] if isinstance(lat, SplitLattice) else [lat]


def _assert_draws_match_the_weight_list(monkeypatch, p: Poset, seeds=range(6), count=4) -> None:
    """Table draws equal the weight-list draws, seed by seed, in extensions and generator state.

    The draws add only the sampler's tables (``_tables``) to each lattice,
    and no array to an array lattice's ``_arrays``.
    """
    lat = build_lattice(p)
    held = [
        (set(vars(part)), None if part._arrays is None else {id(a) for a in _held_arrays(vars(part._arrays))})
        for part in _lattices(lat)
    ]
    runs = []
    for oracle in (False, True):
        with monkeypatch.context() as m:
            if oracle:
                m.setattr(DownsetLattice, "sampler", weight_list_sampler)
            got = []
            for seed in seeds:
                rng = random.Random(seed)
                draw = lat.sampler()
                got.append(([draw(rng) for _ in range(count)], rng.getstate()))
            runs.append(got)
        if not oracle:
            for part, (names, arrays) in zip(_lattices(lat), held):
                assert set(vars(part)) == names | {"_tables"}
                assert part._arrays is None or {id(a) for a in _held_arrays(vars(part._arrays))} == arrays
    assert runs[0] == runs[1]


def test_table_draws_match_the_weight_list_on_the_corpus(monkeypatch):
    for _, p in builtin_corpus():
        assert all(part._arrays is None for part in _lattices(build_lattice(p)))
        _assert_draws_match_the_weight_list(monkeypatch, p)


def test_table_draws_match_the_weight_list_on_array_lattices(monkeypatch):
    young33 = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    random30 = random_poset(30, 0.12, seed=20)
    young13x5 = young_diagram((13,) * 5).poset
    young8x8 = young_diagram((8,) * 8).poset
    assert build_lattice(young33)._arrays is not None and young33.n <= 64
    parts = build_lattice(random30).parts
    assert [part._arrays is not None for idx, part in parts if len(idx) == 29] == [True]
    assert build_lattice(young13x5)._arrays is not None and young13x5.n > 64
    assert build_lattice(young8x8).extension_count >= 1 << 64
    for p in (young33, random30, young13x5, young8x8):
        _assert_draws_match_the_weight_list(monkeypatch, p)


def test_table_draws_match_the_weight_list_on_levels_of_several_runs(monkeypatch):
    monkeypatch.setattr(lattice, "_CHUNK", 16)
    for p in (young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset, young_diagram((6,) * 12).poset):
        arrays = build_lattice(p)._arrays
        assert arrays is not None and max(len(runs) for runs in arrays.runs) > 1
        _assert_draws_match_the_weight_list(monkeypatch, p)


def test_table_draws_match_the_weight_list_on_a_split_poset(monkeypatch):
    split = disjoint_sum(disjoint_sum(young_diagram((5, 4, 3, 2)).poset, two_equal_chains(6)), antichain(2))
    lat = build_lattice(split)
    assert isinstance(lat, SplitLattice)
    assert sorted(part._arrays is not None for _, part in lat.parts) == [False] * 4 + [True]
    _assert_draws_match_the_weight_list(monkeypatch, split)


def test_sampler_index_type_holds_every_index():
    assert lattice._index_type((1 << 31) - 1) is np.int32
    assert lattice._index_type(1 << 31) is np.int64
    for p in (young_diagram((4, 3, 2)).poset, young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset):
        lat = build_lattice(p)
        tot, first, et, ex = lat._tables
        assert (first.format, et.format, ex.format) == ("i", "i", "B")
        assert len(tot) == lat.node_count and len(et) == len(ex) == len(lattice_edges(lat))


def _public(lat) -> set[str]:
    return {name for name in dir(lat) if not name.startswith("_")}


def test_lattices_share_one_public_surface():
    # what a caller can read does not depend on the kernel the input picked,
    # and reading it builds nothing on an array lattice
    walked = DownsetLattice(young_diagram((4, 3, 2)).poset)
    small = DownsetLattice(young_diagram((8,) * 8).poset)
    wide = DownsetLattice(young_diagram((13,) * 5).poset)
    assert walked._arrays is None
    assert small._arrays is not None and small.poset.n <= 64
    assert wide._arrays is not None and wide.poset.n > 64
    names = _public(walked)
    assert names == {
        "extension_count",
        "marginals",
        "node_count",
        "pair_counts",
        "poset",
        "position_counts",
        "sampler",
    }
    assert _public(small) == _public(wide) == names
    split = build_lattice(disjoint_sum(young_diagram((5, 4, 3, 2)).poset, two_equal_chains(6)))
    assert isinstance(split, SplitLattice)
    assert _public(split) == names | {"parts"}
    for lat in (small, wide):
        held = set(vars(lat)), set(vars(lat._arrays))
        for name in names:
            getattr(lat, name)
        assert (set(vars(lat)), set(vars(lat._arrays))) == held


def test_negative_sample_count_is_refused_before_any_lattice(monkeypatch):
    built = []
    monkeypatch.setattr(lattice, "build_lattice", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="samples must be non-negative, got -2"):
        sample_extensions(young_diagram((3, 2)).poset, -2)
    assert built == []
    monkeypatch.undo()
    assert sample_extensions(young_diagram((3, 2)).poset, 0) == []


def test_zero_samples_build_no_lattice():
    # past the budget, but no extension is asked for
    p = young_diagram((4, 4, 4)).poset
    assert sample_extensions(p, 0, budget=3) == []
    assert "lattice" not in p._cache


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
    # one open pair, with ordered pairs or repeats beside it, reads the
    # cached lattice's pair counts; a contradictory or u == v pair reads 0
    assert event_probability(p, [("c1", "c3"), ("z", "c2")]) == Fraction(1, 2)
    assert event_probability(p, [("z", "c2"), ("z", "c2")]) == Fraction(1, 2)
    assert event_probability(p, [("c3", "c1")]) == 0
    assert event_probability(p, [("z", "z")]) == 0
    assert calls == []
    # two open pairs take one constrained down pass
    assert event_probability(p, [("c1", "z"), ("z", "c2")]) == Fraction(1, 4)
    assert len(calls) == 1
    c2 = p.index("c2")
    assert calls[0][c2] == p._pred_masks[c2] | 1 << p.index("z")
    # the budget still bounds the lattice the answer comes from
    for pair in [("c1", "c2"), ("z", "c2")]:
        with pytest.raises(BudgetExceeded):
            event_probability(p, [pair], budget=lat.node_count - 1)
        assert event_probability(p, [pair], budget=lat.node_count) > 0
    # a pair against the order, or u == v, needs no lattice at all
    assert event_probability(p, [("c3", "c1")], budget=1) == 0
    assert event_probability(p, [("z", "z")], budget=1) == 0


# -- posets that split into parts -------------------------------------------


def _three_parts():
    """Three connected parts of three elements each."""
    vee = Poset.from_covers("xyz", [("x", "y"), ("x", "z")])
    return disjoint_sum(disjoint_sum(chain(3), young_diagram((2, 1)).poset), vee)


def _folded(p):
    """The part-by-part lattice of ``p``, whatever its size."""
    return SplitLattice(p, lattice._components(p), lattice.DEFAULT_NODE_BUDGET)


def _assert_split_matches_whole(p):
    """Both entry paths against the whole lattice; True when p splits."""
    whole = DownsetLattice(p)
    parts = lattice._components(p)
    built = build_lattice(p)
    assert isinstance(built, SplitLattice) == (lattice._split(p) is not None)
    for lat in [built] + ([_folded(p)] if len(parts) > 1 else []):
        assert lat.extension_count == whole.extension_count
        assert lat.marginals() == whole.marginals()
        assert list(lat.marginals()) == list(p.labels)
        assert lat.pair_counts() == whole.pair_counts()
    return len(parts) > 1


def test_split_matches_whole_on_corpus():
    assert sum(_assert_split_matches_whole(p) for _, p in builtin_corpus()) > 0


def test_split_matches_whole_on_random_posets():
    posets = random_posets(2000, nmax=9, seed=23)
    assert sum(_assert_split_matches_whole(p) for p in posets) == 1127
    # 303 of them have at least lattice._SPLIT_MIN_IDEALS ideals by the parts' bound
    assert sum(isinstance(build_lattice(p), SplitLattice) for p in posets) == 303


def test_split_matches_whole_on_wide_inputs():
    antichain14 = antichain(14)
    random30 = random_poset(30, 0.12, seed=20)
    three = _three_parts()
    for p in (antichain14, random30, three):
        assert _assert_split_matches_whole(p)
    assert [len(idx) for idx, _ in build_lattice(random30).parts] == [29, 1]
    assert build_lattice(antichain14).node_count == 28
    assert [len(idx) for idx, _ in build_lattice(three).parts] == [3, 3, 3]


def test_split_matches_brute_force():
    posets = [_three_parts(), antichain(5), chain_plus_point(5)]
    posets += [p for p in random_posets(150, nmax=8, seed=28) if len(lattice._components(p)) > 1]
    for p in posets:
        lat = _folded(p)
        assert lat.extension_count == brute_count(p)
        assert lat.pair_counts() == brute_pair_counts(p)
        for x in p.labels:
            assert list(lat.marginals()[x]) == brute_marginal(p, x)


def test_split_parts_are_cached_on_the_part_posets():
    lat = build_lattice(_three_parts())
    for idx, part in lat.parts:
        assert build_lattice(part.poset) is part
        assert part.poset.labels == tuple(lat.poset.labels[i] for i in idx)


def test_split_budget_is_the_sum_of_the_parts():
    parts = [DownsetLattice(part.poset).node_count for _, part in build_lattice(_three_parts()).parts]
    nodes = sum(parts)
    assert nodes < DownsetLattice(_three_parts()).node_count
    with pytest.raises(BudgetExceeded) as info:
        count_extensions(_three_parts(), budget=nodes - 1)
    assert (info.value.nodes, info.value.budget) == (nodes, nodes - 1)
    # an earlier part past the budget raises before a later part is built
    with pytest.raises(BudgetExceeded) as info:
        count_extensions(_three_parts(), budget=parts[0] - 1)
    assert (info.value.nodes, info.value.budget) == (parts[0], parts[0] - 1)
    p = _three_parts()
    assert count_extensions(p, budget=nodes) == brute_count(p)
    assert build_lattice(p).node_count == nodes


def _chi_square(observed, expected):
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected) if e)


def test_split_samples_follow_the_exact_law():
    # chi-square of each element's sampled position against its exact law;
    # the bound is the 0.999 quantile for the cells with positive mass
    from scipy.stats import chi2

    p = _three_parts()
    count = 6000
    samples = sample_extensions(p, count, seed=41)
    allowed = set(brute_extensions(p))
    assert all(s in allowed for s in samples)
    for x in p.labels:
        law = position_distribution(p, x).probs
        seen = [0] * p.n
        for s in samples:
            seen[s.index(x)] += 1
        cells = sum(1 for q in law if q)
        assert all(seen[k] == 0 for k, q in enumerate(law) if not q)
        expected = [float(q) * count for q in law]
        assert _chi_square(seen, expected) < chi2.ppf(0.999, cells - 1), x


def test_split_samples_pinned():
    # each part drawn from its lattice, then a uniform interleaving
    assert sample_extensions(antichain(7), 2, seed=0) == [
        ("a7", "a1", "a6", "a2", "a5", "a3", "a4"),
        ("a1", "a4", "a5", "a2", "a6", "a7", "a3"),
    ]
    assert sample_extensions(_three_parts(), 2, seed=4) == [
        ("1,1", "2,1", "x", "c1", "c2", "c3", "y", "1,2", "z"),
        ("1,1", "x", "2,1", "c1", "y", "z", "1,2", "c2", "c3"),
    ]


def test_split_sampler_draws_parts_then_an_interleaving():
    p = _three_parts()
    lat = build_lattice(p)
    rng = random.Random(3)
    got = lat.sampler()(rng)
    replay = random.Random(3)
    orders = [[idx[x] for x in part.sampler()(replay)] for idx, part in lat.parts]
    tags = [0] * 3 + [1] * 3 + [2] * 3
    replay.shuffle(tags)
    assert got == [orders[k].pop(0) for k in tags]

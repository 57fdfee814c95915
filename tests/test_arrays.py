"""The array kernel against the dict kernel, brute force and its own bounds."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from linext import lattice
from linext.errors import BudgetExceeded
from linext.families import (
    antichain,
    builtin_corpus,
    chain,
    grid_ideal,
    random_poset,
    two_equal_chains,
    young_diagram,
)
from linext.lattice import (
    DownsetLattice,
    EventSpec,
    build_lattice,
    conditional_probability,
    event_probability,
    sample_extensions,
)
from linext.poset import Poset, disjoint_sum
from oracles import (
    brute_count,
    brute_marginal,
    brute_pair_counts,
    gather_float64,
    hook_length_count,
    ideal_levels,
    lattice_edges,
    path_counts,
    rescan_ideal_floor,
)
from conftest import random_posets, shuffled_chain


def _kernel(monkeypatch, arrays: bool) -> None:
    """Route every lattice and event pass the array kernel can hold to one kernel."""
    monkeypatch.setattr(lattice, "_arrays_win", lambda n, pred, floor: arrays and lattice._arrays_fit(n, pred))


def _fresh(p: Poset) -> Poset:
    return Poset.from_dict(p.to_dict())


def _both(monkeypatch, p: Poset) -> tuple[DownsetLattice, DownsetLattice]:
    _kernel(monkeypatch, True)
    arrays = DownsetLattice(_fresh(p))
    _kernel(monkeypatch, False)
    walked = DownsetLattice(_fresh(p))
    assert arrays._arrays is not None and walked._arrays is None
    return arrays, walked


def _assert_same(monkeypatch, p: Poset, ideals: bool = True) -> None:
    arrays, walked = _both(monkeypatch, p)
    assert arrays.extension_count == walked.extension_count
    assert arrays.node_count == walked.node_count
    assert arrays.pair_counts() == walked.pair_counts()
    assert arrays.position_counts() == walked.position_counts()
    assert arrays.marginals() == walked.marginals()
    if ideals:
        # the array kernel lists each level by key, the dict kernel by discovery
        assert [sorted(level) for level in ideal_levels(arrays)] == [sorted(level) for level in ideal_levels(walked)]
        (arrays_down, arrays_up), (walked_down, walked_up) = path_counts(arrays), path_counts(walked)
        assert arrays_down == walked_down
        assert arrays_up == walked_up
        assert sorted(lattice_edges(arrays)) == sorted(lattice_edges(walked))


def test_primes_cover_every_count_bound_the_rule_admits():
    assert len(set(lattice._PRIMES)) == len(lattice._PRIMES)
    for q in lattice._PRIMES:
        assert q < 2**31
        assert q % 2 and all(q % d for d in range(3, math.isqrt(q) + 1, 2))
    assert lattice._PRIME_PRODUCT == math.prod(lattice._PRIMES) > math.factorial(128)
    # past 64 elements the rule admits a poset whose chain code fits 64
    # bits only when the primes cover its count bound: two chains of 65 do,
    # eight chains of 40 do not
    for width, n, fits in ((2, 130, True), (8, 320, False)):
        pred = [1 << (x - width) if x >= width else 0 for x in range(n)]
        assert lattice._chain_code(n, pred)[1] <= 2**64
        assert (lattice._count_bound(n, pred) < lattice._PRIME_PRODUCT) == fits
        assert lattice._arrays_fit(n, pred) == fits


def test_crt_rebuilds_values_below_the_product():
    rng = random.Random(3)
    for k in range(1, len(lattice._PRIMES) + 1):
        top = math.prod(lattice._PRIMES[:k])
        values = [0, 1, top - 1] + [rng.randrange(top) for _ in range(20)]
        res = np.array([[v % q for v in values] for q in lattice._PRIMES[:k]], dtype=np.int64)
        assert lattice._crt(res) == values
        assert lattice._primes_over(top - 1) == k


def test_bounds_bracket_the_lattice():
    posets = [p for _, p in builtin_corpus()] + random_posets(300, nmax=9, seed=41)
    for p in posets:
        lat = DownsetLattice(p)
        pred = p._pred_masks
        assert lattice._ideal_floor(p.n, pred, p._upper_cover_masks) <= lat.node_count
        assert lattice._count_bound(p.n, pred) >= lat.extension_count


def test_regime_follows_the_input():
    def win(p):
        pred = p._pred_masks
        return lattice._arrays_win(p.n, pred, lattice._ideal_floor(p.n, pred, p._upper_cover_masks))

    for p in random_posets(500, nmax=10, seed=42):
        assert not win(p)  # verify's sizes stay on the dict kernel
    assert not win(chain(40))
    r30 = random_poset(30, 0.12, seed=20)
    (big,) = [idx for idx in lattice._components(r30) if len(idx) > 1]
    part = r30.subposet(r30.labels[i] for i in big)
    for p in (young_diagram((8,) * 8).poset, part, young_diagram((13,) * 5).poset):
        assert win(p)
        assert DownsetLattice(p)._arrays is not None


def test_arrays_match_the_dict_kernel_on_corpus(monkeypatch):
    for _, p in builtin_corpus():
        _assert_same(monkeypatch, p)


def test_arrays_match_the_dict_kernel_on_random_posets(monkeypatch):
    for p in random_posets(2000, nmax=9, seed=23):
        _assert_same(monkeypatch, p)


def test_arrays_match_the_dict_kernel_on_wide_inputs(monkeypatch):
    r30 = random_poset(30, 0.12, seed=20)
    for p in (young_diagram((8,) * 8).poset, r30, two_equal_chains(20)):
        _assert_same(monkeypatch, p, ideals=p.n < 64)


def _crossed_chains(width: int, height: int) -> Poset:
    """``width`` chains of ``height``, joined by covers two steps up the next chain."""
    labels = [f"c{i}_{h}" for i in range(width) for h in range(height)]
    covers = [(f"c{i}_{h}", f"c{i}_{h + 1}") for i in range(width) for h in range(height - 1)]
    covers += [(f"c{i}_{h}", f"c{i + 1}_{h + 2}") for i in range(width - 1) for h in range(0, height - 2, 3)]
    covers += [(f"c{i + 1}_{h}", f"c{i}_{h + 2}") for i in range(width - 1) for h in range(1, height - 2, 4)]
    return Poset.from_covers(labels, covers)


def test_arrays_match_the_dict_kernel_past_64_elements(monkeypatch):
    # two words per ideal, levels sorted by the chain code
    for p in (young_diagram((13,) * 5).poset, two_equal_chains(40), _crossed_chains(4, 20)):
        assert p.n > 64
        _assert_same(monkeypatch, p)


def test_each_level_is_one_edge_table(monkeypatch):
    # chunks of 3 cut the levels into several runs, one per build chunk,
    # and each run into several sweep chunks
    monkeypatch.setattr(lattice, "_CHUNK", 3)
    for p in (young_diagram((4, 3, 3, 1)).poset, _crossed_chains(3, 22)):
        arrays, walked = _both(monkeypatch, p)
        tables = arrays._arrays.runs
        levels = ideal_levels(arrays)
        per_level: list[list[tuple[int, int]]] = [[] for _ in range(p.n)]
        for mask, x, _ in lattice_edges(walked):
            per_level[mask.bit_count()].append((mask, x))
        assert len(tables) == p.n
        assert max(len(level) for level in levels) > 3 and max(sum(len(r[0]) for r in t) for t in tables) > 6
        assert max(len(t) for t in tables) > 1
        for t, runs in enumerate(tables):
            found, reached = [], set()
            for c, (tgt, starts, sources, x) in enumerate(runs):
                # run c holds the edges leaving chunk c of the level, and
                # starts marks each source's first edge (every ideal below
                # the top has one)
                assert sources == slice(3 * c, min(3 * c + 3, len(levels[t])))
                assert len(starts) == sources.stop - sources.start and starts[0] == 0
                assert (np.diff(starts) > 0).all() and starts[-1] < len(tgt) == len(x)
                src = np.repeat(np.arange(sources.start, sources.stop), np.diff(starts, append=len(tgt)))
                for i, e, j in zip(src.tolist(), x.tolist(), tgt.tolist()):
                    assert not levels[t][i] >> e & 1
                    assert levels[t + 1][j] == levels[t][i] | 1 << e
                    found.append((i, e))
                    reached.add(j)
            # by source, then ascending by element, each edge once, and
            # every edge of the level and ideal of the next one reached
            assert found == sorted(set(found))
            assert sorted((levels[t][i], e) for i, e in found) == sorted(per_level[t])
            assert reached == set(range(len(levels[t + 1])))


def _held_arrays(obj) -> list[np.ndarray]:
    """Every numpy array in ``obj``, through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for o in obj for a in _held_arrays(o)]
    return []


def test_an_array_lattice_holds_each_edge_once(monkeypatch):
    # the runs by source are the one edge store: per edge, its target and
    # element; per ideal below the top, its first edge
    for p in (young_diagram((8,) * 8).poset, young_diagram((13,) * 5).poset):
        arrays, walked = _both(monkeypatch, p)
        held = arrays._arrays
        assert not hasattr(held, "edges")
        # one array per quantity, over every ideal, cut into levels by ``at``
        per_ideal = {id(getattr(held, name)) for name in ("ideals", "down", "up")}
        nodes = held.at[-1]
        assert len(held.ideals) == held.down.shape[1] == held.up.shape[1] == nodes == arrays.node_count
        assert len(held.at) == p.n + 2 and held.at[:2] == [0, 1] and held.at[-2] == nodes - 1
        runs = [run for level in held.runs for run in level]
        assert sum(len(starts) for _, starts, _, _ in runs) == nodes - 1
        per_ideal |= {id(starts) for _, starts, _, _ in runs}
        per_edge = {id(a) for a in _held_arrays(vars(held))} - per_ideal
        assert per_edge == {id(a) for tgt, _, _, x in runs for a in (tgt, x)}
        edges = len(lattice_edges(walked))
        assert sum(len(tgt) for tgt, _, _, _ in runs) == sum(len(x) for _, _, _, x in runs) == edges


def test_an_array_lattice_keeps_nothing_its_queries_make(monkeypatch):
    # masked events, both sweeps and draws read the stored arrays and add
    # none to them, one word per ideal or two
    masked = []
    kernel = lattice._Arrays.masked
    monkeypatch.setattr(lattice._Arrays, "masked", lambda self, events: masked.append(events) or kernel(self, events))
    posets = (young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset, young_diagram((13,) * 5).poset)
    assert [p.n > 64 for p in posets] == [False, True]
    for p in posets:
        lat = build_lattice(p)
        held = lat._arrays
        assert held is not None
        before = {id(a) for a in _held_arrays(vars(held))}
        rng = random.Random(p.n)
        events = [[(p.labels[u], p.labels[v]) for u, v in pairs] for pairs in _open_events(p, rng)]
        calls = len(masked)
        event_probability(p, EventSpec.of(*events[0], *events[1]))
        conditional_probability(p, EventSpec.of(*events[1]), EventSpec.of(*events[2]))
        assert len(masked) > calls
        lat.position_counts()
        lat.pair_counts()
        sample_extensions(p, 20, seed=0)
        assert {id(a) for a in _held_arrays(vars(held))} == before


def _spy_segment_sums(monkeypatch) -> list[np.ndarray]:
    """Every result of the segment-sum kernel, in call order."""
    found: list[np.ndarray] = []
    kernel = lattice._segment_sums

    def spy(counts, runs, m):
        out = kernel(counts, runs, m)
        found.append(out.copy())  # the masked pass zeroes counts in place
        return out

    monkeypatch.setattr(lattice, "_segment_sums", spy)
    return found


def _key_order_edges(monkeypatch, p: Poset, levels: list[list[int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level, the dict kernel's edges as (source, target) positions in key order."""
    _kernel(monkeypatch, False)
    at = [{m: i for i, m in enumerate(level)} for level in levels]
    edges: list[list[tuple[int, int]]] = [[] for _ in levels[1:]]
    for mask, _, new in lattice_edges(DownsetLattice(_fresh(p))):
        t = mask.bit_count()
        edges[t].append((at[t][mask], at[t + 1][new]))
    return [tuple(np.array(e).T) for e in edges]


def _assert_passes_match_the_float64_gather(monkeypatch, p: Poset, events) -> None:
    # chunks of 3: most levels span several blocks, and some target is
    # reached from more than one of them
    monkeypatch.setattr(lattice, "_CHUNK", 3)
    _kernel(monkeypatch, True)
    calls = _spy_segment_sums(monkeypatch)
    lat = DownsetLattice(_fresh(p))
    arrays = lat._arrays
    found = arrays.masked(events)
    levels = ideal_levels(lat)
    reached = [sum(len(set(run[0].tolist())) for run in runs) for runs in arrays.runs]
    assert any(r > len(level) for r, level in zip(reached, levels[1:]))
    edges = _key_order_edges(monkeypatch, p, levels)
    k, mods = arrays.k, lattice._MODS
    # the build's down pass carries every prime of the count bound
    down = [np.ones((lattice._primes_over(lattice._count_bound(p.n, p._pred_masks)), 1), dtype=np.int64)]
    for (src, tgt), level in zip(edges, levels[1:]):
        down.append(gather_float64(tgt, src, down[-1], mods, len(level)))
    up = [np.ones((k, 1), dtype=np.int64)]
    for (src, tgt), level in zip(edges[::-1], levels[-2::-1]):
        up.append(gather_float64(src, tgt, up[-1], mods, len(level)))
    expected = down[1:] + up[1:]
    # the masked pass runs top-down, over the edges as the up pass reads them
    counts = np.ones((len(events), k, 1), dtype=np.int64)
    for (src, tgt), level in zip(edges[::-1], levels[-2::-1]):
        counts = gather_float64(src, tgt, counts, mods, len(level))
        expected.append(counts)
        # an ideal is kept unless it holds some v without its u
        keep = [[not any(m >> v & 1 and not m >> u & 1 for u, v in pairs) for m in level] for pairs in events]
        counts = counts * np.array(keep)[:, None, :]
    assert len(calls) == len(expected) == 3 * p.n
    for t, (got, want) in enumerate(zip(calls, expected)):
        assert got.dtype == np.int64 and np.array_equal(got, want), t
    assert np.array_equal(arrays.down, np.concatenate(down, axis=1)[:k])
    assert np.array_equal(arrays.up, np.concatenate(up[::-1], axis=1))
    assert found == lattice._crt(counts[:, :, 0].T)


def _open_events(p: Poset, rng: random.Random) -> list[list[tuple[int, int]]]:
    free = [(u, v) for u in range(p.n) for v in range(p.n) if u != v and not p.lt[u, v] and not p.lt[v, u]]
    return [[rng.choice(free) for _ in range(rng.randint(1, 3))] for _ in range(3)]


def test_segment_sums_match_the_float64_gather_on_random_posets(monkeypatch):
    rng = random.Random(18)
    checked = 0
    while checked < 10:
        p = random_poset(rng.randint(11, 20), rng.choice([0.1, 0.15, 0.2, 0.3]), seed=rng.randrange(10**9))
        if len(lattice._components(p)) == 1:
            _assert_passes_match_the_float64_gather(monkeypatch, p, _open_events(p, rng))
            checked += 1


def test_segment_sums_match_the_float64_gather_past_64_elements(monkeypatch):
    # two words per ideal, levels sorted by the chain code
    rng = random.Random(64)
    for p in (_crossed_chains(3, 22), two_equal_chains(33)):
        assert p.n > 64
        _assert_passes_match_the_float64_gather(monkeypatch, p, _open_events(p, rng))


def test_segment_sums_match_the_float64_gather_up_to_a_refusal(monkeypatch):
    # each level summed before the refusal matches the oracle
    monkeypatch.setattr(lattice, "_CHUNK", 3)
    p = young_diagram((4, 3, 3, 1)).poset
    k = lattice._primes_over(lattice._count_bound(p.n, p._pred_masks))
    _kernel(monkeypatch, True)
    levels = ideal_levels(DownsetLattice(_fresh(p)))
    edges = _key_order_edges(monkeypatch, p, levels)
    calls = _spy_segment_sums(monkeypatch)
    for j in (2, 5, 8):
        calls.clear()
        budget = sum(len(level) for level in levels[: j + 1]) + 1
        with pytest.raises(BudgetExceeded) as info:
            for _ in lattice._array_levels(p.n, p._pred_masks, k, budget):
                pass
        assert (info.value.nodes, info.value.budget) == (budget + 1, budget)
        assert len(calls) == j
        down = np.ones((k, 1), dtype=np.int64)
        for got, (src, tgt), level in zip(calls, edges, levels[1:]):
            down = gather_float64(tgt, src, down, lattice._MODS, len(level))
            assert np.array_equal(got, down)


def test_young_diagrams_past_64_cells_match_the_hook_formula():
    for shape in ((13,) * 5, (17,) * 4):
        p = young_diagram(shape).poset
        lat = DownsetLattice(p)
        assert lat._arrays is not None
        assert lat.extension_count == hook_length_count(shape)


def _ordinal_antichains(width: int, layers: int) -> Poset:
    """``layers`` antichains of ``width``, each wholly below the next."""
    labels = [f"a{t}_{i}" for t in range(layers) for i in range(width)]
    covers = [
        (f"a{t}_{i}", f"a{t + 1}_{j}")
        for t in range(layers - 1)
        for i in range(width)
        for j in range(width)
    ]
    return Poset.from_covers(labels, covers)


def test_a_chain_code_past_64_bits_stays_on_the_dict_kernel(monkeypatch):
    # 8 chains of 256: the chain code runs to 257^8 > 2^64, while the
    # lattice has 1 + 256 (2^8 - 1) ideals and the floor rule admits it
    p = _ordinal_antichains(8, 256)
    pred = p._pred_masks
    assert lattice._chain_code(p.n, pred)[1] > 2**64
    floor = lattice._ideal_floor(p.n, pred, p._upper_cover_masks)
    assert floor >= lattice._ARRAY_MIN_IDEALS_PER_ELEMENT * p.n
    with monkeypatch.context() as m:
        # the code alone refuses it, however many primes there were
        m.setattr(lattice, "_PRIME_PRODUCT", 1 << 100_000)
        assert not lattice._arrays_fit(p.n, pred)
    assert not lattice._arrays_win(p.n, pred, floor)
    lat = DownsetLattice(p)
    assert lat._arrays is None
    assert lat.node_count == 1 + 256 * 255
    assert lat.extension_count == math.factorial(8) ** 256


def test_element_ids_past_255_stay_exact():
    # a 300-chain has one chain of 300, so the array kernel holds it in
    # five words per ideal with one prime
    n = 300
    arrays = lattice._Arrays(n, chain(n)._pred_masks, 10**6)
    assert (arrays.total, arrays.at[-1]) == (1, n + 1)
    pos, _ = arrays.sweep(False)
    assert pos == [[int(k == x) for k in range(n)] for x in range(n)]


def test_arrays_match_the_dict_kernel_on_random40(monkeypatch):
    # 163,758 ideals, a 96-bit count, levels of up to 13,139 ideals (several chunks)
    _assert_same(monkeypatch, random_poset(40, 0.1, seed=5), ideals=False)


def test_arrays_match_brute_force(monkeypatch):
    _kernel(monkeypatch, True)
    posets = [antichain(0), antichain(1), chain(4)] + random_posets(150, nmax=8, seed=28)
    for p in posets:
        lat = DownsetLattice(p)
        assert lat.extension_count == brute_count(p)
        assert lat.pair_counts() == brute_pair_counts(p)
        for x in p.labels:
            assert list(lat.marginals()[x]) == brute_marginal(p, x)


def test_small_chunks_give_the_same_answers(monkeypatch):
    # levels and edge runs cut into many chunks take the merging paths
    monkeypatch.setattr(lattice, "_CHUNK", 3)
    for p in [young_diagram((4, 3, 3, 1)).poset, random_poset(11, 0.2, seed=4)]:
        _assert_same(monkeypatch, p)


def _band_pieces(monkeypatch) -> list[list[list[tuple[int, int]]]]:
    """Per sweep, the (level, edges) of each piece of every band it reads."""
    sweeps = []
    bands = lattice._Arrays._bands

    def spy(self):
        sweeps.append([])
        for pieces in bands(self):
            sweeps[-1].append([(size, len(block[0])) for size, block in pieces])
            yield pieces

    monkeypatch.setattr(lattice._Arrays, "_bands", spy)
    return sweeps


def _levels(band) -> set[int]:
    return {size for size, _ in band}


def _alone(bands) -> list[int]:
    return [band[0][0] for band in bands if len(band) == 1]


def _swept(monkeypatch, p: Poset, build: int, sweep: int) -> tuple[list[list[int]], list[list[int]]]:
    """Position and pair counts of ``p`` on the array kernel, built in chunks
    of ``build`` and swept in chunks of ``sweep``.  Each comes from its own
    lattice, so the position counts are the position-only sweep's."""
    _kernel(monkeypatch, True)
    monkeypatch.setattr(lattice, "_CHUNK", build)
    for_positions, for_pairs = build_lattice(_fresh(p)), build_lattice(_fresh(p))
    monkeypatch.setattr(lattice, "_CHUNK", sweep)
    return for_positions.position_counts(), for_pairs.pair_counts()


def _three_below_one(prefix: str) -> Poset:
    labels = [f"{prefix}{i}" for i in range(4)]
    return Poset.from_covers(labels, [(low, labels[3]) for low in labels[:3]])


def test_bands_match_brute_force(monkeypatch):
    sweeps = _band_pieces(monkeypatch)
    split = disjoint_sum(_three_below_one("a"), _three_below_one("b"))  # parts of 4, built part by part
    posets = [split] + random_posets(40, nmax=8, seed=31)
    # (build chunk, sweep chunk) and the bands each must read in some sweep
    for build, sweep, shape in (
        # a band of several levels
        (4096, 4096, lambda bands: any(len(_levels(band)) > 1 for band in bands)),
        # a level that fills a band alone
        (4096, 5, lambda bands: any(len(band) == 1 and band[0][1] >= 5 for band in bands)),
        # a level of several stored blocks, a band per block
        (2, 2, lambda bands: len(_alone(bands)) > len(set(_alone(bands)))),
        # a level of several stored blocks in a band with other levels
        (2, 64, lambda bands: any(1 < len(_levels(band)) < len(band) for band in bands)),
    ):
        sweeps.clear()
        for p in posets:
            total = brute_count(p)
            positions = [[int(q * total) for q in brute_marginal(p, x)] for x in p.labels]
            assert _swept(monkeypatch, p, build, sweep) == (positions, brute_pair_counts(p))
        assert any(shape(bands) for bands in sweeps), (build, sweep)


def test_bands_match_the_dict_kernel_past_64_elements_and_on_a_split_part(monkeypatch):
    # young13x5 keys its levels by the chain code; random30 splits into parts of 29 and 1
    for p in (young_diagram((13,) * 5).poset, random_poset(30, 0.12, seed=20)):
        _kernel(monkeypatch, False)
        walked = build_lattice(_fresh(p))
        want = walked.position_counts(), walked.pair_counts()
        for build, sweep in ((4096, 4096), (64, 512), (64, 64)):
            assert _swept(monkeypatch, p, build, sweep) == want, (build, sweep)


def test_event_counts_match_the_dict_kernel(monkeypatch):
    rng = random.Random(43)
    posets = random_posets(400, nmax=9, seed=44) + [young_diagram((4, 4, 3)).poset]
    for p in posets:
        for _ in range(3):
            pairs = [tuple(rng.sample(p.labels, 2)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.1:
                pairs.append((pairs[0][1], pairs[0][0]))  # contradictory
            got = []
            for arrays in (True, False):
                _kernel(monkeypatch, arrays)
                got.append(event_probability(_fresh(p), EventSpec(tuple(pairs))))
            assert got[0] == got[1]


def test_samples_are_the_same_on_both_kernels(monkeypatch):
    for p in (young_diagram((3, 3, 2)).poset, random_poset(12, 0.2, seed=6)):
        draws = []
        for arrays in (True, False):
            _kernel(monkeypatch, arrays)
            draws.append(sample_extensions(_fresh(p), 5, seed=8))
        assert draws[0] == draws[1]


def test_wide_count_samples_pinned():
    # drawn by the weight-list sampler; e(P) >= 2^64 on both, so a step's
    # total takes several words of the generator
    young8x8 = young_diagram((8,) * 8).poset
    young13x5 = young_diagram((13,) * 5).poset
    assert [" ".join(s) for s in sample_extensions(young8x8, 2, seed=3)] == [
        (
            "1,1 2,1 3,1 1,2 2,2 1,3 1,4 1,5 1,6 4,1 5,1 3,2 4,2 2,3 3,3 6,1 "
            "2,4 4,3 3,4 5,2 2,5 4,4 1,7 2,6 3,5 5,3 4,5 3,6 2,7 5,4 1,8 7,1 "
            "2,8 6,2 5,5 8,1 6,3 6,4 3,7 7,2 3,8 7,3 6,5 4,6 7,4 5,6 4,7 8,2 "
            "4,8 6,6 7,5 7,6 5,7 8,3 8,4 6,7 8,5 7,7 8,6 5,8 8,7 6,8 7,8 8,8"
        ),
        (
            "1,1 1,2 1,3 2,1 2,2 3,1 2,3 3,2 1,4 4,1 3,3 1,5 5,1 4,2 4,3 2,4 "
            "1,6 5,2 6,1 2,5 1,7 3,4 2,6 5,3 7,1 4,4 2,7 6,2 7,2 3,5 6,3 4,5 "
            "5,4 1,8 5,5 3,6 7,3 8,1 6,4 7,4 8,2 2,8 6,5 8,3 4,6 7,5 3,7 4,7 "
            "3,8 5,6 8,4 5,7 4,8 6,6 5,8 6,7 8,5 7,6 8,6 7,7 6,8 7,8 8,7 8,8"
        ),
    ]
    assert [" ".join(s) for s in sample_extensions(young13x5, 2, seed=3)] == [
        (
            "1,1 2,1 3,1 1,2 1,3 2,2 1,4 1,5 2,3 1,6 3,2 2,4 3,3 1,7 2,5 4,1 "
            "4,2 2,6 3,4 3,5 2,7 3,6 5,1 1,8 5,2 4,3 4,4 2,8 1,9 3,7 1,10 1,11 "
            "5,3 3,8 4,5 4,6 2,9 4,7 1,12 2,10 5,4 5,5 2,11 1,13 4,8 3,9 3,10 3,11 "
            "4,9 4,10 4,11 5,6 5,7 2,12 2,13 5,8 5,9 3,12 4,12 5,10 5,11 5,12 3,13 4,13 "
            "5,13"
        ),
        (
            "1,1 1,2 2,1 2,2 1,3 3,1 2,3 1,4 3,2 1,5 4,1 3,3 4,2 4,3 2,4 2,5 "
            "1,6 2,6 3,4 1,7 1,8 3,5 5,1 4,4 3,6 5,2 2,7 3,7 4,5 2,8 5,3 4,6 "
            "1,9 4,7 1,10 2,9 2,10 3,8 5,4 5,5 1,11 5,6 5,7 3,9 2,11 4,8 5,8 3,10 "
            "1,12 4,9 3,11 2,12 3,12 1,13 2,13 5,9 4,10 5,10 4,11 3,13 4,12 5,11 4,13 5,12 "
            "5,13"
        ),
    ]


def test_array_kernel_samples_pinned():
    # drawn when array-kernel lattices listed their ideals in the dict
    # kernel's order; a draw walks the index tables, each ideal's edges
    # ascending by element, so the order of the ideals does not change them
    young = young_diagram((5, 4, 3, 2)).poset
    r14 = random_poset(14, 0.2, seed=1)
    split = disjoint_sum(random_poset(14, 0.2, seed=1), antichain(3))
    assert build_lattice(young)._arrays is not None and build_lattice(r14)._arrays is not None
    assert [part._arrays is not None for _, part in build_lattice(split).parts] == [True] + [False] * 4
    assert sample_extensions(young, 3, seed=2) == [
        ("1,1", "1,2", "1,3", "2,1", "1,4", "3,1", "2,2", "2,3", "3,2", "4,1", "1,5", "4,2", "2,4", "3,3"),
        ("1,1", "2,1", "1,2", "3,1", "2,2", "3,2", "1,3", "2,3", "4,1", "1,4", "1,5", "3,3", "4,2", "2,4"),
        ("1,1", "2,1", "3,1", "1,2", "2,2", "1,3", "2,3", "1,4", "1,5", "3,2", "3,3", "2,4", "4,1", "4,2"),
    ]
    assert sample_extensions(r14, 3, seed=7) == [
        ("v1", "v7", "v14", "v12", "v2", "v5", "v11", "v4", "v9", "v10", "v6", "v13", "v3", "v8"),
        ("v1", "v14", "v11", "v6", "v7", "v3", "v12", "v4", "v2", "v13", "v10", "v5", "v8", "v9"),
        ("v14", "v11", "v6", "v1", "v7", "v3", "v12", "v4", "v8", "v9", "v2", "v13", "v5", "v10"),
    ]
    assert sample_extensions(split, 3, seed=11) == [
        ("v14", "v12", "v11", "v6", "v1", "v13", "v7", "a2", "v4", "a3", "a1", "v10", "v3", "v2", "v9", "v8", "v5"),
        ("v14", "v1", "v7", "v8", "v13", "v11", "v4", "a1", "v9", "v12", "v2", "v10", "v5", "v6", "v3", "a3", "a2"),
        ("v14", "v1", "v11", "v7", "v6", "a3", "v3", "v8", "v12", "a1", "v4", "v10", "v5", "v9", "a2", "v13", "v2"),
    ]


def test_budget_raises_like_the_dict_kernel(monkeypatch):
    posets = [young_diagram((3, 3, 2)).poset, random_poset(10, 0.15, seed=9), antichain(5)]
    for p in posets + [young_diagram((13,) * 5).poset]:
        nodes = DownsetLattice(p).node_count
        budgets = (-1, 0, 1, 2, nodes // 2, nodes - 1, nodes) if p.n <= 64 else (nodes // 2, nodes - 1, nodes)
        for budget in budgets:
            seen = []
            for arrays in (True, False):
                _kernel(monkeypatch, arrays)
                try:
                    seen.append(DownsetLattice(_fresh(p), budget).node_count)
                except BudgetExceeded as exc:
                    seen.append((exc.nodes, exc.budget))
            assert seen[0] == seen[1], (p, budget)


def _no_levels(monkeypatch) -> None:
    """Make every level walk, on either kernel, fail the test."""

    def walked(*args, **kwargs):
        raise AssertionError("a level was walked")

    monkeypatch.setattr(lattice, "_walk", walked)
    monkeypatch.setattr(lattice, "_array_levels", walked)


def _box_ideals(a: int, b: int, c: int) -> int:
    """Ideals of the a x b x c box: MacMahon's count of plane partitions."""
    count = Fraction(1)
    for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        count *= Fraction(i + j + k - 1, i + j + k - 2)
    assert count.denominator == 1
    return count.numerator


def test_a_box_far_past_the_budget_is_refused_before_any_level(monkeypatch):
    # the 6x6x6 box: 216 elements and an 83-bit chain code (the dict
    # kernel's), with an ideal floor 34 times the default budget
    p = grid_ideal(3, [(6, 6, 6)]).poset
    floor = lattice._ideal_floor(p.n, p._pred_masks, p._upper_cover_masks)
    assert floor == 339_806_341
    _no_levels(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        build_lattice(p)
    assert time.perf_counter() - start < 0.5
    assert (info.value.nodes, info.value.budget) == (floor, lattice.DEFAULT_NODE_BUDGET)
    # the refusal brackets the true size, and its message names the floor only
    assert _box_ideals(4, 4, 4) == 232_848
    assert floor <= _box_ideals(6, 6, 6) <= info.value.upper
    assert round(_box_ideals(6, 6, 6), -10) == 1_480_000_000_000
    assert str(info.value) == f"ideal lattice exceeded the node budget ({floor} > {lattice.DEFAULT_NODE_BUDGET})"


def test_refusals_raised_mid_build_carry_an_upper_bound():
    # half each lattice's size is past its ideal floor and its first level,
    # so the level walk refuses, at budget + 1 nodes where the preflight
    # would report the floor; ``upper`` bounds the lattice as the preflight
    # refusal's does (chain codes, summed over a split poset's parts)
    for kernel, p in (
        ("dict", young_diagram((3, 3, 2)).poset),
        ("arrays", young_diagram((8,) * 8).poset),
        ("split", random_poset(30, 0.12, seed=20)),
    ):
        lat = build_lattice(_fresh(p))
        split = isinstance(lat, lattice.SplitLattice)
        assert kernel == ("split" if split else "dict" if lat._arrays is None else "arrays")
        budget = lat.node_count // 2
        with pytest.raises(BudgetExceeded) as info:
            build_lattice(_fresh(p), budget)
        assert (info.value.nodes, info.value.budget) == (budget + 1, budget)
        assert info.value.upper >= lat.node_count


def test_preflight_reports_the_floor_on_both_kernels(monkeypatch):
    p = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    floor = lattice._ideal_floor(p.n, p._pred_masks, p._upper_cover_masks)
    assert DownsetLattice(p).node_count > floor
    for arrays in (True, False):
        _kernel(monkeypatch, arrays)
        with monkeypatch.context() as m:
            _no_levels(m)
            for budget in (-1, 0, floor - 1):
                with pytest.raises(BudgetExceeded) as info:
                    DownsetLattice(_fresh(p), budget)
                assert (info.value.nodes, info.value.budget) == (floor, budget)
    # posets below the kernel rule's size read no floor and refuse as before
    with pytest.raises(BudgetExceeded) as info:
        DownsetLattice(young_diagram((3, 3, 2)).poset, 5)
    assert (info.value.nodes, info.value.budget) == (6, 5)


def test_preflight_reads_the_augmented_order(monkeypatch):
    # a conditional's down pass checks the floor of the order it walks
    p = young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset
    labels = p.labels
    given = [(labels[-1], labels[1])]
    pred, cand = list(p._pred_masks), list(p._upper_cover_masks)
    pred[1] |= 1 << (p.n - 1)
    cand[-1] |= 1 << 1
    floor = lattice._ideal_floor(p.n, pred, cand)
    assert floor < lattice._ideal_floor(p.n, p._pred_masks, p._upper_cover_masks)
    _no_levels(monkeypatch)
    with pytest.raises(BudgetExceeded) as info:
        conditional_probability(p, [(labels[2], labels[3])], given, floor - 1)
    assert (info.value.nodes, info.value.budget) == (floor, floor - 1)


def test_budget_raises_before_the_next_level_is_expanded():
    p = young_diagram((3, 3, 2)).poset
    sizes = [len(level) for level in ideal_levels(DownsetLattice(p))]
    for j in range(1, len(sizes) - 1):
        budget = sum(sizes[: j + 1])
        k = lattice._primes_over(lattice._count_bound(p.n, p._pred_masks))
        yielded = []
        with pytest.raises(BudgetExceeded) as info:
            for level, _, _ in lattice._array_levels(p.n, p._pred_masks, k, budget):
                yielded.append(len(level))
        # level j + 1 is formed and checked before level j is handed on
        assert yielded == sizes[:j]
        assert (info.value.nodes, info.value.budget) == (budget + 1, budget)


def test_a_refused_level_stops_at_the_first_chunk_past_the_budget(monkeypatch):
    # the 14-antichain's levels hold C(14, t) ideals; with chunks of 8
    # ideals, every merge sees at most 8 * 14 targets, and the budget is
    # checked after each one, so a level past it is never gathered whole
    n, chunk = 14, 8
    monkeypatch.setattr(lattice, "_CHUNK", chunk)
    sizes = [math.comb(n, t) for t in range(n + 1)]
    merged = []
    argsort = np.argsort

    def counted(a, **kwargs):
        merged.append(len(a))
        return argsort(a, **kwargs)

    # the merge sorts each chunk's edges by target once
    monkeypatch.setattr(np, "argsort", counted)
    fifth = sorted(m for m in range(1 << n) if m.bit_count() == 5)
    for slack in (0, 200):
        # the first chunk of level 5 whose targets take the running count of
        # level 6 past the budget is the last one merged
        reached: set[int] = set()
        for chunks, lo in enumerate(range(0, len(fifth), chunk), 1):
            reached.update(m | 1 << x for m in fifth[lo : lo + chunk] for x in range(n))
            reached.difference_update(fifth)
            if len(reached) > slack:
                break
        merged.clear()
        budget = sum(sizes[:6]) + slack
        with pytest.raises(BudgetExceeded) as info:
            for _ in lattice._array_levels(n, [0] * n, 1, budget):
                pass
        assert (info.value.nodes, info.value.budget) == (budget + 1, budget)
        whole = sum(-(-sizes[t] // chunk) for t in range(5))
        assert len(merged) == whole + chunks
        assert max(merged) <= chunk * n


def test_pair_counts_fill_position_counts_in_one_rewalk(monkeypatch):
    for arrays in (True, False):
        _kernel(monkeypatch, arrays)
        p = young_diagram((4, 3, 3)).poset
        lat = DownsetLattice(p)
        sweeps = []
        for owner, name in ((DownsetLattice, "_walk_sweep"), (lattice._Arrays, "sweep")):
            run = getattr(owner, name)

            def counted(self, pairs, run=run):
                sweeps.append(pairs)
                return run(self, pairs)

            monkeypatch.setattr(owner, name, counted)
        lat.pair_counts()
        assert lat.position_counts() == DownsetLattice(p).position_counts()
        assert sweeps == [True, False]  # one for pair_counts, one for the fresh lattice
        monkeypatch.undo()


def test_a_dict_lattice_is_walked_once(monkeypatch):
    # build, both sweeps and the edges all read the levels the build stored
    _kernel(monkeypatch, False)
    walks = []
    walk = lattice._walk

    def counted(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(lattice, "_walk", counted)
    for p in (young_diagram((4, 3, 3)).poset, random_poset(12, 0.2, seed=3)):
        walks.clear()
        lat = DownsetLattice(_fresh(p))
        assert lat._arrays is None
        lat.position_counts()
        lat.pair_counts()
        pred = p._pred_masks
        assert lattice_edges(lat) == [
            (m, x, m | 1 << x)
            for level in ideal_levels(lat)
            for m in level
            for x in range(p.n)
            if not (m >> x & 1 or pred[x] & ~m)
        ]
        assert walks == [p.n]


def test_moments_match_fraction_sums():
    posets = [p for _, p in builtin_corpus()] + [young_diagram((4, 4, 2)).poset]
    for p in posets:
        for x, probs in lattice.build_lattice(p).marginals().items():
            dist = lattice.PositionDistribution.from_probs(x, probs)
            mean = sum((Fraction(k + 1) * q for k, q in enumerate(probs)), Fraction(0))
            second = sum((Fraction((k + 1) ** 2) * q for k, q in enumerate(probs)), Fraction(0))
            assert dist.mean == mean
            assert dist.variance() == second - mean * mean


def test_lattices_of_dropped_posets_are_freed_at_once():
    import gc
    import weakref

    gc.disable()
    try:
        for make in (lambda: young_diagram((4, 3, 3)).poset, lambda: random_poset(30, 0.12, seed=20)):
            p = make()
            lat = lattice.build_lattice(p)
            lat.marginals()
            gone = weakref.ref(lat)
            del lat, p
            assert gone() is None
    finally:
        gc.enable()


def test_a_lattice_outlives_its_poset():
    p = random_poset(30, 0.12, seed=20)
    labels, order = p.labels, p.lt.copy()
    lat = lattice.build_lattice(p)
    del p
    assert lat.poset == Poset(labels, order)
    assert len(lat.marginals()) == 30
    assert lat.sampler()(random.Random(1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: young_diagram((13,) * 5).poset,
        lambda: two_equal_chains(20),
        lambda: _crossed_chains(4, 20),
    ],
    ids=["young13x5", "twochains20", "crossed4x20"],
)
def test_the_sweep_matches_the_dict_kernel_on_zero_bands(monkeypatch, make):
    # a quarter of the positions lie outside the elements' windows
    # |down x| + 1 .. n - |up x|, and a quarter of the pairs are comparable,
    # so most entries are 0 or e(P), which both kernels must agree on
    p = make()
    n = p.n
    lt = p.lt
    window = sum(n - lt[:, x].sum() - lt[x].sum() for x in range(n))
    incomparable = int((~(lt | lt.T)).sum() - n) // 2
    assert 4 * window <= 3 * n * n and 8 * incomparable <= 3 * n * (n - 1)
    arrays, walked = _both(monkeypatch, p)
    assert arrays.pair_counts() == walked.pair_counts()
    assert arrays.position_counts() == walked.position_counts()
    # the dict kernel fills the comparable pairs and (y, x) of the open
    # ones, so they are also checked against the position counts: an
    # extension placing x at k puts n - k elements after it
    pos, pairs, total = walked.position_counts(), walked.pair_counts(), walked.extension_count
    for x in range(n):
        assert pairs[x][x] == 0
        assert sum(pairs[x]) == sum((n - k) * c for k, c in enumerate(pos[x], 1))
        assert all(pairs[x][y] + pairs[y][x] == total for y in range(n) if y != x)


@pytest.mark.parametrize(
    "name",
    ["corpus", "random2000", "chains", "exact_wide"],
)
def test_ideal_floor_matches_the_rescan(name):
    posets = {
        "corpus": lambda: [p for _, p in builtin_corpus()],
        "random2000": lambda: random_posets(2000, nmax=9, seed=23),
        "chains": lambda: [shuffled_chain(n, seed) for n, seed in ((50, 0), (170, 1), (500, 2), (3000, 2))],
        "exact_wide": lambda: [
            antichain(14),
            young_diagram((8,) * 8).poset,
            random_poset(30, 0.12, seed=20),
            young_diagram((13,) * 5).poset,
        ],
    }[name]()
    for p in posets:
        pred = p._pred_masks
        assert lattice._ideal_floor(p.n, pred, p._upper_cover_masks) == rescan_ideal_floor(p.n, pred)

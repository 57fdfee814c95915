import random
from fractions import Fraction

import numpy as np
import pytest

from linext.errors import ComparablePair
from linext.families import antichain, chain, chain_plus_point, random_poset
from linext.lattice import sorting_probability
from linext.mcmc import (
    _BLOCK,
    _advance,
    default_burn_in,
    estimate_pair_probability,
    initial_state,
    mc_step,
    MCEstimate,
    tv_distance_diagnostic,
)
from linext.poset import Poset
from oracles import word_advance


def _is_extension(p: Poset, order: list[int]) -> bool:
    ranks = {x: k for k, x in enumerate(order)}
    return all(ranks[p.index(u)] < ranks[p.index(v)] for u, v in p.covers)


def test_initial_state_is_an_extension():
    for seed in range(5):
        p = random_poset(8, 0.4, seed=seed)
        assert _is_extension(p, initial_state(p).order)


def test_steps_preserve_the_extension_property():
    p = random_poset(7, 0.35, seed=99)
    state = initial_state(p, seed=1)
    for _ in range(4000):
        mc_step(state)
        assert _is_extension(p, state.order)
    assert state.steps == 4000


def test_pos_array_stays_inverse_of_order():
    p = chain_plus_point(6)
    state = initial_state(p, seed=2)
    for _ in range(1000):
        mc_step(state)
    for k, x in enumerate(state.order):
        assert state.pos[x] == k


def test_chain_walker_never_moves():
    p = chain(5)
    state = initial_state(p, seed=3)
    start = list(state.order)
    for _ in range(200):
        mc_step(state)
    assert state.order == start


def test_default_burn_in_scales_cubically():
    assert default_burn_in(chain(4)) == 640
    assert default_burn_in(antichain(10)) == 10_000


def test_estimate_is_deterministic_per_seed():
    p = chain_plus_point(4)
    a = estimate_pair_probability(p, "z", "c1", samples=2000, seed=11)
    b = estimate_pair_probability(p, "z", "c1", samples=2000, seed=11)
    assert a == b


def test_estimate_matches_exact_within_four_errors():
    p = chain_plus_point(3)
    exact = sorting_probability(p, "z", "c1")  # 1/3
    est = estimate_pair_probability(p, "z", "c1", samples=20_000, seed=5)
    assert est.samples == 20_000
    assert abs(est.estimate - float(exact)) <= 4 * est.stderr
    assert 0 < est.stderr < 0.05


def test_estimate_rejects_comparable_pairs():
    p = chain(3)
    with pytest.raises(ComparablePair):
        estimate_pair_probability(p, "c1", "c2", samples=10)
    with pytest.raises(ComparablePair):
        estimate_pair_probability(p, "c1", "c1", samples=10)


def test_tv_distance_shrinks_with_samples():
    p = random_poset(6, 0.3, seed=77)
    x = p.labels[0]
    rough = tv_distance_diagnostic(p, x, samples=500, seed=1)
    fine = tv_distance_diagnostic(p, x, samples=50_000, seed=1)
    assert fine < 0.03
    assert fine <= rough + 0.02  # allow noise, forbid regression


def test_negative_sample_counts_are_rejected():
    p = chain_plus_point(3)
    with pytest.raises(ValueError, match="non-negative"):
        estimate_pair_probability(p, "z", "c1", samples=-1)
    with pytest.raises(ValueError, match="non-negative"):
        tv_distance_diagnostic(p, "z", samples=-1)


def test_zero_sample_counts_are_rejected():
    # both estimates divide by the sample count
    p = chain_plus_point(4)
    with pytest.raises(ValueError, match="at least 1"):
        estimate_pair_probability(p, "z", "c1", 0)
    with pytest.raises(ValueError, match="at least 1"):
        tv_distance_diagnostic(p, "z", 0)


def test_negative_burn_in_is_rejected_before_any_step(monkeypatch):
    import linext.mcmc

    def stepped(*args):
        raise AssertionError("the chain stepped")

    p = chain_plus_point(4)
    monkeypatch.setattr(linext.mcmc, "_advance", stepped)
    with pytest.raises(ValueError, match="burn-in must be non-negative"):
        estimate_pair_probability(p, "z", "c1", 100, burn_in=-50)
    with pytest.raises(ValueError, match="burn-in must be non-negative"):
        tv_distance_diagnostic(p, "z", 100, burn_in=-50)


def test_steps_on_fewer_than_two_elements_draw_nothing():
    for p in (antichain(0), antichain(1)):
        state = initial_state(p, seed=1)
        before = state.rng.getstate()
        assert _advance(state, 5, 0) == []
        assert state.steps == 5
        assert state.rng.getstate() == before


def test_tv_distance_zero_on_chain():
    assert tv_distance_diagnostic(chain(4), "c2", samples=100, seed=0) == 0.0


# Values recorded from the per-step reference (``oracles.word_advance``, one
# step per call, one indicator per step); the replayed swaps must give the
# same floats.  (samples, burn_in, seed, estimate, stderr, burn_in used).
# Fewer than four samples form no batches, and (3, 5, 26) gives that
# binomial formula an estimate strictly between 0 and 1; 10, 17, 26 and 999
# leave a tail past the batches.
PINNED_ESTIMATES = [
    (1, 5, 0, 0.0, 0.0, 5),
    (2, 5, 5, 0.0, 0.0, 5),
    (3, 5, 2, 1.0, 0.0, 5),
    (3, 5, 5, 0.0, 0.0, 5),
    (3, 5, 26, 0.6666666666666666, 0.2721655269759087, 5),
    (10, 5, 5, 0.5, 0.2939723678960656, 5),
    (17, 5, 3, 0.6470588235294118, 0.23935677693908453, 5),
    (26, 5, 2, 0.9230769230769231, 0.08, 5),
    (999, None, 2, 0.45645645645645644, 0.06349472892928731, 3430),
    (5000, 100, 3, 0.627, 0.03137899163254856, 100),
]

# (samples, burn_in, seed, total variation) for the first element of
# random_poset(6, 0.3, seed=77), from the same reference.
PINNED_TV = [
    (1, 3, 5, 0.5),
    (3, None, 1, 0.5),
    (500, None, 1, 0.132),
    (1001, 20, 4, 0.0014985014985014985),
]


@pytest.mark.parametrize("samples,burn_in,seed,estimate,stderr,used", PINNED_ESTIMATES)
def test_estimate_is_pinned_per_seed(samples, burn_in, seed, estimate, stderr, used):
    p = random_poset(7, 0.3, seed=4)
    est = estimate_pair_probability(p, "v1", "v2", samples, burn_in=burn_in, seed=seed)
    assert est == MCEstimate(estimate, stderr, samples, used)


@pytest.mark.parametrize("samples,burn_in,seed,tv", PINNED_TV)
def test_tv_distance_is_pinned_per_seed(samples, burn_in, seed, tv):
    p = random_poset(6, 0.3, seed=77)
    assert tv_distance_diagnostic(p, p.labels[0], samples, burn_in=burn_in, seed=seed) == tv


def test_kernel_reports_only_watched_swaps():
    p = antichain(5)
    watched = initial_state(p, seed=8)
    plain = initial_state(p, seed=8)
    swaps = _advance(watched, 3000, 1 << 2)
    for _ in range(3000):
        mc_step(plain)
    assert watched.order == plain.order and watched.steps == plain.steps == 3000
    assert swaps and all(0 <= t < 3000 for t, _ in swaps)
    assert [t for t, _ in swaps] == sorted(t for t, _ in swaps)
    # replaying the reported slots lands element 2 where the walk left it
    at = 2
    for _, i in swaps:
        assert at in (i, i + 1)
        at = 2 * i + 1 - at
    assert at == watched.pos[2]


def _four_chains(seed: int) -> Poset:
    """400 elements from covers: four chains of 100 with 40 climbing cross covers."""
    rng = random.Random(seed)
    covers = [(f"c{c}l{k}", f"c{c}l{k + 1}") for c in range(4) for k in range(99)]
    for _ in range(40):
        a, b = rng.sample(range(4), 2)
        k = rng.randrange(99)
        covers.append((f"c{a}l{k}", f"c{b}l{rng.randint(k + 1, min(k + 5, 99))}"))
    return Poset.from_covers([f"c{c}l{k}" for c in range(4) for k in range(100)], covers)


class _CountedRandom(random.Random):
    """A ``random.Random`` that counts the 32-bit words drawn from it."""

    words = 0

    def getrandbits(self, k):
        self.words += -(-k // 32)
        return super().getrandbits(k)


def _accepted(n: int, words: list[int]) -> list[int]:
    mask = (1 << (2 * n - 1).bit_length()) - 1
    return [r for r in (w & mask for w in words) if r < 2 * n]


def _assert_same_stream(fast, slow) -> None:
    """``fast`` holds, and its rng stands past, the rest of the block ``slow`` is in.

    The kernel fetches a block only when it needs a draw, so it has fetched
    the blocks that hold the words the reference read, and no more.
    """
    rest = random.Random()
    rest.setstate(slow.rng.getstate())
    words = [rest.getrandbits(32) for _ in range(-slow.rng.words % _BLOCK)]
    assert fast.draws.tolist() == _accepted(fast.poset.n, words)
    assert fast.rng.getstate() == rest.getstate()


def _assert_kernels_agree(p: Poset, seed: int, watch: int, batches, reverse=False):
    fast = initial_state(p, seed)
    slow = initial_state(p, seed)
    slow.rng = _CountedRandom(seed)
    if reverse:  # start from an order that is no extension
        for state in (fast, slow):
            state.order.reverse()
            for k, x in enumerate(state.order):
                state.pos[x] = k
    for steps in batches:
        assert _advance(fast, steps, watch) == word_advance(slow, steps, watch)
        assert (fast.order, fast.pos, fast.steps) == (slow.order, slow.pos, slow.steps)
        _assert_same_stream(fast, slow)
        assert reverse or _is_extension(p, fast.order)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33, 63, 64, 65])
def test_kernel_matches_the_randrange_kernel(n):
    # a word masked to the bits of 2n - 1 is dropped at 2n or past it: n
    # just past a power of two drops about half its words, a power of two none
    for seed in range(3):
        p = random_poset(n, 0.06, seed=seed)
        # the table is built in C order whatever the layout of lt
        if seed == 2:
            p = Poset(p.labels, np.asfortranarray(p.lt))
        rng = random.Random(seed)
        for watch in (0, (1 << n) - 1, rng.getrandbits(n) if n else 0):
            _assert_kernels_agree(p, seed, watch, (1, 0, 700, 333, 9000))


def test_kernel_matches_the_randrange_kernel_on_400_elements():
    p = _four_chains(5)
    a, b = p.index("c0l50"), p.index("c3l50")
    for seed in (0, 7):
        for watch in (0, 1 << a | 1 << b, (1 << p.n) - 1):
            _assert_kernels_agree(p, seed, watch, (5000, 20_000, 1))


def test_kernel_matches_the_randrange_kernel_off_the_extensions():
    # a state that is no extension steps as before: only incomparable
    # neighbors swap, whichever of them comes first
    p = random_poset(12, 0.3, seed=1)
    for seed in range(4):
        _assert_kernels_agree(p, seed, (1 << p.n) - 1, (500, 500, 4000), reverse=True)


def _block_draws(n: int, seed: int) -> int:
    """How many draws the first block of ``seed``'s stream gives at n elements."""
    rng = random.Random(seed)
    return len(_accepted(n, [rng.getrandbits(32) for _ in range(_BLOCK)]))


@pytest.mark.parametrize("n", [5, 33, 400])
def test_steps_split_anywhere_walk_the_same_chain(n):
    # step t reads accepted draw t however the steps fall into calls
    p = _four_chains(5) if n == 400 else random_poset(n, 0.1, seed=n)
    watch = (1 << p.n) - 1
    edge = _block_draws(n, 3)
    for a in (edge - 1, edge, edge + 1, 2 * edge + 7):
        b = 3 * edge - a + 11  # a + b runs into a third block at least
        split, whole, single = (initial_state(p, 3) for _ in range(3))
        first = _advance(split, a, watch)
        second = _advance(split, b, watch)
        assert first + [(t + a, i) for t, i in second] == _advance(whole, a + b, watch)
        for _ in range(a + b):
            mc_step(single)
        for state in (whole, single):
            assert (state.order, state.pos, state.steps) == (split.order, split.pos, split.steps)
            assert state.draws.tolist() == split.draws.tolist()
            assert state.rng.getstate() == split.rng.getstate()


@pytest.mark.parametrize("n", [2, 3, 10, 33])
def test_each_draw_maps_to_one_move(n):
    # on an antichain every tried slot swaps, so the swaps show the moves
    p = antichain(n)
    state = initial_state(p, seed=0)
    before = state.rng.getstate()
    planted = [0, n - 1, n - 2, 2 * n - 1, n]
    state.draws = np.array(planted, np.uint32)
    swaps = _advance(state, len(planted), (1 << n) - 1)
    assert swaps == [(t, r) for t, r in enumerate(planted) if r < n - 1]
    assert state.draws.size == 0 and state.rng.getstate() == before
    # one step per value of [0, 2n): it stays n + 1 times, tries each slot once
    state.draws = np.arange(2 * n, dtype=np.uint32)
    tried = [i for _, i in _advance(state, 2 * n, (1 << n) - 1)]
    assert tried == list(range(n - 1))
    stay = Fraction(2 * n - len(tried), 2 * n)
    assert stay == Fraction(n + 1, 2 * n) == Fraction(1, 2) + Fraction(1, 2) / n
    assert all(Fraction(tried.count(i), 2 * n) == Fraction(1, 2 * n) for i in range(n - 1))

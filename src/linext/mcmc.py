"""Lazy adjacent-transposition Markov chain over linear extensions.

Each step flips a fair coin to stay put (keeping the chain aperiodic),
otherwise draws one of the n adjacent slots uniformly (the last slot has
no right neighbor and acts as a self-loop) and swaps the two neighbors
when they are incomparable.  The stationary law is uniform over all
linear extensions; estimators below are deterministic given their seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComparablePair
from .lattice import build_lattice
from .poset import Poset


@dataclass
class ChainState:
    """Mutable walker state; confine each instance to a single thread."""

    poset: Poset
    order: list[int]  # element index at each position
    pos: list[int]  # position of each element index
    steps: int
    rng: random.Random
    validate: bool = False


def default_burn_in(p: Poset) -> int:
    return 10 * p.n**3


def initial_state(p: Poset, seed: int | None = None, validate: bool = False) -> ChainState:
    """Deterministic start: smallest-index topological order."""
    pred = p._pred_masks
    placed = 0
    order: list[int] = []
    remaining = set(range(p.n))
    while remaining:
        x = min(i for i in remaining if not (pred[i] & ~placed))
        order.append(x)
        placed |= 1 << x
        remaining.remove(x)
    pos = [0] * p.n
    for k, x in enumerate(order):
        pos[x] = k
    return ChainState(p, order, pos, 0, random.Random(seed), validate)


def _is_extension(p: Poset, order: list[int]) -> bool:
    pos = [0] * p.n
    for k, x in enumerate(order):
        pos[x] = k
    return all(pos[p.index(u)] < pos[p.index(v)] for u, v in p.covers)


def mc_step(state: ChainState) -> ChainState:
    """One lazy step; mutates and returns the state."""
    rng = state.rng
    state.steps += 1
    if rng.random() < 0.5:
        return state
    i = rng.randrange(state.poset.n)
    if i + 1 >= state.poset.n:
        return state
    order = state.order
    u, v = order[i], order[i + 1]
    if (state.poset._incomp_masks[u] >> v) & 1:
        order[i], order[i + 1] = v, u
        state.pos[u], state.pos[v] = i + 1, i
        if state.validate and not _is_extension(state.poset, order):
            raise RuntimeError("swap broke the extension")
    return state


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int
    burn_in: int


def _batch_stderr(indicators: list[int]) -> float:
    """Standard error of the mean via batch means.

    Post-burn-in draws are autocorrelated, so the naive binomial formula
    understates the error; averaging over sqrt(n) batches whose length
    dwarfs the mixing time restores an honest estimate.  Falls back to the
    binomial formula when there are too few draws to form batches.
    """
    n = len(indicators)
    b = math.isqrt(n)
    if b < 2:
        p = sum(indicators) / max(n, 1)
        return math.sqrt(p * (1 - p) / max(n, 1))
    size = n // b
    means = []
    for k in range(b):
        chunk = indicators[k * size : (k + 1) * size]
        means.append(sum(chunk) / size)
    grand = sum(means) / b
    var = sum((m - grand) ** 2 for m in means) / (b - 1)
    return math.sqrt(var / b)


def estimate_pair_probability(
    p: Poset,
    x: str,
    y: str,
    samples: int,
    burn_in: int | None = None,
    seed: int | None = None,
) -> MCEstimate:
    """Monte Carlo estimate of P(x before y) with a standard error.

    Records the indicator at every post-burn-in step (no thinning).
    Raises ComparablePair when the answer is forced by the order.
    """
    xi, yi = p.index(x), p.index(y)
    if xi == yi or p.lt[xi, yi] or p.lt[yi, xi]:
        raise ComparablePair(f"{x!r} and {y!r} are comparable")
    if burn_in is None:
        burn_in = default_burn_in(p)
    state = initial_state(p, seed)
    rng = state.rng
    n = p.n
    order, pos, incomp = state.order, state.pos, p._incomp_masks
    hits: list[int] = []
    for step in range(burn_in + samples):
        if rng.random() >= 0.5:
            i = rng.randrange(n)
            if i + 1 < n:
                u, v = order[i], order[i + 1]
                if (incomp[u] >> v) & 1:
                    order[i], order[i + 1] = v, u
                    pos[u], pos[v] = i + 1, i
        if step >= burn_in:
            hits.append(1 if pos[xi] < pos[yi] else 0)
    estimate = sum(hits) / samples
    return MCEstimate(estimate, _batch_stderr(hits), samples, burn_in)


def tv_distance_diagnostic(
    p: Poset,
    x: str,
    samples: int,
    burn_in: int | None = None,
    seed: int | None = None,
    budget: int | None = None,
) -> float:
    """Total variation between the empirical position law of x and the exact one.

    Small values certify that the chain has mixed well enough for the
    requested sample size; the comparison itself is exact rational.
    """
    xi = p.index(x)
    if burn_in is None:
        burn_in = default_burn_in(p)
    exact = build_lattice(p, budget).marginals()[x]
    state = initial_state(p, seed)
    rng = state.rng
    n = p.n
    order, pos, incomp = state.order, state.pos, p._incomp_masks
    counts = [0] * n
    for step in range(burn_in + samples):
        if rng.random() >= 0.5:
            i = rng.randrange(n)
            if i + 1 < n:
                u, v = order[i], order[i + 1]
                if (incomp[u] >> v) & 1:
                    order[i], order[i + 1] = v, u
                    pos[u], pos[v] = i + 1, i
        if step >= burn_in:
            counts[pos[xi]] += 1
    tv = sum(abs(Fraction(c, samples) - q) for c, q in zip(counts, exact)) / 2
    return float(tv)

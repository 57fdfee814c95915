"""Exact computation over linear extensions through the lattice of ideals.

Every downward-closed subset (ideal) of the poset becomes a node; an edge
adds one minimal element of the complement.  Paths from the empty ideal to
the full set are exactly the linear extensions, so dynamic programming
along the lattice yields extension counts, per-element position marginals,
event probabilities, and exact uniform samples without ever enumerating
extensions one by one.  An event "u before v" is counted on the poset's
own ideals: one down pass in which v also waits for u.

Ideals are encoded as Python integer bitmasks over the ground-set indices
(arbitrary precision, so any desk-scale n works).  Construction is bounded
by a node budget and raises :class:`BudgetExceeded` past it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetExceeded, ComparablePair, ConditionNullEvent
from .poset import Poset, transitive_closure

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class EventSpec:
    """Conjunction of required precedences: each (u, v) demands u before v."""

    required: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, *pairs: tuple[str, str]) -> "EventSpec":
        return cls(tuple((u, v) for u, v in pairs))

    def __and__(self, other: "EventSpec") -> "EventSpec":
        return EventSpec(self.required + other.required)


@dataclass(frozen=True)
class PositionDistribution:
    """Exact or empirical law of one element's position in a uniform extension."""

    element: str
    probs: tuple[Fraction, ...]
    mean: Fraction
    provenance: str = "exact"

    @classmethod
    def from_probs(
        cls, element: str, probs: Sequence[Fraction], provenance: str = "exact"
    ) -> "PositionDistribution":
        probs = tuple(probs)
        mean = sum((Fraction(k + 1) * p for k, p in enumerate(probs)), Fraction(0))
        return cls(element, probs, mean, provenance)

    @property
    def support(self) -> tuple[int, ...]:
        """Positions (1-based) with positive probability."""
        return tuple(k + 1 for k, p in enumerate(self.probs) if p > 0)

    def variance(self) -> Fraction:
        second = sum(
            (Fraction((k + 1) * (k + 1)) * p for k, p in enumerate(self.probs)),
            Fraction(0),
        )
        return second - self.mean * self.mean


def _down_pass(
    n: int, pred: Sequence[int], budget: int | None
) -> tuple[list[list[int]], dict[int, int], int]:
    """Ideals reachable from the empty one, by size, with their path counts.

    ``pred`` need not be closed: a cycle leaves the full set unreached.
    Raises BudgetExceeded past ``budget`` nodes (None: the default budget).
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    full = (1 << n) - 1
    down: dict[int, int] = {0: 1}
    levels: list[list[int]] = [[0]]
    nodes = 1
    for _ in range(n):
        grown: dict[int, int] = {}
        for mask in levels[-1]:
            d = down[mask]
            free = full & ~mask
            while free:
                b = free & -free
                free ^= b
                if pred[b.bit_length() - 1] & ~mask:
                    continue
                new = mask | b
                if new in grown:
                    down[new] += d
                else:
                    grown[new] = None
                    down[new] = d
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceeded(nodes, budget)
        levels.append(list(grown))
    return levels, down, nodes


class DownsetLattice:
    """Ideals of a poset with path counts from both ends.

    ``down[m]`` counts paths from the empty ideal to ideal ``m`` (linear
    extensions of the restriction to ``m``); ``up[m]`` counts paths from
    ``m`` to the full ground set.  ``up[0]`` is the extension count.
    """

    def __init__(self, poset: Poset, budget: int | None = None):
        n = poset.n
        pred = poset._pred_masks
        full = (1 << n) - 1
        levels, down, nodes = _down_pass(n, pred, budget)
        up: dict[int, int] = {full: 1}
        for size in range(n - 1, -1, -1):
            for mask in levels[size]:
                total = 0
                free = full & ~mask
                while free:
                    b = free & -free
                    free ^= b
                    if pred[b.bit_length() - 1] & ~mask:
                        continue
                    total += up[mask | b]
                up[mask] = total
        self.poset = poset
        self.levels = levels
        self.down = down
        self.up = up
        self.node_count = nodes
        self._marginals: dict[str, tuple[Fraction, ...]] | None = None
        self._pair_counts: list[list[int]] | None = None

    @property
    def extension_count(self) -> int:
        return self.up[0]

    def edges(self):
        """Yield (ideal, added element index, extended ideal)."""
        pred = self.poset._pred_masks
        full = (1 << self.poset.n) - 1
        for level in self.levels[:-1]:
            for mask in level:
                free = full & ~mask
                while free:
                    b = free & -free
                    free ^= b
                    x = b.bit_length() - 1
                    if pred[x] & ~mask:
                        continue
                    yield mask, x, mask | b

    def marginals(self) -> dict[str, tuple[Fraction, ...]]:
        """Position law for every element, from one pass over the edges."""
        if self._marginals is None:
            n = self.poset.n
            total = self.extension_count
            acc = [[0] * n for _ in range(n)]
            pred = self.poset._pred_masks
            full = (1 << n) - 1
            # accumulate down * up along every edge, keyed by added element
            for size, level in enumerate(self.levels[:-1]):
                for mask in level:
                    d = self.down[mask]
                    free = full & ~mask
                    while free:
                        b = free & -free
                        free ^= b
                        x = b.bit_length() - 1
                        if pred[x] & ~mask:
                            continue
                        acc[x][size] += d * self.up[mask | b]
            self._marginals = {
                self.poset.labels[x]: tuple(Fraction(c, total) for c in acc[x])
                for x in range(n)
            }
        return self._marginals

    def pair_counts(self) -> list[list[int]]:
        """``counts[x][y]`` = number of extensions placing x before y.

        Every edge that adds x while y is still outside the ideal
        contributes ``down * up`` to (x, y); comparable pairs come out as
        all-or-nothing, incomparable rows satisfy
        ``counts[x][y] + counts[y][x] == extension_count``.
        """
        if self._pair_counts is None:
            n = self.poset.n
            counts = [[0] * n for _ in range(n)]
            for mask, x, new in self.edges():
                w = self.down[mask] * self.up[new]
                row = counts[x]
                rest = ((1 << n) - 1) & ~new
                while rest:
                    b = rest & -rest
                    rest ^= b
                    row[b.bit_length() - 1] += w
            self._pair_counts = counts
        return self._pair_counts


def build_lattice(p: Poset, budget: int | None = None) -> DownsetLattice:
    """Lattice of ``p``, cached on the poset instance.

    The budget bounds the lattice whether it is built now or was cached
    by an earlier call: a cached lattice larger than ``budget`` raises
    BudgetExceeded just as building it would.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    lat = p._cache.get("lattice")
    if lat is None:
        lat = p._cache["lattice"] = DownsetLattice(p, budget)
    elif lat.node_count > budget:
        raise BudgetExceeded(lat.node_count, budget)
    return lat


def count_extensions(p: Poset, budget: int | None = None) -> int:
    """Number of linear extensions, exactly."""
    return build_lattice(p, budget).extension_count


def position_distribution(
    p: Poset, x: str, budget: int | None = None
) -> PositionDistribution:
    """Exact law of the position of ``x`` under a uniform extension."""
    lat = build_lattice(p, budget)
    probs = lat.marginals()[_checked(p, x)]
    return PositionDistribution.from_probs(x, probs)


def all_position_distributions(
    p: Poset, budget: int | None = None
) -> dict[str, PositionDistribution]:
    lat = build_lattice(p, budget)
    return {
        lab: PositionDistribution.from_probs(lab, probs)
        for lab, probs in lat.marginals().items()
    }


def _checked(p: Poset, x: str) -> str:
    p.index(x)
    return x


def _required_pairs(event) -> tuple[tuple[str, str], ...]:
    if isinstance(event, EventSpec):
        return event.required
    return tuple((u, v) for u, v in event)


def augmented_poset(p: Poset, pairs: Iterable[tuple[str, str]]) -> Poset | None:
    """Poset with extra precedences, or None when they contradict it."""
    rel = p.lt.copy()
    for u, v in pairs:
        rel[p.index(u), p.index(v)] = True
    closed = transitive_closure(rel)
    if closed.diagonal().any():
        return None
    return Poset(p.labels, closed)


def _event_count(p: Poset, pairs: Iterable[tuple[str, str]], budget: int | None) -> int:
    """Extensions of ``p`` that put every ``u`` before its ``v``."""
    pred = list(p._pred_masks)
    for u, v in pairs:
        pred[p.index(v)] |= 1 << p.index(u)
    return _down_pass(p.n, pred, budget)[1].get((1 << p.n) - 1, 0)


def event_probability(p: Poset, event, budget: int | None = None) -> Fraction:
    """Probability that a uniform extension satisfies every required pair."""
    hits = _event_count(p, _required_pairs(event), budget)
    return Fraction(hits, count_extensions(p, budget)) if hits else Fraction(0)


def conditional_probability(
    p: Poset, event, given, budget: int | None = None
) -> Fraction:
    """P(event | given); raises ConditionNullEvent when P(given) = 0."""
    given_pairs = _required_pairs(given)
    base = _event_count(p, given_pairs, budget)
    if base == 0:
        raise ConditionNullEvent("conditioning event has probability zero")
    return Fraction(_event_count(p, given_pairs + _required_pairs(event), budget), base)


def sorting_probability(p: Poset, x: str, y: str, budget: int | None = None) -> Fraction:
    """P(x before y) in a uniform extension."""
    if x == y:
        raise ComparablePair("need two distinct elements")
    return event_probability(p, EventSpec.of((x, y)), budget)


def sample_extension(
    p: Poset, seed: int | None = None, budget: int | None = None
) -> tuple[str, ...]:
    """One exact uniform linear extension, deterministic given the seed."""
    return sample_extensions(p, 1, seed, budget)[0]


def sample_extensions(
    p: Poset, count: int, seed: int | None = None, budget: int | None = None
) -> list[tuple[str, ...]]:
    """Independent exact uniform extensions from one seeded generator.

    At each step the next element is drawn among the minimal elements of
    the complement with probability proportional to the number of
    completions, which makes every full path equally likely.
    """
    lat = build_lattice(p, budget)
    rng = random.Random(seed)
    n = p.n
    pred = p._pred_masks
    full = (1 << n) - 1
    out = []
    for _ in range(count):
        mask = 0
        order = []
        while mask != full:
            choices = []
            weights = []
            free = full & ~mask
            while free:
                b = free & -free
                free ^= b
                x = b.bit_length() - 1
                if pred[x] & ~mask:
                    continue
                choices.append((x, b))
                weights.append(lat.up[mask | b])
            total = sum(weights)
            r = rng.randrange(total)
            for (x, b), w in zip(choices, weights):
                if r < w:
                    order.append(p.labels[x])
                    mask |= b
                    break
                r -= w
        out.append(tuple(order))
    return out

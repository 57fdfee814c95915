"""Sorting probabilities, balance constants, and position statistics.

All probabilities are exact rationals; floats appear only in convenience
fields derived from them (standard deviations and report output).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, NotApplicable
from .lattice import build_lattice, PositionDistribution, position_distribution
from .poset import Poset, _bits


def _pair_mins(counts: list[list[int]], incomparable: Sequence[int]):
    """(i, j, min(counts[i][j], counts[j][i])) per incomparable pair i < j, in index order."""
    for i, inc in enumerate(incomparable):
        row = counts[i]
        for j in _bits(inc >> i + 1 << i + 1):
            yield i, j, min(row[j], counts[j][i])


@dataclass(frozen=True)
class BalanceReport:
    """Balance constants of every incomparable pair.

    ``delta`` is the global maximum of delta(x, y) = min(P(x before y),
    P(y before x)) and ``witness`` the lexicographically first pair
    achieving it; both are read when the report is made.  ``pairs`` maps
    index-ordered incomparable pairs (x, y) to delta(x, y), and
    ``per_element`` holds the best constant each element achieves against
    any partner (comparable partners count as zero).  These two are built
    from the integer pair counts the report keeps, on first read, so a
    caller that reads only ``delta`` builds no Fraction per pair.
    """

    delta: Fraction
    witness: tuple[str, str]
    # the poset's labels and incomparability masks, its pair counts and e(P)
    labels: tuple[str, ...] = field(repr=False)
    incomparable: tuple[int, ...] = field(repr=False)
    counts: list[list[int]] = field(repr=False)
    total: int = field(repr=False)

    @functools.cached_property
    def pairs(self) -> dict[tuple[str, str], Fraction]:
        labels, total = self.labels, self.total
        return {
            (labels[i], labels[j]): Fraction(m, total)
            for i, j, m in _pair_mins(self.counts, self.incomparable)
        }

    @functools.cached_property
    def per_element(self) -> dict[str, Fraction]:
        best = [0] * len(self.labels)
        for i, j, m in _pair_mins(self.counts, self.incomparable):
            if m > best[i]:
                best[i] = m
            if m > best[j]:
                best[j] = m
        return {lab: Fraction(m, self.total) for lab, m in zip(self.labels, best)}

    def pair_delta(self, x: str, y: str) -> Fraction:
        key = (x, y) if (x, y) in self.pairs else (y, x)
        return self.pairs.get(key, Fraction(0))

    def off_fair_delta(self) -> Fraction:
        """Largest balance constant strictly below 1/2 (0 when none).

        Families whose best pair is exactly fair still move: this tracks
        the nearest-miss pair, which is the quantity that trends toward
        1/2 as such families grow.
        """
        below = [d for d in self.pairs.values() if d < Fraction(1, 2)]
        return max(below, default=Fraction(0))


def balance(p: Poset, budget: int | None = None) -> BalanceReport:
    """Exact balance constants from one sweep over the ideal lattice.

    Pairs each i with every incomparable j > i in ``_incomp_masks``, read
    off ``pair_counts``.  Every pair shares the denominator e(P), so the
    pairs are ranked by their integer counts, and the report keeps those
    counts for ``pairs`` and ``per_element``.  Raises NotApplicable on
    chains.
    """
    if p.is_chain():
        raise NotApplicable("a chain has no incomparable pair")
    lat = build_lattice(p, budget)
    counts = lat.pair_counts()
    best = -1
    witness = None
    for i, j, m in _pair_mins(counts, p._incomp_masks):
        if m > best:
            best = m
            witness = (i, j)
    total = lat.extension_count
    i, j = witness
    return BalanceReport(
        Fraction(best, total), (p.labels[i], p.labels[j]), p.labels, p._incomp_masks, counts, total
    )


@dataclass(frozen=True)
class PositionStatistics:
    """Moments and mode mass of one position law, one Fraction each from its counts.

    The mean and variance come from one pass over the law's nonzero counts
    (:meth:`PositionDistribution.mean_variance`).
    """

    element: str
    mean: Fraction
    variance: Fraction
    stddev: float
    q: Fraction  # largest single-position probability

    @classmethod
    def from_distribution(cls, dist: PositionDistribution) -> "PositionStatistics":
        mean, var = dist.mean_variance()
        return cls(
            element=dist.element,
            mean=mean,
            variance=var,
            stddev=math.sqrt(var),
            q=Fraction(max(dist.counts), dist.total),
        )


def position_statistics(p: Poset, x: str, budget: int | None = None) -> PositionStatistics:
    """Exact mean/variance of the position of ``x`` plus its mode mass q."""
    return PositionStatistics.from_distribution(position_distribution(p, x, budget))


def sigma_q_product(p: Poset, x: str, budget: int | None = None) -> float:
    """sigma(x) * q(x): scale-free pairing of spread against peak mass."""
    s = position_statistics(p, x, budget)
    return s.stddev * float(s.q)


def grunbaum_check(
    p: Poset, x: str, budget: int | None = None
) -> tuple[Fraction, Fraction]:
    """Exact upper and lower tail mass of f(x) about its mean.

    Returns (P(f(x) >= E f(x)), P(f(x) <= E f(x))).  The mean is used as
    the centering point; both components are exact rationals.  These
    discrete tails admit no constant floor, so this is not Grunbaum's
    1/e bound: the bottom of ``chain_plus_point(k)`` has upper tail 1/k.
    The bound holds for the order-polytope coordinate t_x instead.
    """
    dist = position_distribution(p, x, budget)
    return mean_tails(dist.counts, dist.total, dist.mean)


def mean_tails(counts: Sequence[int], total: int, mean: Fraction) -> tuple[Fraction, Fraction]:
    """(P(X >= mean), P(X <= mean)) for the law ``counts / total`` of X = 1, 2, ...

    Both tails hold the mass at the mean when the mean is a value of X.
    """
    upper = sum(c for k, c in enumerate(counts, 1) if k >= mean)
    lower = sum(c for k, c in enumerate(counts, 1) if k <= mean)
    return Fraction(upper, total), Fraction(lower, total)


def average_variance(p: Poset, elements, budget: int | None = None) -> Fraction:
    """Exact mean of sigma^2(x) over a nonempty set of elements."""
    elements = list(elements)
    if not elements:
        raise DomainError("need at least one element to average over")
    variances = [position_distribution(p, x, budget).variance() for x in elements]
    return sum(variances, Fraction(0)) / len(elements)


def fraction_json(value: Fraction) -> list[str]:
    """Serialize an exact rational as a numerator/denominator string pair."""
    return [str(value.numerator), str(value.denominator)]

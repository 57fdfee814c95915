"""Sorting probabilities, balance constants, and position statistics.

All probabilities are exact rationals; floats appear only in convenience
fields derived from them (standard deviations and report output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, NotApplicable
from .lattice import build_lattice, PositionDistribution, position_distribution
from .poset import Poset, _bits


@dataclass(frozen=True)
class BalanceReport:
    """Balance constants of every incomparable pair.

    ``pairs`` maps index-ordered incomparable pairs (x, y) to
    delta(x, y) = min(P(x before y), P(y before x)).  ``per_element`` is
    the best constant each element achieves against any partner
    (comparable partners count as zero), ``delta`` the global maximum and
    ``witness`` the lexicographically first pair achieving it.
    """

    pairs: dict[tuple[str, str], Fraction]
    per_element: dict[str, Fraction]
    delta: Fraction
    witness: tuple[str, str]

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
    off ``pair_counts``.  Raises NotApplicable on chains.
    """
    if p.is_chain():
        raise NotApplicable("a chain has no incomparable pair")
    lat = build_lattice(p, budget)
    counts = lat.pair_counts()
    total = lat.extension_count
    # every pair shares the denominator ``total``, so the pairs are ranked
    # by their integer counts and a Fraction is built per pair only for
    # the report
    pairs: dict[tuple[str, str], Fraction] = {}
    per_idx = [0] * p.n
    best = -1
    witness = None
    for i, inc in enumerate(p._incomp_masks):
        for j in _bits(inc >> i + 1 << i + 1):
            m = min(counts[i][j], counts[j][i])
            pairs[(p.labels[i], p.labels[j])] = Fraction(m, total)
            if m > per_idx[i]:
                per_idx[i] = m
            if m > per_idx[j]:
                per_idx[j] = m
            if m > best:
                best = m
                witness = (p.labels[i], p.labels[j])
    per_element = {p.labels[i]: Fraction(per_idx[i], total) for i in range(p.n)}
    return BalanceReport(pairs, per_element, Fraction(best, total), witness)


@dataclass(frozen=True)
class PositionStatistics:
    """Moments and mode mass of one position law, one Fraction each from its counts."""

    element: str
    mean: Fraction
    variance: Fraction
    stddev: float
    q: Fraction  # largest single-position probability

    @classmethod
    def from_distribution(cls, dist: PositionDistribution) -> "PositionStatistics":
        var = dist.variance()
        return cls(
            element=dist.element,
            mean=dist.mean,
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


def balance_report_json(report: BalanceReport) -> dict:
    """JSON-ready balance report with exact rationals kept exact."""
    return {
        "delta": fraction_json(report.delta),
        "delta_float": float(report.delta),
        "witness": list(report.witness),
        "per_element": {k: fraction_json(v) for k, v in report.per_element.items()},
        "pairs": [
            {"x": x, "y": y, "delta": fraction_json(d)}
            for (x, y), d in sorted(report.pairs.items())
        ],
    }

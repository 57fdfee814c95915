"""Posets made of two chains with one-directional cross relations.

The ground set is a chain x_1 < ... < x_m and a chain y_1 < ... < y_n;
extra relations only ever point from the x-chain into the y-chain, so
every ideal is a pair of prefixes and the ideal lattice embeds in an
(m+1) x (n+1) grid.  The module exposes the sandwich events
psi(i, j) = "x_i lands between y_j and y_{j+1}" (and the mirror phi),
the count g(x_i) of y-elements before x_i, and exact checks of the tail
bounds those events satisfy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConditionNullEvent,
    DomainError,
    HypothesisNotSatisfied,
    IndexOutOfRange,
)
from .lattice import EventSpec, build_lattice, position_distribution
from .poset import Poset
from .stats import grunbaum_check


@dataclass(frozen=True)
class TwoChainPoset:
    """Two chains of sizes m and n with cross relations x_i < y_j."""

    m: int
    n: int
    cross: frozenset[tuple[int, int]]
    poset: Poset

    def x_label(self, i: int) -> str:
        if not 1 <= i <= self.m:
            raise IndexOutOfRange(f"x index {i} outside [1, {self.m}]")
        return f"x{i}"

    def y_label(self, j: int) -> str:
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"y index {j} outside [1, {self.n}]")
        return f"y{j}"

    @property
    def is_free(self) -> bool:
        return not self.cross


def make_two_chain(m: int, n: int, cross=()) -> TwoChainPoset:
    """Build the poset; ``cross`` lists required pairs (i, j) with x_i < y_j.

    The two chains' covers and the cross pairs are closed by
    :meth:`Poset.from_covers`, so x_i < y_j holds exactly when some
    required pair (i0, j0) has i <= i0 and j >= j0.
    """
    if m < 1 or n < 1:
        raise DomainError("both chains need at least one element")
    cross = frozenset((int(i), int(j)) for i, j in cross)
    for i, j in cross:
        if not 1 <= i <= m:
            raise IndexOutOfRange(f"cross x index {i} outside [1, {m}]")
        if not 1 <= j <= n:
            raise IndexOutOfRange(f"cross y index {j} outside [1, {n}]")
    xs = [f"x{i}" for i in range(1, m + 1)]
    ys = [f"y{j}" for j in range(1, n + 1)]
    covers = [*zip(xs, xs[1:]), *zip(ys, ys[1:])]
    covers += [(xs[i - 1], ys[j - 1]) for i, j in cross]
    return TwoChainPoset(m, n, cross, Poset.from_covers(xs + ys, covers))


def psi_event(t: TwoChainPoset, i: int, j: int) -> EventSpec:
    """Event that exactly j y-elements precede x_i (j from 0 to n)."""
    if not 1 <= i <= t.m:
        raise IndexOutOfRange(f"x index {i} outside [1, {t.m}]")
    if not 0 <= j <= t.n:
        raise IndexOutOfRange(f"y cut {j} outside [0, {t.n}]")
    pairs = []
    if j >= 1:
        pairs.append((t.y_label(j), t.x_label(i)))
    if j + 1 <= t.n:
        pairs.append((t.x_label(i), t.y_label(j + 1)))
    return EventSpec(tuple(pairs))


def phi_event(t: TwoChainPoset, j: int, i: int) -> EventSpec:
    """Event that exactly i x-elements precede y_j (i from 0 to m)."""
    if not 1 <= j <= t.n:
        raise IndexOutOfRange(f"y index {j} outside [1, {t.n}]")
    if not 0 <= i <= t.m:
        raise IndexOutOfRange(f"x cut {i} outside [0, {t.m}]")
    pairs = []
    if i >= 1:
        pairs.append((t.x_label(i), t.y_label(j)))
    if i + 1 <= t.m:
        pairs.append((t.y_label(j), t.x_label(i + 1)))
    return EventSpec(tuple(pairs))


def _position_probability(t: TwoChainPoset, budget: int | None):
    """``prob(label, k)``: P(label sits at position k + 1), from integer counts."""
    lat = build_lattice(t.poset, budget)
    rows, total, index = lat.position_counts(), lat.extension_count, t.poset.index
    return lambda label, k: Fraction(rows[index(label)][k], total)


def psi_probability(t: TwoChainPoset, i: int, j: int, budget: int | None = None) -> Fraction:
    """P(y_j before x_i before y_{j+1}): x_i sits at overall position i + j."""
    psi_event(t, i, j)  # same index checks as the event form
    return _position_probability(t, budget)(t.x_label(i), i + j - 1)


def phi_probability(t: TwoChainPoset, j: int, i: int, budget: int | None = None) -> Fraction:
    """P(x_i before y_j before x_{i+1}): y_j sits at overall position i + j."""
    phi_event(t, j, i)  # same index checks as the event form
    return _position_probability(t, budget)(t.y_label(j), i + j - 1)


def psi_table(t: TwoChainPoset, budget: int | None = None) -> dict[tuple[int, int], Fraction]:
    """All sandwich probabilities at once.

    Exactly j y-elements precede x_i precisely when x_i sits at overall
    position i + j, so the whole table is read off the position counts
    of one lattice rather than one augmented count per cell.
    """
    prob = _position_probability(t, budget)
    return {(i, j): prob(t.x_label(i), i + j - 1) for i in range(1, t.m + 1) for j in range(t.n + 1)}


def phi_table(t: TwoChainPoset, budget: int | None = None) -> dict[tuple[int, int], Fraction]:
    prob = _position_probability(t, budget)
    return {(j, i): prob(t.y_label(j), j + i - 1) for j in range(1, t.n + 1) for i in range(t.m + 1)}


@dataclass(frozen=True)
class GStatistic:
    """Law of g(x_i), the number of y-elements preceding x_i."""

    i: int
    probs: tuple[Fraction, ...]  # index k = P(g = k), k in 0..n
    mean: Fraction


def g_distribution(t: TwoChainPoset, i: int, budget: int | None = None) -> GStatistic:
    """Exact law of g(x_i); it is the position law of x_i shifted by i."""
    f = position_distribution(t.poset, t.x_label(i), budget)
    return GStatistic(i, f.probs[i - 1 : i + t.n], f.mean - i)


def expected_g(t: TwoChainPoset, i: int, budget: int | None = None) -> Fraction:
    """Exact E g(x_i); equals i*n/(m+1) when there are no cross relations."""
    return g_distribution(t, i, budget).mean


def g_tails(t: TwoChainPoset, i: int, budget: int | None = None) -> tuple[Fraction, Fraction]:
    """(P(g >= E g), P(g <= E g)) for x_i, exact: f(x_i) = i + g."""
    return grunbaum_check(t.poset, t.x_label(i), budget)


def conditioned_psi(t: TwoChainPoset, i: int, j: int, budget: int | None = None) -> Fraction:
    """P(psi(i, j) | x_i before y_{j+1} and y_j before x_{i+1}).

    Both chains are chains, so the condition says the first i + j places
    hold x_1..x_i and y_1..y_j, and psi(i, j) says x_i is the last of
    them.  The last is x_i or y_j, so the answer is read off the position
    counts at place i + j: x_i's count over x_i's plus y_j's (none when
    j = 0).
    """
    psi_event(t, i, j)  # same index checks as the event form
    lat = build_lattice(t.poset, budget)
    rows, index, k = lat.position_counts(), t.poset.index, i + j - 1
    num = rows[index(t.x_label(i))][k]
    denom = num + (rows[index(t.y_label(j))][k] if j else 0)
    if denom == 0:
        raise ConditionNullEvent("the conditioning prefix is not reachable")
    return Fraction(num, denom)


def bl1_margin(
    t: TwoChainPoset,
    i: int,
    j: int,
    eps: Fraction,
    variant: str = "a",
    conditioned: bool = False,
    budget: int | None = None,
) -> tuple[bool, Fraction]:
    """Check the small-index tail bound P(psi(i, j)) < eps.

    Variant "a" requires i < eps * j; variant "b" requires a cross-free
    poset with m < eps * n - 1 (then the bound holds for every cell, this
    call checks the requested one).  With ``conditioned`` the probability
    is taken conditional on the prefix event of :func:`conditioned_psi`,
    which on cross-free posets equals i / (i + j) exactly.
    Raises HypothesisNotSatisfied when the arity condition fails.
    """
    eps = Fraction(eps)
    if variant == "a":
        if not Fraction(i) < eps * j:
            raise HypothesisNotSatisfied(f"need i < eps*j, got i={i}, eps*j={eps * j}")
    elif variant == "b":
        if not t.is_free:
            raise HypothesisNotSatisfied("variant b needs a cross-free poset")
        if not Fraction(t.m) < eps * t.n - 1:
            raise HypothesisNotSatisfied(
                f"need m < eps*n - 1, got m={t.m}, eps*n-1={eps * t.n - 1}"
            )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if conditioned:
        value = conditioned_psi(t, i, j, budget)
    else:
        value = psi_probability(t, i, j, budget)
    return value < eps, value


def bl2_hypothesis(m: int, n: int, i: int, j: int, k: int) -> bool:
    """Arity condition of the balanced-tail bound at cutoff k.

    Requires j > k, n - j > k and (n - j)/(m - i) < (1 + 1/k) * j/i,
    evaluated in exact integer arithmetic.
    """
    if not (1 <= i <= m and 1 <= j <= n and k >= 1):
        return False
    if j <= k or n - j <= k:
        return False
    return k * i * (n - j) < (k + 1) * j * (m - i)


def bl2_ratio_sides(
    t: TwoChainPoset, i: int, ell: int, budget: int | None = None
) -> tuple[Fraction, Fraction]:
    """Engine quotient P(psi(i, ell-1)) / P(psi(i, ell)) and its closed form.

    The closed form on a cross-free poset is
    (1 + (m - i)/(n - ell + 1)) / (1 + (i - 1)/ell).  DomainError on
    arguments outside the formula's domain or on posets with cross
    relations.
    """
    if not t.is_free:
        raise DomainError("the ratio closed form needs a cross-free poset")
    if not 1 <= i <= t.m or not 1 <= ell <= t.n:
        raise DomainError(f"need 1 <= i <= {t.m} and 1 <= ell <= {t.n}")
    closed = (1 + Fraction(t.m - i, t.n - ell + 1)) / (1 + Fraction(i - 1, ell))
    hi = psi_probability(t, i, ell - 1, budget)
    lo = psi_probability(t, i, ell, budget)
    if lo == 0:
        raise DomainError("denominator sandwich probability is zero")
    return hi / lo, closed


def bl2_ratio(t: TwoChainPoset, i: int, ell: int, budget: int | None = None) -> Fraction:
    """Ratio P(psi(i, ell-1)) / P(psi(i, ell)) on a cross-free poset.

    Raises RuntimeError unless the engine quotient equals the closed form
    of :func:`bl2_ratio_sides`, and returns the value.
    """
    exact, closed = bl2_ratio_sides(t, i, ell, budget)
    if exact != closed:
        raise RuntimeError(f"ratio mismatch: engine {exact} vs closed form {closed}")
    return exact


def mirrored(t: TwoChainPoset) -> TwoChainPoset:
    """Order dual with the chain roles swapped, again one-directional.

    Extensions reverse, so the sandwich tables trade places:
    P(psi(a, b)) of the mirror equals P(phi(n+1-a, m-b)) of the original.
    """
    cross = frozenset((t.n + 1 - j, t.m + 1 - i) for i, j in t.cross)
    return make_two_chain(t.n, t.m, cross)


def random_two_chain(
    rng: random.Random, max_m: int = 5, max_n: int = 5, cross_prob: float = 0.3
) -> TwoChainPoset:
    """Random one-directional two-chain poset for sweep tests."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    cross = set()
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if rng.random() < cross_prob:
                cross.add((i, j))
    return make_two_chain(m, n, cross)

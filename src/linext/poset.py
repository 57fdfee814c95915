"""Finite partially ordered sets.

The ground set is an ordered tuple of unique string labels.  The strict
order is stored as a dense boolean matrix that is always transitively
closed.  :meth:`Poset.from_covers` keeps its generators and closed bitsets;
other posets derive their bitsets from the matrix on first use.  Posets are
immutable once built, so derived structure (masks, profiles, the ideal
lattice) is cached on the instance and instances can be shared freely
between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    CycleDetected,
    DomainError,
    DuplicateLabel,
    NotApplicable,
    UnknownElement,
)

Label = str

#: Largest ground set for which max_incomparable_pair will run exhaustively.
EXACT_PAIR_SEARCH_LIMIT = 20


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Smallest transitive relation containing ``rel`` (boolean matrix)."""
    rel = np.asarray(rel, dtype=bool)
    gen = _row_masks(rel)
    order = _kahn_order(gen, rel.sum(axis=0).tolist())
    return _unpack_masks(_reach(reversed(order), gen), len(rel))


def _kahn_order(out: Sequence[int], indegree: list[int]) -> list[int]:
    """Kahn's order of the generators ``out[i]`` above each i, using up the
    counts ``indegree`` of those below; CycleDetected on a cycle or self-loop."""
    order = [i for i, d in enumerate(indegree) if not d]
    for i in order:  # grows while it is read: Kahn's queue
        for j in _bits(out[i]):
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < len(out):
        raise CycleDetected("relation contains a cycle")
    return order


def _reach(walk: Iterable[int], gen: Sequence[int]) -> list[int]:
    """Per element, the OR of ``reach[j] | 1 << j`` over its generators j,
    visiting elements in ``walk``, which puts each after its generators."""
    reach = [0] * len(gen)
    for i in walk:
        closed, rest = 0, gen[i]
        while rest:
            low = rest & -rest
            closed |= reach[low.bit_length() - 1] | low
            rest &= ~closed  # a reached j brings its closed reach along
        reach[i] = closed
    return reach


def transitive_reduction(lt: np.ndarray) -> np.ndarray:
    """Cover relation of a transitively closed strict order."""
    lt = np.asarray(lt, dtype=bool)
    return _unpack_masks(_cover_masks(lt), len(lt))


def _cover_masks(lt: np.ndarray) -> list[int]:
    """Upper covers per element of a closed order, as bitmasks.

    cover[x] = succ[x] & ~(union of succ[y] over y in succ[x]).  The
    elements are first renumbered by their number of predecessors, a
    linear extension, so the lowest y left in succ[x] is minimal there and
    hence a cover.  The union skips every y it already holds, whose
    successors it holds too, so it takes one step per cover of x.
    """
    order = np.argsort(lt.sum(axis=0), kind="stable")
    succ = _row_masks(lt.take(order, 0).take(order, 1))
    order = order.tolist()
    covers = [0] * len(order)
    for x, s in zip(order, succ):
        beyond, rest, cover = 0, s, 0
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            cover |= 1 << order[y]
            beyond |= succ[y]
            rest &= ~(beyond | low)
        covers[x] = cover
    return covers


class Poset:
    """Immutable finite poset.

    ``lt[i, j]`` is True exactly when element i is strictly below element j.
    The matrix handed to the constructor must already be transitively
    closed; use :meth:`from_covers` to build from an arbitrary generating
    relation.
    """

    def __init__(self, labels: Sequence[Label], lt: np.ndarray):
        labels = tuple(labels)
        seen = set()
        for lab in labels:
            if lab in seen:
                raise DuplicateLabel(f"label {lab!r} appears twice")
            seen.add(lab)
        lt = np.array(lt, dtype=bool)
        n = len(labels)
        if lt.shape != (n, n):
            raise ValueError(f"matrix shape {lt.shape} does not match {n} labels")
        if lt.diagonal().any():
            raise CycleDetected("relation contains a cycle")
        if (lt & lt.T).any():
            raise CycleDetected("relation contains a 2-cycle")
        # the closure of the covers is lt exactly when lt is closed (the
        # covers of a closed order generate it, and a closure is closed);
        # closing the covers, not lt, keeps the check linear in the covers.
        # A longer cycle without its closure is just not closed.
        try:
            closed = transitive_closure(transitive_reduction(lt))
        except CycleDetected:
            closed = None
        if closed is None or not np.array_equal(closed, lt):
            raise ValueError("relation is not transitively closed")
        self._setup(labels, lt)

    @classmethod
    def _closed(cls, labels: tuple[Label, ...], lt: np.ndarray) -> "Poset":
        """Wrap a strict order that is closed and acyclic by construction.

        Skips the checks of ``__init__``; the caller vouches for unique
        labels and a closed, acyclic ``lt`` it no longer writes to.
        """
        poset = cls.__new__(cls)
        poset._setup(labels, lt)
        return poset

    def _setup(self, labels: tuple[Label, ...], lt: np.ndarray) -> None:
        lt.flags.writeable = False
        self.labels = labels
        self.lt = lt
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._cache: dict = {}

    # -- construction ------------------------------------------------

    @classmethod
    def from_covers(
        cls, labels: Sequence[Label], covers: Iterable[tuple[Label, Label]]
    ) -> "Poset":
        """Build from any generating relation; closes transitively.

        ``covers`` may contain redundant (non-cover) pairs, they are
        absorbed by the closure.  Raises CycleDetected when the generated
        relation is cyclic and UnknownElement for labels outside the
        ground set.
        """
        labels = tuple(labels)
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise DuplicateLabel(f"label {lab!r} appears twice")
            index[lab] = i
        n = len(labels)
        out, into = [0] * n, [0] * n
        for lo, hi in covers:
            if lo not in index:
                raise UnknownElement(f"unknown element {lo!r} in cover")
            if hi not in index:
                raise UnknownElement(f"unknown element {hi!r} in cover")
            out[index[lo]] |= 1 << index[hi]
            into[index[hi]] |= 1 << index[lo]
        try:
            order = _kahn_order(out, [m.bit_count() for m in into])
        except CycleDetected:
            raise CycleDetected("cover relation generates a cycle") from None
        succ = _reach(reversed(order), out)
        poset = cls._closed(labels, _unpack_masks(succ, n))
        poset._succ_masks = tuple(succ)
        poset._cache["generators"] = (out, into, order)  # for pred and covers
        return poset

    @classmethod
    def from_dict(cls, data: dict) -> "Poset":
        """Inverse of :meth:`to_dict`."""
        return cls.from_covers(data["labels"], [tuple(c) for c in data["covers"]])

    def to_dict(self) -> dict:
        """JSON-ready form: labels plus the cover relation."""
        return {
            "labels": list(self.labels),
            "covers": [list(c) for c in self.covers],
        }

    # -- basic queries -----------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, x: Label) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def less(self, u: Label, v: Label) -> bool:
        """True when u is strictly below v."""
        return bool(self.lt[self.index(u), self.index(v)])

    def comparable(self, u: Label, v: Label) -> bool:
        i, j = self.index(u), self.index(v)
        return bool(self.lt[i, j] or self.lt[j, i])

    @cached_property
    def covers(self) -> tuple[tuple[Label, Label], ...]:
        labels, masks = self.labels, self._upper_cover_masks
        return tuple((labels[i], labels[j]) for i, m in enumerate(masks) for j in _bits(m))

    @cached_property
    def _pred_masks(self) -> tuple[int, ...]:
        """Bitmask of strict predecessors per element, for lattice sweeps."""
        if "generators" in self._cache:
            _, into, order = self._cache["generators"]
            return tuple(_reach(order, into))
        return _row_masks(self.lt.T)

    @cached_property
    def _succ_masks(self) -> tuple[int, ...]:
        return _row_masks(self.lt)

    @cached_property
    def _incomp_masks(self) -> tuple[int, ...]:
        """Bitmask of elements incomparable to each element (self excluded)."""
        full = (1 << self.n) - 1
        return tuple(
            full & ~(s | q | 1 << x)
            for x, (s, q) in enumerate(zip(self._succ_masks, self._pred_masks))
        )

    @cached_property
    def _upper_cover_masks(self) -> tuple[int, ...]:
        """Bitmask of the elements covering each element."""
        if "generators" not in self._cache:
            return tuple(_cover_masks(self.lt))
        # every cover is a generator: a j above i with nothing between them
        out, pred, succ = self._cache["generators"][0], self._pred_masks, self._succ_masks
        return tuple(sum(1 << j for j in _bits(g) if not pred[j] & s) for g, s in zip(out, succ))

    def is_chain(self) -> bool:
        """True when no element has a bit in ``_incomp_masks``."""
        return not any(self._incomp_masks)

    def is_antichain(self) -> bool:
        return not self.lt.any()

    # -- derived posets ----------------------------------------------

    def dual(self) -> "Poset":
        """Same elements with all relations reversed."""
        return Poset._closed(self.labels, np.ascontiguousarray(self.lt.T))

    def subposet(self, keep: Iterable[Label]) -> "Poset":
        """Induced subposet; element order follows the parent poset."""
        want = {self.index(x) for x in keep}
        idx = [i for i in range(self.n) if i in want]
        sub = self.lt[np.ix_(idx, idx)]
        return Poset._closed(tuple(self.labels[i] for i in idx), sub)

    def incomparables(self, x: Label) -> tuple[Label, ...]:
        """All elements incomparable to x, in ground-set order."""
        m = self._incomp_masks[self.index(x)]
        return tuple(self.labels[i] for i in _bits(m))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.lt, other.lt)

    def __hash__(self) -> int:
        return hash((self.labels, self.lt.tobytes()))

    def __repr__(self) -> str:
        return f"Poset({self.n} elements, {len(self.covers)} covers)"


def disjoint_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with no relations across the parts.

    Colliding labels on the right side are renamed by appending primes
    until unique.
    """
    taken = set(p.labels)
    right = []
    for lab in q.labels:
        new = lab
        while new in taken:
            new = new + "'"
        taken.add(new)
        right.append(new)
    n1, n2 = p.n, q.n
    lt = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    lt[:n1, :n1] = p.lt
    lt[n1:, n1:] = q.lt
    return Poset._closed(p.labels + tuple(right), lt)


def _row_masks(rel: np.ndarray) -> tuple[int, ...]:
    """Row i of a boolean matrix as a bitmask with bit j set when rel[i, j]."""
    packed = np.packbits(rel, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return tuple(
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width or 1)  # width 0: no rows either
    )


def _unpack_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """Inverse of :func:`_row_masks`: an n-by-n boolean matrix."""
    width = (n + 7) // 8
    data = b"".join(m.to_bytes(width, "little") for m in masks)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# -- width and incomparability -----------------------------------------


@dataclass(frozen=True)
class ComparabilityProfile:
    """Incomparability counts plus the width and a maximum-antichain witness.

    ``counts[x]`` is π(x), the number of elements incomparable to x, and
    ``max_count`` is π(P).  The elements themselves are
    :meth:`Poset.incomparables`.
    """

    counts: dict[Label, int]
    max_count: int
    width: int
    antichain: tuple[Label, ...]


def _max_matching(succ: Sequence[int]) -> list[int]:
    """Kuhn's maximum matching over successor bitsets: ``match[v]`` is the
    element matched below v, or -1.  A greedy pass first matches each
    element, in index order, below its lowest successor not yet taken; each
    element it leaves unmatched below anything then roots one search.  A
    search runs on one explicit stack and tries successors in ascending
    order, so the lowest unseen is next.
    """
    n = len(succ)
    match = [-1] * n
    roots = []
    taken = 0
    for u, s in enumerate(succ):
        s &= ~taken
        if s:
            low = s & -s
            taken |= low
            match[low.bit_length() - 1] = u
        else:
            roots.append(u)
    for root in roots:
        # path[k] tries the successor tried[k], which path[k + 1] holds
        path, tried, unseen = [root], [], (1 << n) - 1
        while path:
            free = succ[path[-1]] & unseen
            if not free:  # no augmenting path through path[-1]: back up
                del path[-1], tried[-1:]
                continue
            low = free & -free
            unseen ^= low
            v = low.bit_length() - 1
            tried.append(v)
            if match[v] == -1:
                for u, v in zip(path, tried):
                    match[v] = u
                break
            path.append(match[v])
    return match


def comparability_profile(p: Poset) -> ComparabilityProfile:
    """π of each element and of the poset, the width, and a maximum antichain.

    Reads only the bitsets: π(x) is the size of ``_incomp_masks[x]``, and
    the width is n minus a maximum matching of the comparability digraph
    (Fulkerson's reduction of Dilworth's theorem), :func:`_max_matching`
    over ``_succ_masks``.  The antichain is König's: the elements that
    alternating paths from the unmatched reach on the left and not on the
    right.  Those two sets are the same for every maximum matching (the
    Gallai-Edmonds decomposition), so the matching's greedy start, which
    leaves Kuhn's searches far fewer steps, gives the antichain that an
    empty start gives.
    """
    n, succ = p.n, p._succ_masks
    match = _max_matching(succ)
    matched = sum(1 << u for u in match if u != -1)
    width = n - matched.bit_count()

    left = frontier = ~matched & (1 << n) - 1
    right = 0
    while frontier:
        reach = 0
        for u in _bits(frontier):
            reach |= succ[u]
        reach &= ~right
        right |= reach
        frontier = sum(1 << match[v] for v in _bits(reach) if match[v] != -1) & ~left
        left |= frontier
    antichain = tuple(p.labels[i] for i in _bits(left & ~right))
    if len(antichain) != width:
        raise RuntimeError("matching and antichain witness disagree")

    counts = {lab: m.bit_count() for lab, m in zip(p.labels, p._incomp_masks)}
    max_count = max(counts.values(), default=0)
    return ComparabilityProfile(counts, max_count, width, antichain)


# -- maximum incomparable pairs -----------------------------------------


@dataclass(frozen=True)
class IncomparablePair:
    """Disjoint sets A, B with every cross pair incomparable.

    Normalized so ``len(b) >= len(a)``.  ``mu`` is a certified lower bound
    on how close ``product`` comes to the best achievable product: exactly
    1 in exhaustive mode, and ``product / bound`` with a cheap upper bound
    in greedy mode.
    """

    a: tuple[Label, ...]
    b: tuple[Label, ...]
    product: int
    mu: Fraction


def _pair_key(n_a: int, n_b: int, a_mask: int, b_mask: int):
    """Sort key: max product, then larger second side, then lexicographic."""
    if (n_b, -n_a) < (n_a, -n_b):
        n_a, n_b, a_mask, b_mask = n_b, n_a, b_mask, a_mask
    return (-n_a * n_b, -n_b, sorted(_bits(a_mask)), sorted(_bits(b_mask)))


def max_incomparable_pair(
    p: Poset, mode: str = "exact", limit: int = EXACT_PAIR_SEARCH_LIMIT
) -> IncomparablePair:
    """Best pair of disjoint sets with all cross pairs incomparable.

    ``mode="exact"`` (allowed up to ``limit`` elements) maximizes
    ``|A|*|B|`` by branch and bound over subsets A, pairing each A with
    every element incomparable to all of it.  ``mode="greedy"`` seeds A
    with an element of maximum incomparability and grows it while the
    product improves, which guarantees a product of at least max pi(x).
    """
    if p.is_chain():
        raise NotApplicable("every pair of elements is comparable")
    n = p.n
    inc = p._incomp_masks
    full = (1 << n) - 1

    if mode == "greedy":
        seed = max(range(n), key=lambda i: (inc[i].bit_count(), -i))
        a_mask = 1 << seed
        cand = inc[seed]
        while True:
            b_mask = cand & ~a_mask
            best_gain = None
            current = a_mask.bit_count() * b_mask.bit_count()
            for z in _bits(full & ~a_mask):
                nc = cand & inc[z]
                na = a_mask | (1 << z)
                prod = na.bit_count() * (nc & ~na).bit_count()
                if prod > current and (best_gain is None or prod > best_gain[0]):
                    best_gain = (prod, z, nc)
            if best_gain is None:
                break
            _, z, cand = best_gain
            a_mask |= 1 << z
        b_mask = cand & ~a_mask
        best = (a_mask, b_mask)
        profile_max = max(m.bit_count() for m in inc)
        bound = min(profile_max * profile_max, (n * n) // 4)
        product = best[0].bit_count() * best[1].bit_count()
        mu = Fraction(product, max(bound, product))
    elif mode == "exact":
        if n > limit:
            raise NotApplicable(
                f"exhaustive pair search limited to {limit} elements (got {n})"
            )
        best = None
        best_key = None

        def consider(a_mask: int, cand: int):
            nonlocal best, best_key
            b_mask = cand & ~a_mask
            if not a_mask or not b_mask:
                return
            key = _pair_key(
                a_mask.bit_count(), b_mask.bit_count(), a_mask, b_mask
            )
            if best_key is None or key < best_key:
                best_key = key
                best = (a_mask, b_mask)

        def search(idx: int, a_mask: int, n_a: int, cand: int):
            if best_key is not None:
                remaining = n - idx
                if (n_a + remaining) * cand.bit_count() < -best_key[0]:
                    return
            if idx == n:
                return
            # include idx in A; useless once no candidate partner survives
            nc = cand & inc[idx]
            if nc:
                na_mask = a_mask | (1 << idx)
                consider(na_mask, nc)
                search(idx + 1, na_mask, n_a + 1, nc)
            # skip idx
            search(idx + 1, a_mask, n_a, cand)

        search(0, 0, 0, full)
        if best is None:  # a non-chain always has an incomparable pair
            raise RuntimeError("no incomparable pair found in a non-chain")
        product = best[0].bit_count() * best[1].bit_count()
        mu = Fraction(1)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    a_mask, b_mask = best
    n_a, n_b = a_mask.bit_count(), b_mask.bit_count()
    if (n_b, -n_a) < (n_a, -n_b):
        a_mask, b_mask = b_mask, a_mask
    a = tuple(p.labels[i] for i in _bits(a_mask))
    b = tuple(p.labels[i] for i in _bits(b_mask))
    return IncomparablePair(a, b, len(a) * len(b), mu)


# -- grid sets ----------------------------------------------------------


class GridOrderCheck(NamedTuple):
    convex: bool
    ideal: bool
    poset: Poset


def grid_point_label(point: tuple[int, ...]) -> Label:
    return ",".join(str(c) for c in point)


def grid_poset(points: Sequence[tuple[int, ...]]) -> Poset:
    """Poset of integer points under the coordinatewise product order."""
    pts = [tuple(q) for q in points]
    if pts:
        d = len(pts[0])
        for q in pts:
            if len(q) != d:
                raise ArityMismatch("grid points must share one dimension")
            if any(c < 1 for c in q):
                raise DomainError("grid coordinates must be positive")
    if len(set(pts)) != len(pts):
        raise DuplicateLabel("grid points must be distinct")
    pts = sorted(pts)
    # one row per point: the empty set has no first point to take d from
    at = np.array(pts).reshape(len(pts), len(pts[0]) if pts else 0)
    lt = (at[:, None] <= at[None]).all(axis=2)
    np.fill_diagonal(lt, False)  # distinct points, so i != j is a != b
    return Poset._closed(tuple(grid_point_label(q) for q in pts), lt)


def is_convex_in_grid(points: Sequence[tuple[int, ...]]) -> GridOrderCheck:
    """Convexity and ideal tests for a finite set of positive integer points.

    The set is convex when every point of the ambient grid lying strictly
    between two of its points (in the product order) also belongs to it,
    and an ideal when it is closed downward.  The convexity check
    enumerates the box between each comparable pair, so it is meant for
    desk-scale sets; the ideal check looks one step down each axis.
    """
    pts = [tuple(q) for q in points]
    pset = set(pts)
    if len(pset) != len(pts):
        raise DuplicateLabel("grid points must be distinct")
    poset = grid_poset(pts)

    def strictly_below(a, b):
        return a != b and all(x <= y for x, y in zip(a, b))

    convex = True
    for a in pts:
        for b in pts:
            if not strictly_below(a, b):
                continue
            for mid in itertools.product(*(range(x, y + 1) for x, y in zip(a, b))):
                if mid in pset:
                    continue
                if strictly_below(a, mid) and strictly_below(mid, b):
                    convex = False
                    break
            if not convex:
                break
        if not convex:
            break

    # closed downward exactly when each point's step down every axis stays
    # in the set (induction on the coordinate sum)
    ideal = all(
        b[:k] + (c - 1,) + b[k + 1 :] in pset
        for b in pts
        for k, c in enumerate(b)
        if c > 1
    )

    return GridOrderCheck(convex, ideal, poset)

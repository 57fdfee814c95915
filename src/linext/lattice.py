"""Exact computation over linear extensions through the lattice of ideals.

Every downward-closed subset (ideal) of the poset becomes a node; an edge
adds one minimal element of the complement.  Paths from the empty ideal to
the full set are exactly the linear extensions, so dynamic programming
along the lattice yields extension counts, per-element position marginals,
event probabilities, and exact uniform samples without ever enumerating
extensions one by one.

Two kernels build the lattice, chosen by the input (:func:`_arrays_win`).

The dict kernel, :func:`_walk`, generates the lattice level by level.  It
carries each ideal's addable set (the minimal elements of the complement)
and updates it from the upper covers of the element just added, so no
pass tests elements that cannot come next.  The down pass is this walk
with path counts, and the lattice keeps its levels with every ideal's
addable set, one int per ideal.  The up pass is a reverse loop over
those levels, and the position counts (with the pair counts, when asked,
in the same pass) and the sampler's tables read them too, so a lattice
is walked once.  It serves small lattices, and any poset the array
kernel cannot hold (:func:`_arrays_fit`).

The array kernel, :func:`_array_levels`, serves lattices large enough to pay
for it.  Each ideal is a row of ceil(n / 64) ``uint64`` words; the rows,
down counts and up counts are one array each, cut into levels by offsets,
and a level is sorted by a one-word key (the mask, or past 64 elements the
chain code of :func:`_chain_code`).  One broadcast test over a chunk of the
level and every element finds the edges, kept by source; one sort by target
key groups them for the down pass, and the chunk's targets are merged into
the next level by binary search, each edge kept with its target's index
there.  Path counts are kept modulo primes below 2^31: enough in the down
pass to exceed a bound on e(P) (n! over the chain cover), so the Chinese
remainder theorem (CRT) rebuilds e(P) exactly, and then only those that
cover e(P), which bounds every other count.  The down, up and masked passes
are int64 segment sums (:func:`_segment_sums`), below 2^6 2^31 = 2^37 since
an ideal has at most 64 edges in or out (:func:`_arrays_fit`).  The sweeps
sum over at most 2^31 ideals (the kernel's indices are int32), each adding
less than 2^31 to an entry, so they reduce their int64 sums once, at the
end.  Each answer is one CRT (De Loof, De Meyer and De Baets, "Exploiting
the lattice of ideals representation of a poset", Fundam. Inform. 2006).
Neither kernel shows its ideals or path counts: a lattice answers with
counts, laws, pair counts and draws.  Draws walk index tables over either
kernel's stored out-edges (one total per step, then the children up to the
chosen one), so samples are the same on both kernels.

An event "u before v" drops the pairs the poset already orders, and
counts 0 at once when a pair left has u == v or is ordered the other way.
With one pair left, :func:`event_probability` reads it from the cached
lattice's ``pair_counts``, one sweep that answers every pair at once,
and :func:`conditional_probability` reads it there when the sweep is
already made.  Two or more, and every other conditional count, are
counted on the ideals that hold u whenever they hold v.  When the
poset caches an array-kernel lattice within the budget, that is one
masked up pass over its stored edges, the counts of every other ideal
zeroed (each pair read from the words of the ideals), with a block of
rows per pair set (a conditional's two counts share it).  Otherwise it is
a constrained down pass, on either kernel, so the budget bounds only the
ideals it walks.

The lattice of a poset whose comparability graph falls into several
connected parts is the product of the parts' lattices, so
:func:`build_lattice` decomposes first.  It builds one
:class:`DownsetLattice` per part, on the part's subposet, and a
:class:`SplitLattice` folds their exact integers together: in a uniform
extension the parts' orders are independent and uniformly interleaved.
The extension count is the multinomial C(n; |P1|, ..., |Pk|) times the
parts' counts.  Slot i of a part of size p sits at position k in
C(k-1, i-1) C(n-k, p-i) of the C(n, p) placements of its slots.  A pair
across two parts is counted from both parts' position counts and the
number of interleavings that put one slot before the other.  Only a
split poset whose whole lattice could be small (fewer than
``_SPLIT_MIN_IDEALS`` ideals by a bound from its parts) is built whole,
because there a lattice per part costs more than it saves.

Ideals are encoded as integer bitmasks over the ground-set indices:
Python ints (arbitrary precision, so any desk-scale n works) in the dict
kernel, rows of ``uint64`` words in the array kernel.  Construction is
bounded by a node budget and raises :class:`BudgetExceeded` past it,
with the same (nodes, budget) from both kernels.  A poset whose ideal
floor already passes the budget is refused before any level, reporting
the floor; the array kernel checks after each chunk it merges, so a
level past the budget is never merged whole.  The budget bounds the
nodes really built: for a split poset, the sum over its parts, each part
built against what the earlier ones left.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, ComparablePair, ConditionNullEvent, CycleDetected
from .poset import Poset, _bits

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
    """A position law: ``counts[k]`` of ``total`` extensions put the element at k + 1.

    An exact law is its integer position counts over e(P); ``mean`` and
    ``variance()`` are one Fraction each, from :meth:`mean_variance`'s one
    pass over the nonzero counts, and ``probs`` is built on read.
    """

    element: str
    counts: tuple[int, ...]
    total: int

    @classmethod
    def from_probs(cls, element: str, probs: Sequence[Fraction]) -> "PositionDistribution":
        """``probs`` over their least common denominator."""
        probs = tuple(probs)
        total = math.lcm(*(p.denominator for p in probs))
        return cls(element, tuple(p.numerator * (total // p.denominator) for p in probs), total)

    @functools.cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.total) for c in self.counts)

    def mean_variance(self) -> tuple[Fraction, Fraction]:
        """E f and E f² - (E f)², the latter over the total squared, from
        one pass over the nonzero counts."""
        first = second = 0
        counts = self.counts
        for k, c in zip(itertools.compress(itertools.count(1), counts), filter(None, counts)):
            c *= k
            first += c
            second += k * c
        t = self.total
        return Fraction(first, t), Fraction(second * t - first * first, t * t)

    @property
    def mean(self) -> Fraction:
        return self.mean_variance()[0]

    @property
    def support(self) -> tuple[int, ...]:
        """Positions (1-based) with positive probability."""
        return tuple(k for k, c in enumerate(self.counts, 1) if c > 0)

    def variance(self) -> Fraction:
        """E f² - (E f)², as one Fraction over the total squared."""
        return self.mean_variance()[1]


def _grow(addable: int, b: int, unplaced: int, step) -> int:
    """Addable set after placing x, from the addable set before it.

    ``b`` is x's bit, ``unplaced`` the elements still unplaced after x, and
    ``step`` lists (bit, needed mask) of every element that may become
    addable when x is placed: x leaves the set, and each such element with
    nothing it needs left unplaced enters it.
    """
    addable ^= b
    for c, need in step:
        if not need & unplaced:
            addable |= c
    return addable


def _steps(pred: Sequence[int], cand: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Per element x, (bit, pred mask) of every candidate in ``cand[x]``."""
    steps = []
    for m in cand:
        step = []
        while m:
            c = m & -m
            m ^= c
            step.append((c, pred[c.bit_length() - 1]))
        steps.append(step)
    return steps


def _walk(n: int, pred: Sequence[int], cand: Sequence[int], budget: int, counts: dict[int, int]):
    """Yield the lattice level by level as (ideals, addable sets) lists.

    The one successor kernel.  Elements are placed one at a time, x once
    everything in ``pred[x]`` is placed, and the addable set (the minimal
    unplaced elements) is carried along: placing x drops x from it and
    adds each element of ``cand[x]`` whose ``pred`` is then all placed.
    So ``cand[x]`` must hold every c for which x can be the last element
    of ``pred[c]`` to be placed: the upper covers of x, plus v for each
    extra requirement x before v.  ``pred`` need not be closed: a cycle
    leaves the full set unreached.  Each level lists its ideals in order
    of discovery, in new lists, so a consumer may keep them.

    Sums path counts from the empty ideal into ``counts``, which must
    hold ``{0: start count}``.  Raises BudgetExceeded past ``budget``
    ideals.
    """
    steps = _steps(pred, cand)
    low = (1 << n) - 1
    masks = [0]
    addables = [sum(1 << x for x in range(n) if not pred[x])]
    nodes = 1
    for _ in range(n):
        yield masks, addables
        # while a level is built, ``counts`` maps each of its ideals to its
        # path count shifted above the low n bits and its addable set in them
        found = []
        for mask, addable in zip(masks, addables):
            d = counts[mask] << n
            rest = addable
            while rest:
                b = rest & -rest
                rest ^= b
                new = mask | b
                hit = counts.get(new)
                if hit is None:
                    counts[new] = d | _grow(addable, b, ~new, steps[b.bit_length() - 1])
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceeded(nodes, budget, _chain_code(n, pred)[1])
                    found.append(new)
                else:
                    counts[new] = hit + d
        masks = found
        addables = []
        for m in masks:
            v = counts[m]
            addables.append(v & low)
            counts[m] = v >> n
    yield masks, addables


#: The 24 largest primes below 2^31; their product (744 bits) exceeds 128!.
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
)
_MODS = np.array(_PRIMES, dtype=np.int64)[:, None]
_PRIME_PRODUCT = math.prod(_PRIMES)
#: ``_GARNER[j][i]``: the inverse of prime i modulo prime j (i < j).
_GARNER = [[pow(p, -1, q) for p in _PRIMES[:j]] for j, q in enumerate(_PRIMES)]

#: Rows of a level tested and merged at once, and edges a sweep reads at
#: once: no temporary array exceeds this many rows of n entries per count row.
_CHUNK = 4096
#: Entries (32 MB) up to which the array kernel's build doubles each array it
#: grows level by level, and the step by which it shrinks one it copies out.
_GROWTH = 1 << 22
_WORD = (1 << 64) - 1


def _chain_cover(n: int, pred: Sequence[int]) -> tuple[list[int], list[int]]:
    """A greedy chain cover: the chain of each element, and each chain's size.

    Elements are taken by predecessor count, and each joins the first
    chain whose top is in its ``pred`` (or starts a new one).  So every
    element of a chain has the one before it in its ``pred``, closed or
    not, and every ideal reachable under ``pred`` meets each chain in a
    prefix.
    """
    tops: list[int] = []
    sizes: list[int] = []
    chain = [0] * n
    for x in sorted(range(n), key=lambda x: pred[x].bit_count()):
        for i, t in enumerate(tops):
            if (pred[x] >> t) & 1:
                break
        else:
            i = len(tops)
            tops.append(x)
            sizes.append(0)
        tops[i] = x
        sizes[i] += 1
        chain[x] = i
    return chain, sizes


def _count_bound(n: int, pred: Sequence[int]) -> int:
    """n! / (|C1|! ... |Cw|!) over the chain cover: at least e(P).

    Every extension interleaves the chains, each in its own order.
    """
    bound = math.factorial(n)
    for s in _chain_cover(n, pred)[1]:
        bound //= math.factorial(s)
    return bound


def _chain_code(n: int, pred: Sequence[int]) -> tuple[list[int], int]:
    """Per element, its stride in the chain code, and the number of codes.

    An ideal's code is the sum over the chains of the cover of its height
    on chain i times ``(|C1| + 1) ... (|C(i-1)| + 1)``.  An ideal meets
    every chain in a prefix, so the code is one-to-one, and adding x adds
    the stride of x's chain.  Codes run below ``(|C1| + 1) ... (|Cw| + 1)``.
    """
    chain, sizes = _chain_cover(n, pred)
    places = [1]
    for s in sizes:
        places.append(places[-1] * (s + 1))
    return [places[c] for c in chain], places[-1]


def _primes_over(bound: int) -> int:
    """How many of :data:`_PRIMES` it takes for a product above ``bound``."""
    k, product = 0, 1
    while product <= bound:
        product *= _PRIMES[k]
        k += 1
    return k


def _crt(res: np.ndarray) -> list:
    """Exact values from residues modulo the first ``len(res)`` primes.

    ``res[j]`` holds the residues modulo prime j, in any shape; the values
    come back as nested lists of Python ints in that shape.  Garner's
    mixed-radix digits are computed on the arrays, and joined two by two in
    int64 (d + p d' < 2^62 + 2^31, where d' is the digit of the next
    prime); only the rest of the combination runs on Python ints.
    """
    digits = []
    for j, r in enumerate(res):
        q = _PRIMES[j]
        t = r
        for i, d in enumerate(digits):
            t = (t - d) % q * _GARNER[j][i] % q
        digits.append(t)
    words = [
        digits[j] + _PRIMES[j] * digits[j + 1] if j + 1 < len(digits) else digits[j]
        for j in range(0, len(digits), 2)
    ]
    *low, top = words
    value = top.astype(object) if low else top
    for j in range(len(low) - 1, -1, -1):
        value = value * (_PRIMES[2 * j] * _PRIMES[2 * j + 1]) + low[j]
    return value.tolist()


def _segment_sums(counts: np.ndarray, runs: Sequence[tuple], m: int) -> np.ndarray:
    """Sums of ``counts`` (k rows, one per prime, or r blocks of them) along edges, mod each prime.

    A run, one chunk's edges, starts (pick, starts, into): group g sums
    ``counts[..., pick[starts[g]:starts[g + 1]]]`` into ``out[..., into[g]]``
    (``out[..., g]`` for a level of one run), and fancy indexing adds a run,
    whose groups (targets going down, sources going up) are distinct.  The
    int64 sums are exact: an ideal has at most 64 edges in or out, each count
    below 2^31, so a sum is below 2^37.
    """
    out = None if len(runs) == 1 else np.zeros(counts.shape[:-1] + (m,), dtype=np.int64)
    for pick, starts, into, *_ in runs:
        part = np.add.reduceat(counts.take(pick, axis=-1), starts, axis=-1)
        if out is None:
            out = part
        else:
            out[..., into] += part
    return np.remainder(out, _MODS[: counts.shape[-2]], out=out)  # in place: a level's largest temporary


@functools.lru_cache(maxsize=256)
def _element_bits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elements 0..n-1, the word of each in an ideal's row, and its bit there.

    Cached per n and read-only, so every pass of the array kernel shares them.
    """
    elements = np.arange(n)
    word = elements // 64
    bit = np.left_shift(np.uint64(1), (elements % 64).astype(np.uint64))
    for a in (elements, word, bit):
        a.flags.writeable = False
    return elements, word, bit


def _array_levels(n: int, pred: Sequence[int], k: int, budget: int):
    """Yield the lattice level by level as (ideals, counts, runs); the array kernel.

    ``ideals`` holds one row of W = ceil(n / 64) little-endian ``uint64``
    words per ideal, and ``counts[j]`` the path counts from the empty
    ideal modulo prime j, for j < ``k``.  ``runs`` holds (tgt, starts,
    span, x) per chunk of the level that edges leave: its edges by source,
    then element, as each edge's target ``tgt`` in the next level and its
    element ``x``, and each source's first edge in ``starts``, for the
    sources of the level's slice ``span``; so each is a run of the up pass
    (:func:`_segment_sums`) as it stands.  The last level (or the first no
    edge leaves, on a cycle) has ``runs`` None.  x is addable to I when
    ``I & x == 0 and I & pred[x] == pred[x]``; ``pred`` need not be closed.

    A level is sorted by a one-word key, the mask or else the chain code
    (:func:`_chain_code`); a target's key is its source's plus the stride of
    x.  One sort of a chunk's edges by target key groups them for the down
    pass and finds its targets, merged into the next level by
    ``np.searchsorted`` (no level is sorted whole), with the count checked
    against ``budget`` after each chunk.
    """
    width = max(1, -(-n // 64))
    elements, word, bit = _element_bits(n)
    # need[j][x]: word j of pred[x]; want adds x, which pred[x] never
    # holds, so I & want == need tests both
    need = np.array([[m >> s & _WORD for m in pred] for s in range(0, 64 * width, 64)], dtype=np.uint64)
    want = need.copy()
    want[word, elements] |= bit
    need, want = list(need), list(want)
    stride = bit if width == 1 else np.array(_chain_code(n, pred)[0], dtype=np.uint64)
    ids = np.min_scalar_type(n)  # element ids of the edges
    keys = np.zeros(1, dtype=np.uint64)
    level = keys[:, None] if width == 1 else np.zeros((1, width), dtype=np.uint64)
    # the level's words, one column each: with one word, its keys
    words = [keys] if width == 1 else list(level.T)
    counts = np.ones((k, 1), dtype=np.int64)
    nodes = 1
    for _ in range(n):
        found = []
        nxt = keys[:0]
        for lo in range(0, len(keys), _CHUNK):
            ok = (words[0][lo : lo + _CHUNK, None] & want[0]) == need[0]
            for j in range(1, width):
                ok &= (words[j][lo : lo + _CHUNK, None] & want[j]) == need[j]
            edge = np.flatnonzero(ok)  # by source, then by element
            if len(edge) == 0:
                continue
            src = edge // n
            x = (edge - src * n).astype(ids)
            # each source's first edge
            starts = np.searchsorted(src, np.arange(len(ok))).astype(np.int32)
            src = (src + lo).astype(np.int32)
            key = keys[src] + stride[x]
            order = np.argsort(key)
            key = key[order]
            head = np.concatenate(([True], key[1:] != key[:-1]))
            new = key[head]
            if len(nxt):
                at = np.searchsorted(nxt, new)
                seen = nxt[np.minimum(at, len(nxt) - 1)] == new
                nxt = np.insert(nxt, at[~seen], new[~seen])
            else:
                nxt = new
            if nodes + len(nxt) > budget:
                # the dict kernel stops at the first ideal past the budget
                raise BudgetExceeded(max(budget, 1) + 1, budget, _chain_code(n, pred)[1])
            tgt = np.empty(len(key), dtype=np.int32)  # each edge's target in ``new``, by source
            tgt[order] = np.cumsum(head) - 1
            heads = np.flatnonzero(head).astype(np.int32)
            found.append((src[order], heads, new, x[order], tgt, starts, x, lo))
        if not found:
            break
        nodes += len(nxt)
        above = nxt[:, None] if width == 1 else np.empty((len(nxt), width), dtype=np.uint64)
        blocks, runs = [], []
        for src, heads, new, by_target, tgt, starts, x, lo in found:
            into = None if new is nxt else np.searchsorted(nxt, new).astype(np.int32)  # None: one chunk
            blocks.append((src, heads, into))
            runs.append((tgt if into is None else into[tgt], starts, slice(lo, lo + len(starts)), x))
            if width > 1:  # each next ideal is its first edge's source plus x
                rows, first = level[src[heads]], by_target[heads]
                rows[np.arange(len(rows)), word[first]] |= bit[first]
                above[slice(None) if into is None else into] = rows
        yield level, counts, runs
        counts = _segment_sums(counts, blocks, len(nxt))
        keys, level = nxt, above
        words = [keys] if width == 1 else list(level.T)
    yield level, counts, None


#: The array kernel builds the lattice of a poset of n elements when
#: ``n >= _ARRAY_MIN_ELEMENTS``, :func:`_ideal_floor` is at least
#: ``_ARRAY_MIN_IDEALS_PER_ELEMENT * n`` and :func:`_arrays_fit` holds.  It
#: costs about 0.1 ms per level and little per ideal; the dict kernel about
#: 10 µs per ideal (build plus both sweeps).  ``tools/kernel_regime.py``
#: times both on random connected posets (its runs are recorded in
#: ``BENCH_7.json`` and ``BENCH_8.json`` under ``regime``): the median
#: speed-up crosses 1 at a floor of about 3n (past 64 elements, between 3n
#: and 3.5n), where the median lattice holds about 20n ideals, and posets
#: of 6 to 10 elements lose on the array kernel, so verify's posets stay on
#: the dict kernel.
_ARRAY_MIN_ELEMENTS = 11
_ARRAY_MIN_IDEALS_PER_ELEMENT = 3


def _ideal_floor(n: int, pred: Sequence[int], cand: Sequence[int]) -> int:
    """A lower bound on the ideals reachable under ``pred``.

    Layer t holds the elements whose predecessors all lie in earlier
    layers.  The earlier layers plus any nonempty subset of layer t form
    an ideal, so there are at least 1 + sum over t of (2^|layer t| - 1).
    The layers come from one pass of Kahn's algorithm: ``cand`` is as in
    :func:`_walk`, so an element enters layer t + 1 only if it is in
    ``cand`` of some element of layer t, and only those are tested.  That
    is one test per element of each ``cand[x]``, where a rescan of every
    element left per layer is quadratic on a chain.
    """
    layer = sum(1 << x for x in range(n) if not pred[x])
    placed = 0
    floor = 1
    while layer:
        placed |= layer
        floor += (1 << layer.bit_count()) - 1
        near = 0
        for x in _bits(layer):
            near |= cand[x]
        free = ~placed
        layer = sum(1 << c for c in _bits(near & free) if not pred[c] & free)
    return floor


def _arrays_fit(n: int, pred: Sequence[int]) -> bool:
    """True when the array kernel can hold this lattice.

    Its chain code (:func:`_chain_code`) must fit one ``uint64`` key, and
    :data:`_PRIMES` must cover :func:`_count_bound`.  Both hold for every
    n <= 64.  The first allows at most 64 chains, and an ideal has at most
    one edge in and one out per chain.
    """
    return n <= 64 or (
        _chain_code(n, pred)[1] <= 1 << 64 and _count_bound(n, pred) < _PRIME_PRODUCT
    )


def _arrays_win(n: int, pred: Sequence[int], floor: int) -> bool:
    """True when the array kernel builds this lattice (see :data:`_ARRAY_MIN_ELEMENTS`).

    ``floor`` is :func:`_ideal_floor`, as :func:`_preflight` reads it.
    """
    return (
        n >= _ARRAY_MIN_ELEMENTS
        and floor >= _ARRAY_MIN_IDEALS_PER_ELEMENT * n
        and _arrays_fit(n, pred)
    )


def _preflight(n: int, pred: Sequence[int], cand: Sequence[int], budget: int) -> bool:
    """The kernel rule, after refusing a lattice plainly past ``budget``.

    ``pred`` and ``cand`` are as in :func:`_walk`.  The ideal floor is
    read once, where the rule needs it (from :data:`_ARRAY_MIN_ELEMENTS`
    elements; smaller posets skip the check).
    A floor past the budget raises BudgetExceeded (the floor, and the
    chain codes as ``upper``) before any level and on either kernel.
    """
    floor = 0
    if n >= _ARRAY_MIN_ELEMENTS:
        floor = _ideal_floor(n, pred, cand)
        if floor > budget:
            raise BudgetExceeded(floor, budget, _chain_code(n, pred)[1])
    return _arrays_win(n, pred, floor)


def _down_pass(n: int, pred: Sequence[int], cand: Sequence[int], budget: int | None) -> int:
    """Paths from the empty ideal to the full set: the extension count.

    ``pred`` and ``cand`` are as in :func:`_walk`; a cycle counts 0.
    Raises BudgetExceeded past ``budget`` nodes (None: the default
    budget).
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    if not _preflight(n, pred, cand, budget):
        down: dict[int, int] = {0: 1}
        for _ in _walk(n, pred, cand, budget, down):
            pass
        return down.get((1 << n) - 1, 0)
    k = _primes_over(_count_bound(n, pred))
    # the walk stops early, short of the full set, only on a cycle
    for size, (_, counts, _) in enumerate(_array_levels(n, pred, k, budget)):
        pass
    return _crt(counts[:, :1])[0] if size == n else 0


def _index_type(edges: int) -> type:
    """The sampler's index type for a lattice of ``edges`` edges.

    Every ideal but the empty one has an edge in, so ``edges`` also bounds
    the ideal indices, and no index wraps.
    """
    return np.int32 if edges < 1 << 31 else np.int64


class _Arrays:
    """The array kernel's lattice: ideals, edges (once, by source) and counts modulo primes.

    ``ideals`` (a row per ideal), ``down`` and ``up`` (a row per prime) span
    every ideal, level t at ``at[t]:at[t + 1]`` in key order with its
    out-edges in ``runs[t]``, the runs :func:`_array_levels` yields (each
    edge's target indexed in level t + 1); the up pass and the sweeps
    gather from them by index, so no pass copies a level to read it.  The
    down pass carries enough primes to exceed :func:`_count_bound`, so its
    CRT gives e(P) exactly.  Every other count is at most e(P) (down times up counts
    extensions, and up is at least 1), so the up pass and the sweeps keep
    the first ``k`` primes, the fewest whose product exceeds e(P).
    """

    def __init__(self, n: int, pred: Sequence[int], budget: int):
        wide = _primes_over(_count_bound(n, pred))
        width = max(1, -(-n // 64))
        self.ideals = ideals = np.empty((0, width), dtype=np.uint64)
        blocks = np.empty(0, dtype=np.int64)  # each level's down counts, every prime of the bound
        at, self.runs = [0], []
        for level, counts, runs in _array_levels(n, pred, wide, budget):
            lo, hi = at[-1], at[-1] + len(level)
            at.append(hi)
            if hi > len(ideals):  # doubling while small, so few levels are copied again
                ideals.resize((max(hi, min(2 * len(ideals), _GROWTH // width)), width), refcheck=False)
            if wide * hi > len(blocks):
                blocks.resize(max(wide * hi, min(2 * len(blocks), _GROWTH)), refcheck=False)
            ideals[lo:hi] = level
            blocks[wide * lo : wide * hi] = counts.ravel()
            if runs is not None:
                self.runs.append(runs)
        ideals.resize((at[-1], width), refcheck=False)
        self.total = _crt(counts[:, :1])[0]
        self.k = k = _primes_over(self.total)
        self.down = np.empty((k, at[-1]), dtype=np.int64)
        for lo, hi in zip(at[-2::-1], at[:0:-1]):  # top down, handing back what is copied
            self.down[:, lo:hi] = blocks[wide * lo : wide * hi].reshape(wide, -1)[:k]
            if len(blocks) - wide * lo > _GROWTH:
                blocks.resize(wide * lo, refcheck=False)
        del blocks
        self.up = np.empty_like(self.down)
        self.up[:, -1] = 1
        for runs, lo, hi in zip(self.runs[::-1], at[-3::-1], at[-2::-1]):  # read from ``up`` whole
            self.up[:, lo:hi] = _segment_sums(self.up, [(tgt + hi, *run) for tgt, *run in runs], hi - lo)
        self.n = n
        self.at = at

    def masked(self, events: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
        """Per list of pairs (u, v), the extensions putting each u before its v.

        The poset's ideals with each v also waiting for its u are the
        ideals here that hold u whenever they hold v.  So each count is the
        up pass again to the empty ideal, the counts of every other ideal
        zeroed after each level; each list is one block of k rows (k primes
        cover a count at most e(P)), and one pass serves them all.  Each
        pair is tested on the words of ``ideals`` that hold u and v, straight
        into its list's keep row, so a call holds only its keep rows and the
        lattice keeps nothing a call made.
        """
        _, word, bit = _element_bits(self.n)
        ideals = self.ideals
        keep = np.ones((len(events), 1, self.at[-1]), dtype=bool)
        for row, pairs in zip(keep[:, 0], events):
            for u, v in pairs:  # u held, or v not
                row &= ((ideals[:, word[u]] & bit[u]) != 0) | ((ideals[:, word[v]] & bit[v]) == 0)
        counts = np.ones((len(events), self.k, 1), dtype=np.int64)
        for runs, lo, hi in zip(self.runs[::-1], self.at[-3::-1], self.at[-2::-1]):
            counts = _segment_sums(counts, runs, hi - lo)
            counts *= keep[:, :, lo:hi]
        return _crt(counts[:, :, 0].T)

    def sweep(self, pairs: bool) -> tuple[list[list[int]], list[list[int]] | None]:
        """Position counts, and with ``pairs`` pair counts, from one pass.

        Edge (I, x, I + x) of level t carries w = down(I) up(I + x) mod
        each prime: it adds w to x's count at position t + 1, and to (x, y)
        for every y outside I + x.  The edges come in bands (:meth:`_bands`),
        each sorted by x and then by level and read :data:`_CHUNK` edges at
        a time.  A chunk's edges of one (x, level) add up in one int64
        segment sum, and its edges of one x in one float64 product, weights
        times the 0/1 matrix of the elements outside each target (unpacked
        as uint8, each product casting its rows), exact since every sum is
        below 2^12 2^31 < 2^53.

        The int64 sums are reduced modulo the primes once, at the end, and
        rebuilt in one CRT call.  A source ideal has at most one edge per
        element, so an entry gains less than 2^31 per source ideal.  The
        lattice holds at most 2^31 ideals, since its indices are int32 (a
        build past that raises OverflowError at the up pass's ``tgt + hi``,
        before any sweep), so an entry stays below 2^62 and no sum wraps.
        """
        n, k = self.n, self.k
        mods = _MODS[:k]
        pos = np.zeros((k, n, n), dtype=np.int64)
        ahead = np.zeros((k, n, n), dtype=np.int64) if pairs else None
        for first, span, src, tgt, cell in map(self._band, self._bands()):
            # each cell's edges become one run; a stable sort of small ints is a radix sort
            order = np.argsort(cell, kind="stable")
            src, tgt = src[order], tgt[order]
            starts = np.concatenate(([0], np.bincount(cell, minlength=n * span).cumsum()))
            for lo in range(0, len(src), _CHUNK):
                into = tgt[lo : lo + _CHUNK]
                part = self.down.take(src[lo : lo + _CHUNK], axis=1) * self.up.take(into, axis=1) % mods
                cut = np.clip(starts - lo, 0, len(into))
                cells = np.flatnonzero(cut[1:] > cut[:-1])
                xs, t = np.divmod(cells, span)
                pos[:, xs, t + first] += np.add.reduceat(part, cut[cells], axis=1)
                if not pairs:
                    continue
                out = (~self.ideals[into]).astype("<u8").view(np.uint8).reshape(len(into), -1)
                rest = np.unpackbits(out, axis=1, bitorder="little")[:, :n]
                weights = part.astype(np.float64)
                ends = cut[::span]  # each element's edges, from ends[x] to ends[x + 1]
                bounds = ends.tolist()
                block = np.zeros((k, n, n))
                for x in np.flatnonzero(ends[1:] > ends[:-1]).tolist():
                    a, b = bounds[x], bounds[x + 1]
                    np.matmul(weights[:, a:b], rest[a:b], out=block[:, x])
                ahead += block.astype(np.int64)
        pos %= mods[:, :, None]
        if not pairs:
            return _crt(pos), None
        ahead %= mods[:, :, None]
        pos, ahead = _crt(np.stack((pos, ahead), axis=1))
        return pos, ahead

    def _bands(self):
        """The (level, block) pieces of each band the sweep reads, in level order.

        Consecutive levels join one band until it holds :data:`_CHUNK`
        edges; a level that alone holds that many is a band per stored
        run, so a large level costs what its runs cost.
        """
        pieces, edges = [], 0
        for size, runs in enumerate(self.runs):
            count = sum(len(run[0]) for run in runs)
            if count >= _CHUNK:
                if pieces:
                    yield pieces
                    pieces, edges = [], 0
                yield from ([(size, run)] for run in runs)
                continue
            pieces += [(size, run) for run in runs]
            edges += count
            if edges >= _CHUNK:
                yield pieces
                pieces, edges = [], 0
        if pieces:
            yield pieces

    def _band(self, pieces: list[tuple[int, tuple]]):
        """A band's edges, from its pieces (:meth:`_bands`).

        It is (first, span, src, tgt, cell): its levels are first to first +
        span - 1, and per edge its source in ``down`` (rebuilt from its run's
        first edges), its target in ``up`` and ``ideals``, and its cell
        x span + (level - first).
        """
        at = self.at
        first, last = pieces[0][0], pieces[-1][0]
        span = last - first + 1
        cell_type = np.min_scalar_type(self.n * span)
        srcs, tgts, cells = [], [], []
        for size, (tgt, starts, sources, x) in pieces:
            src = np.arange(sources.start, sources.stop, dtype=np.int32) + at[size]
            srcs.append(np.repeat(src, np.diff(starts, append=len(tgt))))  # each edge's source
            tgts.append(tgt + at[size + 1])
            cells.append(x if span == 1 else x.astype(cell_type) * span + (size - first))
        if len(pieces) == 1:
            return first, span, srcs[0], tgts[0], cells[0]
        return first, span, *map(np.concatenate, (srcs, tgts, cells))

    def tables(self) -> tuple[list[int], memoryview, memoryview, memoryview]:
        """The sampler's tables (:meth:`DownsetLattice.sampler`), ideals in key order.

        Every up count comes from one CRT over ``up``, and the edges are
        the runs the up pass read, offset to the lattice's ideals and edges.
        """
        tot = _crt(self.up)
        index = _index_type(sum(len(run[0]) for runs in self.runs for run in runs))
        first, et, ex = [], [], []
        edges = 0  # edges before a run
        for runs, above in zip(self.runs, self.at[1:]):
            for tgt, starts, _, x in runs:
                first.append(starts.astype(index) + edges)
                et.append(tgt.astype(index) + above)
                ex.append(x)
                edges += len(tgt)
        return tot, *(memoryview(np.concatenate(a)) for a in (first, et, ex))


class _Lattice:
    """What both lattice classes share: a hold on the poset, and the laws.

    A lattice sits in its poset's cache, so a strong reference back would
    make a cycle that only the cyclic collector frees: lattices of dropped
    posets would pile up between its runs.  The poset is held weakly
    instead, with the labels and order that rebuild an equal poset when a
    caller keeps the lattice longer than the poset.  Each class fills the
    position and pair counts its own way; the position laws are read from
    the position counts.
    """

    def _hold(self, poset: Poset) -> None:
        self._poset = weakref.ref(poset)
        self._order = (poset.labels, poset.lt)
        self._marginals: dict[str, tuple[Fraction, ...]] | None = None
        self._position_counts: list[list[int]] | None = None
        self._pair_counts: list[list[int]] | None = None

    @property
    def poset(self) -> Poset:
        p = self._poset()
        if p is None:
            p = Poset._closed(*self._order)
            self._poset = lambda: p
        return p

    def marginals(self) -> dict[str, tuple[Fraction, ...]]:
        """Position law for every element, from the integer position counts."""
        if self._marginals is None:
            total = self.extension_count
            self._marginals = {
                lab: tuple(Fraction(c, total) for c in row)
                for lab, row in zip(self.poset.labels, self.position_counts())
            }
        return self._marginals


class DownsetLattice(_Lattice):
    """Ideals of a poset with path counts from both ends.

    down(I) counts the paths from the empty ideal to ideal I (linear
    extensions of the restriction to I), up(I) those from I to the full
    ground set; up of the empty ideal is the extension count.  The lattice
    answers under :class:`SplitLattice`'s public names but ``parts``, on
    either kernel, and its ideals and counts stay private to the kernel:
    the array kernel (:class:`_Arrays`) when the lattice is large enough
    and fits it (:func:`_arrays_win`), each level in key order, and
    otherwise the dict kernel (:func:`_walk`), each level in order of
    discovery with its addable sets and counts by mask.  Both give the
    same exact answers.
    """

    def __init__(self, poset: Poset, budget: int | None = None):
        if budget is None:
            budget = DEFAULT_NODE_BUDGET
        n = poset.n
        pred = poset._pred_masks
        self._hold(poset)
        if _preflight(n, pred, poset._upper_cover_masks, budget):
            self._arrays: _Arrays | None = _Arrays(n, pred, budget)
            self.node_count = self._arrays.at[-1]
            self.extension_count = self._arrays.total
            return
        self._arrays = None
        down: dict[int, int] = {0: 1}
        levels, addables = map(list, zip(*_walk(n, pred, poset._upper_cover_masks, budget, down)))
        # up(I) sums up(I + x) over I's addable x, from the top level down;
        # ``up`` reuses down's int objects
        up = dict.fromkeys(down)
        up[(1 << n) - 1] = 1
        for masks, sets in zip(levels[-2::-1], addables[-2::-1]):
            for mask, addable in zip(masks, sets):
                total = 0
                while addable:
                    b = addable & -addable
                    addable ^= b
                    total += up[mask | b]
                up[mask] = total
        self._levels, self._down, self._up, self._addables = levels, down, up, addables
        self.node_count = len(down)
        self.extension_count = up[0]

    @functools.cached_property
    def _tables(self) -> tuple[list[int], memoryview, memoryview, memoryview]:
        """The sampler's tables, built on its first call (see :meth:`sampler`)."""
        return self._walk_tables() if self._arrays is None else self._arrays.tables()

    def _walk_tables(self) -> tuple[list[int], memoryview, memoryview, memoryview]:
        """The sampler's tables from the dict kernel's levels, addable sets and ``up``."""
        ideals = list(itertools.chain.from_iterable(self._levels))
        at = dict(zip(ideals, itertools.count()))
        tot = list(map(self._up.__getitem__, ideals))
        first, et, ex = [], [], []
        for masks, sets in zip(self._levels, self._addables):
            for mask, addable in zip(masks, sets):
                first.append(len(et))
                while addable:
                    b = addable & -addable
                    addable ^= b
                    et.append(at[mask | b])
                    ex.append(b.bit_length() - 1)
        index = _index_type(len(et))
        ids = np.min_scalar_type(len(self._levels) - 1)
        return (
            tot,
            *(memoryview(np.array(a, dtype=t)) for a, t in ((first, index), (et, index), (ex, ids))),
        )

    # named here too: benchmarks/tracing.py wraps it in this class's namespace
    marginals = _Lattice.marginals

    def position_counts(self) -> list[list[int]]:
        """``counts[x][k]`` = number of extensions placing x at position k + 1."""
        if self._position_counts is None:
            self._sweep(pairs=False)
        return self._position_counts

    def pair_counts(self) -> list[list[int]]:
        """``counts[x][y]`` = number of extensions placing x before y.

        Every edge that adds x while y is still outside the ideal
        contributes ``down * up`` to (x, y).  The same pass fills
        :meth:`position_counts`.
        """
        if self._pair_counts is None:
            self._sweep(pairs=True)
        return self._pair_counts

    def _sweep(self, pairs: bool) -> None:
        run = self._walk_sweep if self._arrays is None else self._arrays.sweep
        self._position_counts, self._pair_counts = run(pairs)

    def _walk_sweep(self, pairs: bool) -> tuple[list[list[int]], list[list[int]] | None]:
        """Position counts, and with ``pairs`` pair counts, from the stored levels.

        Every edge adds ``down * up`` to its element's count at the
        edge's level.  With ``pairs``, only incomparable pairs with x
        below y in index order are summed along the edges; comparable
        pairs are all-or-nothing, and ``counts[y][x] = extension_count -
        counts[x][y]`` fills the rest exactly.
        """
        p = self.poset
        n = p.n
        pos = [[0] * n for _ in range(n)]
        counts = [[0] * n for _ in range(n)] if pairs else None
        later = [m >> (x + 1) << (x + 1) for x, m in enumerate(p._incomp_masks)]
        down, up = self._down, self._up
        for size, (masks, addables) in enumerate(zip(self._levels, self._addables)):
            for mask, addable in zip(masks, addables):
                d = down[mask]
                while addable:
                    b = addable & -addable
                    addable ^= b
                    x = b.bit_length() - 1
                    new = mask | b
                    w = d * up[new]
                    pos[x][size] += w
                    if pairs:
                        row = counts[x]
                        rest = later[x] & ~new
                        while rest:
                            c = rest & -rest
                            rest ^= c
                            row[c.bit_length() - 1] += w
        if not pairs:
            return pos, None
        total = self.extension_count
        for x, (row, above) in enumerate(zip(counts, p._succ_masks)):
            for y in _bits(above):
                row[y] = total
            for y in _bits(later[x]):
                counts[y][x] = total - row[y]
        return pos, counts

    def sampler(self) -> Callable[[random.Random], list[int]]:
        """Draw one uniform extension from ``rng``, as a list of indices.

        At each step the next element is drawn among the minimal elements
        of the complement with probability proportional to the number of
        completions, which makes every full path equally likely.  The draw
        walks index tables, built on the first call and kept on the
        lattice: per ideal, its exact up count ``tot`` and its first
        out-edge, and per edge, its target ideal ``et`` and its element
        ``ex``, each ideal's edges ascending by element.  A step from ideal
        s reads ``tot[s]``, which its children's counts sum to, draws r
        below it as ``randrange`` does (``getrandbits`` of its bit length,
        redrawn while r is not below it), and walks s's edges subtracting
        each ``tot[et[e]]`` until r falls below one: that edge is taken,
        and the rest are not read.  So every seed gives the extensions of
        ``randrange`` over the weight list, on either kernel, and a draw
        reads no mask.
        """
        n = len(self._order[0])
        tot, first, et, ex = self._tables

        def draw(rng: random.Random) -> list[int]:
            bits = rng.getrandbits
            order = []
            s = 0
            for _ in range(n):
                total = tot[s]
                k = total.bit_length()
                r = bits(k)
                while r >= total:
                    r = bits(k)
                e = first[s]
                s = et[e]
                w = tot[s]
                while r >= w:
                    r -= w
                    e += 1
                    s = et[e]
                    w = tot[s]
                order.append(ex[e])
            return order

        return draw


def _components(p: Poset) -> list[list[int]]:
    """Connected parts of the comparability graph, as ascending index lists.

    Parts come in the order of their lowest element.
    """
    near = [s | q for s, q in zip(p._succ_masks, p._pred_masks)]
    left = (1 << p.n) - 1
    parts = []
    while left:
        part = grow = left & -left
        while grow:
            reach = 0
            for x in _bits(grow):
                reach |= near[x]
            grow = reach & ~part
            part |= grow
        left ^= part
        parts.append(list(_bits(part)))
    return parts


@functools.lru_cache(maxsize=256)
def _slot_spread(n: int, p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per slot i of a p-part, (k, ways) for each position k it can land at.

    0-based: slot i + 1 of p sits at position k + 1 of n in C(k, i)
    C(n-1-k, p-1-i) of the C(n, p) placements of the part's slots.
    """
    return tuple(
        tuple(
            (k, math.comb(k, i) * math.comb(n - 1 - k, p - 1 - i))
            for k in range(i, n - p + i + 1)
        )
        for i in range(p)
    )


@functools.lru_cache(maxsize=256)
def _slot_ahead(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """``H[i][j]``: interleavings of an a-part and a b-part that put slot
    i + 1 of the first before slot j + 1 of the second (0-based i, j).

    That happens when the first i + j + 1 places hold at least i + 1 of
    the first part's slots: the sum over t of C(i+j+1, t) C(a+b-i-j-1, a-t).
    """
    return tuple(
        tuple(
            sum(
                math.comb(i + j + 1, t) * math.comb(a + b - i - j - 1, a - t)
                for t in range(i + 1, min(a, i + j + 1) + 1)
            )
            for j in range(b)
        )
        for i in range(a)
    )


class SplitLattice(_Lattice):
    """Lattice of a poset whose comparability graph has several parts.

    The ideals of a disjoint sum are the products of its parts' ideals, so
    that product is never built.  Each part is a subposet with its own
    :class:`DownsetLattice`, cached on the part, and every answer is
    folded from the parts' exact integers: in a uniform extension the
    parts' orders are independent and uniformly interleaved.  It answers
    under :class:`DownsetLattice`'s public names (``poset``,
    ``extension_count``, ``node_count``, the nodes built summed over the
    parts, ``position_counts``, ``marginals``, ``pair_counts`` and
    ``sampler``) and adds ``parts``, each part's indices with its lattice.
    """

    def __init__(self, poset: Poset, parts: list[list[int]], budget: int):
        built = []
        held = []
        nodes = 0
        for idx in parts:
            part = poset.subposet(poset.labels[i] for i in idx)
            # each part gets what the earlier ones left of the budget
            try:
                lat = DownsetLattice(part, budget - nodes)
            except BudgetExceeded as exc:
                # the parts' chain codes bound the nodes summed over them
                upper = sum(
                    _chain_code(len(i), poset.subposet(poset.labels[k] for k in i)._pred_masks)[1]
                    for i in parts
                )
                raise BudgetExceeded(nodes + exc.nodes, budget, upper) from None
            part._cache["lattice"] = lat
            nodes += lat.node_count
            built.append((idx, lat))
            held.append(part)
        total = math.factorial(poset.n)
        for idx, lat in built:
            total = total // math.factorial(len(idx)) * lat.extension_count
        self._hold(poset)
        # the part posets live as long as this lattice, with theirs cached
        self._parts = held
        self.parts = built
        self.node_count = nodes
        self.extension_count = total

    def position_counts(self) -> list[list[int]]:
        """``counts[x][k]`` = number of extensions placing x at position k + 1.

        A part of size p holding x at its slot i + 1 puts x at position
        k + 1 in C(k, i) C(n-1-k, p-1-i) of the C(n, p) ways to place the
        part's slots, each completed by every extension of the rest.
        """
        if self._position_counts is None:
            n = self.poset.n
            counts: list[list[int]] = [[] for _ in range(n)]
            for idx, lat in self.parts:
                p = len(idx)
                rest = self.extension_count // (math.comb(n, p) * lat.extension_count)
                spread = _slot_spread(n, p)
                for x, row in zip(idx, lat.position_counts()):
                    out = [0] * n
                    for i, c in enumerate(row):
                        if c:
                            c *= rest
                            for k, w in spread[i]:
                                out[k] += c * w
                    counts[x] = out
            self._position_counts = counts
        return self._position_counts

    def pair_counts(self) -> list[list[int]]:
        """``counts[x][y]`` = number of extensions placing x before y.

        A pair inside a part scales its part's count by the completions of
        the rest.  For x in part A and y in part B, the sum over slots i, j
        of N_A(x, i) N_B(y, j) H(i, j) (:func:`_slot_ahead`) counts the
        extensions of A and B and their interleavings with x ahead, scaled
        to the whole poset by the completions of the other parts.
        """
        if self._pair_counts is None:
            n = self.poset.n
            total = self.extension_count
            counts = [[0] * n for _ in range(n)]
            for idx, lat in self.parts:
                scale = total // lat.extension_count
                for x, row in zip(idx, lat.pair_counts()):
                    out = counts[x]
                    for y, c in zip(idx, row):
                        out[y] = c * scale
            laws = [lat.position_counts() for _, lat in self.parts]
            for pa, (ia, lat_a) in enumerate(self.parts):
                a = len(ia)
                for pb in range(pa + 1, len(self.parts)):
                    ib, lat_b = self.parts[pb]
                    b = len(ib)
                    scale = total // (
                        math.comb(a + b, a) * lat_a.extension_count * lat_b.extension_count
                    )
                    ahead = _slot_ahead(a, b)
                    for x, nx in zip(ia, laws[pa]):
                        # reach[j]: A's extensions and interleavings with x
                        # ahead of B's slot j + 1
                        reach = [0] * b
                        for i, c in enumerate(nx):
                            if c:
                                for j, h in enumerate(ahead[i]):
                                    reach[j] += c * h
                        for y, ny in zip(ib, laws[pb]):
                            c = scale * sum(reach[j] * m for j, m in enumerate(ny) if m)
                            counts[x][y] = c
                            counts[y][x] = total - c
            self._pair_counts = counts
        return self._pair_counts

    def sampler(self) -> Callable[[random.Random], list[int]]:
        """Draw every part from its own lattice, then a uniform interleaving."""
        draws = [(idx, lat.sampler()) for idx, lat in self.parts]
        tags = [k for k, (idx, _) in enumerate(self.parts) for _ in idx]

        def draw(rng: random.Random) -> list[int]:
            orders = [iter([idx[x] for x in part(rng)]) for idx, part in draws]
            rng.shuffle(tags)
            return [next(orders[k]) for k in tags]

        return draw


#: Least lower bound on the whole lattice's size at which a poset that
#: splits is built part by part.  Below it, setting up a subposet and a
#: lattice per part costs more than the nodes the split saves (measured on
#: antichains, chains plus a point and two free chains; on verify_sweep,
#: whose posets have at most 10 elements, splitting these too costs about
#: 4% of its ops/s).
_SPLIT_MIN_IDEALS = 64


def _split(p: Poset) -> list[list[int]] | None:
    """``p``'s parts when its lattice is built part by part, else None.

    A part of s elements, m of them minimal, has at least 2^m + s - m
    ideals: every set of minimal elements, and one ideal of each larger
    size.  The whole lattice has at least the product of these.
    """
    parts = _components(p)
    if len(parts) < 2:
        return None
    pred = p._pred_masks
    bound = 1
    for idx in parts:
        m = sum(1 for x in idx if not pred[x])
        bound *= (1 << m) + len(idx) - m
    return parts if bound >= _SPLIT_MIN_IDEALS else None


def build_lattice(p: Poset, budget: int | None = None) -> DownsetLattice | SplitLattice:
    """Lattice of ``p`` for counts, laws, pair counts and samples, cached on ``p``.

    A connected poset gets its :class:`DownsetLattice`.  A poset whose
    comparability graph splits gets a :class:`SplitLattice` over its parts,
    and the budget bounds the nodes built summed over them; a small one
    (whole lattice of fewer than :data:`_SPLIT_MIN_IDEALS` ideals by the
    bound of :func:`_split`) is built whole.

    The budget bounds the lattice whether it is built now or was cached by
    an earlier call: a cached lattice larger than ``budget`` raises
    BudgetExceeded just as building it would.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    lat = p._cache.get("lattice")
    if lat is None:
        parts = _split(p)
        lat = DownsetLattice(p, budget) if parts is None else SplitLattice(p, parts, budget)
        p._cache["lattice"] = lat
    elif lat.node_count > budget:
        raise BudgetExceeded(lat.node_count, budget, lat.node_count)
    return lat


def count_extensions(p: Poset, budget: int | None = None) -> int:
    """Number of linear extensions, exactly."""
    return build_lattice(p, budget).extension_count


def position_distribution(p: Poset, x: str, budget: int | None = None) -> PositionDistribution:
    """Exact law of the position of ``x``: its position counts over e(P)."""
    lat = build_lattice(p, budget)
    return PositionDistribution(x, tuple(lat.position_counts()[p.index(x)]), lat.extension_count)


def all_position_distributions(
    p: Poset, budget: int | None = None
) -> dict[str, PositionDistribution]:
    lat = build_lattice(p, budget)
    total = lat.extension_count
    return {
        lab: PositionDistribution(lab, tuple(row), total)
        for lab, row in zip(p.labels, lat.position_counts())
    }


def _required_pairs(event) -> tuple[tuple[str, str], ...]:
    if isinstance(event, EventSpec):
        return event.required
    return tuple((u, v) for u, v in event)


def augmented_poset(p: Poset, pairs: Iterable[tuple[str, str]]) -> Poset | None:
    """Poset with extra precedences, or None when they contradict it."""
    try:
        return Poset.from_covers(p.labels, [*p.covers, *pairs])
    except CycleDetected:
        return None


def _event_counts(
    p: Poset, events: Sequence[Sequence[tuple[str, str]]], budget: int | None, sweep: bool = False
) -> list[int]:
    """Extensions of ``p`` that put every ``u`` before its ``v``, per event.

    Pairs the poset already orders are dropped, and an event with none
    left is the cached count.  One pair (u, v) left is read from the
    cached lattice's ``pair_counts``, a sweep that answers every pair of
    the poset at once under the same budget as the count: with ``sweep``
    (for :func:`event_probability`), or when a lattice within ``budget``
    already holds them.  An event with an open pair u == v, or one the
    poset orders the other way, counts 0 before any of these, so no lattice
    is read or built for it under any budget.  Every other event is counted
    on the poset's own ideals with each v also waiting for its u.  When
    ``p`` already caches an array-kernel :class:`DownsetLattice` within
    ``budget``, those counts share one masked pass over its stored edges
    (:meth:`_Arrays.masked`), which walks no ideal the augmented lattice
    lacks.  Otherwise each is a
    constrained down pass, whose budget bounds the augmented lattice.
    Each event holds the pairs of the one before it, so the counts after
    a 0 are 0 and are not made.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    lat = p._cache.get("lattice")
    held = lat is not None and lat.node_count <= budget
    arrays = lat._arrays if held and isinstance(lat, DownsetLattice) else None
    sweep = sweep or (held and lat._pair_counts is not None)
    counts: list[int | None] = []
    masked = []
    for pairs in events:
        pred = list(p._pred_masks)
        cand = list(p._upper_cover_masks)
        open_pairs = []
        for u, v in pairs:
            u, v = p.index(u), p.index(v)
            if not (pred[v] >> u) & 1:  # a pair already in the order adds nothing
                pred[v] |= 1 << u
                cand[u] |= 1 << v
                open_pairs.append((u, v))
        if not open_pairs:
            count = count_extensions(p, budget)
        elif any(u == v or (p._pred_masks[u] >> v) & 1 for u, v in open_pairs):
            count = 0  # no extension puts an element before itself or against the order
        elif sweep and len(open_pairs) == 1:
            ((u, v),) = open_pairs
            count = build_lattice(p, budget).pair_counts()[u][v]
        elif arrays is None:
            count = _down_pass(p.n, pred, cand, budget)
        else:
            masked.append(open_pairs)
            count = None
        counts.append(count)
        if count == 0:
            break
    if masked:
        found = iter(arrays.masked(masked))
        counts = [next(found) if c is None else c for c in counts]
    return counts + [0] * (len(events) - len(counts))


def event_probability(p: Poset, event, budget: int | None = None) -> Fraction:
    """Probability that a uniform extension satisfies every required pair.

    An event with one pair the poset leaves open reads the cached
    lattice's pair counts (:func:`_event_counts`), so the budget bounds
    that lattice, as it bounds the count.  An event of two or more open
    pairs is a masked pass over the cached lattice when that is an
    array-kernel lattice within the budget, and otherwise one constrained
    down pass.
    """
    (hits,) = _event_counts(p, [_required_pairs(event)], budget, sweep=True)
    return Fraction(hits, count_extensions(p, budget)) if hits else Fraction(0)


def conditional_probability(
    p: Poset, event, given, budget: int | None = None
) -> Fraction:
    """P(event | given); raises ConditionNullEvent when P(given) = 0.

    Both counts, the condition's and the condition's with the event's,
    come from one masked pass when ``p`` caches an array-kernel lattice
    within the budget (:func:`_event_counts`), and a count of one open
    pair from pair counts it already holds.  Otherwise a count with an
    open pair is a constrained down pass, even with just one, so the
    budget bounds only the augmented lattices walked: reading the
    poset's whole lattice for a lone ``given`` pair would hold the budget
    to that lattice too and lower the reach of a conditional.
    """
    given_pairs = _required_pairs(given)
    base, hits = _event_counts(p, [given_pairs, given_pairs + _required_pairs(event)], budget)
    if base == 0:
        raise ConditionNullEvent("conditioning event has probability zero")
    return Fraction(hits, base)


def sorting_probability(p: Poset, x: str, y: str, budget: int | None = None) -> Fraction:
    """P(x before y) in a uniform extension.

    Read from the cached lattice's pair counts, so asking for many pairs
    of one poset costs one sweep.
    """
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

    A connected poset is drawn step by step from its lattice
    (:meth:`DownsetLattice.sampler`); a split poset draws each part, then
    a uniform interleaving of the parts.  A negative ``count`` raises
    ValueError before any lattice is built; 0 gives no extension.
    """
    if count < 0:
        raise ValueError(f"samples must be non-negative, got {count}")
    if count == 0:
        return []
    draw = build_lattice(p, budget).sampler()
    rng = random.Random(seed)
    label = p.labels.__getitem__
    return [tuple(map(label, draw(rng))) for _ in range(count)]

"""Brute-force reference implementations the test suite trusts.

Everything here is deliberately naive: filter the full symmetric group,
count by hand, search subsets exhaustively.  Slow past n ~ 9, which is
the point — the library must agree with code too simple to be wrong.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from linext.lattice import DownsetLattice, _crt, _grow, _steps, build_lattice
from linext.mcmc import ChainState
from linext.errors import CycleDetected, DuplicateLabel, UnknownElement
from linext.poset import Poset, _bits, _cover_masks, _row_masks, _unpack_masks
from linext.stats import fraction_json

# Permutation tables are reused across thousands of oracle calls; key is n.
_PERMS: dict[int, np.ndarray] = {}
_POSITIONS: dict[int, np.ndarray] = {}


def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _PERMS:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        pos = np.empty_like(perms)
        rows = np.arange(len(perms))[:, None]
        pos[rows, perms] = np.arange(n, dtype=np.int8)
        _PERMS[n] = perms
        _POSITIONS[n] = pos
    return _PERMS[n], _POSITIONS[n]


def _extension_mask(p: Poset) -> np.ndarray:
    """Boolean row per permutation of p's indices: is it a linear extension?"""
    _, pos = _tables(p.n)
    mask = np.ones(len(pos), dtype=bool)
    for a in range(p.n):
        for b in range(p.n):
            if p.lt[a, b]:
                mask &= pos[:, a] < pos[:, b]
    return mask


def brute_count(p: Poset) -> int:
    return int(_extension_mask(p).sum())


def brute_extensions(p: Poset) -> list[tuple[str, ...]]:
    perms, _ = _tables(p.n)
    keep = perms[_extension_mask(p)]
    return [tuple(p.labels[i] for i in row) for row in keep]


def brute_marginal(p: Poset, x: str) -> list[Fraction]:
    """Exact law of the position (1-based) of x, via full enumeration."""
    _, pos = _tables(p.n)
    mask = _extension_mask(p)
    total = int(mask.sum())
    xi = p.index(x)
    counts = np.bincount(pos[mask, xi], minlength=p.n)
    return [Fraction(int(c), total) for c in counts]


def brute_sorting_probability(p: Poset, x: str, y: str) -> Fraction:
    _, pos = _tables(p.n)
    mask = _extension_mask(p)
    before = mask & (pos[:, p.index(x)] < pos[:, p.index(y)])
    return Fraction(int(before.sum()), int(mask.sum()))


def brute_pair_counts(p: Poset) -> list[list[int]]:
    """counts[x][y] = extensions placing x before y (0 on the diagonal)."""
    _, pos = _tables(p.n)
    at = pos[_extension_mask(p)]
    return [
        [int((at[:, x] < at[:, y]).sum()) for y in range(p.n)] for x in range(p.n)
    ]


def brute_event_probability(p: Poset, pairs) -> Fraction:
    """P(all of x before y for (x, y) in pairs), by enumeration."""
    _, pos = _tables(p.n)
    mask = _extension_mask(p)
    hit = mask.copy()
    for x, y in pairs:
        hit &= pos[:, p.index(x)] < pos[:, p.index(y)]
    return Fraction(int(hit.sum()), int(mask.sum()))


def brute_conditional_probability(p: Poset, pairs, given) -> Fraction:
    _, pos = _tables(p.n)
    base = _extension_mask(p)
    for x, y in given:
        base &= pos[:, p.index(x)] < pos[:, p.index(y)]
    hit = base.copy()
    for x, y in pairs:
        hit &= pos[:, p.index(x)] < pos[:, p.index(y)]
    return Fraction(int(hit.sum()), int(base.sum()))


def brute_width(p: Poset) -> int:
    """Largest antichain by exhaustive subset search."""
    best = 0
    idx = range(p.n)
    for size in range(p.n, 0, -1):
        if size <= best:
            break
        for sub in itertools.combinations(idx, size):
            if all(
                not (p.lt[a, b] or p.lt[b, a])
                for a, b in itertools.combinations(sub, 2)
            ):
                best = size
                break
    return best


def greedy_matching(adj: list[list[int]], n: int) -> list[int]:
    """Each u in order takes its first free v in ``adj[u]``; returns match_right (-1 = free)."""
    match_right = [-1] * n
    for u in range(n):
        for v in adj[u]:
            if match_right[v] == -1:
                match_right[v] = u
                break
    return match_right


def max_bipartite_matching(adj: list[list[int]], n: int, start: list[int] | None = None) -> list[int]:
    """Kuhn's augmenting-path matching, recursive, over adjacency lists,
    grown from ``start`` (empty by default) by one search from each u not
    yet matched; returns match_right (-1 = free)."""
    match_right = [-1] * n if start is None else list(start)
    matched = set(match_right)

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or try_augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    for u in range(n):
        if u not in matched:
            try_augment(u, [False] * n)
    return match_right


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Standard tableaux of a partition shape, by the hook length formula."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    conj = [sum(1 for row in shape if row > c) for c in range(shape[0])]
    product = 1
    for r, c in cells:
        product *= (shape[r] - c) + (conj[c] - r) - 1
    return math.factorial(len(cells)) // product


def warshall_closure(rel) -> np.ndarray:
    """Transitive closure by Warshall's algorithm: route through k, for every k."""
    closed = np.array(rel, dtype=bool)
    for k in range(len(closed)):
        closed |= closed[:, k : k + 1] & closed[k : k + 1, :]
    return closed


def matmul_reduction(lt) -> np.ndarray:
    """Transitive reduction of a closed order: drop every pair x < z < y.

    The dense product form: (lt @ lt)[x, y] counts the z between x and y.
    """
    lt = np.asarray(lt, dtype=bool)
    return lt & ~((lt.astype(np.int32) @ lt.astype(np.int32)) > 0)


def word_advance(state: ChainState, steps: int, watch: int) -> list[tuple[int, int]]:
    """The chain's step kernel one step and one word at a time.

    Each step draws ``getrandbits(32)`` words, masked to the low bits of
    2n - 1, until one is below 2n; that value r tries slots r and r + 1
    when r < n - 1, and a shift of the incomparability mask tests the
    pair.  It reads ``state.rng`` only, never ``state.draws``.
    """
    p = state.poset
    n, incomp = p.n, p._incomp_masks
    order, pos = state.order, state.pos
    bits = state.rng.getrandbits
    state.steps += steps
    if n < 2:
        return []
    mask = (1 << (2 * n - 1).bit_length()) - 1
    swaps: list[tuple[int, int]] = []
    for t in range(steps):
        r = bits(32) & mask
        while r >= 2 * n:
            r = bits(32) & mask
        if r < n - 1:
            u, v = order[r], order[r + 1]
            if (incomp[u] >> v) & 1:
                order[r], order[r + 1] = v, u
                pos[u], pos[v] = r + 1, r
                if ((watch >> u) | (watch >> v)) & 1:
                    swaps.append((t, r))
    return swaps


def ideal_levels(lat: DownsetLattice) -> list[list[int]]:
    """Each level's ideals as Python-int masks, in the order the kernel holds them.

    The dict kernel lists a level in order of discovery, the array kernel
    by key, its rows of little-endian ``uint64`` words joined per ideal.
    """
    if lat._arrays is None:
        return lat._levels
    found = []
    arrays = lat._arrays
    for lo, hi in zip(arrays.at, arrays.at[1:]):
        rows = arrays.ideals[lo:hi]
        value = rows[:, -1].tolist()
        for j in range(rows.shape[1] - 2, -1, -1):
            value = [v << 64 | w for v, w in zip(value, rows[:, j].tolist())]
        found.append(value)
    return found


def path_counts(lat: DownsetLattice) -> tuple[dict[int, int], dict[int, int]]:
    """(down, up): each ideal's mask to its exact path counts from below and above.

    On the array kernel both come from one CRT over the stored residues.
    """
    if lat._arrays is None:
        return lat._down, lat._up
    masks = [m for level in ideal_levels(lat) for m in level]
    counts = _crt(np.concatenate((lat._arrays.down, lat._arrays.up), axis=1))
    return dict(zip(masks, counts)), dict(zip(masks, counts[len(masks) :]))


def lattice_edges(lat: DownsetLattice) -> list[tuple[int, int, int]]:
    """Every edge as (ideal, added element, extended ideal), level by level.

    Within a level, by source in the kernel's order, then by element: the
    dict kernel's addable sets, or the array kernel's runs, whose ``starts``
    mark each source's first edge.
    """
    levels = ideal_levels(lat)
    if lat._arrays is None:
        addables = lat._addables
    else:
        addables = []
        for runs in lat._arrays.runs:
            sets = []
            for _, starts, _, x in runs:
                bits = [1 << e for e in x.tolist()]
                ends = [*starts.tolist(), len(bits)]
                sets += [sum(bits[a:b]) for a, b in zip(ends, ends[1:])]
            addables.append(sets)
        addables.append([0])
    edges = []
    for masks, sets in zip(levels, addables):
        for mask, addable in zip(masks, sets):
            for x in _bits(addable):
                edges.append((mask, x, mask | 1 << x))
    return edges


def weight_list_sampler(lat: DownsetLattice):
    """The exact sampler as first written, a drop-in for ``DownsetLattice.sampler``.

    Each step lists the addable elements in ascending order with their
    weights ``up[mask | b]``, draws ``randrange`` of the weights' sum and
    scans the list for the chosen child.
    """
    pred = lat.poset._pred_masks
    steps = _steps(pred, lat.poset._upper_cover_masks)
    start = sum(1 << x for x in range(lat.poset.n) if not pred[x])
    _, up = path_counts(lat)

    def draw(rng: random.Random) -> list[int]:
        mask = 0
        addable = start
        order = []
        while addable:
            choices = []
            weights = []
            rest = addable
            while rest:
                b = rest & -rest
                rest ^= b
                choices.append(b)
                weights.append(up[mask | b])
            r = rng.randrange(sum(weights))
            for b, w in zip(choices, weights):
                if r < w:
                    break
                r -= w
            x = b.bit_length() - 1
            order.append(x)
            mask |= b
            addable = _grow(addable, b, ~mask, steps[x])
        return order

    return draw


#: Edges :func:`gather_float64` sums at once.
GATHER_CHUNK = 4096


def gather_float64(index: np.ndarray, pick: np.ndarray, counts: np.ndarray, mods: np.ndarray, m: int) -> np.ndarray:
    """The array kernel's first accumulation: sums along one level's edges, mod each prime.

    ``out[..., j, i]`` sums ``counts[..., j, pick[e]]`` over the edges e
    with ``index[e] == i``, in any edge order, modulo ``mods[j]``.
    ``counts`` holds k rows, one per prime, or r blocks of them.  Sums run
    in float64 through ``np.add.at``, :data:`GATHER_CHUNK` edges at a time,
    exact while every sum stays below 2^53.
    """
    rows = counts.reshape(-1, counts.shape[-1])
    sums = np.zeros(len(rows) * m)
    offset = np.arange(len(rows))[:, None] * m
    for lo in range(0, len(index), GATHER_CHUNK):
        at = (index[lo : lo + GATHER_CHUNK] + offset).ravel()
        np.add.at(sums, at, rows[:, pick[lo : lo + GATHER_CHUNK]].astype(np.float64).ravel())
    return sums.reshape(counts.shape[:-1] + (m,)).astype(np.int64) % mods[: counts.shape[-2]]


# -- builders as first written: a closed matrix by hand, checked by Poset() --


def reach_two_chain(m: int, n: int, cross) -> Poset:
    """``make_two_chain``'s poset from its first closure loop.

    Each y_j lies above x_1, ..., x_reach, where reach is the largest i
    paired with some j0 <= j; the chains are closed by filling the upper
    triangles.
    """
    size = m + n
    lt = np.zeros((size, size), dtype=bool)
    lt[:m, :m] = np.triu(np.ones((m, m), dtype=bool), k=1)
    lt[m:, m:] = np.triu(np.ones((n, n), dtype=bool), k=1)
    best_at: dict[int, int] = {}
    for i, j in cross:
        best_at[j] = max(best_at.get(j, 0), i)
    reach = 0
    for j in range(1, n + 1):
        reach = max(reach, best_at.get(j, 0))
        lt[:reach, m + j - 1] = True
    labels = [f"x{i}" for i in range(1, m + 1)] + [f"y{j}" for j in range(1, n + 1)]
    return Poset(labels, lt)


def looped_chain_plus_point(n: int) -> Poset:
    """``chain_plus_point(n)`` with its chain's rows filled one by one."""
    labels = [f"c{i}" for i in range(1, n)] + ["z"]
    lt = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        lt[i, i + 1 : n - 1] = True
    return Poset(labels, lt)


def pairwise_grid_poset(points) -> Poset:
    """``grid_poset`` by comparing every ordered pair of sorted points."""
    pts = sorted(tuple(q) for q in points)
    lt = np.zeros((len(pts), len(pts)), dtype=bool)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            lt[i, j] = a != b and all(x <= y for x, y in zip(a, b))
    return Poset([",".join(map(str, q)) for q in pts], lt)


def box_ideal(points) -> bool:
    """Downward closure by listing every point of each box [1, b]."""
    pset = {tuple(q) for q in points}
    return all(
        mid in pset
        for b in pset
        for mid in itertools.product(*(range(1, y + 1) for y in b))
    )


# -- from_covers as first written: a boolean matrix, closed, then repacked --


def matrix_closure(rel) -> np.ndarray:
    """``transitive_closure`` as first written, on the matrix itself.

    Kahn's order from the column sums, then each successor bitset as the
    OR of ``succ[j] | 1 << j`` over its generators j, in reverse order.
    """
    rel = np.asarray(rel, dtype=bool)
    n = len(rel)
    gen = _row_masks(rel)
    indegree = rel.sum(axis=0).tolist()
    order = [i for i in range(n) if not indegree[i]]
    for i in order:
        for j in _bits(gen[i]):
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        raise CycleDetected("relation contains a cycle")
    succ = [0] * n
    for i in reversed(order):
        for j in _bits(gen[i]):
            succ[i] |= succ[j] | 1 << j
    return _unpack_masks(succ, n)


def matrix_from_covers(labels, covers) -> dict:
    """What ``from_covers`` derived through a boolean matrix, as first written.

    The same checks with the same messages, in the same order; ``lt`` by
    :func:`matrix_closure`; the successor and predecessor tables packed
    from the rows of ``lt`` and of its transpose; the upper covers by the
    renumbering reduction; ``covers`` in ``argwhere``'s row-major order of
    the cover matrix.
    """
    labels = tuple(labels)
    index = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise DuplicateLabel(f"label {lab!r} appears twice")
        index[lab] = i
    n = len(labels)
    rel = np.zeros((n, n), dtype=bool)
    for lo, hi in covers:
        if lo not in index:
            raise UnknownElement(f"unknown element {lo!r} in cover")
        if hi not in index:
            raise UnknownElement(f"unknown element {hi!r} in cover")
        rel[index[lo], index[hi]] = True
    try:
        lt = matrix_closure(rel)
    except CycleDetected:
        raise CycleDetected("cover relation generates a cycle") from None
    cover = tuple(_cover_masks(lt))
    cover_matrix = _unpack_masks(cover, n)
    return {
        "lt": lt,
        "_succ_masks": _row_masks(lt),
        "_pred_masks": _row_masks(lt.T),
        "_upper_cover_masks": cover,
        "_cover_matrix": cover_matrix,
        "covers": tuple((labels[i], labels[j]) for i, j in np.argwhere(cover_matrix).tolist()),
    }


def rescan_ideal_floor(n: int, pred) -> int:
    """The ideal floor by rescanning every element left, per layer.

    Layer t holds the elements whose ``pred`` lies in earlier layers; the
    floor is 1 + sum over t of (2^|layer t| - 1).  Quadratic on a chain.
    """
    placed = 0
    floor = 1
    left = list(range(n))
    while left:
        layer = 0
        rest = []
        for x in left:
            if pred[x] & ~placed:
                rest.append(x)
            else:
                layer |= 1 << x
        if not layer:
            break
        placed |= layer
        floor += (1 << layer.bit_count()) - 1
        left = rest
    return floor


def eager_balance(p: Poset) -> tuple[dict, dict]:
    """(pairs, per_element) of ``balance(p)``, every Fraction built at once.

    Pairs are the incomparable (x, y) in index order, found by ``lt``;
    each element's constant is its best against any partner, 0 with none.
    """
    lat = build_lattice(p)
    counts, total = lat.pair_counts(), lat.extension_count
    pairs = {}
    per_element = {lab: Fraction(0) for lab in p.labels}
    for i, j in itertools.combinations(range(p.n), 2):
        if p.lt[i, j] or p.lt[j, i]:
            continue
        x, y = p.labels[i], p.labels[j]
        d = Fraction(min(counts[i][j], counts[j][i]), total)
        pairs[(x, y)] = d
        per_element[x] = max(per_element[x], d)
        per_element[y] = max(per_element[y], d)
    return pairs, per_element


def balance_report_json(report) -> dict:
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


def konig_antichain(p: Poset, match: list[int]) -> tuple:
    """König's antichain from a maximum matching of the comparability digraph.

    ``match[v]`` is the element matched below v, or -1.  Alternating paths
    leave the unmatched elements on the left: any successor from the left,
    and from a right-hand v only back to ``match[v]``.  The antichain is
    what they reach on the left and not on the right, in index order.
    """
    matched_left = {u for u in match if u != -1}
    left = {u for u in range(p.n) if u not in matched_left}
    right: set[int] = set()
    todo = list(left)
    while todo:
        u = todo.pop()
        for v in range(p.n):
            if p.lt[u, v] and v not in right:
                right.add(v)
                w = match[v]
                if w != -1 and w not in left:
                    left.add(w)
                    todo.append(w)
    return tuple(p.labels[i] for i in sorted(left - right))

"""Reference families of posets: chains, diagrams, grid ideals, random orders.

Grid-backed families come wrapped in :class:`GridShape`, which keeps the
ambient dimension, the cells, and the structural kind the family promises
("ideal" for downward closed, "convex" for order convex, "arbitrary" for
no promise).  The promise is checkable with
:func:`linext.poset.is_convex_in_grid`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotAPartition, SizeBudgetExceeded
from .poset import Poset, grid_poset
from .twochain import make_two_chain

DEFAULT_CELL_BUDGET = 200_000


@dataclass(frozen=True)
class GridShape:
    """A finite set of grid points plus the structural promise it makes."""

    dim: int
    cells: tuple[tuple[int, ...], ...]
    kind: str  # "ideal" | "convex" | "arbitrary"
    poset: Poset


def chain(n: int, prefix: str = "c") -> Poset:
    """Total order c1 < c2 < ... < cn."""
    if n < 0:
        raise DomainError("size must be nonnegative")
    labels = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    return Poset._closed(labels, np.triu(np.ones((n, n), dtype=bool), k=1))


def antichain(n: int, prefix: str = "a") -> Poset:
    """n pairwise incomparable elements."""
    if n < 0:
        raise DomainError("size must be nonnegative")
    labels = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    return Poset._closed(labels, np.zeros((n, n), dtype=bool))


def chain_plus_point(n: int) -> Poset:
    """A chain of n-1 elements and one isolated element z (n total).

    The isolated element's position is uniform over [n], which makes the
    family the standard example of unbounded position variance at width 2.
    """
    if n < 2:
        raise DomainError("need n >= 2 for a chain plus a point")
    cs = [f"c{i}" for i in range(1, n)]
    return Poset.from_covers(cs + ["z"], zip(cs, cs[1:]))


def two_equal_chains(n: int) -> Poset:
    """Two disjoint chains of n elements each, no cross relations."""
    if n < 1:
        raise DomainError("need n >= 1")
    return make_two_chain(n, n).poset


def _validate_partition(parts) -> tuple[int, ...]:
    parts = tuple(int(a) for a in parts)
    if any(a <= 0 for a in parts):
        raise NotAPartition("parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise NotAPartition("parts must be nonincreasing")
    return parts


def young_diagram(partition) -> GridShape:
    """Cells of an integer partition under the product order on row, column."""
    parts = _validate_partition(partition)
    cells = tuple(
        sorted((i + 1, j + 1) for i, row in enumerate(parts) for j in range(row))
    )
    return GridShape(2, cells, "ideal", grid_poset(cells))


def skew_diagram(outer, inner) -> GridShape:
    """Cells of ``outer`` with the cells of ``inner`` removed.

    ``inner`` must fit inside ``outer``; the remaining shape is order
    convex but in general not downward closed.
    """
    outer = _validate_partition(outer)
    inner = _validate_partition(inner) if inner else ()
    if len(inner) > len(outer):
        raise NotAPartition("inner shape has more rows than outer")
    for i, a in enumerate(inner):
        if a > outer[i]:
            raise NotAPartition("inner shape sticks out of outer")
    cells = []
    for i, row in enumerate(outer):
        start = inner[i] if i < len(inner) else 0
        cells.extend((i + 1, j + 1) for j in range(start, row))
    cells = tuple(sorted(cells))
    return GridShape(2, cells, "convex", grid_poset(cells))


def grid_ideal(dim: int, generators, max_cells: int = DEFAULT_CELL_BUDGET) -> GridShape:
    """Downward closure of generator points in the positive integer grid."""
    gens = [tuple(int(c) for c in g) for g in generators]
    if not gens:
        raise DomainError("need at least one generator")
    for g in gens:
        if len(g) != dim:
            raise DomainError(f"generator {g} does not have dimension {dim}")
        if any(c < 1 for c in g):
            raise DomainError("generator coordinates must be positive")
    bound = sum(int(np.prod(g, dtype=object)) for g in gens)
    if bound > max_cells:
        raise SizeBudgetExceeded(
            f"generated ideal could reach {bound} cells (budget {max_cells})"
        )
    cells = set()
    for g in gens:
        cells.update(itertools.product(*(range(1, c + 1) for c in g)))
    cells = tuple(sorted(cells))
    return GridShape(dim, cells, "ideal", grid_poset(cells))


def tripod(dim: int, ell: int) -> GridShape:
    """Ideal generated by ell times each unit direction (arms of length ell)."""
    if dim < 1 or ell < 1:
        raise DomainError("need dim >= 1 and ell >= 1")
    gens = []
    for axis in range(dim):
        g = [1] * dim
        g[axis] = ell
        gens.append(tuple(g))
    return grid_ideal(dim, gens)


def tightness_example_a(size: int) -> GridShape:
    """Convex grid family meeting the incomparability floor exactly.

    Two adjacent columns of height size/2 in the plane: the poset is the
    2 x (size/2) rectangle diagram, every element is incomparable to at
    most size/2 - 1 others, and the extreme cells achieve that number.
    """
    if size < 4 or size % 2:
        raise DomainError("size must be an even number >= 4")
    return young_diagram((size // 2, size // 2))


def random_poset(n: int, edge_prob: float, seed: int | None = None) -> Poset:
    """Random poset: closure of random forward edges along a random order.

    Deterministic for a fixed seed.  edge_prob 0 gives an antichain and 1 a
    chain; intermediate values interpolate.
    """
    if n < 0:
        raise DomainError("size must be nonnegative")
    rng = random.Random(seed)
    return _random_poset(rng, n, edge_prob)


def _random_poset(rng: random.Random, n: int, edge_prob: float) -> Poset:
    order = list(range(n))
    rng.shuffle(order)
    labels = [f"v{i}" for i in range(1, n + 1)]
    covers = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                covers.append((labels[order[a]], labels[order[b]]))
    return Poset.from_covers(labels, covers)


def all_partitions(max_total: int):
    """Yield every partition with 1 <= |lambda| <= max_total, nonincreasing."""

    def parts_of(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in parts_of(total - first, first):
                yield (first,) + rest

    for total in range(1, max_total + 1):
        yield from parts_of(total, total)


def builtin_corpus() -> list[tuple[str, Poset]]:
    """The named desk corpus shared by the CLI sweeps and the test suite.

    Small but structurally varied: chains, antichains, the unbounded-
    variance family, free two-chain posets, (skew) diagrams, the fence
    shapes V and N, a tripod, and a few seeded random posets.  Everything
    stays at n <= 9 so exact answers are instant.
    """
    items: list[tuple[str, Poset]] = []
    for n in (1, 2, 3, 5):
        items.append((f"chain{n}", chain(n)))
    for n in (2, 3, 4):
        items.append((f"antichain{n}", antichain(n)))
    for n in (3, 4, 5, 6):
        items.append((f"chainpoint{n}", chain_plus_point(n)))
    for n in (2, 3):
        items.append((f"twochains{n}", two_equal_chains(n)))
    for lam in ((2, 1), (2, 2), (3, 2), (3, 2, 1), (2, 2, 1), (3, 3)):
        name = "young" + "".join(str(k) for k in lam)
        items.append((name, young_diagram(lam).poset))
    items.append(("skew221", skew_diagram((2, 2), (1,)).poset))
    items.append(("vshape", Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])))
    items.append(
        (
            "nshape",
            Poset.from_covers(
                ("a", "b", "c", "d"), [("a", "c"), ("b", "c"), ("b", "d")]
            ),
        )
    )
    items.append(("tripod2x3", tripod(2, 3).poset))
    for n, prob, seed in ((6, 0.3, 11), (7, 0.2, 5), (8, 0.4, 3), (9, 0.15, 9)):
        items.append((f"random{n}s{seed}", random_poset(n, prob, seed)))
    return items

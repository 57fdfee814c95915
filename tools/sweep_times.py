"""Time the lattice in process: its build, its sweeps and its exact sampler.

Each repeat builds the poset and its lattice afresh, then times one call
of the method on it, so no cached counts or tables are read.  The
methods are ``pair_counts``, ``position_counts`` and ``sampler``: for
``sampler`` the call timed is the first, which sets the draw up, and the
draw it returns is then timed over 20 draws (``draw_us``, µs per draw).
The build itself (``build_ms``) is timed on every fresh lattice, so the
set-up's share of it can be read off the same run.  ``masked_ms`` is one
``event_probability`` of three incomparable pairs on a poset whose lattice
is already cached (a masked pass on an array lattice, a constrained down
pass otherwise), and ``masked_again_ms`` the same event asked again of
that lattice, so any state the first call leaves is warm.  The bytes an array lattice holds are read once per
poset, on a fresh lattice: the ``nbytes`` of its ``ideals`` (``levels``),
``down`` and ``up`` arrays and of every other array it keeps (``edges``),
and their sum (``held``), each in bytes per ideal (``_B``), over the
parts the array kernel built (no such columns when it built none).
``after_masked_B`` is what the same lattices hold beyond that after 16
masked passes of three pairs each, which name every element that is
incomparable to some other, up to 48 of them.  The posets are the
lattices the benchmark's exact_wide and query_mix workloads sweep, plus
two large ones whose levels each hold several chunks:

- ``young8x8``, ``young13x5``, ``random30``: exact_wide's inputs (random30
  splits into parts, so its sweep runs per part);
- ``young33``: query_mix's Young diagram (7, 6, 5, 5, 4, 3, 2, 1);
- ``random40``: ``random_poset(40, 0.1, seed=5)``, 163,758 ideals;
- ``box444``: the 4×4×4 box, ``grid_ideal(3, [(4, 4, 4)])``, 232,848 ideals.

The printed times are medians over ``--reps`` repeats, in milliseconds
unless named ``_us``.  Run from the root of a checkout, against its own
``src``:

    PYTHONPATH=src python3 tools/sweep_times.py --reps 5
    PYTHONPATH=src python3 tools/sweep_times.py young8x8 random40 --json

Times depend on the machine; compare runs taken on the same one, and
alternate the two checkouts compared.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import statistics
import time

import numpy as np

from linext.families import grid_ideal, random_poset, young_diagram
from linext.lattice import EventSpec, build_lattice, event_probability
from linext.poset import Poset

POSETS = {
    "young8x8": lambda: young_diagram((8,) * 8).poset,
    "young13x5": lambda: young_diagram((13,) * 5).poset,
    "random30": lambda: random_poset(30, 0.12, seed=20),
    "young33": lambda: young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset,
    "random40": lambda: random_poset(40, 0.1, seed=5),
    "box444": lambda: grid_ideal(3, [(4, 4, 4)]).poset,
}
METHODS = ("pair_counts", "position_counts", "sampler")
#: Draws timed per ``sampler`` call.
DRAWS = 20
#: Masked passes made before the bytes held after them are read.
MASKED_CALLS = 16


def _one_call(data: dict, method: str) -> dict[str, float]:
    """Seconds of the build and of one ``method`` call on a fresh lattice of ``data``.

    For ``sampler``, also the seconds per draw of the draw it returns.
    """
    start = time.perf_counter()
    lat = build_lattice(Poset.from_dict(data))
    built = time.perf_counter()
    made = getattr(lat, method)()
    times = {"build": built - start, method: time.perf_counter() - built}
    if method == "sampler":
        rng = random.Random(0)
        start = time.perf_counter()
        for _ in range(DRAWS):
            made(rng)
        times["draw"] = (time.perf_counter() - start) / DRAWS
    return times


def _open_pairs(p: Poset, count: int) -> list[tuple[int, int]]:
    """``count`` incomparable pairs (u, v), u running over every element that has one.

    Each u is paired with one of its incomparable elements at random, from
    a fixed seed, so the pairs name as many elements as they can.
    """
    rng = random.Random(0)
    free = [np.flatnonzero(~(p.lt[x] | p.lt[:, x])).tolist() for x in range(p.n)]
    elements = [x for x in range(p.n) if len(free[x]) > 1]  # x itself is always in free[x]
    return [(u, rng.choice([v for v in free[u] if v != u])) for u in itertools.islice(itertools.cycle(elements), count)]


def _masked_calls(data: dict) -> tuple[float, float]:
    """Seconds of a three-pair ``event_probability`` on a cached lattice of ``data``, then of the same again."""
    p = Poset.from_dict(data)
    build_lattice(p)
    event = EventSpec.of(*((p.labels[u], p.labels[v]) for u, v in _open_pairs(p, 3)))
    times = []
    for _ in range(2):
        start = time.perf_counter()
        event_probability(p, event)
        times.append(time.perf_counter() - start)
    return times[0], times[1]


def _arrays_in(value) -> list[np.ndarray]:
    """Every numpy array in ``value``, through dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays_in(item)]
    return []


def _held_bytes(data: dict) -> dict[str, float]:
    """Bytes per ideal that a fresh lattice of ``data``'s array-kernel parts holds.

    ``levels``, ``down`` and ``up`` are the arrays of the ``ideals``,
    ``down`` and ``up`` attributes; ``edges`` is every other array the
    lattice keeps.  ``after_masked`` is what they hold beyond the build
    after :data:`MASKED_CALLS` masked passes.  Empty when no part is an
    array lattice.
    """
    lat = build_lattice(Poset.from_dict(data))
    parts = [part for _, part in lat.parts] if hasattr(lat, "parts") else [lat]
    built = [part for part in parts if part._arrays is not None]
    if not built:
        return {}
    held = dict.fromkeys(("levels", "down", "up", "edges"), 0)
    for part in built:
        for name, value in vars(part._arrays).items():
            name = "levels" if name == "ideals" else name
            held[name if name in held else "edges"] += sum(x.nbytes for x in _arrays_in(value))
    held["held"] = sum(held.values())
    for part in built:
        pairs = _open_pairs(part.poset, 3 * MASKED_CALLS)
        for call in range(MASKED_CALLS):
            part._arrays.masked([pairs[3 * call : 3 * call + 3]])
    after = sum(x.nbytes for part in built for x in _arrays_in(vars(part._arrays)))
    held["after_masked"] = after - held["held"]
    nodes = sum(part.node_count for part in built)
    return {f"{name}_B": size / nodes for name, size in held.items()}


def _medians(data: dict, reps: int) -> dict[str, float]:
    """Median ms of the build, each method and a masked event, and median µs per draw."""
    runs = [_one_call(data, method) for _ in range(reps) for method in METHODS]
    row = {"build_ms": statistics.median(r["build"] for r in runs) * 1e3}
    for method in METHODS:
        row[f"{method}_ms"] = statistics.median(r[method] for r in runs if method in r) * 1e3
    row["draw_us"] = statistics.median(r["draw"] for r in runs if "draw" in r) * 1e6
    first, again = zip(*(_masked_calls(data) for _ in range(reps)))
    row["masked_ms"] = statistics.median(first) * 1e3
    row["masked_again_ms"] = statistics.median(again) * 1e3
    return {key: round(value, 2) for key, value in row.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help=f"posets to time, of {', '.join(POSETS)} (default: all)")
    parser.add_argument("--reps", type=int, default=5, help="repeats per poset and method")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    unknown = set(args.names).difference(POSETS)
    if unknown:
        parser.error(f"unknown posets: {', '.join(sorted(unknown))}")
    report = {}
    for name in args.names or POSETS:
        data = POSETS[name]().to_dict()
        _one_call(data, METHODS[0])  # warm the imports and caches the first call pays
        report[name] = _medians(data, args.reps)
        report[name].update((key, round(value, 1)) for key, value in _held_bytes(data).items())
    if args.json:
        print(json.dumps(report))
        return
    columns = list(max(report.values(), key=len))
    print("poset  " + "  ".join(columns))
    for name, row in report.items():
        print(name + "  " + "  ".join(f"{row[c]:.2f}" if c in row else "-" for c in columns))


if __name__ == "__main__":
    main()

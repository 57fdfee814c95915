"""Time the lattice in process: its build, its sweeps and its exact sampler.

Each repeat builds the poset and its lattice afresh, then times one call
of the method on it, so no cached counts or tables are read.  The methods
are ``pair_counts``, ``position_counts`` and ``sampler``: for ``sampler``
the call timed is the first, which sets the draw up, and the draw it
returns is then timed over 20 draws (``draw_us``, µs per draw).  The build
itself (``build_ms``) is timed on every fresh lattice, so the set-up's
share of it can be read off the same run.  The posets are the lattices
the benchmark's exact_wide and query_mix workloads sweep, plus two large
ones whose levels each hold several chunks:

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
import json
import random
import statistics
import time

from linext.families import grid_ideal, random_poset, young_diagram
from linext.lattice import build_lattice
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


def _medians(data: dict, reps: int) -> dict[str, float]:
    """Median ms of the build and each method, and median µs per draw."""
    runs = [_one_call(data, method) for _ in range(reps) for method in METHODS]
    row = {"build_ms": statistics.median(r["build"] for r in runs) * 1e3}
    for method in METHODS:
        row[f"{method}_ms"] = statistics.median(r[method] for r in runs if method in r) * 1e3
    row["draw_us"] = statistics.median(r["draw"] for r in runs if "draw" in r) * 1e6
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
    if args.json:
        print(json.dumps(report))
        return
    columns = list(next(iter(report.values())))
    print("poset  " + "  ".join(columns))
    for name, row in report.items():
        print(name + "  " + "  ".join(f"{row[c]:.2f}" for c in columns))


if __name__ == "__main__":
    main()

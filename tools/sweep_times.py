"""Time the lattice sweeps in process: ``pair_counts`` and ``position_counts``.

Each repeat builds the poset and its lattice afresh (untimed), then times
one call of the method on it, so no cached counts are read.  The posets
are the lattices the benchmark's exact_wide and query_mix workloads sweep,
plus two large ones whose levels each hold several chunks:

- ``young8x8``, ``young13x5``, ``random30``: exact_wide's inputs (random30
  splits into parts, so its sweep runs per part);
- ``young33``: query_mix's Young diagram (7, 6, 5, 5, 4, 3, 2, 1);
- ``random40``: ``random_poset(40, 0.1, seed=5)``, 163,758 ideals;
- ``box444``: the 4×4×4 box, ``grid_ideal(3, [(4, 4, 4)])``, 232,848 ideals.

The printed times are medians over ``--reps`` repeats, in milliseconds.
Run from the root of a checkout, against its own ``src``:

    PYTHONPATH=src python3 tools/sweep_times.py --reps 5
    PYTHONPATH=src python3 tools/sweep_times.py young8x8 random40 --json

Times depend on the machine; compare runs taken on the same one, and
alternate the two checkouts compared.
"""

from __future__ import annotations

import argparse
import json
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
METHODS = ("pair_counts", "position_counts")


def _one_call(data: dict, method: str) -> float:
    """Seconds of one ``method`` call on a fresh lattice of the poset ``data``."""
    lat = build_lattice(Poset.from_dict(data))
    call = getattr(lat, method)
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


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
        report[name] = {
            method: round(1e3 * statistics.median(_one_call(data, method) for _ in range(args.reps)), 2)
            for method in METHODS
        }
    if args.json:
        print(json.dumps(report))
        return
    print("poset  " + "  ".join(f"{method}_ms" for method in METHODS))
    for name, row in report.items():
        print(name + "  " + "  ".join(f"{row[method]:.2f}" for method in METHODS))


if __name__ == "__main__":
    main()

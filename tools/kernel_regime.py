"""Time both lattice kernels on random connected posets, to place the kernel rule.

``lattice._arrays_win`` sends a connected poset of n elements to the array
kernel when n >= 11, its ideal floor (``lattice._ideal_floor``) is at
least 3n and the kernel can hold it (``lattice._arrays_fit``).  This
script measures where that pays: for each random connected poset the
array kernel can hold, it times the array kernel and the dict kernel on
the same work (build plus ``pair_counts``, best of ``--reps``), and prints
one JSON record with every poset's times and a summary by floor / n and
by ideals / n.  Run from the repository root:

    PYTHONPATH=src python3 tools/kernel_regime.py --seed 1 --trials 400

Past 64 elements (two words per ideal), random posets need denser edges
to keep their lattices small:

    PYTHONPATH=src python3 tools/kernel_regime.py --seed 1 --trials 200 \
        --nmin 65 --nmax 128 --probs 0.2,0.25,0.3,0.4,0.5

Times depend on the machine; compare the two kernels' columns, not runs
taken on different machines.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import statistics
import time

import numpy as np

from linext import lattice
from linext.errors import BudgetExceeded
from linext.families import random_poset
from linext.poset import Poset


def _timed(p: Poset, arrays: bool, reps: int) -> tuple[float, int]:
    """Best time of build plus pair_counts on one kernel, and the node count."""
    kept = lattice._arrays_win
    lattice._arrays_win = lambda n, pred, floor: arrays
    try:
        best = float("inf")
        for _ in range(reps):
            q = Poset.from_dict(p.to_dict())  # a fresh poset: no cached lattice
            start = time.perf_counter()
            lat = lattice.DownsetLattice(q)
            lat.pair_counts()
            best = min(best, time.perf_counter() - start)
    finally:
        lattice._arrays_win = kept
    return best, lat.node_count


def _summary(rows: list[dict], key: str, bucket) -> list[dict]:
    """Win counts, median speed-up and total time saved per ``bucket(row[key])``."""
    buckets: dict[float, list[dict]] = {}
    for row in rows:
        buckets.setdefault(bucket(row[key]), []).append(row)
    out = []
    for b in sorted(buckets):
        group = buckets[b]
        ratios = [r["dict_ms"] / r["array_ms"] for r in group]
        out.append(
            {
                key: b,
                "posets": len(group),
                "median_nodes_per_n": round(statistics.median(r["nodes_per_n"] for r in group), 1),
                "array_wins": sum(x > 1 for x in ratios),
                "median_speedup": round(statistics.median(ratios), 2),
                "saved_ms": round(sum(r["dict_ms"] - r["array_ms"] for r in group), 1),
            }
        )
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=400, help="random posets drawn (disconnected ones are skipped)")
    ap.add_argument("--nmin", type=int, default=6)
    ap.add_argument("--nmax", type=int, default=40)
    ap.add_argument("--probs", default="0.08,0.1,0.15,0.2,0.3", help="edge probabilities to draw from, comma-separated")
    ap.add_argument("--max-floor", type=float, default=6.0, help="skip posets whose floor exceeds this many times n")
    ap.add_argument("--max-nodes", type=int, default=30000, help="skip lattices larger than this")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    probs = [float(v) for v in args.probs.split(",")]
    rng = random.Random(args.seed)
    rows = []
    for _ in range(args.trials):
        n = rng.randint(args.nmin, args.nmax)
        prob = rng.choice(probs)
        seed = rng.randrange(10**9)
        p = random_poset(n, prob, seed=seed)
        if len(lattice._components(p)) > 1 or not lattice._arrays_fit(n, p._pred_masks):
            continue
        floor = lattice._ideal_floor(n, p._pred_masks, p._upper_cover_masks)
        if floor > args.max_floor * n:
            continue
        try:
            lattice.DownsetLattice(Poset.from_dict(p.to_dict()), args.max_nodes)
        except BudgetExceeded:
            continue
        array_s, nodes = _timed(p, True, args.reps)
        dict_s, _ = _timed(p, False, args.reps)
        rows.append(
            {
                "n": n,
                "prob": prob,
                "seed": seed,
                "nodes": nodes,
                "floor": floor,
                "floor_per_n": round(floor / n, 2),
                "nodes_per_n": round(nodes / n, 2),
                "rule_picks_arrays": lattice._arrays_win(n, p._pred_masks, floor),
                "array_ms": round(array_s * 1e3, 3),
                "dict_ms": round(dict_s * 1e3, 3),
            }
        )
    wide = [r for r in rows if r["n"] >= lattice._ARRAY_MIN_ELEMENTS]
    small = [r for r in rows if r["n"] < lattice._ARRAY_MIN_ELEMENTS]
    picked = [r for r in rows if r["rule_picks_arrays"]]
    left = [r for r in rows if not r["rule_picks_arrays"]]
    report = {
        "command": "PYTHONPATH=src python3 tools/kernel_regime.py "
        + " ".join(f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items()),
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}, numpy {np.__version__}",
        "rule": {
            "min_elements": lattice._ARRAY_MIN_ELEMENTS,
            "min_ideals_per_element": lattice._ARRAY_MIN_IDEALS_PER_ELEMENT,
        },
        "totals_ms": {
            "rule": round(sum(r["array_ms"] if r["rule_picks_arrays"] else r["dict_ms"] for r in rows), 1),
            "always_dict": round(sum(r["dict_ms"] for r in rows), 1),
            "always_arrays": round(sum(r["array_ms"] for r in rows), 1),
            "best_per_poset": round(sum(min(r["array_ms"], r["dict_ms"]) for r in rows), 1),
        },
        "rule_picks_arrays": {"posets": len(picked), "array_wins": sum(r["dict_ms"] > r["array_ms"] for r in picked)},
        "rule_picks_dict": {"posets": len(left), "dict_wins": sum(r["dict_ms"] <= r["array_ms"] for r in left)},
        # floors in steps of 0.5n; lattice sizes in powers of two times n
        "by_floor_per_n": _summary(wide, "floor_per_n", lambda v: round(v * 2) / 2),
        "by_nodes_per_n": _summary(wide, "nodes_per_n", lambda v: 2 ** round(math.log2(v))),
        "below_min_elements": _summary(small, "n", lambda v: v),
        "posets": rows,
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()

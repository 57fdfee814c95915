"""Time query_mix's ops per kind, in process, and print each kind's share of a round.

The ops are those of ``benchmarks/workloads.py``'s ``QueryMix``, built from
its seed and run in order, round after round, with ``perf_counter`` around
each op's ``run`` and its untimed ``check`` after it.  Sorting-probability
and sample ops are split by whether they are the first of their kind on
their poset in the round.  ``sort_first`` builds the fresh poset's
lattice, unless an earlier op did, and sweeps its pair counts, unless an
earlier one-pair event did; ``sort_later`` reads one count from them.
``sample_first`` also pays the sampler's set-up, and ``sample_later``
draws from its tables.  Per kind the table gives the ops timed, the mean
and median ms per op, and the kind's share of the summed op time.
Run from the repository root:

    PYTHONPATH=src python3 tools/query_mix_split.py --seed 11 --rounds 4

``--json`` prints the table as one JSON object instead.  Times depend on
the machine; compare runs taken on the same one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import linext

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from workloads import QueryMix  # noqa: E402

KINDS = ("sort_first", "sort_later", "event", "cond", "position", "sample_first", "sample_later")
SPLIT = ("sort", "sample")


def split(seed: int, rounds: int) -> dict[str, dict[str, float]]:
    """Per kind: ops timed, mean and median ms per op, and share of the op time."""
    wl = QueryMix(seed, linext, None)
    wl.prepare(wl.make_inputs())
    spent: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for r in range(rounds):
        seen = set()
        for op in wl.ops(r):
            name, kind = op.tag.split(".")
            if kind in SPLIT:
                key = (name, kind)
                kind += "_later" if key in seen else "_first"
                seen.add(key)
            start = time.perf_counter()
            res = op.run()
            spent[kind].append(time.perf_counter() - start)
            _, failed, errors = op.check(res)
            if failed:
                raise SystemExit(f"{op.tag} failed its check: {errors}")
    total = sum(sum(times) for times in spent.values())
    return {
        kind: {
            "n": len(times),
            "mean_ms": statistics.fmean(times) * 1e3,
            "median_ms": statistics.median(times) * 1e3,
            "share_of_round": sum(times) / total,
        }
        for kind, times in spent.items()
        if times
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11, help="benchmark seed")
    parser.add_argument("--rounds", type=int, default=4, help="rounds of ops to time")
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")
    args = parser.parse_args()
    table = split(args.seed, args.rounds)
    if args.json:
        print(json.dumps(table, indent=1))
        return
    print(f"{'kind':<14}{'ops':>6}{'mean ms':>10}{'median ms':>11}{'share':>8}")
    for kind, row in table.items():
        print(
            f"{kind:<14}{row['n']:>6}{row['mean_ms']:>10.3f}"
            f"{row['median_ms']:>11.3f}{row['share_of_round']:>8.1%}"
        )


if __name__ == "__main__":
    main()

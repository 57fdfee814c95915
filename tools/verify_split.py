"""Time ``linext verify all``'s suites one by one, in process, and print each suite's share.

``verify all --random N --n NMAX --seed S`` runs every suite of
``checks.SUITES`` in turn with ``max(N // 5, 10)`` instances and the same
seed.  This tool makes those calls of ``checks.run_suite`` itself, with
``perf_counter`` around each, and repeats the whole sweep ``--repeats``
times.  N and NMAX are those of ``benchmarks/workloads.py``'s verify_sweep
calls, and an untimed ``run_suite("all", ...)`` then checks that the
suites one by one emit its records.  Per suite the table gives the records
emitted, the median ms per sweep over the repeats, and the suite's share
of the summed medians.  Run from the repository root:

    PYTHONPATH=src python3 tools/verify_split.py --seed 0 --repeats 5

``--json`` prints the table as one JSON object instead.
Times depend on the machine; compare runs taken on the same one, and
alternate the two checkouts compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from linext import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from workloads import VERIFY_NMAX, VERIFY_RANDOM  # noqa: E402


def split(seed: int, repeats: int) -> dict[str, dict[str, float]]:
    """Per suite: records emitted, median ms per sweep, and share of the summed medians."""
    per_suite = max(VERIFY_RANDOM // 5, 10)  # as run_suite("all", ...) hands out
    spent: dict[str, list[float]] = {name: [] for name in checks.SUITES}
    found: dict[str, list] = {}
    for _ in range(repeats):
        for name in checks.SUITES:
            start = time.perf_counter()
            found[name] = checks.run_suite(name, per_suite, VERIFY_NMAX, seed)
            spent[name].append(time.perf_counter() - start)
    whole = checks.run_suite("all", VERIFY_RANDOM, VERIFY_NMAX, seed)
    if whole != [rec for name in checks.SUITES for rec in found[name]]:
        raise SystemExit("the suites one by one differ from run_suite('all'): update per_suite")
    records = {name: len(recs) for name, recs in found.items()}
    medians = {name: statistics.median(times) * 1e3 for name, times in spent.items()}
    total = sum(medians.values())
    return {
        name: {"records": records[name], "median_ms": ms, "share": ms / total}
        for name, ms in medians.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="suite seed")
    parser.add_argument("--repeats", type=int, default=3, help="sweeps to time")
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")
    args = parser.parse_args()
    table = split(args.seed, args.repeats)
    if args.json:
        print(json.dumps(table, indent=1))
        return
    print(f"{'suite':<12}{'records':>9}{'median ms':>11}{'share':>8}")
    for name, row in table.items():
        print(f"{name:<12}{row['records']:>9}{row['median_ms']:>11.2f}{row['share']:>8.1%}")
    print(f"{'total':<12}{sum(r['records'] for r in table.values()):>9}"
          f"{sum(r['median_ms'] for r in table.values()):>11.2f}")


if __name__ == "__main__":
    main()

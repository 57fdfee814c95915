"""Time each phase of one ``linext analyze --json --full`` op, per poset file.

The op runs through ``cli.main`` as the command line runs it, with the
calls it makes wrapped in timers:

- ``args``: building the argument parser (``build_parser``);
- ``poset``: reading the file and building the poset (``_load_poset_file``);
- ``profile``: the comparability profile (width, pi);
- ``lattice``: building the ideal lattice (``count_extensions``);
- ``sweep``: the lattice's pair sweep (``pair_counts`` of either lattice
  class), which fills the position counts too;
- ``report``: the rest of ``balance``, which ranks the pairs by their
  counts;
- ``encode``: writing the report, which is ``json.dumps`` of the payload
  head and the per-element block written from the integer counts
  (``_per_element_json``);
- ``laws``: the rest of the op, which is the position laws, the
  per-element statistics and the payload head.

A phase's time leaves out the phases called within it, so ``report``
does not hold ``sweep``.  Every repeat loads the file again, so it builds
a fresh poset and lattice.
The printed times are medians over ``--reps`` repeats, in milliseconds.
Run from the repository root:

    PYTHONPATH=src python3 tools/analyze_phases.py young8x8.json random30.json --reps 15

Times depend on the machine; compare runs taken on the same one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import time

from linext import cli, lattice

PHASES = ("args", "poset", "profile", "lattice", "sweep", "report", "laws", "encode", "total")
#: (phase, owner, attribute) of each wrapped call; a phase may wrap several
WRAPPED = (
    ("args", cli, "build_parser"),
    ("poset", cli, "_load_poset_file"),
    ("profile", cli, "comparability_profile"),
    ("lattice", cli, "count_extensions"),
    ("sweep", lattice.DownsetLattice, "pair_counts"),
    ("sweep", lattice.SplitLattice, "pair_counts"),
    ("report", cli, "balance"),
    ("encode", json, "dumps"),
    ("encode", cli, "_per_element_json"),
)


def _one_op(path: str) -> dict[str, float]:
    """Phase times in seconds of one analyze op on ``path``."""
    spent = {name: 0.0 for name, _, _ in WRAPPED}
    kept = [getattr(owner, attr) for _, owner, attr in WRAPPED]
    inside: list[str] = []  # the phases running, innermost last

    def timed(name, fn):
        def run(*args, **kwargs):
            if name in inside:  # a call within the phase's own time
                return fn(*args, **kwargs)
            inside.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                inside.pop()
                spent[name] += took
                if inside:  # out of the enclosing phase's time
                    spent[inside[-1]] -= took

        return run

    for (name, owner, attr), fn in zip(WRAPPED, kept):
        setattr(owner, attr, timed(name, fn))
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", "--json", "--full", path])
        total = time.perf_counter() - start
    finally:
        for (_, owner, attr), fn in zip(WRAPPED, kept):
            setattr(owner, attr, fn)
    if code != 0:
        raise SystemExit(f"analyze {path} exited with {code}")
    spent["laws"] = total - sum(spent.values())
    spent["total"] = total
    return spent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="poset files analyze reads")
    parser.add_argument("--reps", type=int, default=15, help="repeats per file")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    report = {}
    for path in args.files:
        _one_op(path)  # warm the imports and caches the first op pays
        runs = [_one_op(path) for _ in range(args.reps)]
        report[path] = {
            phase: round(1e3 * statistics.median(r[phase] for r in runs), 2) for phase in PHASES
        }
    if args.json:
        print(json.dumps(report))
        return
    print("file  " + "  ".join(f"{phase}_ms" for phase in PHASES))
    for path, row in report.items():
        print(path + "  " + "  ".join(f"{row[phase]:.2f}" for phase in PHASES))


if __name__ == "__main__":
    main()

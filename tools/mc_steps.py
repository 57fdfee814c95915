"""Time the Markov chain's step kernel in process and print steps per second.

Two posets, each run as ``estimate_pair_probability`` runs it, one
``mcmc._advance`` call per phase:

- ``mc_large``: the first 400-element poset of ``benchmarks/workloads.py``'s
  ``McLarge`` at ``--seed``, with that workload's burn-in, sample count
  and pair;
- ``two_equal_chains20``: the workload's reference op, ``two_equal_chains(20)``
  at the default burn-in with its sample count and pair.

Per poset, ``burn_in`` is the steps per second of the call that watches
nothing and ``watched`` of the call that watches the pair.
``mc_step_us`` is µs per ``mc_step`` call, one step each, on the
400-element poset after its burn-in.  Every figure is a median over
``--reps`` chains, chain seeds 0, 1, ...  Run from the repository root:

    PYTHONPATH=src python3 tools/mc_steps.py --reps 5

Times depend on the machine; compare runs taken on the same one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import linext
from linext import mcmc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402

#: mc_step calls timed per repeat
STEP_CALLS = 20_000


def _phases(p: linext.Poset, x: str, y: str, burn_in: int, samples: int, seed: int):
    """Seconds of the burn-in call and of the watched call, and the state after."""
    state = mcmc.initial_state(p, seed)
    start = time.perf_counter()
    mcmc._advance(state, burn_in, 0)
    mid = time.perf_counter()
    mcmc._advance(state, samples, 1 << p.index(x) | 1 << p.index(y))
    return mid - start, time.perf_counter() - mid, state


def measure(seed: int, reps: int) -> dict:
    data = workloads.McLarge(seed, linext, None).make_inputs()[0]
    large = linext.Poset.from_covers(data["labels"], data["covers"])
    ref = linext.two_equal_chains(workloads.REF_CHAIN)
    runs = {
        "mc_large": (large, *data["pair"], workloads.MC_BURN_IN, workloads.MC_SAMPLES),
        "two_equal_chains20": (
            ref,
            f"x{workloads.REF_X}",
            f"y{workloads.REF_Y}",
            mcmc.default_burn_in(ref),
            workloads.REF_SAMPLES,
        ),
    }
    out: dict = {}
    step_us = []
    for name, (p, x, y, burn_in, samples) in runs.items():
        burn, watched = [], []
        for rep in range(reps):
            burn_s, watched_s, state = _phases(p, x, y, burn_in, samples, rep)
            burn.append(burn_in / burn_s)
            watched.append(samples / watched_s)
            if p is large:
                start = time.perf_counter()
                for _ in range(STEP_CALLS):
                    mcmc.mc_step(state)
                step_us.append((time.perf_counter() - start) / STEP_CALLS * 1e6)
        out[name] = {
            "n": p.n,
            "burn_in_steps": burn_in,
            "watched_steps": samples,
            "burn_in": statistics.median(burn),
            "watched": statistics.median(watched),
        }
    out["mc_step_us"] = statistics.median(step_us)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed")
    parser.add_argument("--reps", type=int, default=5, help="chains timed per poset")
    args = parser.parse_args()
    print(json.dumps(measure(args.seed, args.reps), indent=1))


if __name__ == "__main__":
    main()

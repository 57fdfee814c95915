"""The four benchmark workloads: seeded inputs, timed ops and their checks.

A workload object is built from the benchmark seed and the imported
``linext`` package.  ``make_inputs`` produces the workload's inputs as plain
data (labels and cover lists, query streams, argument lists); the benchmark
times it as part of set-up.  ``ops(r)`` yields the ops of round ``r``.  Every
round repeats the same ops on the same structures, under a fresh permutation
of the element order where the input is a poset, so that op ``i`` of every
round does the same amount of work on objects no earlier round has seen.
Each :class:`Op` has a timed ``run`` and an untimed ``check`` that turns the
result into ``(ops, failed, errors)``; checks never touch the poset objects
the timed code used, so they cannot warm a cache for a later op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


@dataclass
class Op:
    """One timed unit of work; ``tag`` names its input in traced metrics."""

    tag: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[int, int, list[str]]]


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + parts))


def shuffled(data: dict, rng: random.Random) -> dict:
    """Same order relation with the element and cover order permuted.

    A new permutation moves every element to another bit of the lattice
    masks, so the work keeps its size but is not the same computation.
    """
    labels = list(data["labels"])
    covers = [list(c) for c in data["covers"]]
    rng.shuffle(labels)
    rng.shuffle(covers)
    return {"labels": labels, "covers": covers}


def count_by_recursion(data: dict) -> int:
    """Linear extensions by a memoized recursion over downsets.

    Independent of the library: an element may come next once all of its
    generating predecessors are placed, and the count of a downset is the
    sum over those choices.
    """
    index = {lab: i for i, lab in enumerate(data["labels"])}
    n = len(index)
    pred = [0] * n
    for lo, hi in data["covers"]:
        pred[index[hi]] |= 1 << index[lo]
    full = (1 << n) - 1
    memo = {full: 1}

    def ext(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        total = 0
        for x in range(n):
            if not (mask >> x) & 1 and not pred[x] & ~mask:
                total += ext(mask | (1 << x))
        memo[mask] = total
        return total

    return ext(0)


def hook_length_count(parts) -> int:
    """Standard Young tableaux of shape ``parts`` (hook-length formula)."""
    cols = [sum(1 for a in parts if a > j) for j in range(parts[0])]
    hooks = 1
    for i, a in enumerate(parts):
        for j in range(a):
            hooks *= (a - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(sum(parts)) // hooks


def is_extension(order, labels: set, covers) -> bool:
    pos = {lab: k for k, lab in enumerate(order)}
    return (
        len(order) == len(labels)
        and set(pos) == labels
        and all(pos[lo] < pos[hi] for lo, hi in covers)
    )


def _frac(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


# -- exact_wide -----------------------------------------------------------


class ExactWide:
    """``linext analyze --json --full`` in-process, one op per input file.

    The inputs sit on both sides of the splits later engines may choose by
    input: split versus connected, n <= 64 versus n > 64, and counts that
    fit in int64 versus counts that do not.
    """

    name = "exact_wide"
    fresh_lattice_per_op = True

    def __init__(self, seed: int, lin, workdir: Path):
        self.seed = seed
        self.lin = lin
        self.workdir = workdir

    def make_inputs(self) -> dict:
        fam = self.lin.families
        shapes = {
            # 14 one-element components, 16,384 ideals, a 37-bit count (14!)
            "antichain14": fam.antichain(14),
            # n = 64, connected, 12,870 ideals, a 115-bit count
            "young8x8": fam.young_diagram((8,) * 8).poset,
            # components of 29 and 1, 22,896 ideals, a 66-bit count; the
            # structure is fixed because ideal counts of this family range
            # over two orders of magnitude from seed to seed
            "random30": fam.random_poset(30, 0.12, seed=20),
            # n = 65 > 64, connected, 8,568 ideals, a 109-bit count
            "young13x5": fam.young_diagram((13,) * 5).poset,
        }
        return {name: p.to_dict() for name, p in shapes.items()}

    def prepare(self, inputs: dict) -> None:
        self.inputs = inputs
        self.expected = {
            "antichain14": math.factorial(14),
            "young8x8": hook_length_count((8,) * 8),
            "random30": count_by_recursion(inputs["random30"]),
            "young13x5": hook_length_count((13,) * 5),
        }

    def lattice_posets(self, inputs: dict) -> dict:
        """The input posets, by name, whose lattices the traced run sizes."""
        return inputs

    def ops(self, r: int):
        rng = _rng(self.seed, self.name, r)
        for name, data in self.inputs.items():
            path = self.workdir / f"{name}-r{r}.json"
            path.write_text(json.dumps(shuffled(data, rng)))
            yield Op(name, self._analyze(str(path)), self._checker(name))

    def _analyze(self, path: str):
        main = self.lin.cli.main

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["analyze", "--json", "--full", path])
            return code, out.getvalue()

        return run

    def _checker(self, name: str):
        expected = self.expected[name]

        def check(result):
            code, text = result
            if code != 0:
                return 1, 1, [f"{name}: exit code {code}"]
            payload = json.loads(text)
            errors = []
            if int(payload["extensions"]) != expected:
                errors.append(f"{name}: count {payload['extensions']} != {expected}")
            for lab, row in payload["per_element"].items():
                if sum(_frac(v) for v in row["positions"]) != 1:
                    errors.append(f"{name}: position law of {lab} does not sum to 1")
                    break
            if _frac(payload["delta"]) > Fraction(1, 2):
                errors.append(f"{name}: delta above 1/2")
            return 1, int(bool(errors)), errors

        return check


# -- query_mix ------------------------------------------------------------


#: Queries per poset in one pass, by kind: 50% sorting probabilities, 20%
#: conjunctions, 10% conditionals, 10% position laws, 10% sample batches.
#: Fixed counts per pass keep the mix, and so the mean cost, the same on
#: every seed; the seed picks the pairs, elements and the order.
QUERY_MIX = {"sort": 40, "event": 16, "cond": 8, "position": 8, "sample": 8}
SAMPLE_BATCH = 20


class QueryMix:
    """A seeded stream of library queries to a few connected posets.

    Every pass sends the same 320 queries, 80 to each poset, and builds
    fresh ``Poset`` objects, each on the first query that names it, from a
    new permutation of the element order.
    """

    name = "query_mix"

    def __init__(self, seed: int, lin, workdir: Path):
        self.seed = seed
        self.lin = lin

    def make_inputs(self) -> dict:
        lin = self.lin
        rng = _rng(self.seed, self.name)
        # Lattices of similar size (2,002 to 2,864 ideals): with two small
        # posets the conditionals on the large ones would make up exactly
        # the slowest 5% of ops, and the p95 would sit on the edge of that
        # class.
        shapes = {
            "young33": lin.young_diagram((7, 6, 5, 5, 4, 3, 2, 1)).poset,
            "stair33": lin.young_diagram((8, 7, 6, 5, 4, 3)).poset,
            "grid30": lin.grid_ideal(3, [(4, 3, 2), (2, 3, 3)]).poset,
            "random30": lin.random_poset(30, 0.2, seed=0),
        }
        free = {
            name: [
                (x, y)
                for i, x in enumerate(p.labels)
                for y in p.labels[i + 1 :]
                if not p.comparable(x, y)
            ]
            for name, p in shapes.items()
        }

        def pair(name):
            x, y = rng.choice(free[name])
            return [x, y] if rng.random() < 0.5 else [y, x]

        def conditional(name):
            # the event stays open under the condition, so that every
            # conditional builds its two lattices and the slowest class of
            # queries has one cost profile from seed to seed
            given = pair(name)
            under = lin.lattice.augmented_poset(shapes[name], [tuple(given)])
            while True:
                event = pair(name)
                if not under.comparable(*event):
                    return [event, given]

        stream = []
        for name, p in shapes.items():
            for kind, k in QUERY_MIX.items():
                for _ in range(k):
                    if kind == "sort":
                        args = pair(name)
                    elif kind == "event":
                        args = [pair(name) for _ in range(rng.randint(2, 3))]
                    elif kind == "cond":
                        args = conditional(name)
                    elif kind == "position":
                        args = rng.choice(p.labels)
                    else:
                        args = rng.randrange(1 << 30)
                    stream.append([name, kind, args])
        rng.shuffle(stream)
        return {
            "posets": {name: p.to_dict() for name, p in shapes.items()},
            "stream": stream,
        }

    def prepare(self, inputs: dict) -> None:
        lin = self.lin
        self.inputs = inputs
        self.checkers = {}
        for name, data in inputs["posets"].items():
            p = lin.Poset.from_dict(data)
            lat = lin.build_lattice(p)
            self.checkers[name] = {
                "poset": p,
                "index": {lab: i for i, lab in enumerate(p.labels)},
                "counts": lat.pair_counts(),
                "total": lat.extension_count,
                "balance": lin.balance(p),
                "labels": set(p.labels),
                "covers": [tuple(c) for c in data["covers"]],
                "memo": {},
            }

    def lattice_posets(self, inputs: dict) -> dict:
        return inputs["posets"]

    def ops(self, r: int):
        rng = _rng(self.seed, self.name, r)
        posets = {
            name: shuffled(data, rng) for name, data in self.inputs["posets"].items()
        }
        fresh: dict = {}
        for name, kind, args in self.inputs["stream"]:
            yield self._query(name, kind, args, posets[name], fresh)

    def _query(self, name: str, kind: str, args, data: dict, fresh: dict) -> Op:
        lin = self.lin

        def poset():
            p = fresh.get(name)
            if p is None:
                p = fresh[name] = lin.Poset.from_dict(data)
            return p

        if kind == "sort":
            run = lambda: lin.sorting_probability(poset(), *args)
        elif kind == "event":
            pairs = tuple(tuple(pair) for pair in args)
            run = lambda: lin.event_probability(poset(), lin.EventSpec(pairs))
        elif kind == "cond":
            event, given = (tuple(pair) for pair in args)
            run = lambda: lin.conditional_probability(poset(), [event], [given])
        elif kind == "position":
            run = lambda: lin.position_distribution(poset(), args)
        else:
            run = lambda: lin.sample_extensions(poset(), SAMPLE_BATCH, args)
        return Op(f"{name}.{kind}", run, lambda res: self._check(name, kind, args, res))

    def _check(self, name: str, kind: str, args, res) -> tuple[int, int, list[str]]:
        c = self.checkers[name]
        at = c["index"]
        if kind == "sort":
            x, y = args
            reverse = Fraction(c["counts"][at[y]][at[x]], c["total"])
            ok = (
                res + reverse == 1
                and min(res, reverse) == c["balance"].pair_delta(x, y)
            )
        elif kind == "event":
            singles = [Fraction(c["counts"][at[u]][at[v]], c["total"]) for u, v in args]
            ok = 0 <= res <= min(singles)
        elif kind == "cond":
            event, given = (tuple(pair) for pair in args)
            key = (event, given)
            if key not in c["memo"]:
                p = c["poset"]
                joint = self.lin.event_probability(p, [event, given])
                c["memo"][key] = joint / self.lin.event_probability(p, [given])
            ok = res == c["memo"][key]
        elif kind == "position":
            ok = sum(res.probs) == 1 and 1 <= res.mean <= len(c["labels"])
        else:
            ok = len(res) == SAMPLE_BATCH and all(
                is_extension(order, c["labels"], c["covers"]) for order in res
            )
        if ok:
            return 1, 0, []
        return 1, 1, [f"{name}: {kind} {args!r} gave {res!r}"]


# -- verify_sweep ---------------------------------------------------------


VERIFY_RANDOM = 500
VERIFY_NMAX = 10
VERIFY_CALLS = 4


class VerifySweep:
    """``linext verify all --random N --n 10`` in-process, four calls a round.

    One op is one emitted check record, so the op rate is records per
    second.  Each round makes the same four calls, with four suite seeds
    drawn from the benchmark seed: the library keeps nothing between calls,
    so each repeat does all the work again, and calls of under a second let
    the speed probes between them follow the machine.  ``all`` hands each of
    its 12 suites ``N // 5`` instances; ``bl2`` always emits 127 records and
    ``pibounds`` is capped by its list of shapes.
    """

    name = "verify_sweep"

    def __init__(self, seed: int, lin, workdir: Path):
        self.seed = seed
        self.lin = lin

    def make_inputs(self) -> list[list[str]]:
        rng = _rng(self.seed, self.name)
        return [
            [
                "verify", "all",
                "--random", str(VERIFY_RANDOM),
                "--n", str(VERIFY_NMAX),
                "--seed", str(rng.randrange(1 << 31)),
            ]
            for _ in range(VERIFY_CALLS)
        ]

    def prepare(self, inputs: list[list[str]]) -> None:
        self.calls = inputs

    def lattice_posets(self, inputs: list[list[str]]) -> dict:
        return {}

    def ops(self, r: int):
        main = self.lin.cli.main
        for argv in self.calls:

            def run(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                return code, out.getvalue(), err.getvalue()

            yield Op("verify_all", run, self._check)

    @staticmethod
    def _check(result) -> tuple[int, int, list[str]]:
        code, out, err = result
        records = [json.loads(line) for line in out.splitlines()]
        hard = [
            r for r in records if not r["holds"] and r["kind"] != "conjecture"
        ]
        errors = [f"hard failure: {r['check']} {r['instance']}" for r in hard[:5]]
        if code != 0:
            errors.append(f"exit code {code}: {err.strip()}")
        attempted = max(len(records), 1)
        failed = attempted if code != 0 else len(hard)
        return attempted, failed, errors


# -- mc_large -------------------------------------------------------------


MC_CHAINS, MC_LEVELS, MC_CROSS = 4, 100, 40
MC_BURN_IN, MC_SAMPLES = 200_000, 1_000_000
MC_LARGE_PER_ROUND = 4
REF_CHAIN, REF_X, REF_Y, REF_SAMPLES = 20, 5, 8, 400_000
#: Standard deviation of the reference estimate across chain seeds: 0.059
#: observed over 120 seeds at the default burn-in, rounded up.  The
#: estimator's own batch-means stderr understates it about fourfold at this
#: run length, so the gate cannot use that stderr; the benchmark reports
#: the error in those units separately.
REF_SD = 0.07


def mc_poset_data(rng: random.Random) -> dict:
    """Four chains of 100 with sparse cross covers that always climb.

    A cross cover joins level k of one chain to a level in k+1..k+5 of
    another, so the longest chain stays at 100 elements on every seed and
    the closure does the same number of squarings; elements on one level
    of different chains stay incomparable.
    """
    label = lambda c, k: f"c{c}l{k}"
    covers = [
        [label(c, k), label(c, k + 1)]
        for c in range(MC_CHAINS)
        for k in range(MC_LEVELS - 1)
    ]
    for _ in range(MC_CROSS):
        a, b = rng.sample(range(MC_CHAINS), 2)
        k = rng.randrange(MC_LEVELS - 1)
        covers.append([label(a, k), label(b, rng.randint(k + 1, min(k + 5, MC_LEVELS - 1)))])
    labels = [label(c, k) for c in range(MC_CHAINS) for k in range(MC_LEVELS)]
    a, b = rng.sample(range(MC_CHAINS), 2)
    k = rng.randrange(MC_LEVELS)
    return {"labels": labels, "covers": covers, "pair": [label(a, k), label(b, k)]}


def two_chain_probability(m: int, n: int, i: int, j: int) -> Fraction:
    """P(x_i before y_j) on two free chains: at least i x's among the
    first i + j - 1 places of a uniform interleaving."""
    first = i + j - 1
    hits = sum(
        math.comb(first, k) * math.comb(m + n - first, m - k)
        for k in range(i, min(m, first) + 1)
    )
    return Fraction(hits, math.comb(m + n, m))


class McLarge:
    """Markov-chain estimates on 400-element posets built from covers.

    A round is four large ops (build with ``Poset.from_covers``, then a
    fixed number of chain steps) and one reference op on
    ``two_equal_chains(20)`` at the default burn-in, checked against the
    closed form.  Every round permutes the same four posets anew.
    """

    name = "mc_large"

    def __init__(self, seed: int, lin, workdir: Path):
        self.seed = seed
        self.lin = lin
        self.reference_z = []

    def make_inputs(self) -> list[dict]:
        rng = _rng(self.seed, self.name)
        return [mc_poset_data(rng) for _ in range(MC_LARGE_PER_ROUND)]

    def prepare(self, inputs: list[dict]) -> None:
        self.inputs = inputs
        self.exact = float(two_chain_probability(REF_CHAIN, REF_CHAIN, REF_X, REF_Y))

    def lattice_posets(self, inputs: list[dict]) -> dict:
        return {}

    def ops(self, r: int):
        lin = self.lin
        rng = _rng(self.seed, self.name, r)
        for data in self.inputs:
            order = shuffled(data, rng)
            x, y = data["pair"]
            chain_seed = rng.randrange(1 << 31)

            def run(order=order, x=x, y=y, chain_seed=chain_seed):
                p = lin.Poset.from_covers(order["labels"], order["covers"])
                return lin.estimate_pair_probability(
                    p, x, y, MC_SAMPLES, burn_in=MC_BURN_IN, seed=chain_seed
                )

            yield Op("large", run, self._check_large)
        ref_seed = rng.randrange(1 << 31)

        def reference():
            p = lin.two_equal_chains(REF_CHAIN)
            return lin.estimate_pair_probability(
                p, f"x{REF_X}", f"y{REF_Y}", REF_SAMPLES, seed=ref_seed
            )

        yield Op("reference", reference, self._check_reference)

    @staticmethod
    def _check_large(est) -> tuple[int, int, list[str]]:
        if math.isfinite(est.estimate) and 0 <= est.estimate <= 1:
            return 1, 0, []
        return 1, 1, [f"estimate {est.estimate} outside [0, 1]"]

    def _check_reference(self, est) -> tuple[int, int, list[str]]:
        err = est.estimate - self.exact
        if est.stderr > 0:
            self.reference_z.append(err / est.stderr)
        if abs(err) <= 4 * REF_SD:
            return 1, 0, []
        return 1, 1, [f"reference estimate {est.estimate} vs exact {self.exact:.6f}"]


WORKLOADS = {w.name: w for w in (ExactWide, QueryMix, VerifySweep, McLarge)}

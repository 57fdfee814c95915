"""linext benchmark: four closed-loop workloads, end to end or traced.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload exact_wide --seed 1 --seconds 20 --trace 0

One caller in one single-threaded process sends each op after the previous
one returns.  ``--trace 0`` repeats whole rounds of ops until ``--seconds``
have passed and prints the end-to-end metrics, with every time scaled by a
speed probe run between ops.  ``--trace 1`` runs a fixed number of rounds
without, with, and again without spans around every call into ``linext``
and prints the per-layer metrics, so their counts repeat exactly.  Every
result is checked outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import gzip
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import SpanIndex, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes that each time ``import linext`` plus input generation.
SETUP_REPEATS = 9
#: Keys in one speed probe (about 8 ms), the op time between two probes,
#: and the probe speed, in keys per second, that reported times are scaled
#: to.
PROBE_KEYS = 20_000
PROBE_EVERY_S = 0.25
REFERENCE_SPEED = 2.5e6
#: Fewest rounds of an end-to-end run, so every op has repeats to take the
#: median of.
MIN_ROUNDS = 3
#: Rounds in each pass of a traced run; fixed, so its counts repeat exactly.
TRACE_ROUNDS = {"exact_wide": 2, "query_mix": 2, "verify_sweep": 1, "mc_large": 1}
CHILD_TIMEOUT_S = 120


def load_linext():
    """Import the package from this checkout's ``src``, never another copy."""
    sys.path.insert(0, str(SRC))
    import linext
    import linext.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(linext.__file__).resolve().parent != SRC / "linext":
        raise ImportError(f"linext came from {linext.__file__}, not {SRC}")
    return linext


def run_child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def speed_probe() -> float:
    """Keys per second of a fixed pure-Python loop that uses no linext code.

    It fills a dict keyed by integer masks with big-integer values and
    reads it back, as the lattice sweeps do, with a working set of about a
    megabyte.  Its speed tracks how fast this machine runs such code at the
    moment, which on a shared host changes by up to 2x within seconds.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_KEYS):
        mask = (i * 0x9E3779B97F4A7C15) & ((1 << 62) - 1)
        table[mask] = (mask << 40) + i
    total = 0
    for mask in table:
        total += table[mask] & 0xFFFF
    return PROBE_KEYS / (time.perf_counter() - start)


def setup_child(workload: str, seed: int) -> None:
    before = speed_probe()
    start = time.perf_counter()
    lin = load_linext()
    WORKLOADS[workload](seed, lin, None).make_inputs()
    elapsed = time.perf_counter() - start
    speed = (before + speed_probe()) / 2
    print(json.dumps([elapsed * speed / REFERENCE_SPEED, elapsed]))


def resident_bytes() -> int:
    """Current resident set size, read from ``/proc/self/statm``."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def rss_probe(path: str) -> None:
    """RSS growth per node of one lattice build in this fresh process."""
    lin = load_linext()
    p = lin.Poset.from_dict(json.loads(Path(path).read_text()))
    gc.collect()
    before = resident_bytes()
    lat = lin.DownsetLattice(p)
    grown = resident_bytes() - before
    print(json.dumps([lat.node_count, grown / lat.node_count]))


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__}


class Tally:
    """Op outcomes and the raw and scaled time of every op, by round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # (seconds, scaled seconds, ops) of every op, one list per round
        self.rounds: list[list[tuple[float, float, int]]] = []
        self.speeds: list[float] = []  # every probe speed, in order
        self.errors: list[str] = []
        self.tags: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(t for rnd in self.rounds for t, _, _ in rnd)

    @property
    def scaled_busy_s(self) -> float:
        return sum(t for rnd in self.rounds for _, t, _ in rnd)

    def run_round(self, wl, r: int, tracer: Tracer | None = None) -> None:
        clock = time.perf_counter
        timings = []  # (seconds, ops, index of the last probe before the op)
        probes, since = [speed_probe()], 0.0
        for op in wl.ops(r):
            if tracer is not None:
                tracer.op = len(self.tags)
                tracer.active = True
            start = clock()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, f"{op.tag}: {exc!r}"
            elapsed = clock() - start
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    n, bad, errs = op.check(result)
                except Exception as exc:  # a result the check cannot read
                    n, bad, errs = 1, 1, [f"{op.tag}: check raised {exc!r}"]
            else:
                n, bad, errs = 1, 1, [error]
            self.attempted += n
            self.failed += bad
            self.errors.extend(errs)
            self.tags.append(op.tag)
            timings.append((elapsed, n, len(probes) - 1))
            since += elapsed
            if since >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since = 0.0
        probes.append(speed_probe())
        # scale each op by the mean speed of the probes on either side of it
        self.rounds.append(
            [
                (t, t * (probes[k] + probes[k + 1]) / (2 * REFERENCE_SPEED), n)
                for t, n, k in timings
            ]
        )
        self.speeds.extend(probes)


def end_to_end(wl, seconds: float, setup: list[list[float]]) -> tuple[Tally, dict, str]:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while len(tally.rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        tally.run_round(wl, len(tally.rounds))
    # Op i does the same work in every round: keep the median over rounds
    # of its scaled time.
    repeats = list(zip(*tally.rounds))
    counts = [n for _, _, n in tally.rounds[0]]
    scaled = [statistics.median(t for _, t, _ in reps) for reps in repeats]
    raw = [statistics.median(t for t, _, _ in reps) for reps in repeats]
    lat = [t / n for t, n in zip(scaled, counts)]
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    metrics = {
        "setup_s": statistics.median(scaled_s for scaled_s, _ in setup),
        "ops_per_s": sum(counts) / sum(scaled),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p95_ms": p95 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = (
        f"rounds={len(tally.rounds)} ops={tally.attempted} busy_s={tally.busy_s:.3f} "
        f"latency_samples={len(lat)} setup_samples={len(setup)}\n"
        f"unscaled: ops_per_s={sum(counts) / sum(raw):.6g} "
        f"setup_s={statistics.median(raw_s for _, raw_s in setup):.6g}\n"
        "round_busy_s=" + " ".join(f"{sum(t for t, _, _ in rnd):.4g}" for rnd in tally.rounds) + "\n"
        f"probe_speed: median={statistics.median(tally.speeds):.4g} "
        f"min={min(tally.speeds):.4g} max={max(tally.speeds):.4g} probes={len(tally.speeds)}"
    )
    return tally, metrics, note


def traced(wl, inputs, workdir: Path, report: Path, env: dict) -> tuple[Tally, dict, str]:
    rounds = TRACE_ROUNDS[wl.name]
    # untraced passes on both sides of the traced one, so that heap growth
    # in the first pass and drift do not count as tracing overhead
    plain = [Tally(), Tally()]
    for r in range(rounds):
        plain[0].run_round(wl, r)
    tracer = Tracer()
    tally = Tally()
    tracer.install()
    try:
        for r in range(rounds):
            tally.run_round(wl, r, tracer)
    finally:
        tracer.uninstall()
    for r in range(rounds):
        plain[1].run_round(wl, r)
    untraced_s = (plain[0].scaled_busy_s + plain[1].scaled_busy_s) / 2
    traced_s = tally.scaled_busy_s
    if getattr(wl, "fresh_lattice_per_op", False):
        building = {s[4] for s in tracer.spans if s[0] == "lattice.DownsetLattice.__init__"}
        for i, tag in enumerate(tally.tags):
            if i not in building:
                tally.failed += 1
                tally.errors.append(f"{tag}: op {i} built no lattice (a cache answered)")
    bytes_per_node = {}
    for name, data in wl.lattice_posets(inputs).items():
        path = workdir / f"probe-{name}.json"
        path.write_text(json.dumps(data))
        bytes_per_node[name] = tuple(json.loads(run_child(["--rss-probe", str(path)])))
    metrics = layer_metrics(tracer.spans, tally.tags, tally.attempted, bytes_per_node)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    names = sorted({s[0] for s in tracer.spans})
    code = {name: i for i, name in enumerate(names)}
    with gzip.open(report, "wt") as fh:
        json.dump(
            {
                "workload": wl.name,
                "environment": env,
                "rounds": rounds,
                "untraced_busy_s": [part.busy_s for part in plain],
                "traced_busy_s": tally.busy_s,
                "probe_speeds": [part.speeds for part in (plain[0], tally, plain[1])],
                "metrics": metrics,
                "by_name": SpanIndex(tracer.spans).by_name(),
                "span_names": names,
                "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in tracer.spans],
                "op_tags": tally.tags,
            },
            fh,
        )
    combined = Tally()
    for part in (*plain, tally):
        combined.attempted += part.attempted
        combined.failed += part.failed
        combined.errors.extend(part.errors)
    note = (
        f"rounds={rounds} untraced_scaled_s={untraced_s:.3f} "
        f"traced_scaled_s={traced_s:.3f} spans={len(tracer.spans)} report={report.relative_to(ROOT)}"
    )
    return combined, metrics, note


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.rss_probe is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "linext" / "__init__.py").is_file():
        print(f"error: no linext sources under {SRC}", file=sys.stderr)
        return 2
    if args.rss_probe:
        rss_probe(args.rss_probe)
        return 0
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    if not args.trace:
        child = ["--setup-child", "--workload", args.workload, "--seed", str(args.seed)]
        setup = [json.loads(run_child(child)) for _ in range(SETUP_REPEATS)]
    lin = load_linext()
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, lin, workdir)
        inputs = wl.make_inputs()
        wl.prepare(inputs)
        if args.trace:
            report = OUT / f"trace-{args.workload}-s{args.seed}.json.gz"
            tally, metrics, note = traced(wl, inputs, workdir, report, env)
        else:
            tally, metrics, note = end_to_end(wl, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if args.trace else "end_to_end"]

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in env.items())
        + " OMP/OPENBLAS/MKL_NUM_THREADS=1"
    )
    print(note)
    print(f"error_rate={tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted})")
    for err in tally.errors[:20]:
        print(f"error: {err}")
    for z in getattr(wl, "reference_z", []):
        print(f"reference error in reported stderrs: {z:+.2f}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into linext, recorded from outside the package.

:meth:`Tracer.install` replaces every public function of every loaded
``linext`` module, in every module namespace that refers to it, plus a few
methods (:data:`METHODS`), with a wrapper that records a span: name, start,
end, parent span and the op that caused it.  Nothing in the package changes
on disk, and :meth:`Tracer.uninstall` puts the originals back.  Spans stay
in memory until :func:`layer_metrics` turns them into per-layer metrics and
the benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

#: Methods traced besides the module-level public functions.
METHODS = {
    ("poset", "Poset"): ("__init__", "from_covers", "from_dict"),
    ("lattice", "DownsetLattice"): ("__init__", "marginals", "pair_counts"),
}

BUILD = "lattice.DownsetLattice.__init__"
CONSTRUCT = {"poset.Poset.__init__", "poset.Poset.from_covers", "poset.Poset.from_dict"}
QUERY = {
    f"lattice.{fn}"
    for fn in (
        "count_extensions",
        "position_distribution",
        "all_position_distributions",
        "event_probability",
        "conditional_probability",
        "sorting_probability",
        "sample_extension",
        "sample_extensions",
    )
}
SUITES = (
    "logconcave", "xyz", "gyy", "window", "cwsig", "grunbaum",
    "sigmaq", "bl1", "bl2", "ratio", "pibounds", "onethird",
)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


#: Values kept on a span when its call returns, by span name.
EXTRA = {
    BUILD: lambda a, k, r: (a[0].node_count, a[0].extension_count.bit_length()),
    "lattice.sample_extensions": lambda a, k, r: len(r),
    "mcmc.estimate_pair_probability": lambda a, k, r: r.burn_in + r.samples,
}

#: Span names that depend on the call's arguments.
DYNAMIC = {
    "checks.run_suite": lambda a, k: "checks.run_suite:" + _arg(a, k, 0, "name"),
}


class Tracer:
    """Records spans while active; confine an instance to one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra, dynamic = EXTRA.get(name), DYNAMIC.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = dynamic(args, kwargs) if dynamic else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "linext" or name.startswith("linext.")
        }
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == modname
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (modname, clsname), names in METHODS.items():
            cls = getattr(modules[f"linext.{modname}"], clsname)
            for meth in names:
                raw = cls.__dict__[meth]
                label = f"{modname}.{clsname}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(label, raw.__func__))
                else:
                    wrapped = self._wrap(label, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


class SpanIndex:
    """Durations, self times and ancestry of a recorded span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def outermost(self, names: set) -> float:
        """Time in spans named in ``names`` that no such span encloses."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] not in names:
                continue
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += self.dur[i]
        return total

    def total(self, name: str, where=lambda s: True) -> float:
        return sum(d for s, d in zip(self.spans, self.dur) if s[0] == name and where(s))

    def self_of(self, test) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if test(s[0]))

    def by_name(self) -> dict:
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for s, d, t in zip(self.spans, self.dur, self.self_time):
            row = agg[s[0]]
            row[0] += 1
            row[1] += d
            row[2] += t
        return {
            name: {"calls": c, "total_s": tot, "self_s": slf}
            for name, (c, tot, slf) in sorted(agg.items())
        }


#: Inputs whose lattice metrics are also reported under their own name.
KEYED_INPUTS = ("antichain14", "young8x8", "random30", "young13x5")
KEYED = (
    "lattice.nodes",
    "lattice.build_s",
    "lattice.build_us_per_node",
    "lattice.bytes_per_node",
    "lattice.marginals_s",
    "lattice.pair_counts_s",
    "lattice.count_bits_max",
)


def _lattice_figures(idx: SpanIndex, where) -> dict:
    builds = [s for s in idx.spans if s[0] == BUILD and where(s)]
    nodes = sum(s[5][0] for s in builds)
    build_s = idx.total(BUILD, where)
    return {
        "lattice.nodes": nodes,
        "lattice.build_s": build_s,
        "lattice.build_us_per_node": build_s / nodes * 1e6 if nodes else 0.0,
        "lattice.marginals_s": idx.total("lattice.DownsetLattice.marginals", where),
        "lattice.pair_counts_s": idx.total("lattice.DownsetLattice.pair_counts", where),
        "lattice.count_bits_max": max((s[5][1] for s in builds), default=0),
    }


def layer_metrics(
    spans: list[list], op_tags: list[str], queries: int, bytes_per_node: dict
) -> dict:
    """Per-layer metrics of one traced pass.

    ``op_tags[i]`` names the input of timed call ``i``, and keyed metrics
    read per call on that input; ``queries`` counts the ops the calls
    completed (a verify call emits many records); ``bytes_per_node`` maps
    input names to (nodes, RSS growth per node) of a lattice built on that
    input in a fresh process.
    """
    idx = SpanIndex(spans)
    out = {}
    out["poset.built"] = sum(1 for s in spans if s[0] == "poset.Poset.__init__")
    out["poset.construct_s"] = idx.outermost(CONSTRUCT)
    out["poset.closure_s"] = idx.outermost({"poset.transitive_closure"})
    out["poset.profile_s"] = idx.outermost({"poset.comparability_profile"})

    built = sum(1 for s in spans if s[0] == BUILD)
    calls = [i for i, s in enumerate(spans) if s[0] == "lattice.build_lattice"]
    building = {s[3] for s in spans if s[0] == BUILD}
    hits = sum(1 for i in calls if i not in building)
    samples = sum(s[5] for s in spans if s[0] == "lattice.sample_extensions")
    biggest = max(bytes_per_node.values(), key=lambda v: v[0], default=(0, 0.0))
    out.update(_lattice_figures(idx, lambda s: True))
    out.update(
        {
            "lattice.built": built,
            "lattice.cache_hit_ratio": hits / len(calls) if calls else 0.0,
            "lattice.lattices_per_query": built / queries if queries else 0.0,
            "lattice.query_s": idx.outermost(QUERY),
            "lattice.bytes_per_node": biggest[1],
            "lattice.sample_us": (
                idx.total("lattice.sample_extensions") / samples * 1e6 if samples else 0.0
            ),
        }
    )
    for key in KEYED_INPUTS:
        ops = {i for i, tag in enumerate(op_tags) if tag == key}
        keyed = _lattice_figures(idx, lambda s: s[4] in ops)
        keyed["lattice.bytes_per_node"] = bytes_per_node.get(key, (0, 0.0))[1]
        per_op = max(len(ops), 1)
        keyed["lattice.nodes"] //= per_op
        for name in ("lattice.build_s", "lattice.marginals_s", "lattice.pair_counts_s"):
            keyed[name] /= per_op
        for name in KEYED:
            out[f"{name}.{key}"] = keyed[name]

    out["stats.balance_s"] = idx.self_of(lambda n: n == "stats.balance")
    out["stats.position_statistics_s"] = idx.self_of(
        lambda n: n == "stats.position_statistics"
    )
    out["twochain.s"] = idx.self_of(lambda n: n.startswith("twochain."))
    steps = sum(s[5] for s in spans if s[0] == "mcmc.estimate_pair_probability")
    estimate_s = idx.total("mcmc.estimate_pair_probability")
    out["mcmc.steps"] = steps
    out["mcmc.steps_per_s"] = steps / estimate_s if estimate_s else 0.0
    out["mcmc.estimate_s"] = estimate_s
    for suite in SUITES:
        out[f"checks.{suite}_s"] = idx.total(f"checks.run_suite:{suite}")
    out["cli.self_s"] = idx.self_of(lambda n: n.startswith("cli."))
    return out

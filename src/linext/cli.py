"""Command-line front end.

Subcommands: ``analyze`` a poset file, ``generate`` family posets,
``verify`` inequality sweeps, ``experiment`` trend tables, ``sample``
linear extensions.  Exit codes: 0 success, 1 a theorem-backed check
failed, 2 usage or parse error, 3 node budget exceeded, 141 the reader
closed the output pipe (as shells report a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import checks, families, mcmc
from .errors import BudgetExceeded, LinextError
from .lattice import all_position_distributions, count_extensions, sample_extensions
from .poset import Poset, comparability_profile, grid_poset
from .stats import PositionStatistics, balance, fraction_json
from .twochain import make_two_chain


def _fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator} ({float(value):.6g})"


def _load_poset_file(path: str):
    """Read a poset from JSON; the shape of the keys picks the format.

    Accepts {"labels", "covers"}, grid {"dim", "points"} and two-chain
    {"m", "n", "cross"} files; "-" reads stdin so `generate` pipes in.
    Returns (poset, source_kind).
    """
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    keys = set(data)
    if {"labels", "covers"} <= keys:
        return Poset.from_dict(data), "poset"
    if {"dim", "points"} <= keys:
        points = [tuple(int(c) for c in q) for q in data["points"]]
        if any(len(q) != int(data["dim"]) for q in points):
            raise ValueError("grid points disagree with the declared dimension")
        return grid_poset(points), "grid"
    if {"m", "n"} <= keys:
        cross = [tuple(pair) for pair in data.get("cross", [])]
        return make_two_chain(int(data["m"]), int(data["n"]), cross).poset, "two-chain"
    raise ValueError(
        "unrecognized poset file: expected labels/covers, dim/points, or m/n/cross keys"
    )


# -- analyze --------------------------------------------------------------


def _fraction_json(value: Fraction) -> str:
    """``fraction_json(value)`` as ``json.dumps`` writes it in a ``per_element`` block."""
    return f'[\n        "{value.numerator}",\n        "{value.denominator}"\n      ]'


def _per_element_json(p: Poset, stats, counts, dists) -> str:
    """``analyze --json --full``'s ``per_element`` value, written from the integer counts.

    Byte for byte what ``json.dumps(payload, indent=2)`` writes at that key
    for the dict of each element's mean, variance, sigma, q, pi and reduced
    position ratios, without building the dict: each position row is one
    gcd and one f-string.  Keys, non-``str`` labels included, are written
    as the encoder writes them.  A zero count is written as 0/1, with no gcd.
    """
    zero = '[\n          "0",\n          "1"\n        ]'
    blocks = []
    for lab in p.labels:
        st, total = stats[lab], dists[lab].total
        rows = []
        for c in dists[lab].counts:
            if not c:
                rows.append(zero)
                continue
            g = math.gcd(c, total)
            rows.append(f'[\n          "{c // g}",\n          "{total // g}"\n        ]')
        # the encoder writes a non-str key as it writes that value
        key = encode_basestring_ascii(lab if isinstance(lab, str) else json.dumps(lab))
        blocks.append(
            f'    {key}: {{\n      "mean": {_fraction_json(st.mean)},\n'
            f'      "variance": {_fraction_json(st.variance)},\n'
            f'      "sigma": {st.stddev!r},\n      "q": {_fraction_json(st.q)},\n'
            f'      "pi": {counts[lab]},\n      "positions": [\n        '
            + ",\n        ".join(rows)
            + "\n      ]\n    }"
        )
    return "{\n" + ",\n".join(blocks) + "\n  }" if blocks else "{}"


def cmd_analyze(args) -> int:
    p, _kind = _load_poset_file(args.file)
    budget = args.budget_nodes
    profile = comparability_profile(p)
    extensions = count_extensions(p, budget)
    # the pair-count sweep fills the position counts too, so ask for it first
    delta_report = None if p.is_chain() else balance(p, budget)
    dists = all_position_distributions(p, budget)
    stats = {lab: PositionStatistics.from_distribution(dists[lab]) for lab in p.labels}
    # the empty poset has no argmax: null in JSON, "-" in text, and sigma 0
    sigma_arg = max(p.labels, key=lambda lab: (stats[lab].variance, -p.index(lab)), default=None)
    pi_arg = max(p.labels, key=lambda lab: (profile.counts[lab], -p.index(lab)), default=None)
    sigma = 0.0 if sigma_arg is None else stats[sigma_arg].stddev

    if args.json:
        payload = {
            "elements": p.n,
            "extensions": str(extensions),
            "width": profile.width,
            "antichain": list(profile.antichain),
            "pi": profile.max_count,
            "pi_argmax": pi_arg,
            "sigma": sigma,
            "sigma_argmax": sigma_arg,
            "delta": None if delta_report is None else fraction_json(delta_report.delta),
            "witness": None if delta_report is None else list(delta_report.witness),
        }
        text = json.dumps(payload, indent=2)
        if args.full:
            block = _per_element_json(p, stats, profile.counts, dists)
            # the last key goes in before the closing "\n}"
            text = f'{text[:-2]},\n  "per_element": {block}\n}}'
        print(text)
        return 0

    print(f"elements: {p.n}")
    print(f"extensions: {extensions}")
    print(f"width: {profile.width}  antichain {{{', '.join(map(str, profile.antichain))}}}")
    print(f"pi: {profile.max_count}  (argmax {'-' if pi_arg is None else pi_arg})")
    if delta_report is None:
        print("chain: balance not applicable")
    else:
        w = delta_report.witness
        print(f"delta: {_fmt(delta_report.delta)}  witness ({w[0]}, {w[1]})")
    print(f"sigma: {sigma:.6g}  (argmax {'-' if sigma_arg is None else sigma_arg})")
    if args.full:
        print()
        print("element  mean  variance  sigma  q  pi")
        for lab in p.labels:
            st = stats[lab]
            print(
                f"{lab}  {_fmt(st.mean)}  {_fmt(st.variance)}"
                f"  {st.stddev:.6g}  {_fmt(st.q)}  {profile.counts[lab]}"
            )
    return 0


# -- generate -------------------------------------------------------------


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _parse_cross(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        i, j = part.split(":")
        pairs.append((int(i), int(j)))
    return pairs


#: Each family ``generate`` knows: (its parameter count, a builder from the
#: parameters and the parsed arguments).  A builder returns the poset, or
#: for ``two-chain`` the JSON spec that ``analyze`` reads.
_FAMILIES = {
    "chain": (1, lambda ps, args: families.chain(int(ps[0]))),
    "antichain": (1, lambda ps, args: families.antichain(int(ps[0]))),
    "chainpoint": (1, lambda ps, args: families.chain_plus_point(int(ps[0]))),
    "twochains": (1, lambda ps, args: families.two_equal_chains(int(ps[0]))),
    "young": (1, lambda ps, args: families.young_diagram(_parse_int_list(ps[0])).poset),
    "skew": (
        2,
        lambda ps, args: families.skew_diagram(
            _parse_int_list(ps[0]), _parse_int_list(ps[1])
        ).poset,
    ),
    "tripod": (2, lambda ps, args: families.tripod(int(ps[0]), int(ps[1])).poset),
    "grid": (
        2,
        lambda ps, args: families.grid_ideal(
            int(ps[0]), [tuple(_parse_int_list(g)) for g in ps[1].split(";") if g.strip()]
        ).poset,
    ),
    "random": (2, lambda ps, args: families.random_poset(int(ps[0]), float(ps[1]), args.seed)),
    "two-chain": (
        2,
        lambda ps, args: {
            "m": int(ps[0]),
            "n": int(ps[1]),
            "cross": sorted(_parse_cross(args.cross or "")),
        },
    ),
}


def cmd_generate(args) -> int:
    family, params = args.family, args.params
    arity, build = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s)")
    out = build(params, args)
    print(json.dumps(out.to_dict() if isinstance(out, Poset) else out, indent=2))
    return 0


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    records = checks.run_suite(
        args.suite,
        count=args.random,
        nmax=args.n,
        seed=args.seed,
        budget=args.budget_nodes,
        corpus=args.corpus,
    )
    records = sorted(records, key=lambda r: (r.check, r.instance))
    for rec in records:
        print(json.dumps(rec.to_json(), sort_keys=True))
    hard_failures = [r for r in records if not r.holds and r.kind != "conjecture"]
    findings = [r for r in records if not r.holds and r.kind == "conjecture"]
    print(
        f"{len(records)} checks, {len(hard_failures)} failures, "
        f"{len(findings)} conjecture findings",
        file=sys.stderr,
    )
    return 1 if hard_failures else 0


# -- experiment -----------------------------------------------------------


def cmd_experiment(args) -> int:
    sizes = _parse_int_list(args.sizes)
    if not sizes:
        print("error: need at least one size", file=sys.stderr)
        return 2
    rows = checks.trend_experiment(args.family, sizes, args.budget_nodes)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow("family size n width delta_num delta_den delta_float sigma_float pi".split())
    for row in rows:
        writer.writerow(
            [
                row.family,
                row.size,
                row.n,
                row.width,
                row.delta.numerator,
                row.delta.denominator,
                f"{float(row.delta):.10g}",
                f"{row.sigma:.10g}",
                row.pi,
            ]
        )
    text = buf.getvalue()
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- sample ---------------------------------------------------------------


def cmd_sample(args) -> int:
    count = args.samples
    mcmc._check_samples(count, args.burn_in)
    p, _kind = _load_poset_file(args.file)
    if args.mc:
        state = mcmc.initial_state(p, args.seed)
        burn = args.burn_in if args.burn_in is not None else mcmc.default_burn_in(p)
        spacing = max(p.n * p.n, 1)
        print(
            f"# approximate: adjacent-transposition chain, "
            f"burn-in {burn}, spacing {spacing}"
        )
        mcmc._advance(state, burn, 0)
        for _ in range(count):
            mcmc._advance(state, spacing, 0)
            print(" ".join(str(p.labels[i]) for i in state.order))
        return 0
    for ext in sample_extensions(p, count, args.seed, args.budget_nodes):
        print(" ".join(map(str, ext)))
    return 0


# -- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linext",
        description="Exact linear-extension analytics for finite posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(sp):
        sp.add_argument(
            "--budget-nodes",
            type=int,
            default=None,
            metavar="N",
            help="ideal-lattice node budget (default 10^7)",
        )

    sp = sub.add_parser("analyze", help="report statistics of a poset file")
    sp.add_argument("file")
    sp.add_argument("--full", action="store_true", help="per-element table")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_budget(sp)

    sp = sub.add_parser("generate", help="emit a family poset as JSON")
    sp.add_argument("family", choices=list(_FAMILIES))
    sp.add_argument("params", nargs="*")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--cross", default=None, help="two-chain cross pairs i:j,...")

    sp = sub.add_parser("verify", help="run an inequality sweep, emit JSON lines")
    sp.add_argument("suite", choices=sorted(checks.SUITES) + ["all"])
    sp.add_argument("--random", type=int, default=100, metavar="N", help="instances")
    sp.add_argument("--n", type=int, default=8, metavar="NMAX", help="max poset size")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--corpus",
        choices=["builtin"],
        default=None,
        help="sweep the builtin corpus where the suite supports it",
    )
    add_budget(sp)

    sp = sub.add_parser("experiment", help="exact trend table for a family")
    sp.add_argument("family", choices=sorted(checks.TREND_FAMILIES))
    sp.add_argument("sizes", help="comma-separated sizes, e.g. 2,5,10,20")
    sp.add_argument("--csv", default=None, metavar="PATH", help="write CSV here")
    add_budget(sp)

    sp = sub.add_parser("sample", help="print linear extensions, one per line")
    sp.add_argument("file")
    sp.add_argument("--samples", type=int, default=1, metavar="N")
    sp.add_argument("--seed", type=int, default=None)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact sampling (default)")
    group.add_argument("--mc", action="store_true", help="approximate Markov chain")
    sp.add_argument("--burn-in", type=int, default=None, metavar="N")
    add_budget(sp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # subcommand x runs cmd_x, looked up per call: the cached parser
        # must not pin the function a later rebinding of cmd_x replaced
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # the rest of the output has nowhere to go: send it to devnull, so
        # the interpreter's final flush of stdout raises nothing
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # not a file, as in a test's capture
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    except BudgetExceeded as exc:
        print(
            f"error: ideal lattice needs more than {exc.budget} nodes; "
            "raise --budget-nodes",
            file=sys.stderr,
        )
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LinextError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

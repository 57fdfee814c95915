import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from linext import cli
from linext.cli import main
from linext.families import antichain, chain, random_poset, young_diagram
from linext import lattice
from linext.lattice import PositionDistribution, SplitLattice, build_lattice, count_extensions
from linext.poset import Poset, comparability_profile
from linext.stats import balance, fraction_json
from conftest import shuffled_chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poset(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def vee_file(tmp_path):
    return write_poset(
        tmp_path,
        "vee.json",
        {"labels": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]},
    )


def test_analyze_basic_report(capsys, vee_file):
    code, out, _ = run(capsys, "analyze", vee_file)
    assert code == 0
    assert "elements: 3" in out
    assert "extensions: 2" in out
    assert "width: 2" in out
    assert "1/2" in out  # the balanced pair (b, c)


def test_analyze_reads_stdin_with_dash(capsys, monkeypatch):
    import io

    payload = {"labels": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, _ = run(capsys, "analyze", "-")
    assert code == 0
    assert "extensions: 2" in out


def test_analyze_chain_has_no_balance(capsys, tmp_path):
    path = write_poset(
        tmp_path, "chain.json", {"labels": ["a", "b"], "covers": [["a", "b"]]}
    )
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "chain: balance not applicable" in out


def test_analyze_a_3000_element_chain(capsys, tmp_path):
    # the width's matching runs on an explicit stack, so a long chain does
    # not reach the interpreter's recursion limit
    path = write_poset(tmp_path, "chain3000.json", shuffled_chain(3000, 2).to_dict())
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "width: 1  antichain" in out
    assert "chain: balance not applicable" in out


def test_analyze_json_payload(capsys, vee_file):
    code, out, _ = run(capsys, "analyze", vee_file, "--json", "--full")
    assert code == 0
    payload = json.loads(out)
    assert payload["extensions"] == "2"  # kept as a string: counts overflow doubles
    assert payload["width"] == 2
    assert payload["delta"] == ["1", "2"]
    assert set(payload["per_element"]) == {"a", "b", "c"}


def _old_route_report(p, as_json: bool, full: bool = True) -> str:
    """``analyze`` output with every law read as Fractions from ``marginals()``.

    The mean, variance and mode mass of each law are Fraction sums over
    its probabilities, and each position is serialized from its Fraction;
    the JSON report is ``json.dumps`` of the whole payload.
    """
    profile = comparability_profile(p)
    extensions = count_extensions(p)
    report = None if p.is_chain() else balance(p)
    marg = build_lattice(p).marginals()
    stats = {}
    for lab in p.labels:
        probs = marg[lab]
        mean = sum((k * q for k, q in enumerate(probs, 1)), Fraction(0))
        var = sum((k * k * q for k, q in enumerate(probs, 1)), Fraction(0)) - mean * mean
        stats[lab] = (mean, var, math.sqrt(var), max(probs))
    sigma_arg = max(p.labels, key=lambda lab: (stats[lab][1], -p.index(lab)), default=None)
    pi_arg = max(p.labels, key=lambda lab: (profile.counts[lab], -p.index(lab)), default=None)
    if as_json:
        payload = {
            "elements": p.n,
            "extensions": str(extensions),
            "width": profile.width,
            "antichain": list(profile.antichain),
            "pi": profile.max_count,
            "pi_argmax": pi_arg,
            "sigma": 0.0 if sigma_arg is None else stats[sigma_arg][2],
            "sigma_argmax": sigma_arg,
            "delta": None if report is None else fraction_json(report.delta),
            "witness": None if report is None else list(report.witness),
        }
        if full:
            payload["per_element"] = {
                lab: {
                    "mean": fraction_json(stats[lab][0]),
                    "variance": fraction_json(stats[lab][1]),
                    "sigma": stats[lab][2],
                    "q": fraction_json(stats[lab][3]),
                    "pi": profile.counts[lab],
                    "positions": [fraction_json(v) for v in marg[lab]],
                }
                for lab in p.labels
            }
        return json.dumps(payload, indent=2) + "\n"

    def fmt(v):
        return f"{v.numerator}/{v.denominator} ({float(v):.6g})"

    lines = [
        f"elements: {p.n}",
        f"extensions: {extensions}",
        f"width: {profile.width}  antichain {{{', '.join(map(str, profile.antichain))}}}",
        f"pi: {profile.max_count}  (argmax {pi_arg})",
    ]
    if report is None:
        lines.append("chain: balance not applicable")
    else:
        lines.append(f"delta: {fmt(report.delta)}  witness ({report.witness[0]}, {report.witness[1]})")
    lines += [f"sigma: {stats[sigma_arg][2]:.6g}  (argmax {sigma_arg})", "", "element  mean  variance  sigma  q  pi"]
    for lab in p.labels:
        mean, var, sigma, q = stats[lab]
        lines.append(f"{lab}  {fmt(mean)}  {fmt(var)}  {sigma:.6g}  {fmt(q)}  {profile.counts[lab]}")
    return "\n".join(lines) + "\n"


def _kernel(lat) -> str:
    if isinstance(lat, SplitLattice):
        return "split"
    return "dict" if lat._arrays is None else "arrays"


@pytest.mark.parametrize(
    "kernel,make",
    [
        ("dict", lambda: random_poset(9, 0.3, seed=3)),
        ("dict", lambda: chain(4)),
        ("arrays", lambda: young_diagram((5, 4, 3, 2)).poset),
        ("split", lambda: random_poset(30, 0.12, seed=20)),
        ("dict", lambda: Poset.from_dict({"labels": [3, 1, 4, 2], "covers": [[3, 4], [1, 4]]})),
        (
            "split",
            lambda: Poset.from_dict(
                {"labels": [1, 2, 'x"y', "\u00fc", 2.5, None, False], "covers": [[1, 'x"y'], [None, 2.5]]}
            ),
        ),
        (
            "dict",
            lambda: Poset.from_dict(
                {
                    "labels": ['q"', "b\\s", "c\x01t", "\u00fc\u2603", "\U0001f600"],
                    "covers": [['q"', "c\x01t"]],
                }
            ),
        ),
        ("dict", lambda: chain(1)),
        ("split", lambda: antichain(14)),
        ("dict", lambda: Poset.from_dict({"labels": [], "covers": []})),
    ],
    ids=[
        "random9", "chain4", "young14", "random30", "int_labels", "mixed_labels",
        "escaped_labels", "one", "antichain14", "empty",
    ],
)
def test_analyze_full_is_byte_identical_to_the_fraction_route(capsys, tmp_path, kernel, make):
    p = make()
    assert _kernel(build_lattice(p)) == kernel
    path = write_poset(tmp_path, "p.json", p.to_dict())
    runs = [(["--json", "--full"], True, True), (["--json"], True, False)]
    # the text report has no argmax of nothing
    if p.n:
        runs.append((["--full"], False, True))
    for flags, as_json, full in runs:
        code, out, _ = run(capsys, "analyze", path, *flags)
        assert code == 0
        assert out == _old_route_report(p, as_json, full)


def test_analyze_text_prints_labels_that_are_not_str(capsys, tmp_path):
    path = write_poset(tmp_path, "p.json", {"labels": [1, 2, 'x"y', "\u00fc"], "covers": []})
    code, out, _ = run(capsys, "analyze", path, "--full")
    assert code == 0
    assert "antichain {1, 2, x\"y, \u00fc}" in out
    assert [line.split("  ")[0] for line in out.splitlines()[-4:]] == ["1", "2", 'x"y', "\u00fc"]


def test_analyze_builds_no_fraction_law(capsys, monkeypatch, tmp_path):
    # the statistics and positions come from the integer counts
    def built(self):
        raise AssertionError("a Fraction law was built")

    monkeypatch.setattr(PositionDistribution, "probs", property(built))
    monkeypatch.setattr(lattice._Lattice, "marginals", built)
    monkeypatch.setattr(lattice.DownsetLattice, "marginals", built)
    for p in (young_diagram((5, 4, 3, 2)).poset, random_poset(30, 0.12, seed=20), chain(3)):
        path = write_poset(tmp_path, "p.json", p.to_dict())
        for flags in (["--json", "--full"], ["--full"]):
            code, _, err = run(capsys, "analyze", path, *flags)
            assert (code, err) == (0, "")


def test_analyze_empty_poset(capsys, tmp_path):
    # one (empty) extension and no element to be an argmax
    path = write_poset(tmp_path, "empty.json", {"labels": [], "covers": []})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "elements: 0" in out and "extensions: 1" in out
    assert "pi: 0  (argmax -)" in out and "sigma: 0  (argmax -)" in out
    for argv in (["--json"], ["--json", "--full"]):
        code, out, _ = run(capsys, "analyze", path, *argv)
        assert code == 0
        payload = json.loads(out)
        assert (payload["elements"], payload["extensions"]) == (0, "1")
        assert payload["pi_argmax"] is None and payload["sigma_argmax"] is None
        assert payload["sigma"] == 0
        assert payload.get("per_element", {}) == {}
        assert ("per_element" in payload) == ("--full" in argv)


def test_analyze_two_chain_file(capsys, tmp_path):
    path = write_poset(tmp_path, "tc.json", {"m": 2, "n": 2, "cross": [[2, 2]]})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "extensions:" in out


def test_analyze_grid_file(capsys, tmp_path):
    path = write_poset(
        tmp_path, "grid.json", {"dim": 2, "points": [[1, 1], [1, 2], [2, 1]]}
    )
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/poset.json")
    assert code == 2
    assert err


def test_analyze_unrecognized_payload(capsys, tmp_path):
    path = write_poset(tmp_path, "bad.json", {"something": 1})
    code, _, err = run(capsys, "analyze", path)
    assert code == 2


def test_generate_round_trips_through_analyze(capsys, tmp_path):
    for args in (
        ["chain", "4"],
        ["antichain", "3"],
        ["chainpoint", "5"],
        ["twochains", "3"],
        ["young", "3,2"],
        ["skew", "3,3", "1"],
        ["tripod", "2", "3"],
        ["grid", "2", "2,2"],
        ["random", "6", "0.3", "--seed", "2"],
        ["two-chain", "2", "3", "--cross", "1:2"],
    ):
        code, out, _ = run(capsys, "generate", *args)
        assert code == 0, args
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "analyze", str(path))
        assert code == 0, args
        assert "extensions:" in out2


def test_generate_rejects_wrong_arity(capsys):
    code, _, err = run(capsys, "generate", "young")
    assert code == 2


@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_generate_checks_each_family_arity(capsys, family):
    arity, _ = cli._FAMILIES[family]
    for params in ([], ["2"] * (arity + 1)):
        code, out, err = run(capsys, "generate", family, *params)
        assert (code, out) == (2, "")
        assert err == f"error: family {family!r} takes {arity} parameter(s)\n"


def test_generate_choices_are_the_table():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (family,) = [a for a in sub.choices["generate"]._actions if a.dest == "family"]
    assert family.choices == list(cli._FAMILIES)


def test_generate_unknown_family(capsys):
    code, _, _ = run(capsys, "generate", "dodecahedron", "3")
    assert code == 2


def test_generate_is_deterministic(capsys):
    _, first, _ = run(capsys, "generate", "random", "7", "0.4", "--seed", "9")
    _, second, _ = run(capsys, "generate", "random", "7", "0.4", "--seed", "9")
    assert first == second


def test_generate_young_of_the_empty_partition(capsys):
    code, out, err = run(capsys, "generate", "young", "")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"labels": [], "covers": []}


def test_a_closed_pipe_exits_141(capsys, monkeypatch):
    def closed(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_generate", closed)
    assert run(capsys, "generate", "chain", "3") == (141, "", "")


def _linext(argv, stdout, buffered: bool) -> subprocess.Popen:
    """``python -m linext`` in a child, its stdout block-buffered or not."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "linext", *argv]
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_verify_into_a_closed_pipe_exits_141_without_a_traceback():
    # more output than a pipe holds, so writes still pend when it closes
    with _linext(["verify", "all", "--random", "600", "--n", "6"], subprocess.PIPE, True) as proc:
        assert proc.stdout.readline().startswith(b'{"check": ')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        status = proc.wait(timeout=120)
    assert status == 141
    assert "Traceback" not in err and "Error" not in err, err


@pytest.mark.parametrize("buffered", [True, False])
def test_output_to_a_pipe_without_a_reader_exits_141_quietly(buffered):
    # output that fits the buffer fails only when flushed, at the latest
    # by the interpreter on exit, which must find nothing left to write
    read, write = os.pipe()
    os.close(read)
    try:
        with _linext(["generate", "chain", "3"], write, buffered) as proc:
            err = proc.stderr.read().decode()
            status = proc.wait(timeout=120)
    finally:
        os.close(write)
    assert (status, err) == (141, "")


def test_verify_emits_sorted_records(capsys):
    code, out, err = run(capsys, "verify", "xyz", "--random", "12", "--seed", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 12
    keys = [(r["check"], r["instance"]) for r in lines]
    assert keys == sorted(keys)
    assert "12 checks, 0 failures" in err


def test_verify_unknown_suite_exits_usage(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "suite, nmax, least",
    [("xyz", 2, 3), ("cwsig", 2, 3), ("onethird", 2, 3), ("all", 2, 3), ("logconcave", 1, 2)],
)
def test_verify_names_the_smallest_n_a_suite_takes(capsys, suite, nmax, least):
    code, out, err = run(capsys, "verify", suite, "--n", str(nmax))
    assert (code, out) == (2, "")
    assert f"need nmax >= {least} (got {nmax})" in err
    assert "randrange" not in err


def test_verify_logconcave_runs_on_two_elements(capsys):
    code, out, err = run(capsys, "verify", "logconcave", "--n", "2", "--random", "5")
    assert code == 0
    assert len(out.splitlines()) == 5
    assert err.startswith("5 checks, 0 failures")


def test_verify_corpus_flag(capsys):
    code, out, err = run(capsys, "verify", "onethird", "--corpus", "builtin")
    assert code == 0
    assert "conjecture findings" in err


def test_verify_budget_exit(capsys):
    code, _, err = run(
        capsys, "verify", "logconcave", "--random", "3", "--budget-nodes", "2"
    )
    assert code == 3
    assert "--budget-nodes" in err


def test_experiment_csv_columns(capsys):
    code, out, _ = run(capsys, "experiment", "chainpoint", "4,8")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "family,size,n,width,delta_num,delta_den,delta_float,sigma_float,pi"
    assert len(rows) == 2
    assert rows[0].startswith("chainpoint,4,4,2,1,4,")


def test_experiment_to_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "experiment", "rect2xk", "2,5", "--csv", str(target))
    assert code == 0
    assert target.read_text().count("\n") == 3  # header + 2 rows
    assert out == ""


def test_experiment_empty_sizes(capsys):
    code, _, err = run(capsys, "experiment", "rect2xk", "")
    assert code == 2


def test_sample_exact_lines(capsys, vee_file):
    code, out, _ = run(capsys, "sample", vee_file, "--samples", "8", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert all(line.split()[0] == "a" for line in lines)


def test_sample_exact_determinism(capsys, vee_file):
    _, a, _ = run(capsys, "sample", vee_file, "--samples", "5", "--seed", "3")
    _, b, _ = run(capsys, "sample", vee_file, "--samples", "5", "--seed", "3")
    assert a == b


@pytest.mark.parametrize(
    "argv",
    [
        ["--mc", "--samples", "0", "--burn-in", "-5"],
        ["--mc", "--samples", "-2"],
        ["--mc", "--burn-in", "-1"],
        ["--samples", "0"],
    ],
)
def test_sample_rejects_bad_counts_before_any_step(capsys, monkeypatch, vee_file, argv):
    def stepped(*args):
        raise AssertionError("the chain stepped")

    monkeypatch.setattr(cli.mcmc, "_advance", stepped)
    code, out, err = run(capsys, "sample", vee_file, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_sample_mc_is_labeled(capsys, vee_file):
    code, out, _ = run(
        capsys, "sample", vee_file, "--mc", "--samples", "4", "--seed", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# approximate: adjacent-transposition chain")
    assert len(lines) == 5


# Output recorded from the per-step reference (``oracles.word_advance``, one
# step per call).
PINNED_MC_SAMPLES = [
    (
        ["--samples", "4", "--seed", "2"],
        "# approximate: adjacent-transposition chain, burn-in 2160, spacing 36\n"
        "v1 v3 v4 v6 v2 v5\nv3 v1 v4 v5 v6 v2\nv5 v3 v1 v4 v2 v6\nv5 v1 v3 v4 v6 v2\n",
    ),
    (
        ["--samples", "3", "--seed", "5", "--burn-in", "7"],
        "# approximate: adjacent-transposition chain, burn-in 7, spacing 36\n"
        "v3 v1 v4 v2 v6 v5\nv3 v1 v4 v5 v2 v6\nv5 v1 v6 v3 v4 v2\n",
    ),
]


@pytest.mark.parametrize("argv,expected", PINNED_MC_SAMPLES)
def test_sample_mc_is_pinned_per_seed(capsys, tmp_path, argv, expected):
    path = write_poset(
        tmp_path,
        "p.json",
        {
            "labels": ["v1", "v2", "v3", "v4", "v5", "v6"],
            "covers": [["v1", "v4"], ["v1", "v6"], ["v3", "v4"], ["v4", "v2"]],
        },
    )
    code, out, _ = run(capsys, "sample", path, "--mc", *argv)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("argv", [[], ["--mc"]])
def test_sample_prints_labels_that_are_not_str(capsys, tmp_path, argv):
    path = write_poset(tmp_path, "p.json", {"labels": [1, 2, "x"], "covers": [[1, 2]]})
    code, out, _ = run(capsys, "sample", path, "--samples", "6", "--seed", "1", *argv)
    assert code == 0
    lines = out.splitlines()[1:] if argv else out.splitlines()
    assert len(lines) == 6
    for line in lines:
        order = line.split(" ")
        assert sorted(order) == ["1", "2", "x"]
        assert order.index("1") < order.index("2")


def test_sample_mc_on_an_empty_poset(capsys, tmp_path):
    # no adjacent pair exists, so no seed may draw a slot
    path = write_poset(tmp_path, "empty.json", {"labels": [], "covers": []})
    for seed in range(1, 7):
        code, out, _ = run(capsys, "sample", path, "--mc", "--samples", "3", "--seed", str(seed))
        assert code == 0
        assert out == "# approximate: adjacent-transposition chain, burn-in 0, spacing 1\n" + "\n" * 3


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2

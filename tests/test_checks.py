import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from linext import checks, lattice
from linext.checks import (
    BL2_EPSILON,
    GRUNBAUM_LOWER,
    CheckRecord,
    check_avg_variance,
    check_bl2,
    check_cwsig,
    check_grunbaum_pair,
    check_grunbaum_tails,
    check_gyy,
    check_log_concavity,
    check_onethird,
    check_pi_bounds,
    check_sigma_q,
    check_xyz,
    is_log_concave,
    random_cwsig_instance,
    run_suite,
    trend_experiment,
)
from linext.errors import DecompositionInvalid, HypothesisNotSatisfied
from linext.families import (
    antichain,
    chain,
    chain_plus_point,
    tightness_example_a,
    tripod,
    two_equal_chains,
    young_diagram,
)
from linext.poset import Poset, max_incomparable_pair
from linext.twochain import make_two_chain


def test_log_concavity_checker_sanity():
    assert is_log_concave([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    # the checker itself must be able to say no
    assert not is_log_concave([Fraction(1, 2), Fraction(0), Fraction(1, 2)])
    assert is_log_concave([Fraction(1)])


def test_log_concavity_on_uniform_law():
    rec = check_log_concavity(chain_plus_point(4), "z")
    assert rec.holds and rec.check == "log_concavity"


def test_xyz_antichain_fixture():
    rec = check_xyz(antichain(3), "a1", ["a2", "a3"])
    assert rec.holds
    assert rec.lhs == Fraction(1, 3)
    assert rec.rhs == Fraction(1, 4)


def test_xyz_forced_event_is_equality():
    p = Poset.from_covers("abc", [("b", "a"), ("c", "a")])
    rec = check_xyz(p, "a", ["b", "c"])
    assert rec.holds and rec.lhs == 1 and rec.rhs == 1


def test_gyy_empty_condition_is_equality():
    t = make_two_chain(2, 2)
    rec = check_gyy(t, 1, 1, set())
    assert rec.holds and rec.lhs == rec.rhs


def test_gyy_positive_condition():
    t = make_two_chain(2, 2)
    rec = check_gyy(t, 1, 1, {(2, 2)})
    assert rec.holds and rec.lhs >= rec.rhs


def test_cwsig_chain_sides_reach_equality():
    # D and U chains make w = 1, so the floor is the product bound itself
    rec = check_cwsig(chain(4), "c2", lower=["c1"], upper=["c3", "c4"])
    assert rec.holds
    assert rec.lhs == rec.rhs == 1


def test_cwsig_two_minima_above():
    p = Poset.from_covers("axbw", [("a", "x"), ("x", "b"), ("a", "w")])
    rec = check_cwsig(p, "x", lower=["a"], upper=["b", "w"])
    assert rec.holds
    assert rec.lhs == Fraction(2, 3)
    assert rec.rhs == Fraction(2, 3) ** 4  # w = |B| = 2


def test_cwsig_rejects_non_partition():
    p = chain_plus_point(5)
    with pytest.raises(DecompositionInvalid):
        check_cwsig(p, "c2", lower=["c1"], upper=["c3", "c4"])  # z unassigned


def test_cwsig_rejects_escaping_sides():
    p = Poset.from_covers("abcx", [("a", "c"), ("c", "x"), ("x", "b")])
    # a sits below the ideal part but is assigned to the filter part
    with pytest.raises(DecompositionInvalid):
        check_cwsig(p, "x", lower=["c"], upper=["a", "b"])


def test_cwsig_random_instances_hold():
    rng = random.Random(6)
    for _ in range(25):
        p, x, lower, upper = random_cwsig_instance(rng, nmax=7)
        rec = check_cwsig(p, x, lower, upper)
        assert rec.holds, rec


def test_cwsig_stream_pinned_where_bases_reach_the_array_kernel(monkeypatch):
    # each instance splits its base at an ideal drawn from _walk's order of
    # discovery, whichever kernel would build the base's lattice
    kernels = []
    walk = checks._walk

    def seen(n, pred, cand, *args):
        kernels.append(lattice._preflight(n, pred, cand, lattice.DEFAULT_NODE_BUDGET))
        return walk(n, pred, cand, *args)

    monkeypatch.setattr(checks, "_walk", seen)
    records = run_suite("cwsig", count=40, nmax=16, seed=3)
    assert sum(kernels) == 9
    assert all(r.holds for r in records)
    assert [r.instance for r in records] == [
        "7d1c8c7a3c03", "bf302127696e", "b3018a901602", "c83d3303c4dd", "ddeaad473edc",
        "6bcb4c8c4999", "62bc8ad50235", "6ca59a3cbc52", "973249013d6b", "bb434ba1e32e",
        "b1de38138343", "13d30a14a486", "38707048a79d", "9405fc22d667", "5b8bcc9a74f3",
        "dde9acb9acb0", "2ab214abc88e", "76f114f9e3dc", "e56feb7d91b7", "9e90c06ce386",
        "ad9e4ee760d6", "740645220752", "96cbedae4be0", "5cd773a468db", "ec84b0beea6d",
        "273f549914fb", "0a6b6db83666", "46c588f46889", "025fe61eb95e", "69a7883179dc",
        "cddc6e0340c7", "8bc1fc9af036", "a84212823b74", "23d0985b672d", "8bce7915c44a",
        "536dc1bd13ad", "60576e74729c", "7443b7ac6caf", "258a7bb58fcc", "e32c488408c4",
    ]


def test_grunbaum_pair_threshold_value():
    assert GRUNBAUM_LOWER < Fraction(1, 2)
    assert float(GRUNBAUM_LOWER) == pytest.approx(0.36787944, abs=1e-8)


def test_grunbaum_pair_on_balanced_pair():
    rec = check_grunbaum_pair(antichain(2), "a1", "a2")
    assert rec.holds
    assert rec.lhs == Fraction(1, 2)


def test_grunbaum_pair_mean_order_picks_direction():
    p = chain_plus_point(3)
    rec = check_grunbaum_pair(p, "z", "c2")
    # E f(z) = 2 < E f(c2) = 7/3, so the checked direction is z before c2
    assert rec.holds
    assert rec.lhs == Fraction(2, 3)


def test_grunbaum_tails_cover_both_sides_when_applicable():
    t = make_two_chain(2, 2)
    rec = check_grunbaum_tails(t, 1)
    assert rec.holds
    assert "upper" in rec.note and "lower" in rec.note


def test_grunbaum_tails_skip_inapplicable_side():
    # m=2, n=1, x_1: E g = 1/3, the mean-ordering hypothesis fails for
    # the upper side (E f(y_1) > E f(x_1)), leaving nothing to check there
    t = make_two_chain(2, 1)
    rec = check_grunbaum_tails(t, 1)
    assert rec.holds
    assert "upper" not in rec.note or "trivial" in rec.note


def test_avg_variance_record():
    p = two_equal_chains(4)
    pair = max_incomparable_pair(p)
    rec = check_avg_variance(p, pair, Fraction(1))
    assert rec.holds
    assert rec.lhs == Fraction(6, 5)


def test_pi_bounds_tightness_equality():
    recs = check_pi_bounds(tightness_example_a(8))
    by_name = {r.check: r for r in recs}
    convex = by_name["pi_floor_convex"]
    assert convex.holds and convex.lhs == convex.rhs == 3


def test_pi_bounds_tripod_both_floors():
    recs = check_pi_bounds(tripod(2, 5), require="ideal")
    assert all(r.holds for r in recs)


def test_pi_bounds_chain_requires_raises():
    chain_shape = young_diagram((4,))
    with pytest.raises(HypothesisNotSatisfied):
        check_pi_bounds(chain_shape, require="convex")
    # a single row is a chain inside a coordinate hyperplane: nothing applies
    assert check_pi_bounds(chain_shape) == []


def test_sigma_q_records():
    recs = check_sigma_q(chain_plus_point(6), "z")
    names = [r.check for r in recs]
    assert names == ["variance_mode_bound", "sigma_q_window"]
    assert all(r.holds for r in recs)
    assert all(r.kind == "window" for r in recs)


def test_sigma_q_skips_window_for_peaked_laws():
    recs = check_sigma_q(chain(5), "c2")
    assert [r.check for r in recs] == ["variance_mode_bound"]
    assert recs[0].holds  # 0 <= ceiling


def test_bl2_record_and_hypercheck():
    t = make_two_chain(12, 12)
    rec = check_bl2(t, 6, 6, cutoff=5)
    assert rec.holds and rec.rhs == BL2_EPSILON[5]
    with pytest.raises(HypothesisNotSatisfied):
        check_bl2(t, 6, 6, cutoff=10)  # n - j too small
    with pytest.raises(HypothesisNotSatisfied):
        check_bl2(t, 6, 6, cutoff=7)  # no frozen ceiling
    crossed = make_two_chain(12, 12, cross=[(1, 12)])
    with pytest.raises(HypothesisNotSatisfied):
        check_bl2(crossed, 6, 6, cutoff=5)


def test_onethird_is_a_conjecture_record():
    rec = check_onethird(chain_plus_point(3))
    assert rec.kind == "conjecture"
    assert rec.holds and rec.lhs == Fraction(1, 3)


def test_record_serialization():
    rec = CheckRecord(
        check="demo",
        instance="abc",
        holds=True,
        lhs=Fraction(1, 3),
        rhs=None,
        note="x",
    )
    payload = rec.to_json()
    assert payload["lhs"] == ["1", "3"]
    assert payload["rhs"] is None
    json.dumps(payload)  # must be serializable as-is


# -- suites -----------------------------------------------------------------


@pytest.mark.parametrize("suite", ["logconcave", "xyz", "gyy", "window", "cwsig"])
def test_random_suites_hold(suite):
    records = run_suite(suite, count=25, nmax=7, seed=3)
    assert len(records) >= 25
    assert all(r.holds for r in records)


def test_suite_records_are_reproducible():
    a = [r.to_json() for r in run_suite("xyz", count=10, seed=42)]
    b = [r.to_json() for r in run_suite("xyz", count=10, seed=42)]
    assert a == b


def test_grunbaum_suite_mixes_pairs_and_tails():
    records = run_suite("grunbaum", count=40, seed=1)
    kinds = {r.check for r in records}
    assert kinds == {"grunbaum_pair", "grunbaum_tails"}
    assert all(r.holds for r in records)


def test_bl2_suite_covers_both_cutoffs():
    records = run_suite("bl2")
    notes = {r.note for r in records}
    assert notes == {"K=5", "K=10"}
    assert all(r.holds for r in records)
    assert all(r.kind == "window" for r in records)


def test_ratio_suite_reports_a_perturbed_engine(monkeypatch):
    import linext.twochain as twochain

    records = run_suite("ratio", count=20, seed=3)
    assert len(records) == 20 and all(r.holds for r in records)
    exact = twochain.psi_probability
    monkeypatch.setattr(
        twochain, "psi_probability", lambda t, i, j, budget=None: exact(t, i, j) * (j + 1)
    )
    records = run_suite("ratio", count=20, seed=3)
    assert len(records) == 20 and not any(r.holds for r in records)
    assert all(r.lhs != r.rhs for r in records)


def test_corpus_mode_sweeps_every_element():
    records = run_suite("logconcave", corpus="builtin")
    from linext.families import builtin_corpus

    total = sum(p.n for _, p in builtin_corpus())
    assert len(records) == total
    assert all(r.holds for r in records)


def test_all_reenters_run_suite_once_per_suite(monkeypatch):
    # "all" calls each suite through the module global, so a wrapper on it
    # (a traced per-suite span) sees one call per suite, in SUITES order
    real = checks.run_suite
    seen = []

    def spy(name, *args, **kwargs):
        seen.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(checks, "run_suite", spy)
    records = checks.run_suite("all", count=10, nmax=5)
    assert seen == ["all", *checks.SUITES]
    assert {r.check.split("_")[0] for r in records} >= {"xyz", "gyy", "window", "bl1"}


def test_traced_suites_are_the_table():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    (suites,) = [
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SUITES"]
    ]
    assert ast.literal_eval(suites) == tuple(checks.SUITES)


def test_suites_flag_the_corpus_walkers():
    assert [name for name, walks in checks.SUITES.items() if walks] == [
        "logconcave",
        "grunbaum",
        "sigmaq",
        "onethird",
    ]
    # a suite without a corpus walker ignores the flag
    assert run_suite("xyz", count=3, seed=5, corpus="builtin") == run_suite(
        "xyz", count=3, seed=5
    )


def test_unknown_suite_or_corpus_raises():
    with pytest.raises(ValueError):
        run_suite("nonsense")
    with pytest.raises(ValueError):
        run_suite("xyz", corpus="other")


# -- trend experiments -------------------------------------------------------


def test_trend_rect_rows():
    rows = trend_experiment("rect2xk", [2, 5])
    assert [r.size for r in rows] == [2, 5]
    assert rows[0].delta == 0
    assert rows[1].delta == Fraction(17, 42)
    assert rows[1].n == 10
    assert rows[1].width == 2


def test_trend_chainpoint_rows():
    rows = trend_experiment("chainpoint", [4, 8])
    assert [r.delta for r in rows] == [Fraction(1, 4), Fraction(3, 8)]
    assert all(r.pi == r.n - 1 for r in rows)


def test_trend_unknown_family():
    with pytest.raises(ValueError):
        trend_experiment("mystery", [2])

import itertools
import math
from fractions import Fraction

import pytest

from linext.errors import NotApplicable, UnknownElement
from linext.families import (
    antichain,
    builtin_corpus,
    chain,
    chain_plus_point,
    random_poset,
    two_equal_chains,
    young_diagram,
)
from linext.lattice import (
    PositionDistribution,
    SplitLattice,
    all_position_distributions,
    build_lattice,
    position_distribution,
)
from linext.poset import Poset, max_incomparable_pair
from linext.stats import (
    PositionStatistics,
    average_variance,
    balance,
    fraction_json,
    grunbaum_check,
    position_statistics,
    sigma_q_product,
)
from oracles import balance_report_json, brute_marginal, brute_sorting_probability, eager_balance
from conftest import random_posets, shuffled_chain

THIRD = Fraction(1, 3)


def test_balance_on_chain_plus_point():
    """The three-element fixture: a two-chain plus a floating point."""
    report = balance(chain_plus_point(3))
    assert report.delta == THIRD
    assert report.witness == ("c1", "z")
    assert report.pair_delta("z", "c1") == THIRD
    assert report.per_element["c2"] == THIRD


def test_balance_matches_brute_force():
    for poset in random_posets(30, nmax=7, seed=21):
        if poset.is_chain():
            continue
        report = balance(poset)
        for (x, y), d in report.pairs.items():
            pxy = brute_sorting_probability(poset, x, y)
            assert d == min(pxy, 1 - pxy)


def test_balance_rejects_chain():
    with pytest.raises(NotApplicable):
        balance(chain(3))


def test_witness_is_lexicographically_first():
    p = antichain(3)  # every pair is perfectly balanced
    report = balance(p)
    assert report.witness == ("a1", "a2")
    assert report.delta == Fraction(1, 2)


def test_off_fair_delta_skips_exact_halves():
    # in the 2x2 diagram every incomparable pair is exactly fair
    from linext.families import young_diagram

    report = balance(young_diagram((2, 2)).poset)
    assert report.delta == Fraction(1, 2)
    assert report.off_fair_delta() == 0


def test_off_fair_delta_tracks_nearest_miss():
    report = balance(chain_plus_point(4))
    assert report.off_fair_delta() == Fraction(1, 4)
    assert report.delta == Fraction(1, 2)


def test_position_statistics_uniform_point():
    st = position_statistics(chain_plus_point(5), "z")
    assert st.mean == 3
    assert st.variance == 2
    assert st.q == Fraction(1, 5)
    assert st.stddev == pytest.approx(2**0.5)


def test_position_statistics_pinned_element():
    st = position_statistics(chain(4), "c2")
    assert st.variance == 0
    assert st.q == 1


def test_sigma_q_product_zero_on_chain():
    assert sigma_q_product(chain(6), "c3") == 0.0


def test_sigma_q_product_antichain():
    # uniform law over 3 slots: sigma = sqrt(2/3), q = 1/3
    value = sigma_q_product(antichain(3), "a2")
    assert value == pytest.approx((2 / 3) ** 0.5 / 3)


def test_mean_tail_masses_on_three_elements():
    """Both tails about the mean, exact: the lopsided case.

    The position law of the lower chain element is (2/3, 1/3, 0) with
    mean 4/3, so the mass at-or-above the mean is only 1/3 — this is the
    fixture showing the naive two-sided 1/e floor is unattainable.
    """
    upper, lower = grunbaum_check(chain_plus_point(3), "c1")
    assert upper == THIRD
    assert lower == Fraction(2, 3)
    assert upper < Fraction(368, 1000)  # strictly below 1/e


def test_mean_tails_of_floating_point_are_fat():
    upper, lower = grunbaum_check(chain_plus_point(3), "z")
    assert upper == Fraction(2, 3)
    assert lower == Fraction(2, 3)


def test_average_variance_chain_plus_point():
    p = chain_plus_point(10)
    pair = max_incomparable_pair(p)
    assert pair.a == ("z",)
    assert average_variance(p, pair.a) == Fraction(33, 4)


def test_average_variance_two_equal_chains():
    p = two_equal_chains(8)
    xs = [f"x{i}" for i in range(1, 9)]
    assert average_variance(p, xs) == Fraction(68, 27)
    assert average_variance(p, xs) > 1


def test_fraction_json_round_trip():
    assert fraction_json(Fraction(3, 7)) == ["3", "7"]
    assert fraction_json(Fraction(-1, 2)) == ["-1", "2"]


def test_balance_report_json_shape():
    payload = balance_report_json(balance(chain_plus_point(3)))
    assert payload["delta"] == ["1", "3"]
    assert payload["witness"] == ["c1", "z"]
    assert all(isinstance(v, list) for v in payload["per_element"].values())


def _fraction_sums(probs):
    """Mean, variance, mode mass, support and both mean tails of a law, by Fraction sums."""
    mean = sum((k * q for k, q in enumerate(probs, 1)), Fraction(0))
    second = sum((k * k * q for k, q in enumerate(probs, 1)), Fraction(0))
    upper = sum((q for k, q in enumerate(probs, 1) if k >= mean), Fraction(0))
    lower = sum((q for k, q in enumerate(probs, 1) if k <= mean), Fraction(0))
    support = tuple(k for k, q in enumerate(probs, 1) if q > 0)
    return mean, second - mean * mean, max(probs), support, (upper, lower)


def _check_integer_laws(p: Poset, brute: bool = False) -> None:
    """Every integer route to each law against Fraction sums over ``marginals()``."""
    marg = build_lattice(p).marginals()
    dists = all_position_distributions(p)
    assert list(dists) == list(p.labels)
    variances = []
    for x in p.labels:
        probs = marg[x]
        if brute:
            assert list(probs) == brute_marginal(p, x)
        mean, var, q, support, tails = _fraction_sums(probs)
        for dist in (dists[x], position_distribution(p, x), PositionDistribution.from_probs(x, probs)):
            assert dist.element == x
            assert dist.probs == probs
            assert dist.mean == mean
            assert dist.variance() == var
            assert dist.support == support
            st = PositionStatistics.from_distribution(dist)
            assert (st.mean, st.variance, st.q) == (mean, var, q)
            assert st.stddev == math.sqrt(var)
        assert sum(dists[x].counts) == dists[x].total == build_lattice(p).extension_count
        assert grunbaum_check(p, x) == tails
        variances.append(var)
    assert average_variance(p, p.labels) == sum(variances, Fraction(0)) / p.n


def test_integer_laws_match_fraction_sums_and_brute_force():
    for _, p in builtin_corpus():
        _check_integer_laws(p, brute=p.n <= 8)
    for p in random_posets(40, nmax=8, seed=31):
        _check_integer_laws(p, brute=True)


def test_integer_laws_match_fraction_sums_on_large_lattices():
    split = random_poset(30, 0.12, seed=20)
    young = young_diagram((5, 4, 3, 2)).poset
    wide = young_diagram((13,) * 5).poset
    assert isinstance(build_lattice(split), SplitLattice)
    assert young.n >= 11 and build_lattice(young)._arrays is not None
    assert wide.n > 64 and build_lattice(wide)._arrays is not None
    for p in (split, young, wide):
        _check_integer_laws(p)


def test_a_law_of_an_unknown_element_is_refused():
    p = chain_plus_point(3)
    with pytest.raises(UnknownElement):
        position_distribution(p, "nope")
    with pytest.raises(UnknownElement):
        average_variance(p, ["z", "nope"])


def test_moments_skip_zeros_at_both_ends():
    # every chain element's law, and the chain's in chain_plus_point, has
    # zeros below and above its support, which the one-pass moments skip
    posets = [shuffled_chain(n, seed) for n, seed in ((50, 0), (200, 1))]
    posets += [chain_plus_point(k) for k in (4, 6, 12)]
    for p in posets:
        dists = all_position_distributions(p)
        assert any(d.counts[0] == 0 and d.counts[-1] == 0 for d in dists.values())
        for d in dists.values():
            mean = sum((k * Fraction(c, d.total) for k, c in enumerate(d.counts, 1)), Fraction(0))
            second = sum((k * k * Fraction(c, d.total) for k, c in enumerate(d.counts, 1)), Fraction(0))
            assert d.mean_variance() == (mean, second - mean * mean)
        _check_integer_laws(p, brute=p.n <= 8)


BALANCE_INPUTS = {
    "corpus": lambda: [p for _, p in builtin_corpus()],
    "random2000": lambda: random_posets(2000, nmax=9, seed=23),
    "young13x5": lambda: [young_diagram((13,) * 5).poset],
    "split": lambda: [random_poset(30, 0.12, seed=20)],
}


@pytest.mark.parametrize("name", BALANCE_INPUTS)
def test_lazy_balance_report_matches_the_eager_one(name):
    for p in BALANCE_INPUTS[name]():
        if p.is_chain():
            continue
        pairs, per_element = eager_balance(p)
        report = balance(p)
        assert report.pairs == pairs and list(report.pairs) == list(pairs)
        assert report.per_element == per_element and list(report.per_element) == list(per_element)
        assert report.delta == max(pairs.values())
        assert report.witness == next(k for k, d in pairs.items() if d == report.delta)
        below = [d for d in pairs.values() if d < Fraction(1, 2)]
        assert report.off_fair_delta() == max(below, default=Fraction(0))
        for x, y in itertools.permutations(p.labels, 2):
            assert report.pair_delta(x, y) == pairs.get((x, y), pairs.get((y, x), Fraction(0)))
    if name == "split":
        assert isinstance(build_lattice(p), SplitLattice)


def test_balance_builds_no_pair_fraction_until_read():
    report = balance(young_diagram((4, 3, 3)).poset)
    assert "pairs" not in vars(report) and "per_element" not in vars(report)
    assert report.delta == max(report.pairs.values())
    assert "pairs" in vars(report) and "per_element" not in vars(report)
    assert report.per_element is report.per_element  # built once, then kept

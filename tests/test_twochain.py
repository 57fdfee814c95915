import math
import random
from fractions import Fraction

import pytest

from linext.errors import ConditionNullEvent, DomainError, HypothesisNotSatisfied, IndexOutOfRange
from linext.lattice import (
    DownsetLattice,
    SplitLattice,
    build_lattice,
    conditional_probability,
    count_extensions,
    event_probability,
)
from linext.poset import Poset
from linext.twochain import (
    bl1_margin,
    bl2_hypothesis,
    bl2_ratio,
    conditioned_psi,
    expected_g,
    g_distribution,
    g_tails,
    make_two_chain,
    mirrored,
    phi_event,
    phi_probability,
    phi_table,
    psi_event,
    psi_probability,
    psi_table,
    random_two_chain,
)
from oracles import brute_conditional_probability, brute_event_probability, reach_two_chain
from conftest import count_constructions


def test_free_count_is_binomial():
    for m in range(1, 8):
        for n in range(1, 8):
            t = make_two_chain(m, n)
            assert count_extensions(t.poset) == math.comb(m + n, m)


def test_cross_relations_are_closed_upward():
    t = make_two_chain(3, 4, cross=[(2, 2)])
    # x2 < y2 forces x1 < y2 and x2 < y3, y4 in the order itself,
    # while the generating set is stored as given
    p = t.poset
    assert p.less("x1", "y2")
    assert p.less("x2", "y4")
    assert not p.less("x3", "y4")
    assert t.cross == frozenset({(2, 2)})
    assert not t.is_free


def test_builder_matches_the_reach_loop():
    # covers closed by from_covers against the first construction, and the
    # docstring's rule: x_i < y_j exactly when some cross pair (i0, j0)
    # has i <= i0 and j >= j0
    rng = random.Random(23)
    cases = [(1, 1, []), (1, 1, [(1, 1)]), (1, 6, []), (7, 1, [])]
    for m, n in ((1, 8), (8, 1), (3, 5), (8, 8)):
        cases.append((m, n, [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]))
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        cases.append((m, n, rng.sample(pairs, rng.randint(0, len(pairs)))))
    for m, n, cross in cases:
        t = make_two_chain(m, n, cross)
        assert t.poset == reach_two_chain(m, n, cross)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                x, y = t.x_label(i), t.y_label(j)
                assert t.poset.less(x, y) == any(i <= i0 and j >= j0 for i0, j0 in cross)
                assert not t.poset.less(y, x)


def test_cross_indices_are_validated():
    with pytest.raises(IndexOutOfRange):
        make_two_chain(2, 2, cross=[(0, 1)])
    with pytest.raises(IndexOutOfRange):
        make_two_chain(2, 2, cross=[(3, 1)])


def test_psi_table_is_a_partition():
    t = make_two_chain(4, 5, cross=[(1, 3)])
    table = psi_table(t)
    for i in range(1, t.m + 1):
        assert sum(table[i, j] for j in range(t.n + 1)) == 1


def test_psi_probability_matches_event_form():
    rng = random.Random(33)
    for _ in range(25):
        t = random_two_chain(rng, 5, 5, rng.choice([0.0, 0.3]))
        i = rng.randint(1, t.m)
        j = rng.randint(0, t.n)
        assert psi_probability(t, i, j) == event_probability(t.poset, psi_event(t, i, j))
        for jj in range(1, t.n + 1):
            for ii in range(0, t.m + 1):
                expected = event_probability(t.poset, phi_event(t, jj, ii))
                assert phi_probability(t, jj, ii) == expected


def test_sandwich_probabilities_read_one_lattice(monkeypatch):
    t = make_two_chain(4, 5, cross=[(2, 3)])
    built = count_constructions(monkeypatch, DownsetLattice, Poset)
    for i in range(1, t.m + 1):
        for j in range(0, t.n + 1):
            psi_probability(t, i, j)
    for j in range(1, t.n + 1):
        for i in range(0, t.m + 1):
            phi_probability(t, j, i)
    assert built == ["DownsetLattice"]


def test_bl2_ratio_raises_on_a_mismatch(monkeypatch):
    import linext.twochain as twochain

    exact = twochain.psi_probability
    monkeypatch.setattr(
        twochain, "psi_probability", lambda t, i, j, budget=None: exact(t, i, j) * (j + 1)
    )
    with pytest.raises(RuntimeError):
        bl2_ratio(make_two_chain(2, 2), 1, 1)


def test_psi_against_permutation_filter():
    t = make_two_chain(3, 3)
    # y1 < x2 < y2: exactly one y precedes x2
    pairs = [("y1", "x2"), ("x2", "y2")]
    assert psi_probability(t, 2, 1) == brute_event_probability(t.poset, pairs)


def test_psi_out_of_range():
    t = make_two_chain(2, 2)
    with pytest.raises(IndexOutOfRange):
        psi_probability(t, 0, 1)
    with pytest.raises(IndexOutOfRange):
        psi_probability(t, 1, 3)


def test_phi_is_psi_of_the_mirror():
    t = make_two_chain(4, 3, cross=[(3, 1)])
    s = mirrored(t)
    for j in range(1, t.n + 1):
        for i in range(t.m + 1):
            assert phi_probability(t, j, i) == psi_probability(s, t.n + 1 - j, t.m - i)


def test_phi_table_matches_pointwise():
    t = make_two_chain(3, 4, cross=[(2, 3)])
    table = phi_table(t)
    for (j, i), value in table.items():
        if j >= 1:
            assert value == phi_probability(t, j, i)


def test_g_shift_identity():
    from linext.lattice import position_distribution

    t = make_two_chain(4, 4, cross=[(2, 2)])
    for i in range(1, 5):
        g = g_distribution(t, i)
        f = position_distribution(t.poset, t.x_label(i))
        for k, prob in enumerate(g.probs):
            assert prob == f.probs[i + k - 1]
        assert g.mean == f.mean - i


def test_free_expected_g_closed_form():
    for m in range(1, 9):
        for n in range(1, 9):
            t = make_two_chain(m, n)
            for i in range(1, m + 1):
                assert expected_g(t, i) == Fraction(i * n, m + 1)


def test_g_tails_sum_exceeds_one():
    t = make_two_chain(3, 5, cross=[(1, 4)])
    upper, lower = g_tails(t, 2)
    assert upper + lower >= 1  # mass at the mean is counted twice


def test_g_tails_match_fraction_sums_over_g():
    for t in (make_two_chain(3, 5, cross=[(1, 4)]), make_two_chain(4, 4, cross=[(2, 2)]), make_two_chain(5, 3)):
        for i in range(1, t.m + 1):
            g = g_distribution(t, i)
            upper = sum((q for k, q in enumerate(g.probs) if k >= g.mean), Fraction(0))
            lower = sum((q for k, q in enumerate(g.probs) if k <= g.mean), Fraction(0))
            assert g_tails(t, i) == (upper, lower)


def test_conditioned_psi_free_closed_form():
    # (8, 8) is built part by part, so its prefix counts are folded
    assert isinstance(build_lattice(make_two_chain(8, 8).poset), SplitLattice)
    for m, n in ((2, 2), (3, 5), (6, 4), (8, 8)):
        t = make_two_chain(m, n)
        for i in range(1, m + 1):
            for j in range(0, n + 1):
                assert conditioned_psi(t, i, j) == Fraction(i, i + j)


def test_conditioned_psi_matches_brute_conditional():
    t = make_two_chain(3, 3)
    i, j = 2, 1
    ev = [("y1", "x2"), ("x2", "y2")]
    given = [("x2", "y2"), ("y1", "x3")]
    assert conditioned_psi(t, i, j) == brute_conditional_probability(t.poset, ev, given)


def _prefix_pairs(t, i, j):
    """The condition of :func:`conditioned_psi` as required pairs."""
    pairs = []
    if j < t.n:
        pairs.append((t.x_label(i), t.y_label(j + 1)))
    if j >= 1 and i < t.m:
        pairs.append((t.y_label(j), t.x_label(i + 1)))
    return pairs


def _conditional_or_none(conditional, *args):
    try:
        return conditional(*args)
    except (ConditionNullEvent, ZeroDivisionError):  # the oracle divides by 0
        return None


def test_conditioned_psi_matches_conditionals_with_cross_relations():
    # every cell of crossed posets, against the engine's conditional and,
    # up to 8 elements, the brute-force one; a prefix the cross relations
    # rule out raises on every side
    rng = random.Random(20)
    nulls, edges = 0, set()
    for k in range(150):
        t = random_two_chain(rng, 5, 5, cross_prob=0.2 + 0.1 * (k % 6))
        for i in range(1, t.m + 1):
            for j in range(t.n + 1):
                args = (t.poset, psi_event(t, i, j), _prefix_pairs(t, i, j))
                want = _conditional_or_none(conditional_probability, *args)
                if t.poset.n <= 8:
                    brute = (t.poset, psi_event(t, i, j).required, args[2])
                    assert _conditional_or_none(brute_conditional_probability, *brute) == want
                if want is None:
                    with pytest.raises(ConditionNullEvent):
                        conditioned_psi(t, i, j)
                    nulls += 1
                    continue
                assert conditioned_psi(t, i, j) == want
                edges |= {edge for edge, hit in (("j=0", j == 0), ("j=n", j == t.n), ("i=m", i == t.m)) if hit}
    assert nulls > 0
    assert edges == {"j=0", "j=n", "i=m"}


def test_bl1_variant_a():
    t = make_two_chain(4, 12)
    holds, value = bl1_margin(t, 1, 8, Fraction(1, 4))
    assert holds and value < Fraction(1, 4)
    with pytest.raises(HypothesisNotSatisfied):
        bl1_margin(t, 3, 3, Fraction(1, 2))  # i < eps*j fails


def test_bl1_variant_b_needs_free():
    t = make_two_chain(1, 10)
    holds, _ = bl1_margin(t, 1, 9, Fraction(1, 4), variant="b")
    assert holds
    crossed = make_two_chain(1, 10, cross=[(1, 5)])
    with pytest.raises(HypothesisNotSatisfied):
        bl1_margin(crossed, 1, 9, Fraction(1, 4), variant="b")


def test_bl1_conditioned_equals_ratio():
    t = make_two_chain(5, 9)
    holds, value = bl1_margin(t, 1, 6, Fraction(1, 3), conditioned=True)
    assert value == Fraction(1, 7)
    assert holds


def test_bl2_hypothesis_band():
    # j and n-j must clear the cutoff
    assert not bl2_hypothesis(10, 12, 5, 6, 6)
    assert bl2_hypothesis(12, 12, 6, 6, 5)
    # arity ratio: k*i*(n-j) < (k+1)*j*(m-i)
    assert not bl2_hypothesis(6, 12, 6, 6, 5)  # i = m makes the rhs zero
    assert bl2_hypothesis(14, 13, 7, 7, 5)


def test_bl2_ratio_closed_form_small():
    t = make_two_chain(2, 2)
    assert bl2_ratio(t, 1, 1) == Fraction(3, 2)


def test_bl2_ratio_trivial_chain():
    t = make_two_chain(1, 6)
    for ell in range(1, 7):
        assert bl2_ratio(t, 1, ell) == 1


def test_bl2_ratio_rejects_crossed_poset():
    t = make_two_chain(3, 3, cross=[(2, 2)])
    with pytest.raises(DomainError):
        bl2_ratio(t, 1, 1)


def test_bl2_ratio_rejects_bad_cut():
    t = make_two_chain(3, 3)
    with pytest.raises(DomainError):
        bl2_ratio(t, 2, 0)


def test_mirror_is_involution():
    t = make_two_chain(3, 5, cross=[(2, 4)])
    back = mirrored(mirrored(t))
    assert back.m == t.m and back.n == t.n and back.cross == t.cross


def test_random_two_chain_is_unidirectional():
    rng = random.Random(9)
    for _ in range(20):
        t = random_two_chain(rng, 6, 6, 0.4)
        for i, j in t.cross:
            assert t.poset.less(t.x_label(i), t.y_label(j))
        assert not any(
            t.poset.less(t.y_label(j), t.x_label(i))
            for i in range(1, t.m + 1)
            for j in range(1, t.n + 1)
        )

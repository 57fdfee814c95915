"""The fourteen gate criteria, one test and one printed verdict line each.

Every criterion is checked with exact arithmetic against independent
oracles or frozen fixtures from demos/derive_windows.py.  All fourteen
are expected green.  Criterion 8 checks Grunbaum's two-sided centroid
floor on the order-polytope coordinate t_x, where it is a theorem; the
same floor on the discrete rank f(x) is false (see test_08's docstring
for the three-element counterexample).
"""

import math
import random
import time
from fractions import Fraction

from linext.checks import (
    GRUNBAUM_LOWER,
    check_log_concavity,
    check_pi_bounds,
    run_suite,
    trend_experiment,
)
from linext.families import (
    all_partitions,
    builtin_corpus,
    chain_plus_point,
    random_poset,
    tightness_example_a,
    tripod,
    two_equal_chains,
    young_diagram,
)
from linext.lattice import (
    build_lattice,
    count_extensions,
    position_distribution,
    sorting_probability,
)
from linext.mcmc import estimate_pair_probability, tv_distance_diagnostic
from linext.poset import comparability_profile, max_incomparable_pair
from linext.stats import average_variance
from linext.twochain import conditioned_psi, bl2_ratio, make_two_chain, psi_table
from oracles import brute_count


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} — {detail}")


def test_01_counts_match_permutation_filtering():
    """2000 random posets, n <= 8: engine count equals brute force, < 5 min."""
    rng = random.Random(505)
    start = time.time()
    checked = 0
    for _ in range(2000):
        n = rng.randint(2, 8)
        prob = rng.choice([0.0, 0.1, 0.25, 0.4, 0.6, 0.8])
        p = random_poset(n, prob, seed=rng.randrange(10**9))
        assert count_extensions(p) == brute_count(p)
        checked += 1
    elapsed = time.time() - start
    ok = checked == 2000 and elapsed < 300
    _line(1, ok, f"{checked}/2000 random posets agree with brute force ({elapsed:.1f}s)")
    assert ok


def test_02_two_chain_closed_forms():
    """|E| = C(m+n, m) and E g(x_i) = i*n/(m+1) for all m, n <= 20, < 1 min."""
    start = time.time()
    cells = 0
    for m in range(1, 21):
        for n in range(1, 21):
            t = make_two_chain(m, n)
            lat = build_lattice(t.poset)
            assert lat.extension_count == math.comb(m + n, m)
            marg = lat.marginals()
            for i in range(1, m + 1):
                probs = marg[t.x_label(i)]
                mean_f = sum((Fraction(k + 1) * q for k, q in enumerate(probs)), Fraction(0))
                assert mean_f - i == Fraction(i * n, m + 1)
                cells += 1
    elapsed = time.time() - start
    ok = elapsed < 60
    _line(2, ok, f"400 cross-free posets, {cells} mean identities, exact ({elapsed:.1f}s)")
    assert ok


def test_03_log_concavity_everywhere():
    """Zero violations over the corpus and all diagrams with <= 10 cells."""
    posets = [p for _, p in builtin_corpus()]
    posets += [
        young_diagram(lam).poset for k in range(1, 11) for lam in all_partitions(k) if sum(lam) == k
    ]
    bad = 0
    positions = 0
    for p in posets:
        for x in p.labels:
            positions += 1
            if not check_log_concavity(p, x).holds:
                bad += 1
    ok = bad == 0
    _line(3, ok, f"{positions} position laws over {len(posets)} posets, {bad} violations")
    assert ok


def test_04_correlation_inequalities():
    """XYZ and conditioned-pair monotonicity: 500 random instances each."""
    xyz = run_suite("xyz", count=500, nmax=8, seed=41)
    gyy = run_suite("gyy", count=500, nmax=8, seed=42)
    bad = [r for r in xyz + gyy if not r.holds]
    ok = not bad and len(xyz) == 500 and len(gyy) == 500
    _line(4, ok, f"500 + 500 instances, {len(bad)} violations")
    assert ok


def test_05_conditioning_localizes():
    """Conditional probability equals the window subposet's, 100 instances."""
    records = run_suite("window", count=100, seed=43)
    kinds = {r.check for r in records}
    bad = [r for r in records if not r.holds]
    ok = (
        len(records) == 100
        and not bad
        and kinds == {"window_psi", "window_psi_psi", "window_psi_phi"}
    )
    _line(5, ok, f"100 identities across {len(kinds)} conditioning shapes, {len(bad)} off")
    assert ok


def test_06_small_index_tail_bound():
    """Free posets m, n <= 15: P(sandwich at (i, j)) <= i/j, and the
    prefix-conditioned value is exactly i/(i+j).

    The quantifier "P < eps whenever i < eps*j" over all rationals eps
    is equivalent to the single exact comparison P <= i/j.
    """
    start = time.time()
    pairs = 0
    for m in range(1, 16):
        for n in range(1, 16):
            t = make_two_chain(m, n)
            table = psi_table(t)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    assert table[i, j] <= Fraction(i, j)
                    assert conditioned_psi(t, i, j) == Fraction(i, i + j)
                    pairs += 1
    elapsed = time.time() - start
    _line(6, True, f"{pairs} (i, j) cells over 225 cross-free posets ({elapsed:.1f}s)")


def test_07_ratio_closed_form():
    """Adjacent-sandwich ratio equals its closed form for all m, n <= 12."""
    checked = 0
    for m in range(1, 13):
        for n in range(1, 13):
            t = make_two_chain(m, n)
            for i in range(1, m + 1):
                for ell in range(1, n + 1):
                    value = bl2_ratio(t, i, ell)  # raises unless both routes agree
                    assert value > 0
                    checked += 1
    _line(7, True, f"{checked} (m, n, i, ell) ratios, closed form exact")


def _order_polytope_tails(probs: list[Fraction]) -> tuple[Fraction, Fraction]:
    """Exact (P(t_x >= c), P(t_x <= c)) for the order-polytope coordinate.

    A uniform point t of the order polytope O(P) is a uniform extension
    with n sorted uniforms placed along it, so given f(x) = k, t_x is the
    k-th order statistic of n uniforms: P(t_x <= c) is the chance that at
    least k of them fall at or below c.  The centre c = E f(x) / (n + 1)
    is the centroid's x-coordinate.  ``probs[k - 1]`` is P(f(x) = k).
    """
    n = len(probs)
    c = sum((k * q for k, q in enumerate(probs, start=1)), Fraction(0)) / (n + 1)
    at_most = [math.comb(n, j) * c**j * (1 - c) ** (n - j) for j in range(n + 1)]
    lower = sum(
        (q * sum(at_most[k:], Fraction(0)) for k, q in enumerate(probs, start=1)),
        Fraction(0),
    )
    return 1 - lower, lower


def test_08_two_sided_mean_tail_floor():
    """Both centroid tails of every corpus position exceed 1/e, exactly.

    Grunbaum's theorem on the order polytope O(P) of an n-element poset:
    every halfspace containing the centroid holds at least (n/(n+1))^n
    > 1/e of the volume.  For each element x both halfspaces
    {t_x >= c} and {t_x <= c}, with c the centroid's x-coordinate, are
    such sections, so both tails computed from the engine's exact
    position law must reach the bound.  Equality is the cone case: it
    holds exactly when x is the unique minimum or maximum of P (position
    law a point mass at 1 or at n), and is asserted there, so an error
    in those laws cannot hide behind the slack of the inequality.

    The bound is about the continuous coordinate t_x, not the discrete
    rank f(x).  Counterexample for the rank: in the poset made of a
    two-chain plus a floating point, the bottom chain element's position
    law is (2/3, 1/3, 0) with mean 4/3, so P(f(x) >= E f(x)) = 1/3 < 1/e;
    along chain_plus_point(k) that upper tail is 1/k, so no constant
    floor holds for f(x).  The pair form over the same corpus is checked
    by check_grunbaum_pair in run_suite("grunbaum", corpus="builtin").
    """
    violations = []
    equality_misses = []
    positions = 0
    hits = 0
    for name, p in builtin_corpus():
        n = len(p.labels)
        bound = Fraction(n, n + 1) ** n
        assert bound > GRUNBAUM_LOWER
        for x in p.labels:
            positions += 1
            probs = position_distribution(p, x).probs
            upper, lower = _order_polytope_tails(probs)
            worst = min(upper, lower)
            if worst < bound:
                violations.append((name, x, upper, lower, bound))
            equal = worst == bound
            hits += equal
            if equal != (probs[0] == 1 or probs[-1] == 1):
                equality_misses.append((name, x, upper, lower, bound))
    ok = positions == 122 and hits == 18 and not violations and not equality_misses
    _line(
        8,
        ok,
        f"{positions} corpus positions, both order-polytope tails >= (n/(n+1))^n, "
        f"{hits} equality hits at unique extrema",
    )
    assert not violations, f"tails below (n/(n+1))^n: {violations[:3]}"
    assert not equality_misses, f"equality off the cone case: {equality_misses[:3]}"
    assert positions == 122 and hits == 18, (positions, hits)


def test_09_sandwich_concentration():
    """P(A < x < B) >= eps^(w^2) on 100 random decompositions, n <= 7."""
    records = run_suite("cwsig", count=100, nmax=7, seed=44)
    bad = [r for r in records if not r.holds]
    ok = len(records) == 100 and not bad
    _line(9, ok, f"100 random decompositions, {len(bad)} below the floor")
    assert ok


def test_10_incomparability_floors():
    """Convex floor with equality on the two-column family; both floors on
    diagrams with <= 10 cells and on the corner-with-arms ideals."""
    problems = []
    for size in range(4, 21, 2):
        recs = check_pi_bounds(tightness_example_a(size))
        convex = next(r for r in recs if r.check == "pi_floor_convex")
        if not (convex.holds and convex.lhs == convex.rhs):
            problems.append(("two-column", size))
    shapes = [
        young_diagram(lam) for k in range(1, 11) for lam in all_partitions(k) if sum(lam) == k
    ]
    shapes += [tripod(d, ell) for d in (2, 3) for ell in range(1, 7)]
    emitted = 0
    for shape in shapes:
        for rec in check_pi_bounds(shape):
            emitted += 1
            if not rec.holds:
                problems.append((shape, rec.check))
    ok = not problems and emitted > 100
    _line(10, ok, f"9 equality cases, {emitted} floor checks, {len(problems)} failures")
    assert ok


def test_11_onethird_finding_sweep():
    """Balance >= 1/3 over 10^4 random non-chain posets; findings reported,
    never fatal — the sweep itself completing is the criterion."""
    records = run_suite("onethird", count=10_000, nmax=8, seed=45)
    findings = [r for r in records if not r.holds]
    for r in findings:
        print(f"  finding: {r.instance} delta={r.lhs} ({r.note})")
    ok = len(records) == 10_000
    _line(11, ok, f"10000 posets swept, {len(findings)} findings (expected 0)")
    assert ok


def test_12_trend_fixtures():
    """Balance climbs toward 1/2 along the frozen families, each row < 2 min."""
    expected_rect = {
        2: Fraction(0),
        5: Fraction(17, 42),
        10: Fraction(275, 646),
        20: Fraction(62806058, 126233085),
    }
    deltas = []
    for k in (2, 5, 10, 20):
        start = time.time()
        (row,) = trend_experiment("rect2xk", [k])
        elapsed = time.time() - start
        assert elapsed < 120, f"size {k} took {elapsed:.1f}s"
        assert row.delta == expected_rect[k]
        deltas.append(row.delta)
    rect_ok = all(a < b for a, b in zip(deltas, deltas[1:])) and deltas[-1] > Fraction(45, 100)

    expected_point = {4: Fraction(1, 4), 8: Fraction(3, 8), 16: Fraction(7, 16)}
    point = []
    for n in (4, 8, 16):
        start = time.time()
        (row,) = trend_experiment("chainpoint", [n])
        assert time.time() - start < 120
        assert row.delta == expected_point[n]
        point.append(row.delta)
    point_ok = all(a < b for a, b in zip(point, point[1:]))

    ok = rect_ok and point_ok
    _line(
        12,
        ok,
        f"two-column delta {[str(d) for d in deltas]} and floating-point delta "
        f"{[str(d) for d in point]} both strictly increase",
    )
    assert ok


def test_13_monte_carlo_validation():
    """TV < 0.03 at 1e5 samples on 20 corpus posets; 4-stderr coverage >= 95%."""
    members = builtin_corpus()[:20]
    worst_tv = 0.0
    for idx, (name, p) in enumerate(members):
        profile = comparability_profile(p)
        x = max(p.labels, key=lambda lab: (profile.counts[lab], -p.index(lab)))
        tv = tv_distance_diagnostic(p, x, samples=100_000, seed=1000 + idx)
        worst_tv = max(worst_tv, tv)
        assert tv < 0.03, (name, x, tv)

    p = chain_plus_point(6)
    exact = float(sorting_probability(p, "z", "c2"))
    hits = 0
    for seed in range(100):
        est = estimate_pair_probability(p, "z", "c2", samples=20_000, seed=seed)
        if abs(est.estimate - exact) <= 4 * est.stderr:
            hits += 1
    ok = hits >= 95
    _line(13, ok, f"worst TV {worst_tv:.4f} over 20 posets; {hits}/100 runs inside 4*stderr")
    assert ok


def test_14_average_variance_growth():
    """Mean positional variance over a maximal pair's short side grows with n."""
    expected = {4: Fraction(6, 5), 8: Fraction(68, 27), 16: Fraction(88, 17)}
    values = []
    for n in (4, 8, 16):
        p = two_equal_chains(n)
        pair = max_incomparable_pair(p, mode="greedy")
        avg = average_variance(p, pair.a)
        assert avg == expected[n]
        values.append(avg)
    ok = values[0] < values[1] < values[2]
    _line(14, ok, f"averages {[str(v) for v in values]} strictly increase")
    assert ok

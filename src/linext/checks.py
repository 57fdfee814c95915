"""Executable checks of order-statistic inequalities, plus sweep drivers.

Each check evaluates one inequality (or identity) exactly on one instance
and returns a :class:`CheckRecord`.  Theorem-backed checks failing mean a
bug somewhere (engine or transcription); conjecture checks are findings
and never fatal.  ``run_suite`` drives seeded random sweeps for the
command line and the acceptance tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DecompositionInvalid, HypothesisNotSatisfied
from .families import (
    all_partitions,
    builtin_corpus,
    chain_plus_point,
    tripod,
    two_equal_chains,
    young_diagram,
    _random_poset,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    EventSpec,
    _walk,
    all_position_distributions,
    build_lattice,
    conditional_probability,
    event_probability,
    position_distribution,
)
from .poset import (
    IncomparablePair,
    Poset,
    comparability_profile,
    is_convex_in_grid,
)
from .stats import average_variance, balance, fraction_json, mean_tails, position_statistics
from .twochain import (
    TwoChainPoset,
    bl2_hypothesis,
    bl2_ratio_sides,
    make_two_chain,
    phi_event,
    psi_event,
    psi_probability,
    psi_table,
    random_two_chain,
)

#: Rational lower bound for 1/e, deflated by about one part in a billion so
#: the comparison never hinges on the irrational boundary itself.
GRUNBAUM_LOWER = Fraction(367_879_440, 10**9)

#: Ceiling for sigma^2(x) * q(x)^2, where q is the mode mass of the
#: position law.  demos/derive_windows.py observes a maximum of 6/25 over
#: the builtin corpus plus 2000 random posets (n <= 8), so the frozen
#: constant 1 carries a 4x margin.
VARIANCE_Q_SQ_MAX = Fraction(1)

#: Window for sigma(x) * q(x) on elements whose mode mass q is at most
#: 1/3.  demos/derive_windows.py observes [0.272, 0.453] over the builtin
#: corpus plus 2000 random posets (n <= 8); chain elements (q = 1) never
#: enter the filter.
SIGMA_Q_WINDOW = (0.2, 0.6)

#: Tail-mass ceilings for the balanced-index bound at cutoffs 5 and 10.
#: On cross-free posets the admissible tail mass climbs toward the central
#: binomial weight at the smallest admissible chain length (j = K+1,
#: n = 2K+2) as m grows — C(12,6)/2^12 ~ 0.2256 for K=5 and
#: C(22,11)/2^22 ~ 0.1682 for K=10 — without ever reaching it
#: (demos/derive_windows.py sweeps m, n <= 30 and 40 and probes m up to
#: 2000), so these ceilings hold at every size.
BL2_EPSILON = {5: Fraction(1, 4), 10: Fraction(9, 50)}


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one inequality check on one instance."""

    check: str
    instance: str
    holds: bool
    kind: str = "theorem"  # "theorem" | "conjecture" | "identity" | "window"
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "holds": self.holds,
            "kind": self.kind,
            "lhs": None if self.lhs is None else fraction_json(self.lhs),
            "rhs": None if self.rhs is None else fraction_json(self.rhs),
            "note": self.note,
        }


def _digest(**fields) -> str:
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def _poset_digest(p: Poset, **extra) -> str:
    return _digest(labels=p.labels, covers=p.covers, **extra)


# -- log-concavity -------------------------------------------------------


def is_log_concave(seq: Sequence[int | Fraction]) -> bool:
    """p_k^2 >= p_{k-1} * p_{k+1} for every interior index, exactly."""
    for k in range(1, len(seq) - 1):
        if seq[k] * seq[k] < seq[k - 1] * seq[k + 1]:
            return False
    return True


def check_log_concavity(p: Poset, x: str, budget: int | None = None) -> CheckRecord:
    """The position law of x is log-concave (hence unimodal, interval support)."""
    # counts over one denominator test as the law does
    counts = build_lattice(p, budget).position_counts()[p.index(x)]
    return CheckRecord(
        check="log_concavity",
        instance=_poset_digest(p, x=x),
        holds=is_log_concave(counts),
        note=f"element {x}",
    )


# -- correlation inequalities -------------------------------------------


def check_xyz(p: Poset, x: str, ys: Iterable[str], budget: int | None = None) -> CheckRecord:
    """P(x after all of Y) is at least the product of P(x after y).

    Positive association of the events {x after y}: the joint probability
    never undershoots the independent product.
    """
    ys = list(ys)
    joint = event_probability(p, EventSpec.of(*[(y, x) for y in ys]), budget)
    prod = Fraction(1)
    for y in ys:
        prod *= event_probability(p, EventSpec.of((y, x)), budget)
    return CheckRecord(
        check="xyz",
        instance=_poset_digest(p, x=x, ys=ys),
        holds=joint >= prod,
        lhs=joint,
        rhs=prod,
    )


def check_gyy(
    t: TwoChainPoset,
    i: int,
    j: int,
    given: Iterable[tuple[int, int]],
    budget: int | None = None,
) -> CheckRecord:
    """Extra x-before-y precedences never lower P(x_i before y_j)."""
    x, y = t.x_label(i), t.y_label(j)
    base = event_probability(t.poset, EventSpec.of((x, y)), budget)
    cond_event = EventSpec.of(*[(t.x_label(a), t.y_label(b)) for a, b in given])
    conditioned = conditional_probability(
        t.poset, EventSpec.of((x, y)), cond_event, budget
    )
    return CheckRecord(
        check="gyy",
        instance=_poset_digest(t.poset, i=i, j=j, given=sorted(given)),
        holds=conditioned >= base,
        lhs=conditioned,
        rhs=base,
    )


# -- sandwich concentration ---------------------------------------------


def check_cwsig(
    p: Poset,
    x: str,
    lower: Iterable[str],
    upper: Iterable[str],
    budget: int | None = None,
) -> CheckRecord:
    """Sandwich concentration for an element between an ideal and a filter.

    With P = {x} + D + U (D an ideal, U a filter, both nonempty),
    A = max(D), B = min(U), w = max(|A|, |B|) and
    eps = min over (a, b) of P(a < x < b), the event that x separates all
    of A from all of B has probability at least eps^(w^2).
    """
    lower = list(lower)
    upper = list(upper)
    _validate_decomposition(p, x, lower, upper)
    d_sub = p.subposet(lower)
    u_sub = p.subposet(upper)
    a_set = [lab for lab in d_sub.labels if not any(d_sub.less(lab, o) for o in d_sub.labels)]
    b_set = [lab for lab in u_sub.labels if not any(u_sub.less(o, lab) for o in u_sub.labels)]
    eps = Fraction(1)
    for a in a_set:
        for b in b_set:
            eps = min(eps, event_probability(p, EventSpec.of((a, x), (x, b)), budget))
    w = max(len(a_set), len(b_set))
    pairs = [(a, x) for a in a_set] + [(x, b) for b in b_set]
    lhs = event_probability(p, EventSpec.of(*pairs), budget)
    rhs = eps ** (w * w)
    return CheckRecord(
        check="cwsig",
        instance=_poset_digest(p, x=x, lower=sorted(lower), upper=sorted(upper)),
        holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        note=f"w={w}, eps={eps}",
    )


def _validate_decomposition(p: Poset, x: str, lower: list[str], upper: list[str]):
    parts = [x, *lower, *upper]
    if len(set(parts)) != len(parts) or set(parts) != set(p.labels):
        raise DecompositionInvalid("parts do not partition the ground set")
    if not lower or not upper:
        raise DecompositionInvalid("need a nonempty ideal and a nonempty filter")
    low = set(lower)
    up = set(upper)
    for u, v in p.covers:
        if v in low and u not in low:
            raise DecompositionInvalid(f"{u!r} < {v!r} escapes the ideal part")
        if u in up and v not in up:
            raise DecompositionInvalid(f"{u!r} < {v!r} escapes the filter part")
    return True


# -- tails and variance --------------------------------------------------


def check_grunbaum_pair(p: Poset, u: str, v: str, budget: int | None = None) -> CheckRecord:
    """Centroid-halfspace tail bound: mean-earlier elements precede often.

    Whenever E f(u) <= E f(v), the event {u before v} is a halfspace
    section of the order polytope containing its centroid, so
    P(u before v) >= (N/(N+1))^N > 1/e.  Both directions are checked when
    the means tie.  This is the faithful finite form of the 1/e tail
    bound: the naive version "P(f(x) >= E f(x)) >= 1/e" is FALSE for
    discrete position laws (see the frozen counterexample in
    tests/test_stats.py::test_mean_tail_masses_on_three_elements, and
    tests/test_acceptance.py::test_08_two_sided_mean_tail_floor for the
    per-element bound on the order-polytope coordinate).
    """
    if not p.comparable(u, v):
        # the event below reads the pair counts, and their sweep fills the
        # position counts too: one sweep serves the means and the event
        build_lattice(p, budget).pair_counts()
    mu = position_distribution(p, u, budget).mean
    mv = position_distribution(p, v, budget).mean
    directions = []
    if mu <= mv:
        directions.append((u, v))
    if mv <= mu:
        directions.append((v, u))
    worst = Fraction(1)
    for a, b in directions:
        worst = min(worst, event_probability(p, EventSpec.of((a, b)), budget))
    return CheckRecord(
        check="grunbaum_pair",
        instance=_poset_digest(p, u=u, v=v),
        holds=worst > GRUNBAUM_LOWER,
        lhs=worst,
        rhs=GRUNBAUM_LOWER,
    )


def check_grunbaum_tails(t: TwoChainPoset, i: int, budget: int | None = None) -> CheckRecord:
    """Mean-centered tails of g(x_i), each scoped by its centroid condition.

    {g(x_i) >= E g} equals the halfspace event {y_c before x_i} with
    c = ceil(E g); Grunbaum's bound applies exactly when the polytope
    centroid lies inside, i.e. when E f(y_c) <= E f(x_i) — and then the
    tail must exceed 1/e.  The mirrored condition scopes the lower tail.
    Sides whose centroid condition fails are skipped (the bound genuinely
    need not hold there; the note says which sides were checked).
    """
    # f(x_i) = i + g(x_i): g's mean and tails from f's law
    fx = position_distribution(t.poset, t.x_label(i), budget)
    mean_x = fx.mean
    mu = mean_x - i
    upper, lower = mean_tails(fx.counts, fx.total, mean_x)

    checked = []
    holds = True
    c = -(-mu.numerator // mu.denominator)  # ceil(E g)
    if c == 0:
        checked.append("upper(trivial)")
    elif c <= t.n:
        mean_yc = position_distribution(t.poset, t.y_label(c), budget).mean
        if mean_yc <= mean_x:
            checked.append("upper")
            holds = holds and upper > GRUNBAUM_LOWER
    d = mu.numerator // mu.denominator + 1  # floor(E g) + 1
    if d > t.n:
        checked.append("lower(trivial)")
    else:
        mean_yd = position_distribution(t.poset, t.y_label(d), budget).mean
        if mean_x <= mean_yd:
            checked.append("lower")
            holds = holds and lower > GRUNBAUM_LOWER
    return CheckRecord(
        check="grunbaum_tails",
        instance=_poset_digest(t.poset, i=i),
        holds=holds,
        lhs=min(upper, lower),
        rhs=GRUNBAUM_LOWER,
        note=f"sides: {', '.join(checked) if checked else 'none applicable'}",
    )


def check_avg_variance(
    p: Poset, pair: IncomparablePair, floor, budget: int | None = None
) -> CheckRecord:
    """Average positional variance over the pair's first side reaches ``floor``.

    The side averaged over is ``pair.a`` (the smaller one after
    normalization): a large incomparable partner set forces every element
    of the small side to have spread-out positions.
    """
    avg = average_variance(p, pair.a, budget)
    floor = Fraction(floor)
    return CheckRecord(
        check="avg_variance",
        instance=_poset_digest(p, a=sorted(pair.a), b=sorted(pair.b)),
        holds=avg >= floor,
        lhs=avg,
        rhs=floor,
    )


# -- incomparability floors ----------------------------------------------


def check_pi_bounds(
    shape, budget: int | None = None, require: str | None = None
) -> list[CheckRecord]:
    """Incomparability floors for grid families.

    For a convex non-chain set: max pi(x) >= |P|/2 - 1.  For an ideal not
    contained in a coordinate hyperplane: max pi(x) > (1 - 1/d)|P| - d^d.
    Bounds whose hypotheses fail are skipped (not reported); pass
    ``require="convex"`` or ``require="ideal"`` to instead raise
    HypothesisNotSatisfied when that bound does not apply.
    """
    p = shape.poset
    verdict = is_convex_in_grid(shape.cells)
    profile = comparability_profile(p)
    records = []
    base = _poset_digest(p, dim=shape.dim)
    n = p.n
    convex_ok = verdict.convex and not p.is_chain()
    in_hyperplane = any(
        all(cell[axis] == 1 for cell in shape.cells) for axis in range(shape.dim)
    )
    ideal_ok = verdict.ideal and bool(shape.cells) and not in_hyperplane
    if require == "convex" and not convex_ok:
        raise HypothesisNotSatisfied("need a convex non-chain set")
    if require == "ideal" and not ideal_ok:
        raise HypothesisNotSatisfied(
            "need an ideal not contained in a coordinate hyperplane"
        )
    if convex_ok:
        lhs = Fraction(profile.max_count)
        rhs = Fraction(n, 2) - 1
        records.append(
            CheckRecord(
                check="pi_floor_convex",
                instance=base,
                holds=lhs >= rhs,
                lhs=lhs,
                rhs=rhs,
            )
        )
    if ideal_ok:
        d = shape.dim
        lhs = Fraction(profile.max_count)
        rhs = Fraction(d - 1, d) * n - d**d
        records.append(
            CheckRecord(
                check="pi_floor_ideal",
                instance=base,
                holds=lhs > rhs,
                lhs=lhs,
                rhs=rhs,
                note=f"d={d}",
            )
        )
    return records


# -- frozen empirical windows ---------------------------------------------


def check_sigma_q(p: Poset, x: str, budget: int | None = None) -> list[CheckRecord]:
    """Spread-times-peak products of one position law stay in their windows.

    Always checks sigma^2(x) * q(x)^2 <= VARIANCE_Q_SQ_MAX.  When the mode
    mass q(x) is at most 1/3 (so the law is genuinely spread out) also
    checks that sigma(x) * q(x) lands inside SIGMA_Q_WINDOW.  Both limits
    are frozen by demos/derive_windows.py; a failure means the fixture is
    stale, not that a theorem broke.
    """
    st = position_statistics(p, x, budget)
    records = [
        CheckRecord(
            check="variance_mode_bound",
            instance=_poset_digest(p, x=x),
            holds=st.variance * st.q * st.q <= VARIANCE_Q_SQ_MAX,
            kind="window",
            lhs=st.variance * st.q * st.q,
            rhs=VARIANCE_Q_SQ_MAX,
        )
    ]
    if st.q <= Fraction(1, 3):
        product = st.stddev * float(st.q)
        lo, hi = SIGMA_Q_WINDOW
        records.append(
            CheckRecord(
                check="sigma_q_window",
                instance=_poset_digest(p, x=x),
                holds=lo <= product <= hi,
                kind="window",
                note=f"sigma*q={product:.6f} in [{lo}, {hi}]",
            )
        )
    return records


def check_bl2(
    t: TwoChainPoset, i: int, j: int, cutoff: int, budget: int | None = None
) -> CheckRecord:
    """Balanced-index tail mass stays under the frozen ceiling for its cutoff.

    Requires a cross-free poset and an (i, j) admissible at ``cutoff``
    (both j and n-j beyond it, with the arity ratio inside the (1 + 1/K)
    band); raises HypothesisNotSatisfied otherwise.
    """
    if cutoff not in BL2_EPSILON:
        raise HypothesisNotSatisfied(f"no frozen ceiling for cutoff {cutoff}")
    if t.cross:
        raise HypothesisNotSatisfied("ceiling is frozen for cross-free posets")
    if not bl2_hypothesis(t.m, t.n, i, j, cutoff):
        raise HypothesisNotSatisfied(
            f"(i={i}, j={j}) not admissible at cutoff {cutoff}"
        )
    value = psi_probability(t, i, j, budget)
    return CheckRecord(
        check="bl2_tail",
        instance=_poset_digest(t.poset, i=i, j=j, cutoff=cutoff),
        holds=value < BL2_EPSILON[cutoff],
        kind="window",
        lhs=value,
        rhs=BL2_EPSILON[cutoff],
        note=f"K={cutoff}",
    )


# -- conjecture sweeps ----------------------------------------------------


def check_onethird(p: Poset, budget: int | None = None) -> CheckRecord:
    """Finding: some pair has both orders with probability at least 1/3."""
    report = balance(p, budget)
    return CheckRecord(
        check="onethird",
        instance=_poset_digest(p),
        holds=report.delta >= Fraction(1, 3),
        kind="conjecture",
        lhs=report.delta,
        rhs=Fraction(1, 3),
        note=f"witness {report.witness}",
    )


# -- conditional factorization -------------------------------------------


def check_window_identity(
    t: TwoChainPoset,
    condition: EventSpec,
    window: Sequence[str],
    event_pairs: Sequence[tuple[str, str]],
    budget: int | None = None,
) -> CheckRecord:
    """Conditioning on pinned sandwich events localizes to the window.

    Given a conjunction of sandwich events that pins a contiguous window
    of the two chains, the conditional law of the window's relative order
    is the uniform extension law of the induced subposet, so conditional
    probabilities of window events equal plain probabilities there.
    """
    lhs = conditional_probability(t.poset, EventSpec.of(*event_pairs), condition, budget)
    sub = t.poset.subposet(window)
    rhs = event_probability(sub, EventSpec.of(*event_pairs), budget)
    return CheckRecord(
        check="window_identity",
        instance=_poset_digest(
            t.poset, cond=condition.required, window=sorted(window), event=event_pairs
        ),
        holds=lhs == rhs,
        kind="identity",
        lhs=lhs,
        rhs=rhs,
    )


# -- trend experiments -----------------------------------------------------


@dataclass(frozen=True)
class TrendRow:
    family: str
    size: int
    n: int
    width: int
    delta: Fraction
    sigma: float
    pi: int


TREND_FAMILIES = {
    "rect2xk": lambda k: young_diagram((k, k)).poset,
    "chainpoint": chain_plus_point,
    "twochains": two_equal_chains,
}


def trend_experiment(family: str, sizes: Sequence[int], budget: int | None = None) -> list[TrendRow]:
    """Exact summary rows for a growing family.

    The delta column reports the off-fair balance (largest constant
    strictly below 1/2): families with a symmetry-forced exactly-fair
    pair would otherwise pin delta at 1/2 from their smallest member and
    hide the approach to the limit.
    """
    if family not in TREND_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    make = TREND_FAMILIES[family]
    rows = []
    for size in sizes:
        p = make(size)
        profile = comparability_profile(p)
        report = balance(p, budget)
        sigma = max(math.sqrt(d.variance()) for d in all_position_distributions(p, budget).values())
        rows.append(
            TrendRow(
                family=family,
                size=size,
                n=p.n,
                width=profile.width,
                delta=report.off_fair_delta(),
                sigma=sigma,
                pi=profile.max_count,
            )
        )
    return rows


# -- random instance sweeps ------------------------------------------------


def _random_nonchain(rng: random.Random, nmax: int, nmin: int = 3) -> Poset:
    if nmax < nmin:
        raise ValueError(f"random non-chains of at least {nmin} elements need nmax >= {nmin} (got {nmax})")
    while True:
        n = rng.randint(nmin, nmax)
        p = _random_poset(rng, n, rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, 0.7]))
        if not p.is_chain():
            return p


def random_cwsig_instance(rng: random.Random, nmax: int = 7):
    """Random poset split as ideal + x + filter with both sides nonempty."""
    if nmax < 3:
        raise ValueError(f"cwsig instances (an ideal, x and a filter) need nmax >= 3 (got {nmax})")
    while True:
        k = rng.randint(2, nmax - 1)
        base = _random_poset(rng, k, rng.choice([0.2, 0.3, 0.5]))
        # the draw below reads every ideal in _walk's order of discovery
        walk = _walk(k, base._pred_masks, base._upper_cover_masks, DEFAULT_NODE_BUDGET, {0: 1})
        ideals = [m for masks, _ in walk for m in masks]
        mask = rng.choice(ideals)
        lower = [base.labels[i] for i in range(k) if (mask >> i) & 1]
        upper = [lab for lab in base.labels if lab not in lower]
        if lower and upper:
            break
    labels = list(base.labels) + ["w"]
    covers = list(base.covers)
    d_sub = base.subposet(lower)
    maxes = [a for a in d_sub.labels if not any(d_sub.less(a, o) for o in d_sub.labels)]
    u_sub = base.subposet(upper)
    mins = [b for b in u_sub.labels if not any(u_sub.less(o, b) for o in u_sub.labels)]
    for a in maxes:
        if rng.random() < 0.5:
            covers.append((a, "w"))
    for b in mins:
        if rng.random() < 0.5:
            covers.append(("w", b))
    return Poset.from_covers(labels, covers), "w", lower, upper


def random_window_instance(rng: random.Random, kind: str, max_side: int = 6):
    """Instance for check_window_identity; returns None when no window fits."""
    t = random_two_chain(rng, max_side, max_side, rng.choice([0.0, 0.15, 0.3]))
    live = [(i, j) for (i, j), v in psi_table(t).items() if v > 0]
    rng.shuffle(live)
    if kind == "psi":
        for i, j in live:
            window = [t.x_label(a) for a in range(1, i)] + [
                t.y_label(b) for b in range(1, j + 1)
            ]
            if len(window) >= 2:
                return t, psi_event(t, i, j), window
        return None
    if kind == "psi_psi":
        for i, j in live:
            for k, ell in live:
                if not (i < k and j <= ell):
                    continue
                cond = psi_event(t, i, j) & psi_event(t, k, ell)
                if event_probability(t.poset, cond) == 0:
                    continue
                window = [t.x_label(a) for a in range(i + 1, k)] + [
                    t.y_label(b) for b in range(j + 1, ell + 1)
                ]
                if len(window) >= 2:
                    return t, cond, window
        return None
    if kind == "psi_phi":
        for i, j in live:
            options = [
                (jp, ip)
                for jp in range(1, j + 1)
                for ip in range(0, i)
            ]
            rng.shuffle(options)
            for jp, ip in options:
                cond = psi_event(t, i, j) & phi_event(t, jp, ip)
                if event_probability(t.poset, cond) == 0:
                    continue
                window = [t.x_label(a) for a in range(ip + 1, i)] + [
                    t.y_label(b) for b in range(jp + 1, j + 1)
                ]
                if len(window) >= 2:
                    return t, cond, window
        return None
    raise ValueError(f"unknown kind {kind!r}")


# -- suites ----------------------------------------------------------------
#
# One seeded random sweep per suite, called as (rng, count, nmax, budget),
# and for the suites that can walk the builtin corpus, the records of one
# corpus poset, called as (poset, budget).


def _logconcave(rng, count, nmax, budget):
    for _ in range(count):
        p = _random_nonchain(rng, nmax, nmin=2)
        yield check_log_concavity(p, rng.choice(p.labels), budget)


def _xyz(rng, count, nmax, budget):
    for _ in range(count):
        p = _random_nonchain(rng, nmax)
        x = rng.choice(p.labels)
        others = [lab for lab in p.labels if lab != x]
        rng.shuffle(others)
        yield check_xyz(p, x, others[: rng.randint(1, min(3, len(others)))], budget)


def _gyy(rng, count, nmax, budget):
    for _ in range(count):
        t = random_two_chain(rng, 5, 5, rng.choice([0.0, 0.2, 0.4]))
        i = rng.randint(1, t.m)
        j = rng.randint(1, t.n)
        given = {(rng.randint(1, t.m), rng.randint(1, t.n)) for _ in range(rng.randint(1, 3))}
        yield check_gyy(t, i, j, given, budget)


def _window(rng, count, nmax, budget):
    kinds = ["psi", "psi_psi", "psi_phi"]
    made = 0
    while made < count:
        kind = kinds[made % 3]
        inst = random_window_instance(rng, kind)
        if inst is None:
            continue
        t, cond, window = inst
        pairs = tuple(tuple(rng.sample(window, 2)) for _ in range(rng.randint(1, 2)))
        rec = check_window_identity(t, cond, window, pairs, budget)
        yield replace(rec, check=f"window_{kind}")
        made += 1


def _cwsig(rng, count, nmax, budget):
    for _ in range(count):
        yield check_cwsig(*random_cwsig_instance(rng, nmax), budget)


def _grunbaum(rng, count, nmax, budget):
    for _ in range(count):
        if rng.random() < 0.5:
            p = _random_nonchain(rng, min(nmax, 9), nmin=2)
            yield check_grunbaum_pair(p, *rng.sample(p.labels, 2), budget)
        else:
            t = random_two_chain(rng, 5, 5, rng.choice([0.0, 0.2, 0.4]))
            yield check_grunbaum_tails(t, rng.randint(1, t.m), budget)


def _sigmaq(rng, count, nmax, budget):
    for _ in range(count):
        p = _random_nonchain(rng, min(nmax, 8), nmin=2)
        yield from check_sigma_q(p, rng.choice(p.labels), budget)


def _bl1(rng, count, nmax, budget):
    for _ in range(count):
        t = random_two_chain(rng, 6, 6, 0.0)
        i, j = rng.choice([(i, j) for i in range(1, t.m + 1) for j in range(1, t.n + 1)])
        value = psi_probability(t, i, j, budget)
        bound = Fraction(i, j)
        yield CheckRecord(
            check="bl1_tail",
            instance=_poset_digest(t.poset, i=i, j=j),
            holds=value <= bound,
            lhs=value,
            rhs=bound,
        )


#: Cross-free sweep grid for the bl2 suite: cutoff -> (chain lengths m,
#: chain lengths n).  Kept inside the ranges the ceiling derivation covers.
_BL2_GRID = {
    5: ((2, 4, 6, 8, 10, 12, 14), (12, 13)),
    10: ((4, 8, 12, 16, 20, 24), (22,)),
}


def _bl2(rng, count, nmax, budget):
    for cutoff, (ms, ns) in _BL2_GRID.items():
        for m, n in itertools.product(ms, ns):
            t = make_two_chain(m, n)
            for i, j in itertools.product(range(1, m + 1), range(1, n + 1)):
                if bl2_hypothesis(m, n, i, j, cutoff):
                    yield check_bl2(t, i, j, cutoff, budget)


def _ratio(rng, count, nmax, budget):
    for _ in range(count):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        t = make_two_chain(m, n)
        i = rng.randint(1, m)
        ell = rng.randint(1, n)
        exact, closed = bl2_ratio_sides(t, i, ell, budget)
        yield CheckRecord(
            check="ratio_closed_form",
            instance=_poset_digest(t.poset, i=i, ell=ell),
            holds=exact == closed,
            kind="identity",
            lhs=exact,
            rhs=closed,
        )


def _pibounds(rng, count, nmax, budget):
    shapes = [young_diagram(lam) for lam in all_partitions(9)]
    shapes += [tripod(2, ell) for ell in range(2, 6)]
    shapes += [tripod(3, ell) for ell in range(2, 5)]
    for shape in shapes[:count]:
        yield from check_pi_bounds(shape, budget)


def _onethird(rng, count, nmax, budget):
    for _ in range(count):
        yield check_onethird(_random_nonchain(rng, nmax), budget)


#: Each suite run_suite knows: (its random sweep, the records of one
#: builtin-corpus poset or None when --corpus builtin does not apply).
_SUITES = {
    "logconcave": (
        _logconcave,
        lambda p, budget: [check_log_concavity(p, x, budget) for x in p.labels],
    ),
    "xyz": (_xyz, None),
    "gyy": (_gyy, None),
    "window": (_window, None),
    "cwsig": (_cwsig, None),
    "grunbaum": (
        _grunbaum,
        lambda p, budget: [
            check_grunbaum_pair(p, u, v, budget) for u, v in itertools.combinations(p.labels, 2)
        ],
    ),
    "sigmaq": (
        _sigmaq,
        lambda p, budget: [r for x in p.labels for r in check_sigma_q(p, x, budget)],
    ),
    "bl1": (_bl1, None),
    "bl2": (_bl2, None),
    "ratio": (_ratio, None),
    "pibounds": (_pibounds, None),
    "onethird": (
        _onethird,
        lambda p, budget: [] if p.is_chain() else [check_onethird(p, budget)],
    ),
}

#: Suites run_suite knows, mapped to whether --corpus builtin applies.
SUITES = {name: walk is not None for name, (_, walk) in _SUITES.items()}


def run_suite(
    name: str,
    count: int = 100,
    nmax: int = 8,
    seed: int = 0,
    budget: int | None = None,
    corpus: str | None = None,
) -> list[CheckRecord]:
    """Sweep of one named check family, or of every family with ``"all"``.

    By default instances are drawn from a seeded random stream; with
    ``corpus="builtin"`` the poset-valued suites walk the named builtin
    corpus exhaustively instead (suites over structured random instances
    ignore the flag).
    """
    if corpus is not None and corpus != "builtin":
        raise ValueError(f"unknown corpus {corpus!r}")
    if name == "all":
        count = max(count // 5, 10)
        return [rec for sub in SUITES for rec in run_suite(sub, count, nmax, seed, budget, corpus)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    sweep, walk = _SUITES[name]
    if corpus is not None and walk is not None:
        return [rec for _, p in builtin_corpus() for rec in walk(p, budget)]
    return list(sweep(random.Random(seed), count, nmax, budget))

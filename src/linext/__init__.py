"""Exact linear-extension analytics for finite posets.

Count linear extensions, compute sorting probabilities and balance
constants, position laws and their variances, width and incomparability
statistics; sample extensions exactly or by Markov chain; and run the
bundled inequality checks.  All probability answers are exact rationals
unless a function says otherwise.
"""

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    ComparablePair,
    ConditionNullEvent,
    CycleDetected,
    DecompositionInvalid,
    DomainError,
    DuplicateLabel,
    HypothesisNotSatisfied,
    IndexOutOfRange,
    LinextError,
    NotAPartition,
    NotApplicable,
    SizeBudgetExceeded,
    UnknownElement,
)
from .poset import (
    ComparabilityProfile,
    IncomparablePair,
    Poset,
    comparability_profile,
    disjoint_sum,
    grid_poset,
    is_convex_in_grid,
    max_incomparable_pair,
)
from .lattice import (
    DownsetLattice,
    EventSpec,
    PositionDistribution,
    SplitLattice,
    all_position_distributions,
    build_lattice,
    conditional_probability,
    count_extensions,
    event_probability,
    position_distribution,
    sample_extension,
    sample_extensions,
    sorting_probability,
)
from .stats import (
    BalanceReport,
    PositionStatistics,
    average_variance,
    balance,
    grunbaum_check,
    position_statistics,
    sigma_q_product,
)
from .twochain import (
    TwoChainPoset,
    bl1_margin,
    bl2_hypothesis,
    bl2_ratio,
    conditioned_psi,
    expected_g,
    g_distribution,
    g_tails,
    make_two_chain,
    mirrored,
    phi_probability,
    phi_table,
    psi_probability,
    psi_table,
)
from .families import (
    GridShape,
    antichain,
    builtin_corpus,
    chain,
    chain_plus_point,
    grid_ideal,
    random_poset,
    skew_diagram,
    tightness_example_a,
    tripod,
    two_equal_chains,
    young_diagram,
)
from .mcmc import (
    ChainState,
    MCEstimate,
    estimate_pair_probability,
    initial_state,
    mc_step,
    tv_distance_diagnostic,
)
from .checks import (
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
    run_suite,
    trend_experiment,
)

__version__ = "0.1.0"

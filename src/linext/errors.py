"""Exception types shared across the library.

Every error that user input can trigger has its own class so callers can
react precisely (the command line maps them onto exit codes).
"""


class LinextError(Exception):
    """Base class for all library errors."""


class CycleDetected(LinextError):
    """The supplied relation is not acyclic, so no poset exists."""


class DuplicateLabel(LinextError):
    """Two elements carry the same label."""


class UnknownElement(LinextError):
    """A label was referenced that is not in the ground set."""


class ArityMismatch(LinextError):
    """Grid points do not share a common dimension."""


class NotApplicable(LinextError):
    """The statistic is undefined for this poset (e.g. balance of a chain)."""


class BudgetExceeded(LinextError):
    """The ideal lattice grew past the configured node budget.

    ``upper`` bounds the refused lattice's size: the number of chain codes
    of the poset (summed over the parts of a split one), or the size of a
    lattice already built.
    """

    def __init__(self, nodes: int, budget: int, upper: int | None = None):
        self.nodes = nodes
        self.budget = budget
        self.upper = upper
        super().__init__(
            f"ideal lattice exceeded the node budget ({nodes} > {budget})"
        )


class ConditionNullEvent(LinextError):
    """Conditioning event has probability zero."""


class ComparablePair(LinextError):
    """A pair that must be incomparable is comparable."""


class HypothesisNotSatisfied(LinextError):
    """The inputs do not meet the hypothesis of the inequality being checked."""


class DecompositionInvalid(LinextError):
    """The claimed ideal/filter decomposition does not hold."""


class IndexOutOfRange(LinextError):
    """A chain index lies outside [1, m] or [1, n]."""


class DomainError(LinextError):
    """Arguments are outside the domain of a closed-form expression."""


class NotAPartition(LinextError):
    """The integer sequence is not a valid (skew) partition."""


class SizeBudgetExceeded(LinextError):
    """A generated ground set would exceed the configured size limit."""

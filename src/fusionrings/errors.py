"""Exception types shared across the package."""


class FusionRingError(Exception):
    """Base class for all domain errors."""


class MalformedRing(FusionRingError):
    """Structurally unusable ring data (dangling label, duplicate label, ...)."""


class UnknownLabel(FusionRingError, KeyError):
    """A label that is not a basis element of the ring."""

    def __str__(self):
        return f"unknown label {self.args[0]!r}"


class DepthExceeded(FusionRingError):
    """A computation on a generated ring escaped the requested depth bound:
    `label` is the first label found outside it, where one is named."""

    def __init__(self, message, label=None):
        super().__init__(message)
        self.label = label


class NotAGroup(FusionRingError):
    """A multiplication table fails one of the group axioms."""


class AxiomViolation(FusionRingError):
    """Ring data fails a fusion-ring axiom; carries the validation report."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class MalformedFile(FusionRingError):
    """Unreadable or schema-violating input file."""


class NotASubobject(FusionRingError):
    """A basis subset that is not closed under unit/dual/fusion."""


class InvalidRestriction(FusionRingError):
    """Restriction data violating its invariants."""


class SearchBudgetExceeded(FusionRingError):
    """An enumeration or backtracking search hit the node budget: `nodes`
    is the first count over it, for every search, and `budget` the budget."""

    def __init__(self, message, nodes=None, budget=None):
        super().__init__(message)
        self.nodes, self.budget = nodes, budget


class InternalInconsistency(FusionRingError):
    """Two routes that must agree (by theorem) disagreed; indicates a bug."""

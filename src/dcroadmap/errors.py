"""Shared exception types."""


class ResourceBudgetError(RuntimeError):
    """Raised when an exact elimination exceeds its configured size budget.

    Carries enough context to report which subproblem was too large; the
    divide/tree layers re-raise it with the node path attached.
    """

    def __init__(self, message, node_path=None):
        self.node_path = node_path
        super().__init__(message if node_path is None else f"[node {node_path}] {message}")


class SeparationError(RuntimeError):
    """Separating linear form could not be certified within the retry budget."""


class NotZeroDimensionalError(SeparationError):
    """The system has infinitely many complex zeros, so no finite list of
    points is its solution set: its components are sampled instead."""


class EmptyEncodingError(ValueError):
    """A Thom encoding matched no real root."""

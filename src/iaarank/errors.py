"""Exception and warning types shared across the package."""


class IaaRankError(Exception):
    """Base class for all library errors."""


class MalformedInterval(IaaRankError):
    """Interval bounds that are not both finite."""


class _RowError(IaaRankError):
    """Error in dataset input; line is the 1-based line or JSON row, if known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class InvertedBounds(_RowError):
    """Interval whose left bound exceeds its right bound."""


class MalformedRow(_RowError):
    """Dataset row or header that cannot be parsed."""


class OutOfScale(_RowError):
    """Interval bound outside the configured measurement scale."""


class EmptyDataset(IaaRankError):
    """Dataset file with no data rows."""


class ZeroSources(IaaRankError):
    """Interval set requested or built with no source intervals."""


class ScaleMismatch(IaaRankError):
    """Operands constructed over different measurement scales."""


class EmptyEvaluation(IaaRankError):
    """Similarity denominator is zero at every evaluation point."""


class DivisionByZero(IaaRankError):
    """Ideal-ratio score undefined: zero similarity to both ideals."""

    def __init__(self, message: str, label: str | None = None):
        super().__init__(message)
        self.label = label


class RaggedCellWarning(UserWarning):
    """Criteria of one alternative carry differing source counts."""

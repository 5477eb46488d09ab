"""Exception types shared across the package, and the type tests that the
configuration checks use."""

from numbers import Integral, Real


class PermselError(ValueError):
    """Base class for all errors raised by permsel."""


class DatasetError(PermselError):
    """Problem loading, validating, or partitioning a dataset."""


class MissingValueError(DatasetError):
    """A CSV cell is empty or a row is short. Carries 1-based row and column."""

    def __init__(self, row: int, col: int):
        super().__init__(f"missing value at row {row}, column {col}")
        self.row = row
        self.col = col


class NonNumericValueError(DatasetError):
    """A feature cell could not be parsed as a number."""

    def __init__(self, row: int, col: int, value: str):
        super().__init__(f"non-numeric value {value!r} at row {row}, column {col}")
        self.row = row
        self.col = col
        self.value = value


class EmptyDataError(DatasetError):
    """The CSV has no data rows."""


class SingleClassError(DatasetError):
    """A classification target contains fewer than two classes."""


class MetricError(PermselError):
    """Invalid input to a performance metric."""


class ZeroRangeError(MetricError):
    """The reference target has zero range, so nRMSE is undefined."""


class ZeroVarianceError(MetricError):
    """The target has zero variance, so R2 is undefined."""


class LearnerError(PermselError):
    """Invalid learner configuration or training input."""


class AnalysisError(PermselError):
    """Invalid input to a statistical analysis routine."""


def is_int(value) -> bool:
    """An integer, and not a bool (JSON true/false load as bools)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An integer or a float, and not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)

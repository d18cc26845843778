"""Exception types shared across the package.

Estimation routines raise these instead of returning sentinel values, so a
failed fit can never be mistaken for an estimate. The CLI maps them onto
exit codes (data problems -> 3, numerical problems -> 4).
"""


class SacekitError(Exception):
    """Base class for package errors."""


class DataError(SacekitError):
    """Malformed or inconsistent input data (bad CSV field, schema mismatch)."""


class EstimationError(SacekitError):
    """An estimator's preconditions are not met by the data at hand."""


class CollinearityError(EstimationError):
    """A design matrix is rank deficient. Carries the offending column names."""

    def __init__(self, columns, message=None):
        self.columns = tuple(columns)
        if message is None:
            message = "design matrix is rank deficient in columns: " + ", ".join(
                str(c) for c in self.columns
            )
        super().__init__(message)


class RelevanceError(EstimationError):
    """Mixing weights do not separate the mixture components.

    Raised when the substitution variable carries no information: the
    always-survivor share is numerically constant across its levels, so the
    two-point mixture system is singular.
    """


class MonotonicityError(EstimationError):
    """Observed survival is higher under control than under treatment.

    The monotone identification route requires pr(survive | control) <=
    pr(survive | treated) within every covariate cell; a cell violating
    this makes the always-survivor share negative.
    """

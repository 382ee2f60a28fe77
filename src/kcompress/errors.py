"""Exception hierarchy shared by all kcompress modules."""


class KCompressError(Exception):
    """Base class for all kcompress errors."""


class ValidationError(KCompressError, ValueError):
    """Invalid input data or parameters."""


class NegativeWeightError(ValidationError):
    pass


class WeightsNotNormalizedError(ValidationError):
    pass


class LengthMismatchError(ValidationError):
    pass


class NonFiniteError(ValidationError):
    pass


class SourceMismatchError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class InvalidOrderError(ValidationError):
    pass


class SizeCapExceededError(KCompressError):
    pass


class EmptySelectionError(ValidationError):
    pass


class EnumerationGuardError(KCompressError):
    pass


class InfeasibleBudgetError(ValidationError):
    pass


class EmptyInstanceError(ValidationError):
    pass


class NegativeGapError(KCompressError):
    """A duality gap negative beyond float tolerance: weak duality broke."""


class UnselectedAssignmentError(ValidationError):
    pass


class EmptyCloudError(ValidationError):
    pass


class StageBudgetInfeasibleError(ValidationError):
    pass


class MissingValueError(KCompressError, KeyError):
    pass


class InvalidKappaError(ValidationError):
    pass


class IndexRangeError(ValidationError):
    pass


class NotPositiveDefiniteError(ValidationError):
    pass


class DimUnsupportedError(ValidationError):
    pass


class DegenerateBoxError(ValidationError):
    pass


class ConfigError(KCompressError):
    """Bad experiment configuration (parse or validation failure)."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field

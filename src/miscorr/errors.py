"""Exception hierarchy with stable machine-readable error codes."""


class MiscorrError(Exception):
    """Base class for all library errors."""

    code = "MISCORR_ERROR"


class ValidationError(MiscorrError):
    """Bad input data or configuration (CLI exit code 2)."""

    code = "VALIDATION"


class NumericalError(MiscorrError):
    """Numerical failure such as a singular system (CLI exit code 3)."""

    code = "NUMERICAL"


class OutOfRangeCategory(ValidationError):
    code = "OUT_OF_RANGE_CATEGORY"

    def __init__(self, row, covariate, value):
        self.row = row
        self.covariate = covariate
        self.value = value
        super().__init__(
            f"category {value} at row {row}, covariate {covariate} is out of range"
        )


class InsufficientRows(ValidationError):
    code = "INSUFFICIENT_ROWS"


class ZeroObservedMass(ValidationError):
    code = "ZERO_OBSERVED_MASS"

    def __init__(self, level):
        self.level = level
        super().__init__(f"observed category {level} has zero marginal probability")


class UndefinedScenario(ValidationError):
    code = "UNDEFINED_SCENARIO"

    def __init__(self, level, n_levels):
        self.level = level
        self.n_levels = n_levels
        super().__init__(f"no {level!r} distortion preset for L={n_levels}")


class IllConditionedTheta(NumericalError):
    code = "ILL_CONDITIONED_THETA"


class NonIdentifiable(NumericalError):
    code = "NON_IDENTIFIABLE"


class RankDeficient(NumericalError):
    code = "RANK_DEFICIENT"

"""Exception types raised across the package."""


class LangmoveError(Exception):
    """Base class for all errors raised by langmove."""


class OutOfDomainError(LangmoveError):
    """A query point lies outside the interpolation domain of a gridded field."""

    def __init__(self, x: float, y: float, detail: str = ""):
        self.x = x
        self.y = y
        self.detail = detail
        msg = f"point ({x}, {y}) is outside the interpolation domain"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class GridParseError(LangmoveError):
    """An ASCII grid file is malformed.  Carries the 1-based line number."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class NoDataError(LangmoveError):
    """A grid contains NODATA cells; missing data is unsupported."""


class DegenerateFieldError(LangmoveError):
    """A smoothed random field is constant, so min-max normalization is undefined."""


class NonIncreasingTimesError(LangmoveError):
    """Track timestamps are not strictly increasing."""


class NonFiniteError(LangmoveError):
    """A computed field value is NaN or infinite."""


class SingularDesignError(LangmoveError):
    """The regression design is rank deficient."""

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            f"design matrix is singular or numerically rank deficient "
            f"(condition number {condition_number:.3e})"
        )


class InsufficientDataError(LangmoveError):
    """Too few increments (or no tracks) for a fit with confidence intervals."""


class DegenerateFitError(LangmoveError):
    """Residual variance is zero; habitat coefficients are undefined.

    Carries the exactly recovered linear-model coefficients ``nu_hat``.
    """

    def __init__(self, nu_hat=None):
        self.nu_hat = nu_hat
        super().__init__("residual variance is zero; habitat coefficients are undefined")

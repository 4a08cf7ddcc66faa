"""Exception types, and the whole-number rule, shared across the package.

The CLI picks its exit code from the type alone: ConfigError -> 2,
PhysicsDomainError and OverflowError (a value past float64 range) -> 3,
OracleMismatchError and ConvergenceError -> 4; anything else is a bug.
"""

import math


class PhysicsDomainError(ValueError):
    """A physically invalid request (negative frequency, collision, ...)."""


class ApproximationDomainError(PhysicsDomainError):
    """Input lies outside the validity domain of a closed-form approximation."""


class OracleRangeError(PhysicsDomainError):
    """A line the amplitude oracle cannot resolve within its node cap.

    Raised before any node is evaluated, so it says nothing about whether
    the closed form and the oracle agree.
    """


class ConvergenceError(RuntimeError):
    """Quadrature or series failed to reach the requested tolerance.

    Attributes
    ----------
    error_estimate : float
        Best error estimate achieved before giving up.
    """

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = error_estimate


class OracleMismatchError(RuntimeError):
    """Closed-form rate and brute-force quadrature disagree beyond tolerance."""

    def __init__(self, message: str, relative_deviation: float):
        super().__init__(message)
        self.relative_deviation = relative_deviation


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def whole_number(name: str, value, low: int) -> int:
    """``int(value)`` for a whole ``value >= low``, else ValueError: the one
    rule for every order, index and count argument of the library.
    A non-finite float is refused before ``% 1``, which warns on numpy's
    inf; an int is finite, and may be too large for ``math.isfinite``."""
    if not ((isinstance(value, int) or math.isfinite(value))
            and value % 1 == 0 and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)

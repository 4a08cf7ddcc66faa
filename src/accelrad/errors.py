"""Exception types, and the two input rules, shared across the package.

The CLI picks its exit code from the type alone: ConfigError -> 2,
PhysicsDomainError and OverflowError (a value past float64 range) -> 3,
OracleMismatchError and ConvergenceError -> 4; anything else is a bug.

Every argument of the library passes one of two rules, stated here alone:
``whole_number`` for an order, index or count (else ValueError), and
``real`` for a real-valued model input, which must be finite and within its
bound (``"> 0"``, ``">= 0"`` or none), else PhysicsDomainError naming it.
"""

import math


class PhysicsDomainError(ValueError):
    """A physically invalid request (negative frequency, collision, ...)."""


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


_BOUND_WORDS = {None: "finite", "> 0": "positive", ">= 0": "finite and >= 0"}


def real(name: str, value, bound: str | None = None):
    """``value`` if finite and within ``bound`` (``"> 0"``, ``">= 0"`` or
    None), else PhysicsDomainError naming ``name``.  An int past float64
    range counts as non-finite."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite, value = False, "an int past float64 range"
    if finite and (
            bound is None or (value > 0 if bound == "> 0" else value >= 0)):
        return value
    raise PhysicsDomainError(f"{name} must be {_BOUND_WORDS[bound]}, "
                             f"got {value}")

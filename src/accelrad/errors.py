"""Exception types shared across the package.

The CLI maps these onto exit codes: config errors -> 2, physics-domain
errors -> 3, numerical-integrity failures -> 4.
"""


class PhysicsDomainError(ValueError):
    """A physically invalid request (negative frequency, closed channel, ...)."""


class NoSidebandError(PhysicsDomainError):
    """Requested sideband has no positive-frequency photon (n*Omega <= omega0)."""


class OffResonanceError(PhysicsDomainError):
    """Cavity resonance condition violated beyond tolerance.

    Attributes
    ----------
    mismatch : float
        Signed resonance mismatch in rad/s.
    """

    def __init__(self, message: str, mismatch: float):
        super().__init__(message)
        self.mismatch = mismatch


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

"""Photon emission rates from mechanically driven two-level atoms.

Closed-form first-order sideband rates for an atom shaken in free space,
next to a mirror, or inside a cavity, together with a brute-force
oscillatory-integral oracle that cross-validates every formula, special
functions (Bessel J_n and the rational-period integral), figure-data sweeps
and a reproducible CLI.
"""

__version__ = "0.1.0"

from .errors import (ApproximationDomainError, ConfigError, ConvergenceError,
                     NoSidebandError, OffResonanceError, OracleMismatchError,
                     OracleRangeError, PhysicsDomainError)
from .specfun import bessel_j, bessel_j_orders, rational_period_integral
from .rates import (ABSORB_DEEXCITE, EMIT_EXCITE, PARALLEL, PERPENDICULAR,
                    RESONANCE_TOL, AtomParams, Cavity, FreeSpace,
                    GeneralPeriodicMotion, Mirror, RotationMotion, ShoMotion,
                    Sideband, allowed_sidebands, cavity_mode_frequency,
                    cavity_rate, emission_frequency, free_space_rate,
                    mirror_rate, small_amplitude_rate)
from .oracle import (OracleResult, equivalence_cases, equivalence_report,
                     general_trajectory_spectrum, one_period_amplitude,
                     selection_rule_report, verify_selection_rule)
from .sweep import SweepResult, fig2_surface, fig3_surface, rate_surface

__all__ = [
    "__version__",
    # errors
    "ApproximationDomainError", "ConfigError", "ConvergenceError",
    "NoSidebandError", "OffResonanceError", "OracleMismatchError",
    "OracleRangeError", "PhysicsDomainError",
    # special functions
    "bessel_j", "bessel_j_orders", "rational_period_integral",
    # domain model and rates
    "ABSORB_DEEXCITE", "EMIT_EXCITE", "PARALLEL", "PERPENDICULAR",
    "RESONANCE_TOL", "AtomParams", "Cavity", "FreeSpace",
    "GeneralPeriodicMotion", "Mirror", "RotationMotion", "ShoMotion",
    "Sideband", "allowed_sidebands", "cavity_mode_frequency", "cavity_rate",
    "emission_frequency", "free_space_rate", "mirror_rate",
    "small_amplitude_rate",
    # oracle
    "OracleResult", "equivalence_cases", "equivalence_report",
    "general_trajectory_spectrum", "one_period_amplitude",
    "selection_rule_report", "verify_selection_rule",
    # sweeps
    "SweepResult", "fig2_surface", "fig3_surface", "rate_surface",
]

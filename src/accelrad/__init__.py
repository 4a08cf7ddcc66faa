"""Photon emission rates from mechanically driven two-level atoms.

Closed-form first-order sideband rates for an atom shaken in free space,
next to a mirror, or inside a cavity, together with a brute-force
oscillatory-integral oracle that cross-validates every formula, special
functions (Bessel J_n and the rational-period integral), figure-data sweeps
and a reproducible CLI.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, OracleMismatchError,
                     OracleRangeError, PhysicsDomainError)
from .specfun import (bessel_j, bessel_j_cells, bessel_j_orders,
                      rational_period_integral)
from .rates import (ABSORB_DEEXCITE, EMIT_EXCITE, PARALLEL, PERPENDICULAR,
                    RESONANCE_TOL, AtomParams, Cavity, FreeSpace,
                    GeneralPeriodicMotion, Mirror, RotationMotion, ShoMotion,
                    Sideband, allowed_sidebands)
from .oracle import (OracleResult, equivalence_cases, equivalence_report,
                     general_trajectory_spectrum, one_period_amplitude,
                     selection_rule_report, verify_selection_rule)
from .sweep import SweepResult, fig2_surface, fig3_surface, rate_surface

__all__ = [
    "__version__",
    # errors
    "ConfigError", "ConvergenceError", "OracleMismatchError",
    "OracleRangeError", "PhysicsDomainError",
    # special functions
    "bessel_j", "bessel_j_cells", "bessel_j_orders",
    "rational_period_integral",
    # domain model and rates
    "ABSORB_DEEXCITE", "EMIT_EXCITE", "PARALLEL", "PERPENDICULAR",
    "RESONANCE_TOL", "AtomParams", "Cavity", "FreeSpace",
    "GeneralPeriodicMotion", "Mirror", "RotationMotion", "ShoMotion",
    "Sideband", "allowed_sidebands",
    # oracle
    "OracleResult", "equivalence_cases", "equivalence_report",
    "general_trajectory_spectrum", "one_period_amplitude",
    "selection_rule_report", "verify_selection_rule",
    # sweeps
    "SweepResult", "fig2_surface", "fig3_surface", "rate_surface",
]

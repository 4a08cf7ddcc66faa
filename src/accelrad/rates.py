"""Domain model and closed-form per-sideband transition rates.

A two-level atom (transition frequency omega0, coupling g) is driven along a
prescribed periodic trajectory.  At the sideband resonance

    omega + omega0 = n * Omega        (emission with excitation)

the atom is excited out of its ground state while emitting a photon of
angular frequency omega = n*Omega - omega0.  Closed forms:

    free space:  rate_n = (2 pi g^2 / Omega) * J_n(k A)^2
    mirror:      rate_n = (8 pi g^2 / Omega) * sin^2(k z0 - pi n / 2)
                          * J_n(k A)^2
    cavity:      mirror form with k = pi m / L and a photon-number factor
                 chi+ = N + 1 (emit/excite) or chi- = N (absorb/de-excite)

with k = omega / c.  All frequencies are angular (rad/s), all lengths are
meters, all rates are Hz.
"""

import math
from dataclasses import dataclass

from .constants import SPEED_OF_LIGHT as C
from .errors import (ApproximationDomainError, NoSidebandError,
                     OffResonanceError, PhysicsDomainError)
from .specfun import bessel_j

PERPENDICULAR = "perpendicular"
PARALLEL = "parallel"

EMIT_EXCITE = "emit-excite"
ABSORB_DEEXCITE = "absorb-deexcite"

#: Relative tolerance (scaled by Omega) for cavity resonance matching.  The
#: idealized model is exactly resonant; the tolerance only absorbs floating
#: point noise from constructing matched parameters.
RESONANCE_TOL = 1e-9

#: Validity bound on the dimensionless amplitude for the small-amplitude
#: closed form (J_1(x)^2 ~ x^2/4).
SMALL_AMPLITUDE_MAX = 0.1


@dataclass(frozen=True)
class AtomParams:
    """Two-level atom: transition frequency omega0 and coupling g (rad/s).

    The coupling may be given directly or through the dimensionless
    ultra-strong-coupling ratio alpha, in which case g = alpha * omega0
    exactly.
    """

    omega0: float
    g: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.alpha is not None:
            derived = self.alpha * self.omega0
            if self.g is None:
                object.__setattr__(self, "g", derived)
            elif self.g != derived:
                raise ValueError(
                    f"inconsistent coupling: g={self.g} but "
                    f"alpha*omega0={derived}")
        if self.g is None:
            raise ValueError("either g or alpha must be given")
        if not (math.isfinite(self.g) and self.g > 0):
            raise ValueError(f"g must be positive, got {self.g}")


@dataclass(frozen=True)
class ShoMotion:
    """Simple harmonic motion z(t) = A sin(Omega t).

    ``orientation`` matters only next to a mirror: ``perpendicular`` motion
    runs along the mirror normal, ``parallel`` motion along the mirror plane.
    For parallel motion the emitted wave direction is parameterized by
    ``delta`` with k_y = k sin(delta) (transverse, along the motion) and
    k_z = k cos(delta) (normal to the mirror).
    """

    amplitude: float
    Omega: float
    orientation: str = PERPENDICULAR
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not (math.isfinite(self.Omega) and self.Omega > 0):
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        if self.orientation not in (PERPENDICULAR, PARALLEL):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")


@dataclass(frozen=True)
class RotationMotion:
    """Circular motion of radius R about (0, z0), angular velocity Omega.

    ``delta`` is the wave-direction phase: k_y = k sin(delta),
    k_z = k cos(delta).  It shifts the trajectory phase (absorbed into time)
    and projects the mirror offset to k z0 cos(delta).
    """

    radius: float
    Omega: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if not (math.isfinite(self.Omega) and self.Omega > 0):
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")


@dataclass(frozen=True)
class GeneralPeriodicMotion:
    """One period of an arbitrary trajectory, as uniform samples.

    ``samples[j]`` is the position z (meters) at t_j = j * T / M for
    j = 0 .. M-1 with T = 2 pi / Omega; the endpoint t = T is excluded.
    Positions are reconstructed by trigonometric interpolation, which is
    exact for band-limited trajectories.
    """

    Omega: float
    samples: tuple

    def __post_init__(self):
        if not (math.isfinite(self.Omega) and self.Omega > 0):
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        samples = tuple(float(s) for s in self.samples)
        if len(samples) < 16:
            raise ValueError(
                f"need at least 16 samples, got {len(samples)}")
        if not all(math.isfinite(s) for s in samples):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class FreeSpace:
    """Unbounded vacuum; travelling-wave modes."""


@dataclass(frozen=True)
class Mirror:
    """Half-line with a perfect mirror at z = z0 > 0; standing-wave modes."""

    z0: float

    def __post_init__(self):
        if not (math.isfinite(self.z0) and self.z0 > 0):
            raise ValueError(f"z0 must be positive, got {self.z0}")


@dataclass(frozen=True)
class Cavity:
    """Cavity of length L with modes omega_m = pi m c / L.

    ``z0`` is the equilibrium position of the atom inside the cavity and
    ``n_photons`` the initial photon occupation N of the resonant mode.
    """

    length: float
    z0: float
    n_photons: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"length must be positive, got {self.length}")
        if not (math.isfinite(self.z0) and 0 < self.z0 < self.length):
            raise ValueError(
                f"z0 must lie inside the cavity (0, {self.length}), "
                f"got {self.z0}")
        if self.n_photons != int(self.n_photons) or self.n_photons < 0:
            raise ValueError(
                f"n_photons must be a non-negative integer, "
                f"got {self.n_photons}")


@dataclass(frozen=True)
class Sideband:
    """One resonance line: index n, photon angular frequency, rate in Hz."""

    n: int
    omega: float
    rate: float
    branch: str = EMIT_EXCITE
    m: int | None = None  # cavity mode index, when applicable

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(
                f"photon frequency must be finite and positive, got {self.omega}")


def emission_frequency(atom: AtomParams, Omega: float, n: int) -> float:
    """Photon angular frequency omega = n*Omega - omega0 of the n-th sideband."""
    if n != int(n) or n < 1:
        raise ValueError(f"sideband index must be a positive integer, got {n}")
    omega = n * Omega - atom.omega0
    if omega <= 0:
        raise NoSidebandError(
            f"sideband n={n}: photon frequency n*Omega - omega0 = "
            f"{omega:g} rad/s is not positive")
    return omega


def dimensionless_amplitude(motion, omega: float) -> float:
    """Dimensionless oscillation amplitude k*A seen by a photon at ``omega``.

    Rotation uses the radius in place of A.  Parallel-to-mirror SHO uses the
    transverse wave-vector component k_y = k sin(delta).
    """
    if not omega > 0:
        raise PhysicsDomainError(f"omega must be positive, got {omega}")
    k = omega / C
    if isinstance(motion, ShoMotion):
        if motion.orientation == PARALLEL:
            return k * math.sin(motion.delta) * motion.amplitude
        return k * motion.amplitude
    if isinstance(motion, RotationMotion):
        return k * motion.radius
    if isinstance(motion, GeneralPeriodicMotion):
        return k * max(abs(s) for s in motion.samples)
    raise TypeError(f"unsupported motion type {type(motion).__name__}")


def _check_clearance(extent: float, clearance: float, what: str):
    if extent >= clearance:
        raise PhysicsDomainError(
            f"motion extent {extent:g} m reaches the {what} "
            f"(clearance {clearance:g} m); require extent < clearance")


def _mirror_geometry_factors(motion, geom: Mirror, n: int, k: float):
    """Return (a_tilde, theta) for the mirror rate formula."""
    if isinstance(motion, ShoMotion):
        if motion.orientation == PARALLEL:
            a_tilde = k * math.sin(motion.delta) * motion.amplitude
            theta = k * math.cos(motion.delta) * geom.z0 - 0.5 * math.pi * n
        else:
            _check_clearance(motion.amplitude, geom.z0, "mirror")
            a_tilde = k * motion.amplitude
            theta = k * geom.z0 - 0.5 * math.pi * n
    elif isinstance(motion, RotationMotion):
        _check_clearance(motion.radius, geom.z0, "mirror")
        a_tilde = k * motion.radius
        theta = k * math.cos(motion.delta) * geom.z0 - 0.5 * math.pi * n
    else:
        raise TypeError(
            "mirror_rate needs SHO or rotation motion; for sampled "
            "trajectories use oracle.general_trajectory_spectrum")
    return a_tilde, theta


def mirror_rate(atom: AtomParams, motion, geom: Mirror, n: int) -> Sideband:
    """Emission sideband of an atom oscillating next to a mirror.

    rate = (8 pi g^2 / Omega) * sin^2(theta) * J_n(a_tilde)^2 with
    theta = k z0 - pi n / 2 for perpendicular SHO; parallel SHO and rotation
    substitute the projected wave-vector components (see the motion types).
    """
    omega = emission_frequency(atom, motion.Omega, n)
    k = omega / C
    a_tilde, theta = _mirror_geometry_factors(motion, geom, n, k)
    rate = (8.0 * math.pi * atom.g**2 / motion.Omega
            * math.sin(theta)**2 * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=EMIT_EXCITE)


def free_space_rate(atom: AtomParams, motion: ShoMotion, n: int) -> Sideband:
    """Emission sideband of an atom oscillating in free space.

    rate = (2 pi g^2 / Omega) * J_n((n Omega - omega0) A / c)^2.
    """
    if not isinstance(motion, ShoMotion):
        raise TypeError("free_space_rate needs SHO motion")
    omega = emission_frequency(atom, motion.Omega, n)
    a_tilde = omega * motion.amplitude / C
    rate = (2.0 * math.pi * atom.g**2 / motion.Omega
            * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=EMIT_EXCITE)


def cavity_mode_frequency(geom: Cavity, m: int) -> float:
    """Angular frequency omega_m = pi m c / L of the m-th cavity mode."""
    if m != int(m) or m < 1:
        raise ValueError(f"mode index must be a positive integer, got {m}")
    return math.pi * m * C / geom.length


def cavity_rate(atom: AtomParams, motion: ShoMotion, geom: Cavity,
                n: int, m: int, branch: str = EMIT_EXCITE,
                resonance_tol: float = RESONANCE_TOL) -> Sideband:
    """Sideband rate for an atom oscillating along the axis of a cavity.

    Branches (photon frequency omega = pi m c / L):

    * ``emit-excite``:    requires n*Omega = omega + omega0, factor N + 1
    * ``absorb-deexcite``: requires n*Omega = omega0 - omega, factor N

    Both resonance conditions are checked to ``resonance_tol`` relative to
    Omega; a violation raises OffResonanceError carrying the mismatch.
    """
    if not isinstance(motion, ShoMotion) or motion.orientation != PERPENDICULAR:
        raise TypeError("cavity_rate needs SHO motion along the cavity axis")
    if n != int(n) or n < 1:
        raise ValueError(f"sideband index must be a positive integer, got {n}")
    omega = cavity_mode_frequency(geom, m)
    if branch == EMIT_EXCITE:
        mismatch = n * motion.Omega - (omega + atom.omega0)
        chi = geom.n_photons + 1
    elif branch == ABSORB_DEEXCITE:
        mismatch = n * motion.Omega - (atom.omega0 - omega)
        chi = geom.n_photons
    else:
        raise ValueError(f"unknown branch {branch!r}")
    if abs(mismatch) > resonance_tol * motion.Omega:
        raise OffResonanceError(
            f"cavity branch {branch}: resonance violated by "
            f"{mismatch:g} rad/s (n*Omega={n * motion.Omega:g}, "
            f"omega={omega:g}, omega0={atom.omega0:g})",
            mismatch=mismatch,
        )
    _check_clearance(motion.amplitude, min(geom.z0, geom.length - geom.z0),
                     "cavity mirror")
    a_tilde = math.pi * m * motion.amplitude / geom.length
    theta = math.pi * m * geom.z0 / geom.length - 0.5 * math.pi * n
    rate = (8.0 * math.pi * chi * atom.g**2 / motion.Omega
            * math.sin(theta)**2 * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=branch, m=m)


def allowed_sidebands(atom: AtomParams, motion, geom, n_max: int,
                      resonance_tol: float = RESONANCE_TOL) -> list[Sideband]:
    """All sidebands with n in [1, n_max] open in the given geometry.

    For a cavity, only (n, m) pairs meeting the resonance condition within
    ``resonance_tol`` survive; both photon-number branches are scanned.
    An empty list is a valid result.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if isinstance(motion, GeneralPeriodicMotion):
        raise TypeError(
            "no closed form for sampled trajectories; use "
            "oracle.general_trajectory_spectrum")
    out = []
    for n in range(1, n_max + 1):
        if isinstance(geom, FreeSpace):
            if n * motion.Omega > atom.omega0:
                out.append(free_space_rate(atom, motion, n))
        elif isinstance(geom, Mirror):
            if n * motion.Omega > atom.omega0:
                out.append(mirror_rate(atom, motion, geom, n))
        elif isinstance(geom, Cavity):
            for branch in (EMIT_EXCITE, ABSORB_DEEXCITE):
                if branch == EMIT_EXCITE:
                    omega = n * motion.Omega - atom.omega0
                else:
                    omega = atom.omega0 - n * motion.Omega
                if omega <= 0:
                    continue
                m = round(omega * geom.length / (math.pi * C))
                if m < 1:
                    continue
                try:
                    out.append(cavity_rate(atom, motion, geom, n, m, branch,
                                           resonance_tol))
                except OffResonanceError:
                    continue
        else:
            raise TypeError(f"unsupported geometry {type(geom).__name__}")
    return out


def small_amplitude_rate(atom: AtomParams, motion: ShoMotion) -> float:
    """Small-amplitude n=1 free-space rate at the optimum omega0 = Omega/2.

    With g = alpha*omega0, omega0 = Omega/2 and J_1(x)^2 ~ x^2/4 the exact
    rate reduces to

        rate = pi * (A * alpha)^2 * Omega^3 / (32 c^2).

    Requires alpha to be set, omega0 = Omega/2 to 1e-12 relative, and a
    dimensionless amplitude (Omega - omega0) A / c below 0.1.
    """
    if atom.alpha is None:
        raise ValueError("small_amplitude_rate needs the atom's alpha ratio")
    half_drive = 0.5 * motion.Omega
    if abs(atom.omega0 - half_drive) > 1e-12 * half_drive:
        raise PhysicsDomainError(
            f"small-amplitude form holds at omega0 = Omega/2; got "
            f"omega0={atom.omega0:g}, Omega/2={half_drive:g}")
    a_tilde = (motion.Omega - atom.omega0) * motion.amplitude / C
    if a_tilde >= SMALL_AMPLITUDE_MAX:
        raise ApproximationDomainError(
            f"dimensionless amplitude {a_tilde:g} outside the small-"
            f"amplitude domain (< {SMALL_AMPLITUDE_MAX})")
    return (math.pi * (motion.amplitude * atom.alpha)**2 * motion.Omega**3
            / (32.0 * C**2))

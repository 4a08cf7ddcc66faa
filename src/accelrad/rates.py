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

Each motion type declares its extent toward a boundary, its wave-vector
projection and its phase k z(tau); each geometry its clearance, the field
mode a photon occupies and the motions its closed form covers.  The closed
forms here and the quadrature oracle both read these facts from the types
and nowhere else.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _wave_components(k: float, delta: float):
    """(k sin(delta), k cos(delta)): the wave vector of direction ``delta``
    along the mirror plane and along the mirror normal."""
    return k * math.sin(delta), k * math.cos(delta)


def _check_positive(name: str, value: float):
    """Reject a model value that is not finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise PhysicsDomainError(f"{name} must be positive, got {value}")


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
        _check_positive("omega0", self.omega0)
        if self.alpha is not None:
            derived = self.alpha * self.omega0
            if self.g is None:
                object.__setattr__(self, "g", derived)
            elif self.g != derived:
                raise PhysicsDomainError(
                    f"inconsistent coupling: g={self.g} but "
                    f"alpha*omega0={derived}")
        if self.g is None:
            raise PhysicsDomainError("either g or alpha must be given")
        _check_positive("g", self.g)


@dataclass(frozen=True)
class ShoMotion:
    """Simple harmonic motion z(t) = A sin(Omega t).

    ``orientation`` matters only next to a mirror or in a cavity:
    ``perpendicular`` motion runs along the mirror normal, ``parallel``
    motion along the mirror plane.  For parallel motion the emitted wave
    direction is parameterized by ``delta`` with k_y = k sin(delta)
    (transverse, along the motion) and k_z = k cos(delta) (normal to the
    mirror).  In free space both orientations see the full k A.
    """

    amplitude: float
    Omega: float
    orientation: str = PERPENDICULAR
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise PhysicsDomainError(
                f"amplitude must be >= 0, got {self.amplitude}")
        _check_positive("Omega", self.Omega)
        if self.orientation not in (PERPENDICULAR, PARALLEL):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not math.isfinite(self.delta):
            raise PhysicsDomainError(f"delta must be finite, got {self.delta}")

    @property
    def extent(self) -> float:
        """Reach toward a boundary: A, or 0 for motion in the mirror plane."""
        return self.amplitude if self.orientation == PERPENDICULAR else 0.0

    def project(self, k: float):
        """(k_motion, k_normal): the wave vector along the motion and along
        the boundary normal, for a photon of wavenumber ``k``."""
        if self.orientation == PARALLEL:
            return _wave_components(k, self.delta)
        return k, k

    def phase(self, k: float):
        """``(phi, bandwidth, peak)``: phi(tau) = k z(tau) vectorized, with
        bounds on |dphi/dtau| and |phi|; ``k`` is k_motion."""
        lam = k * self.amplitude
        return (lambda tau: lam * np.sin(tau)), abs(lam), abs(lam)


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
            raise PhysicsDomainError(f"radius must be >= 0, got {self.radius}")
        _check_positive("Omega", self.Omega)
        if not math.isfinite(self.delta):
            raise PhysicsDomainError(f"delta must be finite, got {self.delta}")

    @property
    def extent(self) -> float:
        """Reach toward a boundary: the radius R."""
        return self.radius

    amplitude = extent  # of each coordinate of the circular motion

    def project(self, k: float):
        """(k_motion, k_normal) = (k, k cos(delta)); see ShoMotion.project."""
        return k, _wave_components(k, self.delta)[1]

    def phase(self, k: float):
        """phi(tau) = k R sin(tau + delta); see ShoMotion.phase."""
        lam = k * self.radius
        delta = self.delta
        return (lambda tau: lam * np.sin(tau + delta)), abs(lam), abs(lam)


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
        _check_positive("Omega", self.Omega)
        samples = tuple(float(s) for s in self.samples)
        if len(samples) < 16:
            raise PhysicsDomainError(
                f"need at least 16 samples, got {len(samples)}")
        if not all(math.isfinite(s) for s in samples):
            raise PhysicsDomainError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def extent(self) -> float:
        """Reach toward a boundary: max |z| over the samples."""
        return max(abs(s) for s in self.samples)

    def project(self, k: float):
        """(k_motion, k_normal) = (k, k); see ShoMotion.project."""
        return k, k

    def phase(self, k: float):
        """See ShoMotion.phase; z(tau) = Re sum_h c_h exp(i h tau) over the
        samples' Fourier coefficients c_h, which bound |dphi/dtau| by
        k sum_h |h| |c_h| and |phi| by k sum_h |c_h|."""
        z = np.asarray(self.samples, dtype=float)
        m = len(z)
        coef, freqs = np.fft.fft(z) / m, np.fft.fftfreq(m, d=1.0 / m)

        def phi(tau):
            tau = np.asarray(tau, dtype=float)
            phases = np.exp(1j * np.multiply.outer(tau, freqs))
            return k * (phases @ coef).real

        size = np.abs(coef)
        return (phi, k * float(np.abs(freqs) @ size),
                k * float(np.sum(size)))


@dataclass(frozen=True)
class FreeSpace:
    """Unbounded vacuum; travelling-wave modes."""

    clearance = math.inf
    #: Why the closed form rejects a motion that ``covers`` refuses.
    uncovered = "free_space_rate needs SHO motion"

    @staticmethod
    def covers(motion) -> bool:
        """Whether the closed form covers ``motion``: SHO of either
        orientation."""
        return isinstance(motion, ShoMotion)

    def field_mode(self, omega: float):
        """``(k, z0, chi)`` of the mode a photon at ``omega`` occupies: its
        wavenumber, the mirror offset of a standing wave (None for a
        travelling one) and the emission factor N + 1."""
        return omega / C, None, 1.0

    def sidebands(self, atom, motion, n: int) -> list:
        """Closed-form lines of index n: the emission line, once open."""
        return ([free_space_rate(atom, motion, n)]
                if n * motion.Omega > atom.omega0 else [])


@dataclass(frozen=True)
class Mirror:
    """Half-line with a perfect mirror at z = z0 > 0; standing-wave modes."""

    z0: float

    def __post_init__(self):
        _check_positive("z0", self.z0)

    @property
    def clearance(self) -> float:
        return self.z0

    uncovered = ("mirror_rate needs SHO or rotation motion; for sampled "
                 "trajectories use oracle.general_trajectory_spectrum")

    @staticmethod
    def covers(motion) -> bool:
        """See FreeSpace.covers: SHO of either orientation, or rotation."""
        return isinstance(motion, (ShoMotion, RotationMotion))

    def field_mode(self, omega: float):
        """See FreeSpace.field_mode."""
        return omega / C, self.z0, 1.0

    def sidebands(self, atom, motion, n: int) -> list:
        """See FreeSpace.sidebands."""
        return ([mirror_rate(atom, motion, self, n)]
                if n * motion.Omega > atom.omega0 else [])


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
        _check_positive("length", self.length)
        if not (math.isfinite(self.z0) and 0 < self.z0 < self.length):
            raise PhysicsDomainError(
                f"z0 must lie inside the cavity (0, {self.length}), "
                f"got {self.z0}")
        if self.n_photons != int(self.n_photons) or self.n_photons < 0:
            raise PhysicsDomainError(
                f"n_photons must be a non-negative integer, "
                f"got {self.n_photons}")

    @property
    def clearance(self) -> float:
        """Distance from z0 to the nearer cavity mirror."""
        return min(self.z0, self.length - self.z0)

    uncovered = "cavity_rate needs SHO motion along the cavity axis"

    @staticmethod
    def covers(motion) -> bool:
        """See FreeSpace.covers: perpendicular SHO only."""
        return (isinstance(motion, ShoMotion)
                and motion.orientation == PERPENDICULAR)

    def mode_index(self, omega: float) -> int | None:
        """Index m of the mode nearest ``omega``, or None below mode 1."""
        m = round(omega * self.length / (math.pi * C))
        return m if m >= 1 else None

    def field_mode(self, omega: float):
        """See FreeSpace.field_mode; None unless ``omega`` lies within
        RESONANCE_TOL relative of a cavity mode, whose k is pi m / L."""
        m = self.mode_index(omega)
        if m is None or (abs(omega - cavity_mode_frequency(self, m))
                         > RESONANCE_TOL * omega):
            return None
        return math.pi * m / self.length, self.z0, self.n_photons + 1.0

    def sidebands(self, atom, motion, n: int) -> list:
        """Closed-form lines of index n: each photon-number branch whose
        frequency matches a cavity mode within RESONANCE_TOL."""
        out = []
        for branch, omega in ((EMIT_EXCITE, n * motion.Omega - atom.omega0),
                              (ABSORB_DEEXCITE,
                               atom.omega0 - n * motion.Omega)):
            m = self.mode_index(omega)
            if m is None:
                continue
            try:
                out.append(cavity_rate(atom, motion, self, n, m, branch))
            except OffResonanceError:
                continue
        return out


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
            raise PhysicsDomainError(
                f"rate must be finite and >= 0, got {self.rate}")
        _check_positive("photon frequency", self.omega)


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


def check_clearance(motion, geom):
    """Reject a trajectory that reaches the boundary: the motion's extent
    toward it must stay below the geometry's clearance."""
    extent, clearance = motion.extent, geom.clearance
    if extent >= clearance:
        raise PhysicsDomainError(
            f"motion extent {extent:g} m reaches the boundary "
            f"(clearance {clearance:g} m); require extent < clearance")


def _check_phase(theta: float):
    """Reject a boundary phase past float64 range: math.sin refuses it."""
    if math.isinf(theta):
        raise PhysicsDomainError(
            f"boundary phase {theta} rad is beyond float64 range")


def check_closed_form(motion, geom):
    """Reject a motion that the geometry's closed form does not cover, with
    the message the geometry declares."""
    if not geom.covers(motion):
        raise PhysicsDomainError(geom.uncovered)


def mirror_rate(atom: AtomParams, motion, geom: Mirror, n: int) -> Sideband:
    """Emission sideband of an atom oscillating next to a mirror.

    rate = (8 pi g^2 / Omega) * sin^2(theta) * J_n(a_tilde)^2 with
    theta = k z0 - pi n / 2 for perpendicular SHO; parallel SHO and rotation
    substitute the projected wave-vector components (see the motion types).
    """
    omega = emission_frequency(atom, motion.Omega, n)
    check_closed_form(motion, geom)
    check_clearance(motion, geom)
    k_motion, k_normal = motion.project(omega / C)
    a_tilde = k_motion * motion.amplitude
    theta = k_normal * geom.z0 - 0.5 * math.pi * n
    _check_phase(theta)
    rate = (8.0 * math.pi * atom.g**2 / motion.Omega
            * math.sin(theta)**2 * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=EMIT_EXCITE)


def free_space_rate(atom: AtomParams, motion: ShoMotion, n: int) -> Sideband:
    """Emission sideband of an atom oscillating in free space.

    rate = (2 pi g^2 / Omega) * J_n((n Omega - omega0) A / c)^2.
    """
    check_closed_form(motion, FreeSpace)
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
                n: int, m: int, branch: str = EMIT_EXCITE) -> Sideband:
    """Sideband rate for an atom oscillating along the axis of a cavity.

    Branches (photon frequency omega = pi m c / L):

    * ``emit-excite``:    requires n*Omega = omega + omega0, factor N + 1
    * ``absorb-deexcite``: requires n*Omega = omega0 - omega, factor N

    Both resonance conditions are checked to RESONANCE_TOL relative to
    Omega; a violation raises OffResonanceError carrying the mismatch.
    """
    check_closed_form(motion, geom)
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
    if abs(mismatch) > RESONANCE_TOL * motion.Omega:
        raise OffResonanceError(
            f"cavity branch {branch}: resonance violated by "
            f"{mismatch:g} rad/s (n*Omega={n * motion.Omega:g}, "
            f"omega={omega:g}, omega0={atom.omega0:g})",
            mismatch=mismatch,
        )
    check_clearance(motion, geom)
    a_tilde = math.pi * m * motion.amplitude / geom.length
    theta = math.pi * m * geom.z0 / geom.length - 0.5 * math.pi * n
    _check_phase(theta)
    rate = (8.0 * math.pi * chi * atom.g**2 / motion.Omega
            * math.sin(theta)**2 * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=branch, m=m)


def allowed_sidebands(atom: AtomParams, motion, geom,
                      n_max: int) -> list[Sideband]:
    """All sidebands with n in [1, n_max] open in the given geometry.

    For a cavity, only (n, m) pairs meeting the resonance condition within
    RESONANCE_TOL survive; both photon-number branches are scanned.
    An empty list is a valid result.  A motion the geometry's closed form
    does not cover, or one that reaches the boundary, is rejected before
    any line, so the outcome does not depend on which lines are open.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    check_clearance(motion, geom)
    check_closed_form(motion, geom)
    return [line for n in range(1, n_max + 1)
            for line in geom.sidebands(atom, motion, n)]


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
    return small_amplitude_formula(motion.amplitude * atom.alpha,
                                   motion.Omega)


def small_amplitude_formula(a_alpha, Omega: float):
    """pi (A alpha)^2 Omega^3 / (32 c^2), unchecked; ``a_alpha`` = A alpha
    may be a float or an ndarray."""
    return math.pi * a_alpha**2 * Omega**3 / (32.0 * C**2)

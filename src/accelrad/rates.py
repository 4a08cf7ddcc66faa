"""Domain model and closed-form per-sideband transition rates.

A two-level atom (transition frequency omega0, coupling g) is driven along a
prescribed periodic trajectory and trades n drive quanta for its excitation
and a photon.  The sign of n*Omega - omega0 fixes the process, so each index
n has at most one line:

    n * Omega = omega0 + omega   (> 0: emission with excitation)
    n * Omega = omega0 - omega   (< 0: absorption, cavity photons only)

One closed form serves every geometry, written over the field mode the
photon of angular frequency omega fills:

    rate_n = (2 pi g^2 / Omega) * chi * S * J_n(k_motion A)^2

    free space:  chi = 1, S = 1, k_motion = k = omega / c (no projection)
    mirror:      chi = 1, S = 4 sin^2(k_normal z0 - pi n / 2), k = omega / c
    cavity:      the mirror form at the mode k = pi m / L, with the
                 photon-number factor chi = N + 1 (emit/excite) or N
                 (absorb/de-excite)

All frequencies are angular (rad/s), all lengths are meters, all rates
are Hz.

Each motion type declares its extent toward a boundary, its wave-vector
projection (k_motion, k_normal) and its phase k z(tau); each geometry its
clearance and, in ``field_mode(eps)``, the mode a photon of signed energy
eps = n*Omega - omega0 occupies.  The one line builder,
``sideband(atom, motion, n)`` of the geometries' common base, and the
quadrature oracle both read these facts from the types and nowhere else.
allowed_sidebands is the one public closed-form entry point: it checks the
request once (check_closed_form, which alone states which pairs have a
closed form, and check_clearance) before any line.  The oracle integrates
every pair that clears its boundary.
"""

import functools
import math
from dataclasses import dataclass

from ._lazy import np
from .constants import SPEED_OF_LIGHT as C
from .errors import PhysicsDomainError, real, whole_number
from .specfun import bessel_j

PERPENDICULAR = "perpendicular"
PARALLEL = "parallel"

EMIT_EXCITE = "emit-excite"
ABSORB_DEEXCITE = "absorb-deexcite"

#: Relative tolerance (scaled by Omega) of every sideband resonance, on every
#: route (off_resonance).  The idealized model is exactly resonant; the
#: tolerance only absorbs floating point noise from matched parameters.
RESONANCE_TOL = 1e-9


def _wave_components(k: float, delta: float):
    """(k sin(delta), k cos(delta)): the wave vector of direction ``delta``
    along the mirror plane and along the mirror normal."""
    return k * math.sin(delta), k * math.cos(delta)


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
        real("omega0", self.omega0, "> 0")
        if self.alpha is not None:
            alpha = real("alpha", self.alpha, "> 0")
            derived = real("alpha * omega0", alpha * self.omega0, "> 0")
            if self.g is None:
                object.__setattr__(self, "g", derived)
            elif self.g != derived:
                raise PhysicsDomainError(
                    f"inconsistent coupling: g={self.g} but "
                    f"alpha*omega0={derived}")
        if self.g is None:
            raise PhysicsDomainError("either g or alpha must be given")
        real("g", self.g, "> 0")


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
        real("amplitude", self.amplitude, ">= 0")
        real("Omega", self.Omega, "> 0")
        if self.orientation not in (PERPENDICULAR, PARALLEL):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        real("delta", self.delta)

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
        real("radius", self.radius, ">= 0")
        real("Omega", self.Omega, "> 0")
        real("delta", self.delta)

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
        real("Omega", self.Omega, "> 0")
        samples = tuple(float(real("samples", s)) for s in self.samples)
        if len(samples) < 16:
            raise PhysicsDomainError(
                f"need at least 16 samples, got {len(samples)}")
        object.__setattr__(self, "samples", samples)

    @functools.cached_property
    def _fourier(self):
        """``(c_h, h, sum_h |h| |c_h|)``: the samples' Fourier coefficients
        of z(tau) = Re sum_h c_h exp(i h tau), their harmonics, and the
        bound on |dz/dtau| that they give."""
        z = np.asarray(self.samples, dtype=float)
        m = len(z)
        with np.errstate(over="ignore", invalid="ignore"):
            coef, freqs = np.fft.fft(z) / m, np.fft.fftfreq(m, d=1.0 / m)
            return coef, freqs, float(np.abs(freqs) @ np.abs(coef))

    def _on_grid(self, start: float, nodes: int):
        """z at tau_j = start + 2 pi j / nodes, j < nodes, by one inverse
        FFT: c_h exp(i h start) folds into bin h mod nodes, exact at any
        node count since exp(2 pi i h j / nodes) has period nodes in h."""
        coef, h, _ = self._fourier
        bins = np.zeros(nodes, dtype=complex)
        np.add.at(bins, h.astype(int) % nodes, coef * np.exp(1j * start * h))
        return (nodes * np.fft.ifft(bins)).real

    @functools.cached_property
    def extent(self) -> float:
        """Reach toward a boundary of the interpolated z(tau), which
        overshoots the samples: max |z| on the N = 64 M points 2 pi j / N,
        plus (pi / N) max |dz/dtau| for the gaps; PhysicsDomainError where
        that bound is past float64 range.  The N points are the 64 M-point
        grids from 2 pi s / N, s < 64: on M points no two harmonics share a
        bin, so each grid is one inverse FFT of c_h exp(i h 2 pi s / N).
        They go a block of grids (at most 2^15 points) at a time, so memory
        stays O(M)."""
        coef, h, slope = self._fourier
        m = len(coef)
        starts = 2.0 * math.pi / (64 * m) * np.arange(64)
        block = max(1, 2 ** 15 // m)
        peak = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for at in range(0, 64, block):
                z = np.fft.ifft(coef * np.exp(
                    1j * np.multiply.outer(starts[at:at + block], h))).real
                peak = np.maximum(peak, np.max(np.abs(z)))  # NaN stays
            extent = m * float(peak) + math.pi / (64 * m) * slope
        if not math.isfinite(extent):
            raise PhysicsDomainError(
                "sampled trajectory is beyond float64 range")
        return extent

    def project(self, k: float):
        """(k_motion, k_normal) = (k, k); see ShoMotion.project."""
        return k, k

    def phase(self, k: float):
        """See ShoMotion.phase; z(tau) = Re sum_h c_h exp(i h tau) bounds
        |dphi/dtau| by k sum_h |h| |c_h| and |phi| by k sum_h |c_h|.  phi
        takes the full-period uniform grids periodic_trapezoid passes, and
        raises ValueError on any other: one inverse FFT of N nodes, in
        O(N log N + M) time and O(N + M) memory for M samples."""
        coef, _, slope = self._fourier

        def phi(tau):  # checks the first step and the span's mean step
            if (n := len(tau)) < 2 or not all(
                    math.isclose(dt, 2.0 * math.pi / n, rel_tol=1e-9)
                    for dt in (tau[1] - tau[0], (tau[-1] - tau[0]) / (n - 1))):
                raise ValueError("sampled phi needs a full-period uniform "
                                 "grid tau[j] = tau[0] + 2 pi j / N, N >= 2")
            return k * self._on_grid(float(tau[0]), n)

        return phi, k * slope, k * float(np.sum(np.abs(coef)))


class _Geometry:
    """Base of the geometries: the one closed form, over the field mode.

    Line n carries the signed photon energy eps = n Omega - omega0: eps > 0
    emits a photon of omega = eps (emit-excite), eps < 0 absorbs one of
    omega = -eps (absorb-deexcite, cavity only), so each index has at most
    one line.  Each geometry declares its clearance and, in
    ``field_mode(eps)``, the mode that photon fills: ``(k, z0, chi,
    omega_m, m)``, its wavenumber, standing-wave mirror offset (None if
    travelling), photon-number factor (N + 1 to emit, N to absorb), own
    frequency (``omega`` in a continuum) and index (None in a continuum);
    or None if no mode is there.
    """

    def sideband(self, atom, motion, n: int) -> "Sideband | None":
        """The closed-form line of index n, or None if the photon has no
        field mode or a discrete one off resonance (off_resonance), at rate

            (2 pi g^2 / Omega) chi S J_n(k_motion A)^2,

        A the amplitude or the radius.  S is 1 in free space (z0 None, the
        full k) and 4 sin^2(k_normal z0 - pi n / 2) at a boundary, the wave
        vector projected by the motion; a phase past float64 range is
        refused, as math.sin refuses it.  Relies on allowed_sidebands's
        request checks (check_closed_form, check_clearance)."""
        eps = n * motion.Omega - atom.omega0
        field = self.field_mode(eps)
        if field is None:
            return None
        k, z0, chi, omega_m, m = field
        emits = eps > 0
        if m is not None and off_resonance(n, motion.Omega, atom.omega0,
                                           omega_m if emits else -omega_m):
            return None
        if z0 is None:
            a_tilde, s = k * motion.amplitude, 1.0
        else:
            k_motion, k_normal = motion.project(k)
            theta = k_normal * z0 - 0.5 * math.pi * n
            if math.isinf(theta):
                raise PhysicsDomainError(
                    f"boundary phase {theta} rad is beyond float64 range")
            a_tilde = k_motion * motion.amplitude
            s = 4.0 * math.sin(theta)**2
        rate = (2.0 * math.pi * chi * atom.g**2 / motion.Omega
                * s * bessel_j(n, a_tilde)**2)
        return Sideband(n, omega_m, rate,
                        EMIT_EXCITE if emits else ABSORB_DEEXCITE, m)

    def field_mode(self, eps: float):
        """The wave k = eps / c of a continuum, travelling or standing at
        ``self.z0``, or None for eps <= 0: no photon to absorb."""
        return (eps / C, self.z0, 1.0, eps, None) if eps > 0 else None


class FreeSpace(_Geometry):
    """Unbounded vacuum; travelling-wave modes."""

    clearance = math.inf
    z0 = None


@dataclass(frozen=True)
class Mirror(_Geometry):
    """Half-line with a perfect mirror at z = z0 > 0; standing-wave modes."""

    z0: float

    def __post_init__(self):
        real("z0", self.z0, "> 0")

    @property
    def clearance(self) -> float:
        return self.z0


@dataclass(frozen=True)
class Cavity(_Geometry):
    """Cavity of length L with modes omega_m = pi m c / L.

    ``z0`` is the equilibrium position of the atom inside the cavity and
    ``n_photons`` the initial photon occupation N of the resonant mode.
    """

    length: float
    z0: float
    n_photons: int = 0

    def __post_init__(self):
        real("length", self.length, "> 0")
        if not real("z0", self.z0, "> 0") < self.length:
            raise PhysicsDomainError(
                f"z0 must lie inside the cavity (0, {self.length}), "
                f"got {self.z0}")
        if real("n_photons", self.n_photons, ">= 0") % 1:
            raise PhysicsDomainError(
                f"n_photons must be a non-negative integer, "
                f"got {self.n_photons}")

    @property
    def clearance(self) -> float:
        """Distance from z0 to the nearer cavity mirror."""
        return min(self.z0, self.length - self.z0)

    def mode_frequency(self, m: int) -> float:
        """Angular frequency omega_m = pi m c / L of mode m >= 1."""
        return math.pi * m * C / self.length

    def field_mode(self, eps: float):
        """The mode m nearest |eps|, k = pi m / L, chi by the sign of eps, or
        None below mode 1; whether a line meets it is off_resonance's call."""
        m = round(abs(eps) * self.length / (math.pi * C))
        if m < 1:
            return None
        chi = self.n_photons + 1.0 if eps > 0 else float(self.n_photons)
        return (math.pi * m / self.length, self.z0, chi,
                self.mode_frequency(m), m)


@dataclass(frozen=True)
class Sideband:
    """One resonance line: index n, photon angular frequency (the mode's
    omega_m on a closed-form cavity line), rate in Hz, and its branch by the
    sign of n Omega - omega0: emit-excite if positive, absorb-deexcite
    (cavity only) if negative."""

    n: int
    omega: float
    rate: float
    branch: str = EMIT_EXCITE
    m: int | None = None  # cavity mode index, when applicable

    def __post_init__(self):
        real("rate", self.rate, ">= 0")
        real("photon frequency", self.omega, "> 0")


def off_resonance(n: int, Omega: float, omega0: float, omega: float) -> float:
    """The one resonance rule: n Omega - (omega0 + omega), omega signed
    (negative if absorbed), or 0.0 within RESONANCE_TOL * Omega."""
    mismatch = n * Omega - (omega0 + omega)
    return mismatch if abs(mismatch) > RESONANCE_TOL * Omega else 0.0


def check_clearance(motion, geom):
    """Reject a trajectory that reaches the boundary: the motion's extent
    toward it must stay below the geometry's clearance."""
    extent, clearance = motion.extent, geom.clearance
    if extent >= clearance:
        raise PhysicsDomainError(
            f"motion extent {extent:g} m reaches the boundary "
            f"(clearance {clearance:g} m); require extent < clearance")


def check_closed_form(motion, geom):
    """The one statement of closed-form coverage: SHO of either orientation
    and rotation in free space and at a mirror, SHO along the axis in a
    cavity, and sampled motion nowhere."""
    if isinstance(geom, Cavity):
        if not (isinstance(motion, ShoMotion)
                and motion.orientation == PERPENDICULAR):
            raise PhysicsDomainError("the cavity closed form needs SHO "
                                     "motion along the cavity axis")
    elif not isinstance(motion, (ShoMotion, RotationMotion)):
        raise PhysicsDomainError(
            "sampled motion has no closed form; "
            "oracle.general_trajectory_spectrum integrates it")


def allowed_sidebands(atom: AtomParams, motion, geom,
                      n_max: int) -> list[Sideband]:
    """All sidebands with n in [1, n_max] open in the given geometry, at
    most one per index: the one public closed-form entry point.

    n Omega - omega0 > 0 emits, < 0 absorbs (cavity only); for a cavity,
    only (n, m) pairs meeting the resonance (off_resonance) survive.
    An empty list is a valid result.  A pair with no closed form
    (check_closed_form), or a motion that reaches the boundary, is rejected
    before any line, so the outcome does not depend on which lines are open.
    """
    n_max = whole_number("n_max", n_max, 1)
    check_clearance(motion, geom)
    check_closed_form(motion, geom)
    return [line for n in range(1, n_max + 1)
            if (line := geom.sideband(atom, motion, n)) is not None]


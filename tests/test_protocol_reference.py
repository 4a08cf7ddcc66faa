"""Closed forms and oracle against frozen copies of their per-type ladders.

The helpers below are frozen from the implementation in which ``rates`` and
``oracle`` each derived the wave-vector projection, the trajectory extent,
the boundary clearance and the cavity mode index through their own
``isinstance`` ladders.  The motion and geometry types now declare those
facts once; every output must stay bit-equal to these copies on a seeded
grid of every supported motion x geometry pair.  Free-space parallel SHO is
left out of the oracle comparison only: the oracle now uses the full k A
there, as the closed form always did.  Sampled motion's oracle lines keep
their node counts and rate floors bit for bit; their amplitude and rate,
now from an inverse FFT on the trapezoid's grid instead of the frozen
direct sum, are held to bounds.  The frozen free-space and cavity
closed forms take k A and k z0 with k = omega / c or pi m / L, as the one
line builder over the field mode does; the expressions they replaced,
omega A / c, pi m A / L and pi m z0 / L, are gated against mpmath in
tests/test_line_builder_accuracy.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from accelrad import (ABSORB_DEEXCITE, EMIT_EXCITE, PARALLEL, AtomParams,
                      Cavity, FreeSpace, GeneralPeriodicMotion, Mirror,
                      PhysicsDomainError, RotationMotion, ShoMotion,
                      Sideband, allowed_sidebands, bessel_j,
                      one_period_amplitude, rate_surface)
from accelrad._quadrature import MAX_PERIODIC_NODES
from accelrad.constants import SPEED_OF_LIGHT as C
from accelrad.rates import RESONANCE_TOL

_EPS = 2.0 ** -52
INTEGER_TOL = 1e-9  # the frozen oracle's own integer test


# --- frozen closed forms ---------------------------------------------------

class FrozenOffResonance(Exception):
    """The frozen cavity form's refusal of an off-resonant (n, m)."""


def frozen_emission_frequency(atom, Omega, n):
    omega = n * Omega - atom.omega0
    if omega <= 0:
        raise PhysicsDomainError(f"sideband n={n} is closed")
    return omega


def frozen_mode_frequency(geom, m):
    return math.pi * m * C / geom.length


def frozen_check_clearance(extent, clearance, what):
    if extent >= clearance:
        raise PhysicsDomainError(f"motion extent {extent:g} m reaches the "
                                 f"{what} (clearance {clearance:g} m)")


def frozen_mirror_geometry_factors(motion, geom, n, k):
    if isinstance(motion, ShoMotion):
        if motion.orientation == PARALLEL:
            a_tilde = k * math.sin(motion.delta) * motion.amplitude
            theta = k * math.cos(motion.delta) * geom.z0 - 0.5 * math.pi * n
        else:
            frozen_check_clearance(motion.amplitude, geom.z0, "mirror")
            a_tilde = k * motion.amplitude
            theta = k * geom.z0 - 0.5 * math.pi * n
    elif isinstance(motion, RotationMotion):
        frozen_check_clearance(motion.radius, geom.z0, "mirror")
        a_tilde = k * motion.radius
        theta = k * math.cos(motion.delta) * geom.z0 - 0.5 * math.pi * n
    else:
        raise PhysicsDomainError("mirror_rate needs SHO or rotation motion")
    return a_tilde, theta


def frozen_mirror_rate(atom, motion, geom, n):
    omega = frozen_emission_frequency(atom, motion.Omega, n)
    k = omega / C
    a_tilde, theta = frozen_mirror_geometry_factors(motion, geom, n, k)
    rate = (8.0 * math.pi * atom.g**2 / motion.Omega
            * math.sin(theta)**2 * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=EMIT_EXCITE)


def frozen_free_space_rate(atom, motion, n):
    if not isinstance(motion, (ShoMotion, RotationMotion)):
        raise PhysicsDomainError("free_space_rate needs SHO or rotation")
    omega = frozen_emission_frequency(atom, motion.Omega, n)
    a_tilde = (omega / C) * motion.amplitude
    rate = (2.0 * math.pi * atom.g**2 / motion.Omega
            * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=EMIT_EXCITE)


def frozen_cavity_rate(atom, motion, geom, n, m, branch):
    if not isinstance(motion, ShoMotion) or motion.orientation == PARALLEL:
        raise PhysicsDomainError(
            "cavity_rate needs SHO motion along the cavity axis")
    omega = frozen_mode_frequency(geom, m)
    if branch == EMIT_EXCITE:
        mismatch = n * motion.Omega - (omega + atom.omega0)
        chi = geom.n_photons + 1
    else:
        mismatch = n * motion.Omega - (atom.omega0 - omega)
        chi = geom.n_photons
    if abs(mismatch) > RESONANCE_TOL * motion.Omega:
        raise FrozenOffResonance(mismatch)
    frozen_check_clearance(motion.amplitude,
                           min(geom.z0, geom.length - geom.z0),
                           "cavity mirror")
    k = math.pi * m / geom.length
    a_tilde = k * motion.amplitude
    theta = k * geom.z0 - 0.5 * math.pi * n
    rate = (8.0 * math.pi * chi * atom.g**2 / motion.Omega
            * math.sin(theta)**2 * bessel_j(n, a_tilde)**2)
    return Sideband(n=n, omega=omega, rate=rate, branch=branch, m=m)


def frozen_allowed_sidebands(atom, motion, geom, n_max):
    if isinstance(motion, GeneralPeriodicMotion):
        raise PhysicsDomainError("no closed form for sampled trajectories")
    out = []
    for n in range(1, n_max + 1):
        if isinstance(geom, FreeSpace):
            if n * motion.Omega > atom.omega0:
                out.append(frozen_free_space_rate(atom, motion, n))
        elif isinstance(geom, Mirror):
            if n * motion.Omega > atom.omega0:
                out.append(frozen_mirror_rate(atom, motion, geom, n))
        else:
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
                    out.append(frozen_cavity_rate(atom, motion, geom, n, m,
                                                  branch))
                except FrozenOffResonance:
                    continue
    return out


def frozen_rate_surface(atom, motion, geom, amplitude_values, n_values):
    values = np.zeros((len(amplitude_values), len(n_values)))
    for i, amplitude in enumerate(amplitude_values):
        cell_motion = replace(motion, amplitude=amplitude)
        for j, n in enumerate(n_values):
            if n * motion.Omega <= atom.omega0:
                continue
            if isinstance(geom, FreeSpace):
                values[i, j] = frozen_free_space_rate(atom, cell_motion,
                                                      n).rate
            else:
                values[i, j] = frozen_mirror_rate(atom, cell_motion, geom,
                                                  n).rate
    return values


# --- frozen oracle ---------------------------------------------------------

def frozen_position_phase(motion, k):
    if isinstance(motion, ShoMotion):
        lam = k * motion.amplitude
        if motion.orientation == PARALLEL:
            lam = k * math.sin(motion.delta) * motion.amplitude
        return (lambda tau: lam * np.sin(tau)), abs(lam), abs(lam)
    if isinstance(motion, RotationMotion):
        lam = k * motion.radius
        delta = motion.delta
        return (lambda tau: lam * np.sin(tau + delta)), abs(lam), abs(lam)
    z = np.asarray(motion.samples, dtype=float)
    coef = np.fft.fft(z) / len(z)
    freqs = np.fft.fftfreq(len(z), d=1.0 / len(z))

    def z_of(tau):
        tau = np.asarray(tau, dtype=float)
        phases = np.exp(1j * np.multiply.outer(tau, freqs))
        return (phases @ coef).real

    size = np.abs(coef)
    return ((lambda tau: k * z_of(tau)), k * float(np.abs(freqs) @ size),
            k * float(np.sum(size)))


def frozen_mirror_offset_phase(motion, k, z0):
    if isinstance(motion, ShoMotion) and motion.orientation == PARALLEL:
        return k * math.cos(motion.delta) * z0
    if isinstance(motion, RotationMotion):
        return k * math.cos(motion.delta) * z0
    return k * z0


def frozen_require_clearance(motion, clearance):
    if isinstance(motion, ShoMotion) and motion.orientation == PARALLEL:
        return
    if isinstance(motion, ShoMotion):
        extent = motion.amplitude
    elif isinstance(motion, RotationMotion):
        extent = motion.radius
    else:
        extent = max(abs(s) for s in motion.samples)
    frozen_check_clearance(extent, clearance, "boundary")


def frozen_line_integral(motion, geom, omega, omega0):
    n_float = (omega + omega0) / motion.Omega
    n = round(n_float)
    assert n >= 1 and abs(n_float - n) <= INTEGER_TOL * n_float
    chi = 1.0
    if isinstance(geom, FreeSpace):
        k = omega / C
        theta0 = None
    elif isinstance(geom, Mirror):
        k = omega / C
        theta0 = frozen_mirror_offset_phase(motion, k, geom.z0)
        frozen_require_clearance(motion, geom.z0)
    else:
        m = round(omega * geom.length / (math.pi * C))
        if (m < 1 or abs(omega - frozen_mode_frequency(geom, m))
                > RESONANCE_TOL * omega):
            raise PhysicsDomainError("not a cavity mode")
        k = math.pi * m / geom.length
        theta0 = frozen_mirror_offset_phase(motion, k, geom.z0)
        frozen_require_clearance(motion, min(geom.z0, geom.length - geom.z0))
        chi = geom.n_photons + 1.0
    phi, bandwidth, peak = frozen_position_phase(motion, k)
    if theta0 is None:
        theta0 = 0.0

        def integrand(tau):
            return np.exp(1j * (-1.0 * phi(tau) + n * tau))
    else:

        def integrand(tau):
            return 2j * np.sin(phi(tau) - theta0) * np.exp(1j * n * tau)

    return integrand, n, bandwidth, n * math.pi + peak + abs(theta0), chi


def frozen_rate(chi, Omega, g, amplitude):
    return chi * (Omega / (2.0 * math.pi)) * (g / Omega) ** 2 * amplitude ** 2


def frozen_one_period_amplitude(motion, geom, omega, omega0, g, trapezoid):
    integrand, n, bandwidth, _, chi = frozen_line_integral(motion, geom,
                                                           omega, omega0)
    nodes = max(16, 4 * (n + math.ceil(bandwidth) + 40))
    assert 2 * nodes <= MAX_PERIODIC_NODES
    value, err, used = trapezoid(integrand, nodes)
    return (complex(value), float(frozen_rate(chi, motion.Omega, g,
                                              abs(value))),
            float(err), used)


def frozen_rate_floor(motion, geom, omega, omega0, g, tol):
    _, _, _, peak_phase, chi = frozen_line_integral(motion, geom, omega,
                                                    omega0)
    return frozen_rate(chi, motion.Omega, g,
                       8.0 * math.pi * _EPS * peak_phase / tol)


# --- the seeded grid -------------------------------------------------------

MOTIONS = ("sho", "parallel", "rotation", "sampled")
GEOMETRIES = ("free_space", "mirror", "cavity")


def draw_case(rng, motion_kind, geom_kind):
    """One clearing request: (atom, motion, geom, n_max, resonant n)."""
    Omega = 10.0 ** rng.uniform(6.0, 10.0)
    n_max = int(rng.integers(1, 16))
    n_res = int(rng.integers(1, n_max + 1))
    omega = float(rng.uniform(0.05, 0.95)) * n_res * Omega
    omega0 = n_res * Omega - omega
    k = omega / C
    a_tilde = float(rng.uniform(0.05, 12.0))
    delta = float(rng.uniform(-3.0, 3.0))
    extent = a_tilde / k
    if geom_kind == "cavity":
        m = int(rng.integers(1, 6))
        length = math.pi * m * C / omega
        extent = min(extent, 0.9 * 0.15 * length)
        z0 = float(rng.uniform(0.15, 0.85)) * length
        geom = Cavity(length=length, z0=z0, n_photons=int(rng.integers(0, 4)))
    elif geom_kind == "mirror":
        geom = Mirror(z0=extent * float(rng.uniform(1.05, 6.0)))
    else:
        geom = FreeSpace()
    if motion_kind == "sho":
        motion = ShoMotion(amplitude=extent, Omega=Omega, delta=delta)
    elif motion_kind == "parallel":
        motion = ShoMotion(amplitude=extent, Omega=Omega,
                           orientation=PARALLEL, delta=delta)
    elif motion_kind == "rotation":
        motion = RotationMotion(radius=extent, Omega=Omega, delta=delta)
    else:
        tau = 2.0 * math.pi * np.arange(32) / 32
        shape = np.sin(tau) + 0.3 * np.cos(2.0 * tau) + 0.1 * np.sin(5 * tau)
        motion = GeneralPeriodicMotion(
            Omega=Omega, samples=tuple(extent * shape / 1.4))
    atom = AtomParams(omega0=omega0, g=10.0 ** rng.uniform(3.0, 6.0))
    return atom, motion, geom, n_max, n_res


def grid(motion_kind, geom_kind, count=6):
    seed = 100 * MOTIONS.index(motion_kind) + GEOMETRIES.index(geom_kind)
    rng = np.random.default_rng(seed)
    return [draw_case(rng, motion_kind, geom_kind) for _ in range(count)]


def absorption_grid(count=200):
    """Cavity requests that open absorption lines (n Omega < omega0): the
    drive at a multiple of the mode spacing pi c / L, omega0 a whole or
    half multiple of Omega and N = 1-3 photons, so |n Omega - omega0| often
    lands on a mode from either side."""
    rng = np.random.default_rng(1000)
    cases = []
    for _ in range(count):
        length = 10.0 ** rng.uniform(-3.0, 0.0)
        Omega = int(rng.integers(1, 5)) * math.pi * C / length
        omega0 = 0.5 * int(rng.integers(1, 41)) * Omega
        z0 = float(rng.uniform(0.15, 0.85)) * length
        amplitude = float(rng.uniform(0.0, 0.9)) * min(z0, length - z0)
        geom = Cavity(length=length, z0=z0, n_photons=int(rng.integers(1, 4)))
        atom = AtomParams(omega0=omega0, g=10.0 ** rng.uniform(3.0, 6.0))
        cases.append((atom, ShoMotion(amplitude=amplitude, Omega=Omega),
                      geom, int(rng.integers(1, 61)), None))
    return cases


def bits(lines):
    return [(s.n, s.omega.hex(), s.rate.hex(), s.branch, s.m) for s in lines]


def outcome(fn, *args):
    """A call's result, or the type of the error it raises."""
    try:
        return fn(*args)
    except PhysicsDomainError as exc:
        return type(exc)


PAIRS = [(m, g) for m in MOTIONS for g in GEOMETRIES]


@pytest.mark.parametrize("motion_kind,geom_kind",
                         PAIRS + [("sho", "cavity-absorption")])
def test_allowed_sidebands_bit_equal(motion_kind, geom_kind):
    cases = (absorption_grid() if geom_kind == "cavity-absorption"
             else grid(motion_kind, geom_kind))
    branches = []
    for atom, motion, geom, n_max, _ in cases:
        new = outcome(allowed_sidebands, atom, motion, geom, n_max)
        old = outcome(frozen_allowed_sidebands, atom, motion, geom, n_max)
        if isinstance(old, type):
            assert new is old
        else:
            assert bits(new) == bits(old)
            branches += [line.branch for line in old]
    if geom_kind == "cavity-absorption":
        assert branches.count(ABSORB_DEEXCITE) >= 1000
        assert branches.count(EMIT_EXCITE) >= 1000


@pytest.mark.parametrize("motion_kind", ["sho", "parallel"])
@pytest.mark.parametrize("geom_kind", ["free_space", "mirror"])
def test_rate_surface_bit_equal(motion_kind, geom_kind):
    for atom, motion, geom, n_max, _ in grid(motion_kind, geom_kind):
        amplitudes = np.linspace(motion.amplitude / 5, motion.amplitude, 5)
        new = rate_surface(atom, motion, geom, amplitudes, n_max).values
        old = frozen_rate_surface(atom, motion, geom,
                                  tuple(float(a) for a in amplitudes),
                                  tuple(range(1, n_max + 1)))
        assert new.tobytes() == old.tobytes()


ORACLE_PAIRS = [pair for pair in PAIRS if pair != ("parallel", "free_space")]


@pytest.mark.parametrize("motion_kind,geom_kind", ORACLE_PAIRS)
def test_one_period_amplitude_and_rate_floor_bit_equal(
        motion_kind, geom_kind, frozen_periodic_trapezoid):
    for atom, motion, geom, n_max, n_res in grid(motion_kind, geom_kind):
        # The resonant line, and in free space and at a mirror every other
        # open one.
        ns = {n_res} if geom_kind == "cavity" else {
            n for n in range(1, n_max + 1)
            if n * motion.Omega > atom.omega0}
        for n in sorted(ns):
            omega = n * motion.Omega - atom.omega0
            result = one_period_amplitude(motion, geom, omega, atom.omega0,
                                          g=atom.g)
            old = frozen_one_period_amplitude(motion, geom, omega,
                                              atom.omega0, atom.g,
                                              frozen_periodic_trapezoid)
            if motion_kind == "sampled":
                # The inverse FFT on the trapezoid's grid replaced the
                # frozen direct sum: measured worst 5.9e-15 of the envelope
                # |f| <= 2 in the amplitude and 7.3e-12 relative in the
                # rate (a cavity line of amplitude 1.7e-5), each bound at
                # twice that.
                assert result.panels_used == old[3]
                assert abs(result.amplitude - old[0]) <= 2 * 5.9e-15 * 2.0
                assert (abs(result.rate - old[1])
                        <= 2 * 7.3e-12 * max(result.rate, old[1]))
            else:
                assert (result.amplitude, result.rate, result.error_estimate,
                        result.panels_used) == old
                assert repr(result.amplitude) == repr(old[0])
            assert (result.floor.hex()
                    == frozen_rate_floor(motion, geom, omega, atom.omega0,
                                         atom.g, 1e-6).hex())

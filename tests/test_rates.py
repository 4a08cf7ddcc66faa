"""Closed-form rate tests: frozen examples, reductions, scaling laws."""

import math
from dataclasses import replace

import numpy as np
import pytest

from accelrad import (ABSORB_DEEXCITE, EMIT_EXCITE, PARALLEL,
                      ApproximationDomainError, AtomParams, Cavity, FreeSpace,
                      GeneralPeriodicMotion, Mirror, NoSidebandError,
                      OffResonanceError, PhysicsDomainError, RotationMotion,
                      ShoMotion, Sideband, allowed_sidebands, bessel_j,
                      cavity_mode_frequency, cavity_rate, free_space_rate,
                      general_trajectory_spectrum, mirror_rate,
                      one_period_amplitude, rate_surface,
                      small_amplitude_rate)
from accelrad.constants import SPEED_OF_LIGHT as C

# Frozen from the fsum series oracle (tests/test_specfun.py):
# 8*pi*sin^2(pi/4 - pi/2)*J1(1.8412)^2 with g = 1, Omega = 1.
MIRROR_EXAMPLE_RATE = 4.2545601485968065
# 2*pi*J2(0.1)^2 with g = 1, Omega = 1.
FREE_N2_SMALL_RATE = 9.801126506580539e-06
# pi*(A*alpha)^2*Omega^3/(32 c^2) at A = 1 nm, alpha = 0.2, Omega/2pi = 10 GHz.
SMALL_AMPLITUDE_EXAMPLE = 1.0838223059911484e-05


def sho_with_a_tilde(a_tilde, Omega, omega, **kwargs):
    """SHO whose dimensionless amplitude at photon frequency omega is a_tilde."""
    return ShoMotion(amplitude=a_tilde * C / omega, Omega=Omega, **kwargs)


class TestAtomParams:
    def test_alpha_defines_coupling_exactly(self):
        atom = AtomParams(omega0=3.0e9, alpha=0.2)
        assert atom.g == 0.2 * 3.0e9

    def test_inconsistent_alpha_and_g_rejected(self):
        with pytest.raises(ValueError):
            AtomParams(omega0=1.0, g=0.3, alpha=0.2)

    def test_consistent_alpha_and_g_accepted(self):
        atom = AtomParams(omega0=2.0, g=0.5 * 2.0, alpha=0.5)
        assert atom.alpha == 0.5

    def test_requires_some_coupling(self):
        with pytest.raises(ValueError):
            AtomParams(omega0=1.0)

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan])
    def test_rejects_bad_frequency(self, omega0):
        with pytest.raises(ValueError):
            AtomParams(omega0=omega0, g=1.0)


class TestMirrorRate:
    def test_frozen_example(self):
        # g = 1, Omega = 1, omega0 = 0.5, n = 1: omega = 0.5, k*A = 1.8412,
        # k*z0 = pi/4 + 2*pi (a full sine period added so the trajectory
        # clears the mirror without changing sin^2(k z0 - pi/2)).
        atom = AtomParams(omega0=0.5, g=1.0)
        omega = 0.5
        k = omega / C
        motion = sho_with_a_tilde(1.8412, 1.0, omega)
        geom = Mirror(z0=(math.pi / 4 + 2.0 * math.pi) / k)
        line = mirror_rate(atom, motion, geom, 1)
        assert line.omega == pytest.approx(0.5)
        assert line.rate == pytest.approx(MIRROR_EXAMPLE_RATE, rel=1e-10)

    def test_zero_amplitude_gives_zero(self):
        atom = AtomParams(omega0=0.5, g=1.0)
        motion = ShoMotion(amplitude=0.0, Omega=1.0)
        for n in (1, 2, 5):
            assert mirror_rate(atom, motion, Mirror(z0=1.0), n).rate == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_field_node_kills_rate(self, n):
        atom = AtomParams(omega0=0.5, g=1.0)
        omega = n * 1.0 - 0.5
        k = omega / C
        z0 = (math.pi * n / 2) / k
        motion = ShoMotion(amplitude=min(1.0 / k, 0.5 * z0), Omega=1.0)
        assert mirror_rate(atom, motion, Mirror(z0=z0), n).rate < 1e-14

    def test_closed_channel_raises(self):
        atom = AtomParams(omega0=5.0, g=1.0)
        motion = ShoMotion(amplitude=1.0, Omega=1.0)
        with pytest.raises(NoSidebandError):
            mirror_rate(atom, motion, Mirror(z0=1e9), 3)

    def test_collision_course_rejected(self):
        atom = AtomParams(omega0=0.5, g=1.0)
        motion = ShoMotion(amplitude=2.0, Omega=1.0)
        with pytest.raises(PhysicsDomainError):
            mirror_rate(atom, motion, Mirror(z0=1.0), 1)

    def test_equals_four_sine_squared_times_free_space(self):
        atom = AtomParams(omega0=0.7, g=0.4)
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            Omega = float(rng.uniform(1.0, 3.0))
            omega = n * Omega - 0.7
            if omega <= 0:
                continue
            k = omega / C
            z_tilde = float(rng.uniform(0.5, 6.0))
            a_tilde = float(rng.uniform(0.05, 0.9 * z_tilde))
            motion = sho_with_a_tilde(a_tilde, Omega, omega)
            geom = Mirror(z0=z_tilde / k)
            ratio = 4.0 * math.sin(k * geom.z0 - math.pi * n / 2) ** 2
            assert mirror_rate(atom, motion, geom, n).rate == pytest.approx(
                ratio * free_space_rate(atom, motion, n).rate, rel=1e-12)


class TestRotationAndParallel:
    def test_axis_aligned_rotation_equals_perpendicular_sho(self):
        # delta = 0: rate must equal the perpendicular-SHO rate with A -> R.
        atom = AtomParams(omega0=0.6, g=0.9)
        for n, z_tilde, a_tilde in [(1, 2.0, 1.0), (2, 4.4, 2.2),
                                    (4, 6.0, 3.3)]:
            omega = n * 1.5 - 0.6
            k = omega / C
            geom = Mirror(z0=z_tilde / k)
            rot = RotationMotion(radius=a_tilde / k, Omega=1.5, delta=0.0)
            sho = ShoMotion(amplitude=a_tilde / k, Omega=1.5)
            assert mirror_rate(atom, rot, geom, n).rate == pytest.approx(
                mirror_rate(atom, sho, geom, n).rate, rel=1e-12)

    def test_rotation_matches_substituted_formula(self):
        atom = AtomParams(omega0=0.6, g=0.9)
        n, Omega, delta = 2, 1.5, 0.8
        omega = n * Omega - 0.6
        k = omega / C
        geom = Mirror(z0=3.0 / k)
        rot = RotationMotion(radius=1.2 / k, Omega=Omega, delta=delta)
        expected = (8.0 * math.pi * atom.g**2 / Omega
                    * math.sin(k * math.cos(delta) * geom.z0
                               - math.pi * n / 2) ** 2
                    * bessel_j(n, k * rot.radius) ** 2)
        assert mirror_rate(atom, rot, geom, n).rate == pytest.approx(
            expected, rel=1e-12)

    def test_parallel_matches_substituted_formula(self):
        atom = AtomParams(omega0=0.6, g=0.9)
        n, Omega, delta = 3, 1.2, 1.1
        omega = n * Omega - 0.6
        k = omega / C
        geom = Mirror(z0=2.4 / k)
        par = ShoMotion(amplitude=1.8 / k, Omega=Omega,
                        orientation=PARALLEL, delta=delta)
        expected = (8.0 * math.pi * atom.g**2 / Omega
                    * math.sin(k * math.cos(delta) * geom.z0
                               - math.pi * n / 2) ** 2
                    * bessel_j(n, k * math.sin(delta) * par.amplitude) ** 2)
        assert mirror_rate(atom, par, geom, n).rate == pytest.approx(
            expected, rel=1e-12)


class TestFreeSpaceRate:
    def test_peak_rate_in_units_of_g_squared_over_omega(self):
        atom = AtomParams(omega0=1.0, g=0.37)
        omega = 1.0  # n = 1 at Omega = 2
        motion = sho_with_a_tilde(1.8412, 2.0, omega)
        rate = free_space_rate(atom, motion, 1).rate
        assert rate / (atom.g**2 / motion.Omega) == pytest.approx(2.1, rel=0.02)

    def test_static_atom_emits_nothing(self):
        atom = AtomParams(omega0=1.0, g=1.0)
        motion = ShoMotion(amplitude=0.0, Omega=2.0)
        assert free_space_rate(atom, motion, 1).rate == 0.0

    def test_frozen_small_argument_example(self):
        atom = AtomParams(omega0=1.0, g=1.0)
        omega = 2 * 1.0 - 1.0
        motion = sho_with_a_tilde(0.1, 1.0, omega)
        assert free_space_rate(atom, motion, 2).rate == pytest.approx(
            FREE_N2_SMALL_RATE, rel=1e-10)

    def test_closed_channel_raises(self):
        atom = AtomParams(omega0=5.0, g=1.0)
        with pytest.raises(NoSidebandError):
            free_space_rate(atom, ShoMotion(1.0, 1.0), 2)

    def test_rates_are_non_negative(self):
        atom = AtomParams(omega0=0.3, g=0.8)
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            motion = sho_with_a_tilde(float(rng.uniform(0, 24)), 1.0,
                                      n * 1.0 - 0.3)
            line = free_space_rate(atom, motion, n)
            assert line.rate >= 0.0
            assert line.omega > 0.0


def resonant_cavity(n, m, Omega, omega_fraction, z_frac=0.3, photons=0):
    """Cavity + atom tuned so the emit branch resonates exactly at (n, m)."""
    omega = omega_fraction * n * Omega
    omega0 = n * Omega - omega
    length = math.pi * m * C / omega
    atom = AtomParams(omega0=omega0, g=1.0e3)
    geom = Cavity(length=length, z0=z_frac * length, n_photons=photons)
    return atom, geom, omega


class TestCavityRate:
    def test_photon_number_enhancement_is_exact(self):
        Omega = 2.0e9
        atom, geom0, omega = resonant_cavity(2, 3, Omega, 0.6)
        motion = ShoMotion(amplitude=0.05 * geom0.length, Omega=Omega)
        geom3 = Cavity(length=geom0.length, z0=geom0.z0, n_photons=3)
        r0 = cavity_rate(atom, motion, geom0, 2, 3, EMIT_EXCITE).rate
        r3 = cavity_rate(atom, motion, geom3, 2, 3, EMIT_EXCITE).rate
        assert r3 / r0 == 4.0

    def test_no_photon_to_absorb(self):
        # absorb branch: n*Omega = omega0 - omega; chi- = N = 0.
        Omega = 1.0e9
        n, m = 2, 3
        omega = 1.5 * n * Omega
        omega0 = n * Omega + omega
        length = math.pi * m * C / omega
        atom = AtomParams(omega0=omega0, g=1.0e3)
        geom = Cavity(length=length, z0=0.3 * length, n_photons=0)
        motion = ShoMotion(amplitude=0.05 * length, Omega=Omega)
        line = cavity_rate(atom, motion, geom, n, m, ABSORB_DEEXCITE)
        assert line.rate == 0.0
        assert line.branch == ABSORB_DEEXCITE

    def test_absorb_branch_rate_linear_in_photon_number(self):
        Omega = 1.0e9
        n, m = 2, 3
        omega = 1.5 * n * Omega
        omega0 = n * Omega + omega
        length = math.pi * m * C / omega
        atom = AtomParams(omega0=omega0, g=1.0e3)
        motion = ShoMotion(amplitude=0.05 * length, Omega=Omega)
        rates = [cavity_rate(atom, motion,
                             Cavity(length=length, z0=0.3 * length,
                                    n_photons=N),
                             n, m, ABSORB_DEEXCITE).rate
                 for N in range(4)]
        assert rates[0] == 0.0
        for N in (2, 3):
            assert rates[N] == pytest.approx(N * rates[1], rel=1e-12)

    def test_emit_branch_rate_affine_in_photon_number(self):
        Omega = 2.0e9
        atom, geom, _ = resonant_cavity(2, 3, Omega, 0.6)
        motion = ShoMotion(amplitude=0.05 * geom.length, Omega=Omega)
        rates = [cavity_rate(atom, motion,
                             Cavity(length=geom.length, z0=geom.z0,
                                    n_photons=N),
                             2, 3, EMIT_EXCITE).rate for N in range(5)]
        slope = rates[1] - rates[0]
        assert slope == pytest.approx(rates[0], rel=1e-12)
        for N in range(5):
            assert rates[N] == pytest.approx((N + 1) * rates[0], rel=1e-12)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2)])
    def test_antinode_parity_zeros(self, n, m):
        # z0/L = n/(2m) puts the sine factor on a zero.
        Omega = 2.0e9
        atom, geom, omega = resonant_cavity(n, m, Omega, 0.5,
                                            z_frac=n / (2.0 * m))
        motion = ShoMotion(amplitude=0.01 * geom.z0, Omega=Omega)
        base = 8.0 * math.pi * atom.g**2 / Omega
        assert cavity_rate(atom, motion, geom, n, m).rate / base < 1e-28

    def test_off_resonance_reports_mismatch(self):
        Omega = 2.0e9
        atom, geom, _ = resonant_cavity(2, 3, Omega, 0.6)
        motion = ShoMotion(amplitude=0.05 * geom.length, Omega=Omega)
        with pytest.raises(OffResonanceError) as excinfo:
            cavity_rate(atom, motion, geom, 2, 4, EMIT_EXCITE)
        assert abs(excinfo.value.mismatch) > 0.0

    def test_atom_must_sit_inside_cavity(self):
        with pytest.raises(ValueError):
            Cavity(length=1.0, z0=1.5)
        with pytest.raises(ValueError):
            Cavity(length=1.0, z0=0.5, n_photons=-1)


class TestSideband:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_rate(self, bad):
        with pytest.raises(ValueError):
            Sideband(n=1, omega=1.0, rate=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_omega(self, bad):
        with pytest.raises(ValueError):
            Sideband(n=1, omega=bad, rate=1.0)

    def test_accepts_zero_rate(self):
        assert Sideband(n=1, omega=1.0, rate=0.0).rate == 0.0


class TestAllowedSidebands:
    def test_closed_channels_yield_empty_list(self):
        atom = AtomParams(omega0=10.0, g=1.0)
        motion = ShoMotion(amplitude=1.0, Omega=1.0)
        assert allowed_sidebands(atom, motion, FreeSpace(), 5) == []

    def test_free_space_odd_harmonic_ladder(self):
        # Omega = 2 omega0: photon frequencies omega0 * {1, 3, 5, ...}.
        atom = AtomParams(omega0=1.0, g=1.0)
        motion = ShoMotion(amplitude=0.01, Omega=2.0)
        lines = allowed_sidebands(atom, motion, FreeSpace(), 3)
        assert [line.n for line in lines] == [1, 2, 3]
        assert [line.omega for line in lines] == pytest.approx([1.0, 3.0, 5.0])

    def test_cavity_scan_finds_single_constructed_pair(self):
        Omega = 2.0e9
        atom, geom, _ = resonant_cavity(2, 1, Omega, 0.55)
        motion = ShoMotion(amplitude=0.04 * geom.length, Omega=Omega)
        lines = allowed_sidebands(atom, motion, geom, 6)
        assert [(line.n, line.m, line.branch) for line in lines] == [
            (2, 1, EMIT_EXCITE)]

    def test_general_motion_is_directed_to_the_oracle(self):
        atom = AtomParams(omega0=1.0, g=1.0)
        motion = GeneralPeriodicMotion(Omega=2.0, samples=tuple([0.0] * 16))
        with pytest.raises(PhysicsDomainError):
            allowed_sidebands(atom, motion, FreeSpace(), 3)


class TestMotionGeometryProtocol:
    """The facts each motion and geometry type declares once."""

    def test_extent_toward_the_boundary(self):
        samples = tuple(0.5 * math.sin(2 * math.pi * j / 16) - 0.25
                        for j in range(16))
        assert ShoMotion(2.0, 1.0).extent == 2.0
        assert ShoMotion(2.0, 1.0, orientation=PARALLEL).extent == 0.0
        assert RotationMotion(radius=3.0, Omega=1.0).extent == 3.0
        sampled = GeneralPeriodicMotion(Omega=1.0, samples=samples)
        phi = sampled.phase(1.0)[0]
        dense = float(np.max(np.abs(phi(np.linspace(0.0, 2 * math.pi,
                                                     20001)))))
        assert sampled.extent >= max(max(abs(z) for z in samples), dense)
        assert sampled.extent <= 1.01 * dense

    def test_extent_of_a_trajectory_that_overshoots_its_samples(self):
        # 64 samples of a +-1 mm square wave, 0 at the two jumps: the
        # interpolant the oracle integrates reaches 1.0655 mm between them.
        samples = (0.0,) + (1e-3,) * 31 + (0.0,) + (-1e-3,) * 31
        motion = GeneralPeriodicMotion(Omega=2 * math.pi * 1e9,
                                       samples=samples)
        dense = np.abs(motion.phase(1.0)[0](
            np.linspace(0.0, 2 * math.pi, 200001)))
        assert float(np.max(dense)) == pytest.approx(1.0655e-3, abs=1e-7)
        assert float(np.max(dense)) <= motion.extent < 1.08e-3
        atom = AtomParams(omega0=2 * math.pi * 0.5e9, g=1e6)
        with pytest.raises(PhysicsDomainError, match="reaches the boundary"):
            general_trajectory_spectrum(atom, motion, Mirror(z0=1.05e-3), 5)
        assert len(general_trajectory_spectrum(atom, motion,
                                               Mirror(z0=1.1e-3), 5)) == 5

    def test_projection(self):
        k, delta = 3.0, 0.7
        sho = ShoMotion(1.0, 1.0, delta=delta)
        assert sho.project(k) == (k, k)
        assert replace(sho, orientation=PARALLEL).project(k) == (
            k * math.sin(delta), k * math.cos(delta))
        assert RotationMotion(1.0, 1.0, delta=delta).project(k) == (
            k, k * math.cos(delta))
        sampled = GeneralPeriodicMotion(Omega=1.0, samples=(0.0,) * 16)
        assert sampled.project(k) == (k, k)

    def test_clearance(self):
        assert FreeSpace().clearance == math.inf
        assert Mirror(z0=2.0).clearance == 2.0
        assert Cavity(length=5.0, z0=3.5).clearance == 5.0 - 3.5
        assert Cavity(length=5.0, z0=1.5).clearance == 1.5

    def test_mode_index(self):
        geom = Cavity(length=1.0, z0=0.5)
        assert geom.mode_index(3.0 * math.pi * C) == 3
        assert geom.mode_index(3.4 * math.pi * C) == 3
        assert geom.mode_index(0.4 * math.pi * C) is None
        assert geom.mode_index(-2.0 * math.pi * C) is None

    def test_field_mode_of_a_cavity_needs_a_mode_match(self):
        geom = Cavity(length=1.0, z0=0.5, n_photons=2)
        omega = cavity_mode_frequency(geom, 3)
        assert geom.field_mode(omega) == (3.0 * math.pi, 0.5, 3.0, omega)
        assert geom.field_mode(0.4 * math.pi * C) is None  # below mode 1
        assert Mirror(z0=2.0).field_mode(C) == (1.0, 2.0, 1.0, C)
        assert FreeSpace().field_mode(C) == (1.0, None, 1.0, C)
        # The field mode only names the nearest mode; the resonance rule
        # holds both the photon and that mode's own frequency to
        # n Omega = omega + omega0, so a photon a millionth off the mode is
        # refused whether Omega is tuned to the mode or to the photon.
        omega0 = 0.5 * omega
        motion = ShoMotion(amplitude=0.01, Omega=omega + omega0)
        assert one_period_amplitude(motion, geom, omega, omega0).panels_used
        off = omega * (1.0 + 1e-6)
        for drive in (motion, replace(motion, Omega=off + omega0)):
            with pytest.raises(PhysicsDomainError):
                one_period_amplitude(drive, geom, off, omega0)


class TestClearance:
    """A trajectory that reaches its boundary is rejected before any line,
    with one message on every route (tests/test_cli.py holds the requests
    that open no line to it)."""

    def test_parallel_motion_never_reaches_the_mirror(self):
        atom = AtomParams(omega0=0.5, g=1.0)
        motion = ShoMotion(amplitude=2.0, Omega=1.0, orientation=PARALLEL,
                           delta=0.3)
        assert len(allowed_sidebands(atom, motion, Mirror(z0=1.0), 3)) == 3

    @pytest.mark.parametrize("motion", [
        ShoMotion(amplitude=2.0, Omega=1.0),
        RotationMotion(radius=2.0, Omega=1.0),
        GeneralPeriodicMotion(Omega=1.0, samples=tuple(
            2.0 * math.sin(2 * math.pi * j / 16) for j in range(16)))])
    @pytest.mark.parametrize("geom", [Mirror(z0=1.0),
                                      Cavity(length=3.0, z0=1.0)])
    def test_one_message_for_both_routes(self, motion, geom):
        atom = AtomParams(omega0=0.5, g=1.0)
        if isinstance(motion, GeneralPeriodicMotion):
            routes = [lambda: general_trajectory_spectrum(atom, motion, geom,
                                                          3)]
        else:
            routes = [lambda: allowed_sidebands(atom, motion, geom, 3)]
        if isinstance(geom, Mirror):
            # n = 1 at omega = 0.5 is a line of the mirror, not the cavity.
            routes.append(lambda: one_period_amplitude(motion, geom, 0.5,
                                                       0.5))
            if isinstance(motion, ShoMotion):
                routes.append(lambda: rate_surface(
                    atom, motion, geom, [motion.amplitude], 1))
        for route in routes:
            with pytest.raises(PhysicsDomainError) as info:
                route()
            assert str(info.value) == (
                f"motion extent {motion.extent:g} m reaches the boundary "
                f"(clearance "
                f"{geom.clearance:g} m); require extent < clearance")


class TestSmallAmplitudeRate:
    def test_zero_amplitude(self):
        atom = AtomParams(omega0=1.0e10, alpha=0.2)
        motion = ShoMotion(amplitude=0.0, Omega=2.0e10)
        assert small_amplitude_rate(atom, motion) == 0.0

    def test_frozen_cqed_example(self):
        Omega = 2.0 * math.pi * 1.0e10
        atom = AtomParams(omega0=0.5 * Omega, alpha=0.2)
        motion = ShoMotion(amplitude=1.0e-9, Omega=Omega)
        assert small_amplitude_rate(atom, motion) == pytest.approx(
            SMALL_AMPLITUDE_EXAMPLE, rel=1e-12)

    def test_quadratic_in_amplitude(self):
        Omega = 2.0 * math.pi * 1.0e10
        atom = AtomParams(omega0=0.5 * Omega, alpha=0.3)
        one = small_amplitude_rate(atom, ShoMotion(1.0e-9, Omega))
        two = small_amplitude_rate(atom, ShoMotion(2.0e-9, Omega))
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_matches_exact_bessel_formula_for_small_argument(self):
        Omega = 4.0
        atom = AtomParams(omega0=2.0, alpha=0.25)
        for a_tilde in (0.001, 0.01, 0.04):
            motion = ShoMotion(amplitude=a_tilde * C / 2.0, Omega=Omega)
            approx = small_amplitude_rate(atom, motion)
            exact = free_space_rate(atom, motion, 1).rate
            assert abs(approx - exact) / exact < 1e-2

    def test_outside_validity_domain(self):
        Omega = 4.0
        atom = AtomParams(omega0=2.0, alpha=0.25)
        motion = ShoMotion(amplitude=0.2 * C / 2.0, Omega=Omega)
        with pytest.raises(ApproximationDomainError):
            small_amplitude_rate(atom, motion)

    def test_requires_half_drive_tuning(self):
        atom = AtomParams(omega0=1.0, alpha=0.25)
        with pytest.raises(PhysicsDomainError):
            small_amplitude_rate(atom, ShoMotion(1.0e-9, 3.0))

    def test_requires_alpha(self):
        atom = AtomParams(omega0=2.0, g=0.5)
        with pytest.raises(ValueError):
            small_amplitude_rate(atom, ShoMotion(1.0e-9, 4.0))


def test_speed_of_light_value():
    assert C == 2.99792458e8


class TestMotionValidation:
    def test_sho_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            ShoMotion(amplitude=-1.0, Omega=1.0)

    def test_sho_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            ShoMotion(amplitude=1.0, Omega=1.0, orientation="diagonal")

    def test_general_needs_sixteen_samples(self):
        with pytest.raises(ValueError):
            GeneralPeriodicMotion(Omega=1.0, samples=(0.0,) * 15)

    def test_mirror_needs_positive_offset(self):
        with pytest.raises(ValueError):
            Mirror(z0=0.0)

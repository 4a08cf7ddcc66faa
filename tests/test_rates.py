"""Closed-form rate tests: frozen examples, reductions, scaling laws."""

import math
import pathlib
import random
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import accelrad.rates
from accelrad import (ABSORB_DEEXCITE, EMIT_EXCITE, PARALLEL, RESONANCE_TOL,
                      AtomParams, Cavity, FreeSpace, GeneralPeriodicMotion,
                      Mirror, PhysicsDomainError, RotationMotion, ShoMotion,
                      Sideband, allowed_sidebands, bessel_j,
                      general_trajectory_spectrum, one_period_amplitude,
                      rate_surface)
from accelrad.cli import parse_config
from accelrad.constants import SPEED_OF_LIGHT as C

# Frozen from the fsum series oracle (tests/test_specfun.py):
# 8*pi*sin^2(pi/4 - pi/2)*J1(1.8412)^2 with g = 1, Omega = 1.
MIRROR_EXAMPLE_RATE = 4.2545601485968065
# 2*pi*J2(0.1)^2 with g = 1, Omega = 1.
FREE_N2_SMALL_RATE = 9.801126506580539e-06


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
        line = geom.sideband(atom, motion, 1)
        assert line.omega == pytest.approx(0.5)
        assert line.rate == pytest.approx(MIRROR_EXAMPLE_RATE, rel=1e-10)

    def test_zero_amplitude_gives_zero(self):
        atom = AtomParams(omega0=0.5, g=1.0)
        motion = ShoMotion(amplitude=0.0, Omega=1.0)
        for n in (1, 2, 5):
            assert Mirror(z0=1.0).sideband(atom, motion, n).rate == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_field_node_kills_rate(self, n):
        atom = AtomParams(omega0=0.5, g=1.0)
        omega = n * 1.0 - 0.5
        k = omega / C
        z0 = (math.pi * n / 2) / k
        motion = ShoMotion(amplitude=min(1.0 / k, 0.5 * z0), Omega=1.0)
        assert Mirror(z0=z0).sideband(atom, motion, n).rate < 1e-14

    def test_closed_channel_has_no_line(self):
        atom = AtomParams(omega0=5.0, g=1.0)
        motion = ShoMotion(amplitude=1.0, Omega=1.0)
        assert Mirror(z0=1e9).sideband(atom, motion, 3) is None

    def test_collision_course_rejected(self):
        atom = AtomParams(omega0=0.5, g=1.0)
        motion = ShoMotion(amplitude=2.0, Omega=1.0)
        with pytest.raises(PhysicsDomainError):
            allowed_sidebands(atom, motion, Mirror(z0=1.0), 1)

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
            free = FreeSpace().sideband(atom, motion, n)
            assert geom.sideband(atom, motion, n).rate == pytest.approx(
                ratio * free.rate, rel=1e-12)


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
            assert geom.sideband(atom, rot, n).rate == pytest.approx(
                geom.sideband(atom, sho, n).rate, rel=1e-12)

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
        assert geom.sideband(atom, rot, n).rate == pytest.approx(
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
        assert geom.sideband(atom, par, n).rate == pytest.approx(
            expected, rel=1e-12)


class TestFreeSpaceRate:
    def test_peak_rate_in_units_of_g_squared_over_omega(self):
        atom = AtomParams(omega0=1.0, g=0.37)
        omega = 1.0  # n = 1 at Omega = 2
        motion = sho_with_a_tilde(1.8412, 2.0, omega)
        rate = FreeSpace().sideband(atom, motion, 1).rate
        assert rate / (atom.g**2 / motion.Omega) == pytest.approx(2.1, rel=0.02)

    def test_static_atom_emits_nothing(self):
        atom = AtomParams(omega0=1.0, g=1.0)
        motion = ShoMotion(amplitude=0.0, Omega=2.0)
        assert FreeSpace().sideband(atom, motion, 1).rate == 0.0

    def test_frozen_small_argument_example(self):
        atom = AtomParams(omega0=1.0, g=1.0)
        omega = 2 * 1.0 - 1.0
        motion = sho_with_a_tilde(0.1, 1.0, omega)
        line = FreeSpace().sideband(atom, motion, 2)
        assert line.rate == pytest.approx(FREE_N2_SMALL_RATE, rel=1e-10)

    def test_closed_channel_has_no_line(self):
        atom = AtomParams(omega0=5.0, g=1.0)
        assert FreeSpace().sideband(atom, ShoMotion(1.0, 1.0), 2) is None

    def test_rates_are_non_negative(self):
        atom = AtomParams(omega0=0.3, g=0.8)
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            motion = sho_with_a_tilde(float(rng.uniform(0, 24)), 1.0,
                                      n * 1.0 - 0.3)
            line = FreeSpace().sideband(atom, motion, n)
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
    def test_photon_number_enhancement_is_exact(self, cavity_line):
        Omega = 2.0e9
        atom, geom0, omega = resonant_cavity(2, 3, Omega, 0.6)
        motion = ShoMotion(amplitude=0.05 * geom0.length, Omega=Omega)
        geom3 = Cavity(length=geom0.length, z0=geom0.z0, n_photons=3)
        r0 = cavity_line(atom, motion, geom0, 2, 3, EMIT_EXCITE).rate
        r3 = cavity_line(atom, motion, geom3, 2, 3, EMIT_EXCITE).rate
        assert r3 / r0 == 4.0

    def test_no_photon_to_absorb(self, cavity_line):
        # absorb branch: n*Omega = omega0 - omega; chi- = N = 0.
        Omega = 1.0e9
        n, m = 2, 3
        omega = 1.5 * n * Omega
        omega0 = n * Omega + omega
        length = math.pi * m * C / omega
        atom = AtomParams(omega0=omega0, g=1.0e3)
        geom = Cavity(length=length, z0=0.3 * length, n_photons=0)
        motion = ShoMotion(amplitude=0.05 * length, Omega=Omega)
        line = cavity_line(atom, motion, geom, n, m, ABSORB_DEEXCITE)
        assert line.rate == 0.0
        assert line.branch == ABSORB_DEEXCITE

    def test_absorb_branch_rate_linear_in_photon_number(self, cavity_line):
        Omega = 1.0e9
        n, m = 2, 3
        omega = 1.5 * n * Omega
        omega0 = n * Omega + omega
        length = math.pi * m * C / omega
        atom = AtomParams(omega0=omega0, g=1.0e3)
        motion = ShoMotion(amplitude=0.05 * length, Omega=Omega)
        rates = [cavity_line(atom, motion,
                             Cavity(length=length, z0=0.3 * length,
                                    n_photons=N),
                             n, m, ABSORB_DEEXCITE).rate
                 for N in range(4)]
        assert rates[0] == 0.0
        for N in (2, 3):
            assert rates[N] == pytest.approx(N * rates[1], rel=1e-12)

    def test_emit_branch_rate_affine_in_photon_number(self, cavity_line):
        Omega = 2.0e9
        atom, geom, _ = resonant_cavity(2, 3, Omega, 0.6)
        motion = ShoMotion(amplitude=0.05 * geom.length, Omega=Omega)
        rates = [cavity_line(atom, motion,
                             Cavity(length=geom.length, z0=geom.z0,
                                    n_photons=N),
                             2, 3, EMIT_EXCITE).rate for N in range(5)]
        slope = rates[1] - rates[0]
        assert slope == pytest.approx(rates[0], rel=1e-12)
        for N in range(5):
            assert rates[N] == pytest.approx((N + 1) * rates[0], rel=1e-12)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2)])
    def test_antinode_parity_zeros(self, n, m, cavity_line):
        # z0/L = n/(2m) puts the sine factor on a zero.
        Omega = 2.0e9
        atom, geom, omega = resonant_cavity(n, m, Omega, 0.5,
                                            z_frac=n / (2.0 * m))
        motion = ShoMotion(amplitude=0.01 * geom.z0, Omega=Omega)
        base = 8.0 * math.pi * atom.g**2 / Omega
        assert cavity_line(atom, motion, geom, n, m).rate / base < 1e-28

    def test_off_resonance_has_no_line(self, cavity_line):
        Omega = 2.0e9
        atom, geom, _ = resonant_cavity(2, 3, Omega, 0.6)
        motion = ShoMotion(amplitude=0.05 * geom.length, Omega=Omega)
        assert cavity_line(atom, motion, geom, 2, 3, EMIT_EXCITE) is not None
        assert cavity_line(atom, motion, geom, 2, 4, EMIT_EXCITE) is None

    def test_atom_must_sit_inside_cavity(self):
        with pytest.raises(ValueError):
            Cavity(length=1.0, z0=1.5)
        with pytest.raises(ValueError):
            Cavity(length=1.0, z0=0.5, n_photons=-1)

    @pytest.mark.parametrize("n_photons", [2.5, math.inf, math.nan])
    def test_photon_count_must_be_a_whole_number(self, n_photons):
        with pytest.raises(PhysicsDomainError, match="n_photons"):
            Cavity(length=1.0, z0=0.5, n_photons=n_photons)


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


_DRIVE = 2 * math.pi * 1e10
_CAVITY_ATOM, _CAVITY, _ = resonant_cavity(2, 3, 2.0e9, 0.6)
#: One request with open lines at n_max = 40 per closed-form pair.
CHECKED_REQUESTS = [
    pytest.param(AtomParams(omega0=2 * math.pi * 2.5e10, g=1e6), motion,
                 geom, id=f"{geom_id}-{motion_id}")
    for geom_id, geom in (("free_space", FreeSpace()),
                          ("mirror", Mirror(z0=0.05)))
    for motion_id, motion in (
        ("sho", ShoMotion(amplitude=0.01, Omega=_DRIVE)),
        ("parallel", ShoMotion(amplitude=0.01, Omega=_DRIVE,
                               orientation=PARALLEL, delta=0.6)),
        ("rotation", RotationMotion(radius=0.01, Omega=_DRIVE, delta=0.6)))
] + [pytest.param(_CAVITY_ATOM,
                  ShoMotion(amplitude=0.05 * _CAVITY.length, Omega=2.0e9),
                  _CAVITY, id="cavity-sho")]


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

    @pytest.mark.parametrize("atom,motion,geom", CHECKED_REQUESTS)
    def test_request_checks_run_once(self, monkeypatch, atom, motion, geom):
        # allowed_sidebands checks the pair and the clearance once for the
        # request; no line checks them again.
        calls = []

        def counted(check):
            def call(*args):
                calls.append(check.__name__)
                return check(*args)
            return call

        for name in ("check_clearance", "check_closed_form"):
            monkeypatch.setattr(accelrad.rates, name,
                                counted(getattr(accelrad.rates, name)))
        assert allowed_sidebands(atom, motion, geom, 40)
        assert sorted(calls) == ["check_clearance", "check_closed_form"]

    def test_general_motion_is_directed_to_the_oracle(self):
        atom = AtomParams(omega0=1.0, g=1.0)
        motion = GeneralPeriodicMotion(Omega=2.0, samples=tuple([0.0] * 16))
        with pytest.raises(PhysicsDomainError):
            allowed_sidebands(atom, motion, FreeSpace(), 3)


def speed_draws(seed, count):
    """Seeded ``(atom, motion, geom)`` requests of every closed-form pair,
    at peak speeds Omega A / c from 1e-8 to 10."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        Omega = 2.0 * math.pi * 10.0 ** rng.uniform(8.0, 11.0)
        amplitude = 10.0 ** rng.uniform(-8.0, 1.0) * C / Omega
        delta = rng.uniform(-math.pi, math.pi)
        atom = AtomParams(omega0=Omega * 10.0 ** rng.uniform(-2.0, 1.0),
                          g=1.0e3)
        motion = (ShoMotion(amplitude=amplitude, Omega=Omega),
                  ShoMotion(amplitude=amplitude, Omega=Omega,
                            orientation=PARALLEL, delta=delta),
                  RotationMotion(radius=amplitude, Omega=Omega,
                                 delta=delta))[i % 3]
        kind = ("free_space", "mirror", "cavity")[i // 3 % 3]
        if kind == "free_space":
            geom = FreeSpace()
        elif kind == "mirror":
            geom = Mirror(z0=amplitude * 10.0 ** rng.uniform(0.01, 2.0))
        else:  # one resonant (n, m) pair, SHO along the axis
            atom, geom, _ = resonant_cavity(
                rng.randint(1, 30), rng.randint(1, 30), Omega,
                rng.uniform(0.05, 0.95), z_frac=rng.uniform(0.2, 0.8))
            motion = ShoMotion(amplitude=rng.uniform(0.01, 0.99)
                               * geom.clearance, Omega=Omega)
        draws.append((atom, motion, geom))
    return draws


class TestEmissionArgumentBelowSpeedLine:
    """The Bessel argument of every emission line is
    x = k_motion A < n Omega A / c, so x >= n needs a peak speed Omega A
    above c."""

    def test_seeded_draws_of_every_pair(self, monkeypatch):
        arguments = {}

        def recorded(n, x):
            arguments[n] = x
            return bessel_j(n, x)

        monkeypatch.setattr(accelrad.rates, "bessel_j", recorded)
        checked = set()
        band = 0  # lines at x >= n, all of them faster than light
        for atom, motion, geom in speed_draws(17, 180):
            arguments.clear()
            Omega, amplitude = motion.Omega, motion.amplitude
            for line in allowed_sidebands(atom, motion, geom, 40):
                if line.branch != EMIT_EXCITE:
                    continue
                x = abs(arguments[line.n])
                if isinstance(geom, Cavity):
                    # k = pi m / L meets (n Omega - omega0) / c only to
                    # RESONANCE_TOL * Omega.
                    assert x <= ((line.n * Omega - atom.omega0
                                  + RESONANCE_TOL * Omega) * amplitude / C)
                assert x < line.n * Omega * amplitude / C
                if x >= line.n:
                    assert Omega * amplitude > C
                    band += 1
                checked.add((type(geom), type(motion),
                             getattr(motion, "orientation", None)))
        assert len(checked) == 7, checked  # every closed-form pair
        assert band > 0


class TestMotionGeometryProtocol:
    """The facts each motion and geometry type declares once."""

    def test_extent_toward_the_boundary(self):
        samples = tuple(0.5 * math.sin(2 * math.pi * j / 16) - 0.25
                        for j in range(16))
        assert ShoMotion(2.0, 1.0).extent == 2.0
        assert ShoMotion(2.0, 1.0, orientation=PARALLEL).extent == 0.0
        assert RotationMotion(radius=3.0, Omega=1.0).extent == 3.0
        sampled = GeneralPeriodicMotion(Omega=1.0, samples=samples)
        dense = float(np.max(np.abs(direct_sum(
            sampled, np.linspace(0.0, 2 * math.pi, 20001)))))
        assert sampled.extent >= max(max(abs(z) for z in samples), dense)
        assert sampled.extent <= 1.01 * dense

    def test_extent_of_a_trajectory_that_overshoots_its_samples(self):
        # 64 samples of a +-1 mm square wave, 0 at the two jumps: the
        # interpolant the oracle integrates reaches 1.0655 mm between them.
        samples = (0.0,) + (1e-3,) * 31 + (0.0,) + (-1e-3,) * 31
        motion = GeneralPeriodicMotion(Omega=2 * math.pi * 1e9,
                                       samples=samples)
        dense = np.abs(direct_sum(motion,
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

    def test_cavity_field_mode_index(self):
        # The mode comes from |eps|: an absorbed photon (eps < 0) fills the
        # same mode as an emitted one of the same frequency.
        geom = Cavity(length=1.0, z0=0.5)
        for turns, m in ((3.0, 3), (3.4, 3), (0.4, None), (0.0, None)):
            omega = turns * math.pi * C
            for eps in (omega, -omega):
                field = geom.field_mode(eps)
                assert (None if field is None else field[4]) == m

    def test_field_mode_of_a_cavity_needs_a_mode_match(self):
        geom = Cavity(length=1.0, z0=0.5, n_photons=2)
        omega = geom.mode_frequency(3)
        assert geom.field_mode(omega) == (3.0 * math.pi, 0.5, 3.0, omega, 3)
        assert geom.field_mode(-omega) == (3.0 * math.pi, 0.5, 2.0, omega, 3)
        assert geom.field_mode(0.4 * math.pi * C) is None
        assert Mirror(z0=2.0).field_mode(C) == (1.0, 2.0, 1.0, C, None)
        assert FreeSpace().field_mode(C) == (1.0, None, 1.0, C, None)
        # A continuum holds no photon to absorb.
        for eps in (-C, 0.0):
            assert Mirror(z0=2.0).field_mode(eps) is None
            assert FreeSpace().field_mode(eps) is None
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


def direct_sum(motion, tau):
    """z(tau) = Re sum_h c_h exp(i h tau) of a sampled motion, summed one
    harmonic at a time at each abscissa, on any grid."""
    coef, freqs, _ = motion._fourier
    return sum((c * np.exp(1j * h * tau)).real for c, h in zip(coef, freqs))


class TestSampledPhaseOnItsGrid:
    """``GeneralPeriodicMotion.phase`` evaluates z on the full-period
    uniform grid it is given by one inverse FFT of the grid's own length,
    folding harmonics that collide modulo the node count."""

    @pytest.mark.parametrize("m", [16, 17, 33, 100, 1024, 40000])
    def test_fft_equals_the_direct_sum(self, m):
        # The reference sums Re c_h exp(i h tau_j) at the grid's intended
        # nodes tau_j = tau_0 + 2 pi j / N: exp(2 pi i h j / N) from the
        # integer (h j) mod N, exp(i h tau_0) in long double, so that its
        # own rounding stays well below the gate (rounding the nodes to
        # float64 alone moves a 40000-harmonic sum by about 1e-13).
        rng = np.random.default_rng(m)
        k = 2.5
        for _ in range(3):
            motion = GeneralPeriodicMotion(
                Omega=1.0, samples=tuple(rng.normal(size=m)))
            coef, freqs, _ = motion._fourier
            h = freqs.astype(int)
            phi = motion.phase(k)[0]
            scale = k * float(np.sum(np.abs(coef)))
            # Below M (harmonics fold), at it, above it, and the doubled
            # grid of a k A = 300 line.
            for nodes in (2, 9, m - 1, m, m + 1, 2 * m + 3, 2 * 1384):
                for start in (-math.pi, -math.pi + math.pi / nodes):
                    got = phi(start + (2 * math.pi / nodes)
                              * np.arange(nodes))
                    at = np.arange(0, nodes, max(1, nodes // 40))
                    turn = np.exp(2j * math.pi * (np.multiply.outer(at, h)
                                                  % nodes) / nodes)
                    shift = h * np.longdouble(start)
                    shifted = coef * (np.cos(shift)
                                      + 1j * np.sin(shift)).astype(complex)
                    direct = k * (turn @ shifted).real
                    assert (np.max(np.abs(got[at] - direct))
                            <= 1e-13 * scale), (nodes, start)

    @staticmethod
    def _extent_draws():
        rng = np.random.default_rng(35)
        for m in [16, 17, 31, 64, 100, 1024, 4096] * 5:
            z = rng.normal(size=m) * 10.0 ** rng.uniform(-9.0, 3.0)
            yield GeneralPeriodicMotion(Omega=1.0, samples=tuple(z))

    @staticmethod
    def _zero_padded(motion, nodes):
        """z on the nodes-point grid from 0, by one zero-padded FFT."""
        coef, freqs, _ = motion._fourier
        padded = np.zeros(nodes, dtype=complex)
        padded[freqs.astype(int)] = coef
        return (nodes * np.fft.ifft(padded)).real

    def test_extent_stays_at_the_zero_padded_grid(self):
        # Frozen: max |z| on the 64 M-point grid from 0 by one zero-padded
        # FFT, as extent took it before it went through 64 shifted M-point
        # grids.  Rounding alone moves it: 9 of these 35 motions differ, by
        # at most 2.37e-16 relative; the gate is twice that.
        for motion in self._extent_draws():
            nodes = 64 * len(motion.samples)
            frozen = (float(np.max(np.abs(self._zero_padded(motion, nodes))))
                      + math.pi / nodes * motion._fourier[2])
            assert abs(motion.extent - frozen) <= 4.7e-16 * frozen

    def test_extent_bounds_z_on_a_four_times_finer_grid(self):
        for motion in self._extent_draws():
            dense = self._zero_padded(motion, 256 * len(motion.samples))
            assert float(np.max(np.abs(dense))) <= motion.extent

    def test_extent_of_16384_samples_stays_under_4_mib(self):
        # One 64 M-point grid held 32 MiB here.
        motion = GeneralPeriodicMotion(Omega=1.0, samples=tuple(
            np.random.default_rng(16384).normal(size=16384)))
        assert motion._fourier[2] > 0.0  # the coefficients, outside the count
        tracemalloc.start()
        try:
            assert motion.extent > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("tau", [
        np.linspace(0.0, 2 * math.pi, 129),
        np.random.default_rng(0).uniform(-math.pi, math.pi, 128),
        np.array([0.0]), np.array([])], ids=["endpoint", "random", "one",
                                              "empty"])
    def test_phi_refuses_any_other_grid(self, tau):
        motion = GeneralPeriodicMotion(Omega=1.0, samples=tuple(
            math.sin(2 * math.pi * j / 32) for j in range(32)))
        with pytest.raises(ValueError, match=r"tau\[0\] \+ 2 pi j / N"):
            motion.phase(1.0)[0](tau)

    def test_one_line_of_1024_samples_stays_under_8_mb(self):
        # k A = 300 at n = 5 starts the trapezoid at 1384 nodes and calls
        # the integrand once on 2768: the whole matrix held 43 MB, twice
        # that on the doubled grid.
        omega0, Omega, n = 2 * math.pi * 0.5e9, 2 * math.pi * 1e9, 5
        omega = n * Omega - omega0
        amplitude = 300.0 * C / omega
        samples = tuple(amplitude * math.sin(2 * math.pi * j / 1024)
                        for j in range(1024))
        motion = GeneralPeriodicMotion(Omega=Omega, samples=samples)
        tracemalloc.start()
        try:
            result = one_period_amplitude(motion, FreeSpace(), omega, omega0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert result.panels_used == 2 * 4 * (n + 300 + 1 + 40)

    @pytest.mark.parametrize("m", [1024, 16384])
    def test_one_line_stays_under_4_mb_at_any_sample_count(self, m):
        # The k A = 300 line above, at 1024 and 16384 samples.
        omega0, Omega, n = 2 * math.pi * 0.5e9, 2 * math.pi * 1e9, 5
        omega = n * Omega - omega0
        amplitude = 300.0 * C / omega
        motion = GeneralPeriodicMotion(Omega=Omega, samples=tuple(
            amplitude * math.sin(2 * math.pi * j / m) for j in range(m)))
        assert motion.extent > 0.0  # cached before the count
        tracemalloc.start()
        try:
            result = one_period_amplitude(motion, FreeSpace(), omega, omega0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert result.rate == pytest.approx(
            2 * math.pi / motion.Omega * bessel_j(5, 300.0)**2, rel=1e-9)


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


def test_readme_quick_start_runs(capsys):
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split()[0] for line in
               capsys.readouterr().out.splitlines()]
    assert printed == ["1", "1", "2", "3"]


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


class TestNeglectedTimeDilation:
    """README "Physics conventions": the lab-time phase omega0 t neglects
    the SHO atom's time dilation, which moves every resonance by
    omega0 (1 - <1 / gamma>) = omega0 (1 - (2 / pi) E(beta^2))."""

    @staticmethod
    def shift(beta):
        """1 - <1 / gamma> over one SHO period of peak speed beta c."""
        return 1 - 2 / mpmath.pi * mpmath.ellipe(beta ** 2)

    @pytest.mark.parametrize("beta", ["1e-7", "0.02096", "0.3", "0.9",
                                      "0.999"])
    def test_formula_against_the_mean_over_one_period(self, beta):
        with mpmath.workdps(30):
            beta = mpmath.mpf(beta)
            mean = mpmath.quad(
                lambda tau: mpmath.sqrt(1 - (beta * mpmath.cos(tau)) ** 2),
                mpmath.linspace(0, 2 * mpmath.pi, 5)) / (2 * mpmath.pi)
            assert abs(1 - mean - self.shift(beta)) <= 1e-25
            if beta < 0.1:   # 1 - (2/pi) E(m) = m/4 + 3 m^2/64 + ...
                assert abs(self.shift(beta) / (beta ** 2 / 4) - 1) <= beta ** 2

    def test_readme_states_the_shipped_configs_shifts(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        bullet = readme[readme.index("* Lab time, not proper time."):]
        bullet = " ".join(bullet[:bullet.index("\n* ")].split())
        for name in ("cavity", "free_space", "mirror"):
            cfg = parse_config((root / "configs" / f"{name}.cfg").read_text(
                encoding="utf-8"))
            with mpmath.workdps(30):
                drive = mpmath.mpf(cfg.motion.drive_frequency_hz)
                beta = 2 * mpmath.pi * drive * cfg.motion.amplitude / C
                shift = (cfg.atom.frequency_hz / drive) * self.shift(beta)
                stated = (f"`beta = {mpmath.nstr(beta, 4)}` and a shift of "
                          f"`{mpmath.nstr(shift, 4)} Omega`, "
                          f"`{mpmath.nstr(shift / RESONANCE_TOL, 3)}` times")
            assert f"`{name}.cfg`" in bullet
            assert stated in bullet, name

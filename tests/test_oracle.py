"""Oracle tests: quadrature vs closed forms, selection rule, invariances."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accelrad._quadrature as quadrature
import accelrad.oracle as oracle_module
import accelrad.rates as rates_module
import accelrad.specfun as specfun_module
from accelrad import (EMIT_EXCITE, PARALLEL, RESONANCE_TOL, AtomParams,
                      Cavity, ConvergenceError, FreeSpace,
                      GeneralPeriodicMotion, Mirror, OracleRangeError,
                      PhysicsDomainError, RotationMotion, ShoMotion,
                      allowed_sidebands, bessel_j,
                      general_trajectory_spectrum, one_period_amplitude,
                      rational_period_integral, selection_rule_report,
                      verify_selection_rule)
from accelrad._quadrature import (MAX_PERIODIC_NODES, composite_gl,
                                  periodic_trapezoid)
from accelrad.oracle import (equivalence_cases, equivalence_report,
                             verified_lines)
from accelrad.cli import main
from accelrad.constants import SPEED_OF_LIGHT as C

TWO_PI = 2.0 * math.pi


def make_free_case(a_tilde, n, Omega=2.0, omega0=1.0):
    omega = n * Omega - omega0
    motion = ShoMotion(amplitude=a_tilde * C / omega, Omega=Omega)
    return motion, omega, omega0


class TestOnePeriodAmplitude:
    def test_static_atom_amplitude_vanishes(self):
        motion = ShoMotion(amplitude=0.0, Omega=2.0)
        for n in (1, 2, 7):
            res = one_period_amplitude(motion, Mirror(z0=1.0),
                                       n * 2.0 - 1.0, 1.0)
            assert abs(res.amplitude) < 1e-12

    def test_free_space_peak_amplitude(self):
        motion, omega, omega0 = make_free_case(1.8412, 1)
        res = one_period_amplitude(motion, FreeSpace(), omega, omega0)
        # |amplitude| = 2*pi*J1(1.8412), frozen from the series oracle.
        assert abs(res.amplitude) == pytest.approx(3.6559670276258824,
                                                   rel=1e-10)

    def test_free_space_rate_matches_closed_form(self):
        atom = AtomParams(omega0=1.0, g=0.7)
        motion, omega, _ = make_free_case(1.8412, 1)
        res = one_period_amplitude(motion, FreeSpace(), omega, atom.omega0,
                                   g=atom.g)
        assert res.rate == pytest.approx(
            FreeSpace().sideband(atom, motion, 1).rate, rel=1e-10)

    def test_mirror_amplitude_closed_form(self):
        # a_tilde = 1, k z0 = pi/3, n = 2:
        # |amplitude| = 4 pi |sin(z0_tilde - pi)| J2(1).
        n, z_tilde, a_tilde = 2, math.pi / 3.0, 1.0
        omega = n * 2.0 - 1.0
        k = omega / C
        motion = ShoMotion(amplitude=a_tilde / k, Omega=2.0)
        res = one_period_amplitude(motion, Mirror(z0=z_tilde / k), omega, 1.0)
        expected = 4.0 * math.pi * abs(math.sin(z_tilde - math.pi)) \
            * bessel_j(2, 1.0)
        assert abs(res.amplitude) == pytest.approx(expected, rel=1e-10)

    def test_mirror_rate_matches_closed_form(self):
        atom = AtomParams(omega0=1.0, g=0.3)
        n = 3
        omega = n * 2.0 - 1.0
        k = omega / C
        motion = ShoMotion(amplitude=2.2 / k, Omega=2.0)
        geom = Mirror(z0=4.0 / k)
        res = one_period_amplitude(motion, geom, omega, atom.omega0,
                                   g=atom.g)
        assert res.rate == pytest.approx(
            geom.sideband(atom, motion, n).rate, rel=1e-10)

    def test_cavity_rate_includes_photon_factor(self, cavity_line):
        Omega = 2.0e9
        n, m = 2, 3
        omega = 0.6 * n * Omega
        omega0 = n * Omega - omega
        length = math.pi * m * C / omega
        atom = AtomParams(omega0=omega0, g=1.0e3)
        geom = Cavity(length=length, z0=0.3 * length, n_photons=2)
        motion = ShoMotion(amplitude=0.05 * length, Omega=Omega)
        res = one_period_amplitude(motion, geom, omega, omega0, g=atom.g)
        assert res.rate == pytest.approx(
            cavity_line(atom, motion, geom, n, m).rate, rel=1e-9)

    def test_rate_invariant(self):
        motion, omega, omega0 = make_free_case(3.3, 2)
        g = 0.11
        res = one_period_amplitude(motion, FreeSpace(), omega, omega0, g=g)
        expected = (motion.Omega / TWO_PI) * (g / motion.Omega) ** 2 \
            * abs(res.amplitude) ** 2
        assert res.rate == pytest.approx(expected, rel=1e-14)
        assert res.error_estimate >= 0.0
        assert res.panels_used > 0

    def test_off_resonance_is_a_precondition_error(self):
        motion = ShoMotion(amplitude=1.0, Omega=2.0)
        # The refusal points at the selection-rule route `oracle` runs.
        with pytest.raises(PhysicsDomainError, match="verify_selection_rule"):
            one_period_amplitude(motion, FreeSpace(), 1.37, 1.0)

    @pytest.mark.parametrize("omega,omega0", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -1.0)])
    def test_infinite_or_non_positive_frequency_is_a_physics_error(
            self, omega, omega0):
        # An infinite omega or omega0 used to reach round() in _resonance
        # and raise OverflowError.
        motion = ShoMotion(amplitude=1.0, Omega=2.0)
        with pytest.raises(PhysicsDomainError, match="must be positive"):
            one_period_amplitude(motion, FreeSpace(), omega, omega0)

    def test_boundary_collision_rejected(self):
        motion = ShoMotion(amplitude=2.0, Omega=2.0)
        with pytest.raises(PhysicsDomainError):
            one_period_amplitude(motion, Mirror(z0=1.0), 1.0, 1.0)

    @pytest.mark.parametrize("delta", [0.0, 0.4, -2.1])
    def test_free_space_parallel_equals_perpendicular(self, delta):
        # Free space has no boundary to project onto: both orientations
        # integrate the full k A, as the closed form does.
        motion, omega, omega0 = make_free_case(2.7, 3)
        parallel = ShoMotion(amplitude=motion.amplitude, Omega=motion.Omega,
                             orientation=PARALLEL, delta=delta)
        a = one_period_amplitude(motion, FreeSpace(), omega, omega0)
        b = one_period_amplitude(parallel, FreeSpace(), omega, omega0)
        assert repr(b.amplitude) == repr(a.amplitude)
        assert (b.rate, b.error_estimate, b.panels_used, b.floor) == (
            a.rate, a.error_estimate, a.panels_used, a.floor)

    @pytest.mark.parametrize("offset", [0.9, -0.9, 1.1, -1.1])
    def test_cavity_line_opens_exactly_where_the_closed_form_does(
            self, offset, cavity_line):
        # n = 5: a rule relative to n Omega would open every offset here.
        Omega, n, m = 2.0e9, 5, 3
        geom = Cavity(length=1.0, z0=0.3)
        omega = geom.mode_frequency(m)
        atom = AtomParams(omega0=n * Omega - omega
                          - offset * RESONANCE_TOL * Omega, g=1.0)
        motion = ShoMotion(amplitude=0.05, Omega=Omega)
        if abs(offset) < 1.0:
            assert cavity_line(atom, motion, geom, n, m) is not None
            one_period_amplitude(motion, geom, omega, atom.omega0)
        else:
            assert cavity_line(atom, motion, geom, n, m) is None
            with pytest.raises(PhysicsDomainError):
                one_period_amplitude(motion, geom, omega, atom.omega0)


class TestInvariances:
    @given(st.floats(0.0, TWO_PI))
    @settings(max_examples=20, deadline=None)
    def test_time_origin_shift_leaves_modulus_unchanged(self, tau0):
        # z(t) = A sin(Omega t + tau0) sampled, vs the unshifted SHO.
        n, a_tilde = 2, 1.7
        omega = n * 2.0 - 1.0
        amplitude = a_tilde * C / omega
        ts = TWO_PI * np.arange(64) / 64
        shifted = GeneralPeriodicMotion(
            Omega=2.0, samples=tuple(amplitude * np.sin(ts + tau0)))
        res_shifted = one_period_amplitude(shifted, FreeSpace(), omega, 1.0)
        res_sho = one_period_amplitude(ShoMotion(amplitude, 2.0),
                                       FreeSpace(), omega, 1.0)
        assert abs(abs(res_shifted.amplitude) - abs(res_sho.amplitude)) < 1e-10

    def test_sample_roll_leaves_modulus_unchanged(self):
        ts = TWO_PI * np.arange(64) / 64
        z = 0.3 * np.sin(ts) + 0.1 * np.sin(2 * ts)
        omega, omega0 = 3.0, 1.0  # n = 2 at Omega = 2
        base = one_period_amplitude(
            GeneralPeriodicMotion(Omega=2.0, samples=tuple(z)),
            FreeSpace(), omega, omega0)
        for shift in (1, 7, 32):
            rolled = one_period_amplitude(
                GeneralPeriodicMotion(Omega=2.0,
                                      samples=tuple(np.roll(z, shift))),
                FreeSpace(), omega, omega0)
            assert abs(abs(rolled.amplitude) - abs(base.amplitude)) < 1e-10

    def test_composite_rule_convergence_order(self):
        # Halving the panel width must cut the error by at least 4x while
        # above the roundoff floor.
        n, lam = 20, 60.0

        def integrand(tau):
            return np.exp(1j * (-lam * np.sin(tau) + n * tau))

        reference = TWO_PI * bessel_j(n, lam)
        errors = [abs(composite_gl(integrand, -math.pi, math.pi, panels)
                      - reference)
                  for panels in (6, 12, 24, 48, 96)]
        checked = 0
        for coarse, fine in zip(errors, errors[1:]):
            if fine < 1e-12:
                break
            assert coarse / fine >= 4.0
            checked += 1
        assert checked >= 2


class TestSelectionRule:
    def test_half_order_vanishes(self):
        assert verify_selection_rule(1, 2, 1.0) < 1e-10

    def test_integer_control_case(self):
        assert verify_selection_rule(3, 1, 1.0) == pytest.approx(
            abs(bessel_j(3, 1.0)), abs=1e-11)

    def test_seven_fifths_vanishes(self):
        assert verify_selection_rule(7, 5, 4.2) < 1e-10

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            verify_selection_rule(0, 2, 1.0)


class TestGeneralTrajectorySpectrum:
    def test_pure_sinusoid_matches_sho_closed_form(self):
        atom = AtomParams(omega0=1.0, g=0.5)
        Omega = 2.0
        amplitude = 1.3 * C / (Omega - atom.omega0)
        ts = TWO_PI * np.arange(64) / 64
        sampled = GeneralPeriodicMotion(
            Omega=Omega, samples=tuple(amplitude * np.sin(ts)))
        sho = ShoMotion(amplitude=amplitude, Omega=Omega)
        lines = general_trajectory_spectrum(atom, sampled, FreeSpace(), 5)
        assert [line.n for line in lines] == [1, 2, 3, 4, 5]
        for line in lines:
            closed = FreeSpace().sideband(atom, sho, line.n).rate
            assert abs(line.rate - closed) / closed < 1e-8

    def test_closed_form_motions_are_integrated_too(self):
        atom = AtomParams(omega0=1.0, g=0.5)
        sho = ShoMotion(amplitude=1.3 * C, Omega=2.0)
        for motion in (sho, RotationMotion(radius=1.3 * C, Omega=2.0,
                                           delta=0.7)):
            lines = general_trajectory_spectrum(atom, motion, FreeSpace(), 5)
            assert [line.n for line in lines] == [1, 2, 3, 4, 5]
            for line in lines:
                closed = FreeSpace().sideband(atom, sho, line.n).rate
                assert abs(line.rate - closed) / closed < 1e-8

    def test_odd_sample_count_sinusoid(self):
        # trig interpolation has no Nyquist bin for odd M; must stay exact
        atom = AtomParams(omega0=1.0, g=0.5)
        Omega = 2.0
        amplitude = 0.8 * C / (Omega - atom.omega0)
        ts = TWO_PI * np.arange(17) / 17
        sampled = GeneralPeriodicMotion(
            Omega=Omega, samples=tuple(amplitude * np.sin(ts)))
        sho = ShoMotion(amplitude=amplitude, Omega=Omega)
        lines = general_trajectory_spectrum(atom, sampled, FreeSpace(), 3)
        for line in lines:
            closed = FreeSpace().sideband(atom, sho, line.n).rate
            assert abs(line.rate - closed) / closed < 1e-8

    def test_motionless_samples_give_zero_rates(self):
        atom = AtomParams(omega0=1.0, g=0.5)
        still = GeneralPeriodicMotion(Omega=2.0, samples=(0.0,) * 32)
        for line in general_trajectory_spectrum(atom, still, FreeSpace(), 4):
            assert line.rate < 1e-25

    def test_two_harmonic_trajectory_against_dense_trapezoid(self):
        # Second, independent brute-force route at 10x the resolution.
        atom = AtomParams(omega0=1.0, g=0.5)
        Omega = 2.0
        n = 1
        omega = n * Omega - atom.omega0
        k = omega / C
        amplitude = 0.9 / k
        ts = TWO_PI * np.arange(64) / 64
        z = amplitude * np.sin(ts) + (amplitude / 3.0) * np.sin(2 * ts)
        sampled = GeneralPeriodicMotion(Omega=Omega, samples=tuple(z))
        lines = general_trajectory_spectrum(atom, sampled, FreeSpace(), 1)
        assert len(lines) == 1

        # dense trapezoid on the analytic trajectory, ~10x oracle nodes
        m_nodes = 40000
        tau = -math.pi + TWO_PI * np.arange(m_nodes) / m_nodes
        z_tau = amplitude * np.sin(tau) + (amplitude / 3.0) * np.sin(2 * tau)
        values = np.exp(1j * (-k * z_tau + n * tau))
        amp = TWO_PI * np.mean(values)
        rate = (Omega / TWO_PI) * (atom.g / Omega) ** 2 * abs(amp) ** 2
        assert lines[0].rate == pytest.approx(rate, rel=1e-8)

    def test_cavity_keeps_only_mode_matched_lines(self, cavity_line):
        Omega = 2.0e9
        n, m = 2, 3
        omega = 0.6 * n * Omega
        omega0 = n * Omega - omega
        length = math.pi * m * C / omega
        atom = AtomParams(omega0=omega0, g=1.0e3)
        geom = Cavity(length=length, z0=0.3 * length)
        ts = TWO_PI * np.arange(32) / 32
        sampled = GeneralPeriodicMotion(
            Omega=Omega, samples=tuple(0.05 * length * np.sin(ts)))
        # n_max = 3: higher n would hit further commensurate modes of this
        # rationally constructed cavity.
        lines = general_trajectory_spectrum(atom, sampled, geom, 3)
        assert [line.n for line in lines] == [n]
        motion = ShoMotion(amplitude=0.05 * length, Omega=Omega)
        assert lines[0].rate == pytest.approx(
            cavity_line(atom, motion, geom, n, m).rate, rel=1e-8)

    # (omega0 / Omega, n, shift / omega): a mode shift within 1e-9 of omega
    # but not of Omega, and one within 1e-9 of Omega but not of omega.
    @pytest.mark.parametrize("omega0_ratio,n,shift,opens", [
        (0.9, 1, 5e-9, True), (0.5, 10, 5.3e-10, False)])
    def test_cavity_shift_opens_the_same_line_on_both_routes(
            self, omega0_ratio, n, shift, opens):
        Omega = TWO_PI * 1e10
        omega = n * Omega - omega0_ratio * Omega
        sampled, closed = _cavity_lines(omega0_ratio, n, shift * omega, n)
        assert sampled == closed
        assert (n in closed) is opens

    @given(st.floats(0.05, 0.95), st.integers(1, 8), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_sampled_cavity_lines_match_the_closed_form(self, omega0_ratio,
                                                        n, shift):
        Omega = TWO_PI * 1e10
        sampled, closed = _cavity_lines(omega0_ratio, n,
                                        shift * RESONANCE_TOL * Omega, 8)
        assert sampled == closed

    def test_fourier_data_is_computed_once_per_motion(self, monkeypatch):
        # The samples are transformed once per motion, not again for every
        # line's phase and clearance check; the extent takes one inverse
        # FFT, and each line's one integrand call one more.
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.fft, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        atom = AtomParams(omega0=1.0, g=0.5)
        ts = TWO_PI * np.arange(32) / 32
        sampled = GeneralPeriodicMotion(
            Omega=2.0, samples=tuple(0.3 * C * np.sin(ts)))
        lines = general_trajectory_spectrum(atom, sampled,
                                            Mirror(z0=2.0 * C), 10)
        assert len(lines) == 10
        assert calls == {"fft": 1, "ifft": 1 + 10}

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            GeneralPeriodicMotion(Omega=1.0, samples=(0.0,) * 8)


class DirectSumMotion(GeneralPeriodicMotion):
    """Sampled motion whose phi is the direct sum Re sum_h c_h exp(i h tau),
    summed one harmonic at a time at each abscissa: the same value at a
    node whichever grid holds it, on any abscissae."""

    def phase(self, k):
        _, bandwidth, peak = super().phase(k)
        coef, freqs, _ = self._fourier
        return (lambda tau: k * sum((c * np.exp(1j * h * tau)).real
                                    for c, h in zip(coef, freqs)),
                bandwidth, peak)


def sampled_sinusoid_draws(rng, count):
    """``(atom, motion, geom, n, omega, A)``: M in {16, 32, 64, 128}
    samples of A sin(tau), alternating free space and a mirror clear of the
    motion, with line n <= 30 at k A in (0.05, 60]."""
    for i in range(count):
        m = (16, 32, 64, 128)[i % 4]
        n = int(rng.integers(1, 31))
        Omega = 10.0 ** rng.uniform(6.0, 10.0)
        omega = float(rng.uniform(0.05, 0.95)) * n * Omega
        amplitude = float(rng.uniform(0.05, 60.0)) * C / omega
        motion = GeneralPeriodicMotion(Omega=Omega, samples=tuple(
            amplitude * np.sin(TWO_PI * np.arange(m) / m)))
        geom = (Mirror(z0=amplitude * float(rng.uniform(1.05, 6.0)))
                if (i // 4) % 2 else FreeSpace())
        atom = AtomParams(omega0=n * Omega - omega,
                          g=10.0 ** rng.uniform(3.0, 6.0))
        yield atom, motion, geom, n, omega, amplitude


class TestSampledSinusoidsAgainstMpmath:
    """Sampled sinusoids against the SHO rate at 30 digits, next to the
    same lines integrated through the direct sum (DirectSumMotion, which
    the inverse FFT replaced), relative to
    ``max(rate, 1e-10 * 8 pi g^2 / Omega)``, the floor ``bench/check.py``
    uses.  Near that floor a last-bit change of the amplitude decides which
    route has the larger error, so the gate asks for no systematic loss: a
    sign test on the lines where the two differ, and a worst error within
    twice its measured 1.5e-11 and within twice the direct sum's."""

    def test_rates_match_the_closed_form(self):
        import mpmath

        pairs = []
        with mpmath.workdps(30):
            for atom, motion, geom, n, omega, amplitude in (
                    sampled_sinusoid_draws(
                        np.random.default_rng(35), 240)):
                direct = DirectSumMotion(motion.Omega, motion.samples)
                rates = [one_period_amplitude(mo, geom, omega, atom.omega0,
                                              g=atom.g).rate
                         for mo in (motion, direct)]
                k = mpmath.mpf(omega) / C
                unit = 2 * mpmath.pi * mpmath.mpf(atom.g)**2 / motion.Omega
                s = (1 if isinstance(geom, FreeSpace) else
                     4 * mpmath.sin(k * geom.z0 - mpmath.pi * n / 2)**2)
                exact = unit * s * mpmath.besselj(n, k * amplitude)**2
                floor = 1e-10 * 4 * unit
                pairs.append(tuple(float(abs(r - exact) / max(exact, floor))
                                   for r in rates))
        worse = sum(new > old for new, old in pairs)
        better = sum(new < old for new, old in pairs)
        new, old = (max(column) for column in zip(*pairs))
        assert worse - better <= 3.0 * math.sqrt(worse + better)
        assert new <= 2 * 1.5e-11
        assert new <= 2.0 * old


def _cavity_lines(omega0_ratio, n, shift, n_max):
    """Emission line indices opened for 64 samples of A sin(tau) and for the
    same SHO, in an m = 3 cavity whose mode lies ``shift`` rad/s above the
    photon of line n, at Omega = 2 pi 10 GHz."""
    Omega = TWO_PI * 1e10
    atom = AtomParams(omega0=omega0_ratio * Omega, g=1.0e3)
    omega = n * Omega - atom.omega0
    length = math.pi * 3 * C / (omega + shift)
    geom = Cavity(length=length, z0=0.37 * length)
    amplitude = 0.05 * length
    ts = TWO_PI * np.arange(64) / 64
    sampled = GeneralPeriodicMotion(
        Omega=Omega, samples=tuple(amplitude * np.sin(ts)))
    closed = allowed_sidebands(atom, ShoMotion(amplitude, Omega), geom, n_max)
    return ([line.n for line in
             general_trajectory_spectrum(atom, sampled, geom, n_max)],
            [line.n for line in closed if line.branch == EMIT_EXCITE])


def _sho_cases():
    """Free-space, mirror and cavity SHO amplitudes as argument tuples."""
    free = make_free_case(3.3, 4)
    omega = 3 * 2.0 - 1.0  # n = 3
    k = omega / C
    mirror = (ShoMotion(amplitude=2.2 / k, Omega=2.0), Mirror(z0=4.0 / k),
              omega, 1.0)
    Omega, m = 2.0e9, 3
    omega_c = 0.6 * 2 * Omega
    length = math.pi * m * C / omega_c
    cavity = (ShoMotion(amplitude=0.05 * length, Omega=Omega),
              Cavity(length=length, z0=0.3 * length, n_photons=2),
              omega_c, 2 * Omega - omega_c)
    return [(free[0], FreeSpace(), free[1], free[2]), mirror, cavity]


class TestPeriodicKernel:
    def test_independent_of_the_bessel_algebra(self, monkeypatch):
        before = [one_period_amplitude(*case).amplitude
                  for case in _sho_cases()]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not evaluate bessel_j")

        monkeypatch.setattr("accelrad.specfun.bessel_j", forbidden)
        monkeypatch.setattr("accelrad.rates.bessel_j", forbidden)
        after = [one_period_amplitude(*case).amplitude
                 for case in _sho_cases()]
        assert after == before

    @pytest.mark.parametrize("n", range(1, 21))
    def test_sampled_harmonics_against_dense_gauss_legendre(self, n):
        # Harmonics up to 7 make |dphi/dtau| (the bound B) about twice
        # max|phi| = 10, so the node count must follow B, not the peak.
        def shape(tau):
            return (0.3 * np.sin(tau) + 0.1 * np.sin(2 * tau)
                    + 0.05 * np.sin(7 * tau))

        omega0, Omega = 1.0, 2.0
        omega = n * Omega - omega0
        k = omega / C
        ts = TWO_PI * np.arange(64) / 64
        scale = 10.0 / (k * np.max(np.abs(shape(np.linspace(
            -math.pi, math.pi, 20001)))))
        motion = GeneralPeriodicMotion(Omega=Omega,
                                       samples=tuple(scale * shape(ts)))
        res = one_period_amplitude(motion, FreeSpace(), omega, omega0)

        def integrand(tau):
            return np.exp(1j * (-k * scale * shape(tau) + n * tau))

        reference = composite_gl(integrand, -math.pi, math.pi, 2000)
        assert abs(res.amplitude - reference) <= 1e-12
        # B = k sum_h |h| |c_h| = 10 (0.3 + 2 * 0.1 + 7 * 0.05) / 0.3985
        # = 21.3, so the start is 4 (n + 22 + 40) nodes, doubled once.
        assert res.panels_used == 8 * (n + 22 + 40)

    def test_equivalence_report_seeds_0_to_9(self):
        for seed in range(10):
            report = equivalence_report(seed)
            assert report["max_relative_deviation"] < 1e-10, seed

    def test_panels_used_is_the_accepted_node_count(self):
        n, a_tilde = 5, 7.3
        motion, omega, omega0 = make_free_case(a_tilde, n)
        res = one_period_amplitude(motion, FreeSpace(), omega, omega0)
        # Start 4 (n + ceil(B) + 40) nodes, B = a_tilde; one doubling.
        assert res.panels_used == 2 * 4 * (n + 8 + 40)
        count = res.panels_used
        tau = -math.pi + TWO_PI * np.arange(count) / count
        trapezoid = TWO_PI * np.mean(np.exp(1j * (-a_tilde * np.sin(tau)
                                                  + n * tau)))
        assert abs(res.amplitude - trapezoid) < 1e-13

    def test_node_cap_raises_convergence_error(self, monkeypatch):
        # The oracle's free-space integrand at k A = 1.8412, n = 1, from
        # its start of 4 (n + ceil(k A) + 40) nodes; no float64 sum meets
        # REL_TOL = 1e-30, so the doubling runs into the node cap.
        def integrand(tau):
            return np.exp(1j * (-1.8412 * np.sin(tau) + tau))

        monkeypatch.setattr(quadrature, "REL_TOL", 1e-30)
        with pytest.raises(ConvergenceError) as info:
            periodic_trapezoid(integrand, 4 * (1 + 2 + 40))
        assert str(MAX_PERIODIC_NODES) in str(info.value)
        assert 0.0 < info.value.error_estimate < 1e-12


class TestRateFloor:
    def test_floor_far_below_verified_lines(self):
        # The deepest line the verified benchmark requests reach, n = 200
        # with k A = 400, stays compared down to 1e-12 of 8 pi g^2 / Omega.
        n, a_tilde, g = 200, 400.0, 0.5
        motion, omega, omega0 = make_free_case(a_tilde, n)
        floor = one_period_amplitude(motion, FreeSpace(), omega, omega0,
                                     g=g).floor
        assert floor < 1e-12 * 8.0 * math.pi * g**2 / motion.Omega

    def test_floor_bounds_the_oracle_rounding(self):
        # A line far under the floor deviates by more than the tolerance
        # from its closed form; one far above it does not.
        atom = AtomParams(omega0=1.0, g=0.5)
        for n, a_tilde, expect_resolved in ((8, 0.25, False),
                                            (6, 0.5, True), (3, 0.5, True)):
            motion, omega, _ = make_free_case(a_tilde, n)
            closed = FreeSpace().sideband(atom, motion, n).rate
            result = one_period_amplitude(motion, FreeSpace(), omega,
                                          atom.omega0, g=atom.g)
            oracle_rate, floor = result.rate, result.floor
            deviation = abs(oracle_rate - closed) / closed
            assert (closed > floor) == expect_resolved
            assert (deviation < 1e-6) == expect_resolved


# Cavity of length 1 m with two photons, atom at 3 omega_1 driven at
# omega_1: lines n = 1, 2 absorb and n = 4..8 emit on modes 1..5.
_CAVITY = Cavity(length=1.0, z0=0.3, n_photons=2)
_OMEGA_1 = _CAVITY.mode_frequency(1)
_ATOM = AtomParams(omega0=3.0 * _OMEGA_1, g=1e3)


def _independent_motions():
    tau = TWO_PI * np.arange(32) / 32
    shape = np.sin(tau) + 0.3 * np.cos(2.0 * tau) + 0.1 * np.sin(5 * tau)
    return {
        "sho": ShoMotion(amplitude=0.05, Omega=_OMEGA_1),
        "parallel": ShoMotion(amplitude=0.05, Omega=_OMEGA_1,
                              orientation=PARALLEL, delta=0.4),
        "rotation": RotationMotion(radius=0.05, Omega=_OMEGA_1, delta=0.4),
        "sampled": GeneralPeriodicMotion(
            Omega=_OMEGA_1, samples=tuple(0.05 * shape / 1.4)),
    }


class TestOneSetUpPerLine:
    @pytest.mark.parametrize("geom", [FreeSpace(), Mirror(z0=0.3), _CAVITY],
                             ids=["free_space", "mirror", "cavity"])
    def test_verified_lines_builds_one_integral_per_emission_line(
            self, monkeypatch, geom):
        real = oracle_module._line_integral
        built = []

        def counted(motion, geom, omega, omega0):
            built.append(omega)
            return real(motion, geom, omega, omega0)

        monkeypatch.setattr(oracle_module, "_line_integral", counted)
        motion = ShoMotion(amplitude=0.05, Omega=_OMEGA_1)
        lines = allowed_sidebands(_ATOM, motion, geom, 8)
        rows = verified_lines(_ATOM, motion, geom, lines)
        emitted = [line.omega for line in lines
                   if line.branch == EMIT_EXCITE]
        assert len(emitted) == 5
        assert built == emitted
        assert [row[1] is None for row in rows] == [
            line.branch != EMIT_EXCITE for line in lines]


class TestOneIntegrandCallPerLine:
    """Counted work: every line the oracle integrates, in the self-check's
    draws and in ``rate --verify``, calls its integrand once, on the doubled
    grid of its start.  Counted by wrapping the trapezoid rule the oracle
    looks up, with no counter in the source."""

    @pytest.fixture
    def calls(self, monkeypatch):
        lines = []  # per line: (start, the node count of each call)

        def counted(f, nodes):
            sizes = []
            lines.append((nodes, sizes))

            def g(tau):
                sizes.append(len(tau))
                return f(tau)

            return periodic_trapezoid(g, nodes)

        monkeypatch.setattr(oracle_module, "periodic_trapezoid", counted)
        return lines

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalence_draws(self, calls, seed):
        equivalence_report(seed, 200)
        assert len(calls) == 200
        assert all(sizes == [2 * start] for start, sizes in calls)

    @pytest.mark.parametrize("geometry", ["free_space", "mirror", "cavity"])
    def test_rate_verify_at_n_max_200(self, calls, capsys, geometry):
        config = (pathlib.Path(__file__).resolve().parent.parent / "configs"
                  / f"{geometry}.cfg")
        assert main(["rate", "--config", str(config), "--verify",
                     "--format", "csv", "--n-max", "200"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        verified = [row for row in rows if row.split(",")[6]]
        assert len(calls) == len(verified) > 0
        assert all(sizes == [2 * start] for start, sizes in calls)

    @pytest.mark.parametrize("geom", [FreeSpace(), Mirror(z0=0.3), _CAVITY],
                             ids=["free_space", "mirror", "cavity"])
    def test_one_inverse_fft_of_the_grid_per_sampled_call(
            self, calls, monkeypatch, geom):
        motion = _independent_motions()["sampled"]
        assert motion.extent > 0.0  # its own inverse FFT, before the count
        lengths = []

        def counted(a, *args, **kwargs):
            lengths.append(len(a))
            return ifft(a, *args, **kwargs)

        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", counted)
        lines = general_trajectory_spectrum(_ATOM, motion, geom, 12)
        assert len(lines) == len(calls) > 0
        assert lengths == [size for _, sizes in calls for size in sizes]


class TestIndependenceFromTheClosedForms:
    """The oracle shares the description of the trajectory, never the
    Bessel or sin^2 algebra of the closed forms it checks."""

    @pytest.fixture(autouse=True)
    def no_closed_forms(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the oracle reached the closed-form algebra")

        for module, name in ((specfun_module, "bessel_j"),
                             (specfun_module, "bessel_j_orders"),
                             (rates_module, "bessel_j")):
            monkeypatch.setattr(module, name, refused)

    @pytest.mark.parametrize("motion_kind",
                             ["sho", "parallel", "rotation", "sampled"])
    @pytest.mark.parametrize("geom", [FreeSpace(), Mirror(z0=0.3), _CAVITY],
                             ids=["free_space", "mirror", "cavity"])
    def test_oracle_routes_run_without_them(self, motion_kind, geom):
        motion = _independent_motions()[motion_kind]
        omega = 5 * _OMEGA_1 - _ATOM.omega0
        result = one_period_amplitude(motion, geom, omega, _ATOM.omega0,
                                      g=_ATOM.g)
        assert math.isfinite(result.rate) and result.rate >= 0.0
        assert math.isfinite(result.floor) and result.floor > 0.0
        lines = general_trajectory_spectrum(_ATOM, motion, geom, 8)
        assert [line.n for line in lines] == [4, 5, 6, 7, 8]
        assert all(math.isfinite(line.rate) for line in lines)


class TestNodeCapRange:
    def test_line_beyond_the_cap_raises_before_any_node(self, monkeypatch):
        # k A = 2e5 at n = 10 starts at 4 (10 + 200000 + 40) = 800200 nodes,
        # more than half of the cap: no doubling would fit.
        def no_quadrature(*args):
            raise AssertionError("a node was evaluated")

        monkeypatch.setattr(oracle_module, "periodic_trapezoid", no_quadrature)
        motion, omega, omega0 = make_free_case(2e5, 10)
        with pytest.raises(OracleRangeError) as info:
            one_period_amplitude(motion, FreeSpace(), omega, omega0)
        assert isinstance(info.value, PhysicsDomainError)
        assert not isinstance(info.value, ConvergenceError)
        message = str(info.value)
        assert "MAX_PERIODIC_NODES" in message
        assert str(MAX_PERIODIC_NODES) in message
        assert "n=10" in message
        assert "800200" in message

    def test_line_within_the_cap_still_verifies(self):
        # k A = 1.2e5 starts at 480200 nodes and confirms at 960400.
        motion, omega, omega0 = make_free_case(1.2e5, 10)
        atom = AtomParams(omega0=omega0, g=0.5)
        result = one_period_amplitude(motion, FreeSpace(), omega, omega0,
                                      g=atom.g)
        assert result.panels_used == 8 * (10 + 120000 + 40)
        closed = FreeSpace().sideband(atom, motion, 10).rate
        assert result.rate == pytest.approx(closed, rel=1e-8)


class TestGaussLegendreNodeCap:
    """The Gauss-Legendre route keeps the trapezoid's node cap."""

    @pytest.fixture
    def built_panels(self, monkeypatch):
        panels = []
        original = quadrature.composite_gl

        def recording(f, a, b, count):
            panels.append(count)
            return original(f, a, b, count)

        monkeypatch.setattr(quadrature, "composite_gl", recording)
        return panels

    @pytest.mark.parametrize("x", [5e4, 2e4])
    def test_start_without_room_to_double_builds_no_rule(self, x,
                                                         built_panels):
        # 4 (x + 1) panels of 8 nodes: 1600032 nodes at 5e4, 640032 at
        # 2e4, whose one doubling would pass the cap.
        with pytest.raises(ConvergenceError) as info:
            rational_period_integral(x, 1, 2)
        assert built_panels == []
        assert str(MAX_PERIODIC_NODES) in str(info.value)

    def test_rules_within_the_cap_double_from_the_start(self, built_panels):
        value = rational_period_integral(1e3, 1, 2)
        assert abs(value) < 1e-10
        assert built_panels == [4004, 8008]


def dense_selection_rule(p, q, x):
    """|J(x; p, q)| by the dense trapezoid sum, frozen from the original
    ``verify_selection_rule`` that the one-FFT-per-row route replaced."""
    n_samples = max(4096, 64 * math.ceil(abs(x) * q + p))
    psi = -math.pi + 2.0 * math.pi * np.arange(n_samples) / n_samples
    value = np.mean(np.exp(1j * (x * np.sin(q * psi) - p * psi)))
    return float(abs(value))


def uncached_composite_gl(f, a, b, panels):
    """Composite Gauss-Legendre rule, frozen: the reference that
    ``composite_gl`` must match bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(quadrature._GL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * nodes[None, :]).ravel()
    w = np.broadcast_to(half * weights, (panels, quadrature._GL_ORDER)).ravel()
    return np.sum(w * f(x))


SCAN_XS = (0.3, 1.0, 2.5, 7.0)
SCAN_GRID = [(p, q, x) for q in range(2, 8) for p in range(1, 21)
             if math.gcd(p, q) == 1 for x in SCAN_XS]


def reference_selection_report():
    """The selection-rule scan as a frozen loop: each case's FFT row built
    afresh and read at p, with no row shared between cases."""
    worst, worst_case = 0.0, None
    for p, q, x in SCAN_GRID:
        n_samples = max(4096, 64 * math.ceil(abs(x) * q + p))
        psi = -math.pi + 2.0 * math.pi * np.arange(n_samples) / n_samples
        row = np.abs(np.fft.fft(np.exp(1j * x * np.sin(q * psi)))) / n_samples
        value = float(row[p])
        if value > worst:
            worst, worst_case = value, (x, p, q)
    return {"count": len(SCAN_GRID), "max_abs_value": worst,
            "worst_case": worst_case}


def log_aliasing_bound(p, q, x, nodes):
    """Natural log of 2 sum_{j >= j0} (|x|/2)^j / j!, j0 = ceil((N - p)/q):
    the most the N-node trapezoid sum of exp(i(x sin(q psi) - p psi)) can
    differ from the exact average (DLMF 10.14.4).  From j0 on, each term is
    at most r = (|x|/2) / (j0 + 1) times the one before, so the tail is at
    most its first term over 1 - r."""
    j0 = math.ceil((nodes - p) / q)
    half = abs(x) / 2.0
    ratio = half / (j0 + 1)
    assert ratio < 1.0
    return (math.log(2.0) + j0 * math.log(half) - math.lgamma(j0 + 1)
            - math.log1p(-ratio))


class TestSelectionRuleRows:
    def test_report_computes_each_row_once(self, monkeypatch):
        sine_rows, calls = [], []
        sine = oracle_module._selection_sines
        row = oracle_module._selection_row

        def sine_spy(q, nodes):
            sine_rows.append((q, nodes, sine(q, nodes)))
            return sine_rows[-1][2]

        def row_spy(x, values):
            q, nodes = next((q, nodes) for q, nodes, built in sine_rows
                            if built is values)
            calls.append((q, x, nodes))
            return row(x, values)

        monkeypatch.setattr(oracle_module, "_selection_sines", sine_spy)
        monkeypatch.setattr(oracle_module, "_selection_row", row_spy)
        selection_rule_report()
        expected = {(q, x, oracle_module._selection_nodes(p, q, x))
                    for p, q, x in SCAN_GRID}
        assert len(calls) == len(set(calls)) == 29
        assert set(calls) == expected
        pairs = [(q, nodes) for q, nodes, _ in sine_rows]
        assert len(pairs) == len(set(pairs)) == 11
        assert set(pairs) == {(q, nodes) for q, _, nodes in expected}

    def test_fft_row_matches_the_dense_sum_on_the_grid(self):
        worst = max(abs(verify_selection_rule(p, q, x)
                        - dense_selection_rule(p, q, x))
                    for p, q, x in SCAN_GRID)
        assert worst <= 1e-15

    @pytest.mark.parametrize("x", SCAN_XS + (-2.5, 15.0))
    def test_bessel_controls(self, x):
        for p in range(1, 21):
            fft = verify_selection_rule(p, 1, x)
            assert abs(fft - dense_selection_rule(p, 1, x)) <= 1e-15, p
            assert abs(fft - abs(bessel_j(p, x))) <= 1e-13, p

    def test_report_equals_the_frozen_fft_row_loop(self):
        report = selection_rule_report()
        assert report == reference_selection_report()
        assert report["worst_case"] == (7.0, 19, 4)
        assert type(report["max_abs_value"]) is float

    def test_aliasing_bound_is_below_float64_on_the_grid(self):
        worst = max(log_aliasing_bound(p, q, x,
                                       oracle_module._selection_nodes(p, q, x))
                    for p, q, x in SCAN_GRID)
        assert worst < math.log(1e-300), math.exp(worst)

    def test_report_runs_without_the_gauss_legendre_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Gauss-Legendre route was reached")

        for module, name in ((quadrature, "composite_gl"),
                             (quadrature, "refine_to_tolerance"),
                             (specfun_module, "refine_to_tolerance"),
                             (specfun_module, "rational_period_integral")):
            monkeypatch.setattr(module, name, refuse)
        report = selection_rule_report()
        assert report["count"] == len(SCAN_GRID)
        assert report["max_abs_value"] < oracle_module.SELECTION_RULE_TOL


class TestSelectionRuleRange:
    """The trapezoid route refuses, before building any array, what it
    cannot evaluate; the refusals are checked on the node estimate."""

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_is_a_physics_domain_error(self, x):
        with pytest.raises(PhysicsDomainError, match="finite"):
            oracle_module._selection_nodes(1, 2, x)
        with pytest.raises(PhysicsDomainError, match="finite"):
            verify_selection_rule(1, 2, x)

    def test_node_count_at_the_cap_is_accepted(self):
        assert oracle_module._selection_nodes(1, 1, 16383.0) \
            == MAX_PERIODIC_NODES

    @pytest.mark.parametrize("p,q,x", [(1, 1, 16383.5), (1, 7, 1e6)])
    def test_node_count_past_the_cap_builds_no_row(self, monkeypatch,
                                                   p, q, x):
        built = []
        # The sine row is the first array a case builds, its grid inside it.
        monkeypatch.setattr(oracle_module, "_selection_sines",
                            lambda *args: built.append(args))
        with pytest.raises(OracleRangeError, match="MAX_PERIODIC_NODES"):
            oracle_module._selection_nodes(p, q, x)
        with pytest.raises(OracleRangeError):
            verify_selection_rule(p, q, x)
        assert built == []


class TestGaussLegendreRule:
    def test_rational_period_integral_bit_equal_to_uncached(self,
                                                            monkeypatch):
        values = [rational_period_integral(x, p, q) for p, q, x in SCAN_GRID]
        monkeypatch.setattr(quadrature, "composite_gl", uncached_composite_gl)
        frozen = [rational_period_integral(x, p, q) for p, q, x in SCAN_GRID]
        assert values == frozen


class TestEquivalenceDrawCount:
    @pytest.mark.parametrize("count", [0, -5])
    def test_cases_reject_fewer_than_one_draw(self, count):
        with pytest.raises(ValueError, match="count"):
            equivalence_cases(seed=0, count=count)

    @pytest.mark.parametrize("count", [0, -5])
    def test_report_rejects_fewer_than_one_draw(self, count):
        with pytest.raises(ValueError, match="count"):
            equivalence_report(seed=0, count=count)


def frozen_equivalence_cases(seed, count, attempts=None):
    """``equivalence_cases`` as it drew through ``Generator.uniform`` and
    evaluated J_n on every attempt, frozen without its runaway guard: the
    reference its draws must equal.  ``attempts`` collects each attempt's
    (n, a_tilde, theta)."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        kind = ("free", "mirror", "cavity")[len(cases) % 3]
        n = int(rng.integers(1, 21))
        Omega = 10.0 ** rng.uniform(6.0, 10.0)
        g = 10.0 ** rng.uniform(3.0, 6.0)
        omega = float(rng.uniform(0.05, 0.95)) * n * Omega
        omega0 = n * Omega - omega
        k = omega / C
        if kind == "free":
            hi, theta = 25.0, 0.5 * math.pi
        elif kind == "mirror":
            z_tilde = float(rng.uniform(0.1, 2.0 * math.pi))
            hi = min(25.0, 0.98 * z_tilde)
            theta = z_tilde - 0.5 * math.pi * n
        else:
            m = int(rng.integers(1, 9))
            length = math.pi * m * C / omega
            z_frac = float(rng.uniform(0.15, 0.85))
            z0 = z_frac * length
            hi = min(25.0, 0.98 * k * min(z0, length - z0))
            theta = math.pi * m * z_frac - 0.5 * math.pi * n
        a_tilde = float(rng.uniform(0.05, hi))
        if attempts is not None:
            attempts.append((n, a_tilde, theta))
        if abs(math.sin(theta) * bessel_j(n, a_tilde)) < 1e-5:
            continue
        motion = ShoMotion(amplitude=a_tilde / k, Omega=Omega)
        if kind == "free":
            geom = FreeSpace()
        elif kind == "mirror":
            geom = Mirror(z0=z_tilde / k)
        else:
            geom = Cavity(length=length, z0=z0,
                          n_photons=int(rng.integers(0, 4)))
        cases.append((AtomParams(omega0=omega0, g=g), motion, geom, n,
                      omega))
    return cases


def case_fields(case):
    """A draw as (type name, fields) per entry, each float by its repr,
    which round-trips: equal fields are equal bit for bit."""
    def fields(item):
        if dataclasses.is_dataclass(item):
            return [(f.name, repr(getattr(item, f.name)))
                    for f in dataclasses.fields(item)]
        if isinstance(item, (int, float)):
            return repr(item)
        return sorted(vars(item).items())

    return [(type(item).__name__, fields(item)) for item in case]


def power_bound(n, a_tilde, theta):
    """|sin(theta)| (a_tilde/2)^n / n!, at least |sin(theta) J_n(a_tilde)|
    (DLMF 10.14.4); the draw loop redraws below 0.5e-5 without J_n."""
    return abs(math.sin(theta)) * (0.5 * a_tilde) ** n / math.factorial(n)


class TestEquivalenceDrawsMatchTheFrozenLoop:
    @pytest.mark.parametrize("count", [1, 7, 200])
    def test_seeds_0_to_49(self, count):
        for seed in range(50):
            drawn = [case_fields(case)
                     for case in equivalence_cases(seed, count)]
            frozen = [case_fields(case)
                      for case in frozen_equivalence_cases(seed, count)]
            assert drawn == frozen, seed

    def test_seed_0_at_1000_draws(self):
        drawn = [case_fields(case) for case in equivalence_cases(0, 1000)]
        assert drawn == [case_fields(case)
                         for case in frozen_equivalence_cases(0, 1000)]

    @staticmethod
    def assert_uniform_formula(lo, hi, draws):
        uniform, formula = (np.random.default_rng(11),
                            np.random.default_rng(11))
        for _ in range(draws):
            drawn = uniform.uniform(lo, hi)
            assert type(drawn) is float
            assert drawn == lo + (hi - lo) * formula.random(), (lo, hi)

    @pytest.mark.parametrize("lo,hi", [(6.0, 10.0), (3.0, 6.0), (0.05, 0.95),
                                       (0.1, 2.0 * math.pi), (0.15, 0.85)])
    def test_uniform_is_lo_plus_span_times_random(self, lo, hi):
        self.assert_uniform_formula(lo, hi, 2000)

    def test_a_tilde_uniform_up_to_a_drawn_hi(self):
        # a_tilde's range (0.05, hi): hi = 25, the smallest hi of a mirror
        # (0.98 * 0.1) and of a cavity (0.98 * 0.15 pi), and a seeded spread.
        his = [25.0, 0.98 * 0.1, 0.98 * 0.15 * math.pi]
        his += [0.05 + 24.95 * u for u in np.random.default_rng(3).random(200)]
        for hi in his:
            self.assert_uniform_formula(0.05, hi, 100)

    def test_power_bound_holds_against_mpmath(self):
        import mpmath

        with mpmath.workdps(30):
            for n in range(0, 21):
                for a_tilde in np.linspace(0.05, 25.0, 100):
                    a_tilde = float(a_tilde)
                    exact = mpmath.besselj(n, a_tilde)
                    assert power_bound(n, a_tilde, 0.5 * math.pi) \
                        >= abs(exact), (n, a_tilde)
                    # The margin below the 1e-5 redraw test is 0.5e-5, far
                    # above bessel_j's own error.
                    assert abs(bessel_j(n, a_tilde) - exact) < 1e-12


class TestBoundDecidedRedraws:
    def test_bessel_calls_equal_the_undecided_draws(self, monkeypatch):
        attempts = []
        frozen_equivalence_cases(0, 200, attempts)
        undecided = [(n, a_tilde) for n, a_tilde, theta in attempts
                     if power_bound(n, a_tilde, theta) >= 0.5e-5]
        calls = []
        real = specfun_module.bessel_j

        def counted(n, x):
            calls.append((n, x))
            return real(n, x)

        monkeypatch.setattr(specfun_module, "bessel_j", counted)
        equivalence_cases(seed=0, count=200)
        assert calls == undecided
        # 503 attempts for 200 draws: the bound decides 298 of the 303
        # redraws, and J_n is evaluated on the other 205 attempts.
        assert (len(attempts), len(calls)) == (503, 205)

    def test_the_bound_decides_only_redraws(self):
        for seed in range(10):
            attempts = []
            frozen_equivalence_cases(seed, 200, attempts)
            for n, a_tilde, theta in attempts:
                if power_bound(n, a_tilde, theta) < 0.5e-5:
                    value = math.sin(theta) * bessel_j(n, a_tilde)
                    assert abs(value) < 1e-5, (seed, n, a_tilde, theta)


def _trapezoid_cases():
    """``(name, integrand, start)``: the oracle's integrands at their own
    starts over every motion and geometry, a start above 8192 nodes and a
    start that takes three doublings.  The sampled integrands take their
    phase from DirectSumMotion, whose value at a node does not depend on
    the grid, as the bit-for-bit comparison of two node orders needs; the
    motion's own phase evaluates each whole grid at once."""
    omega = 5 * _OMEGA_1 - _ATOM.omega0
    lines = list(zip(("sho-free-n4", "sho-mirror-n3", "sho-cavity-n2"),
                     _sho_cases()))
    for kind, motion in _independent_motions().items():
        if kind == "sampled":
            motion = DirectSumMotion(motion.Omega, motion.samples)
        for geom in (FreeSpace(), Mirror(z0=0.3), _CAVITY):
            lines.append((f"{kind}-{type(geom).__name__}",
                          (motion, geom, omega, _ATOM.omega0)))
    motion, omega_deep, omega0 = make_free_case(30.0, 2100)
    lines.append(("deep", (motion, FreeSpace(), omega_deep, omega0)))
    cases = []
    for name, line in lines:
        integrand, n, bandwidth, _, _ = oracle_module._line_integral(*line)
        cases.append((name, integrand,
                      4 * (n + math.ceil(bandwidth) + 40)))
    motion, omega, omega0 = make_free_case(7.3, 5)
    integrand = oracle_module._line_integral(motion, FreeSpace(), omega,
                                             omega0)[0]
    cases.append(("three-doublings", integrand, 8))
    return cases


class TestTrapezoidMatchesTheFrozenRule:
    @pytest.mark.parametrize("name,integrand,start",
                             [pytest.param(*case, id=case[0])
                              for case in _trapezoid_cases()])
    def test_bit_identical_results_and_nodes(self, name, integrand, start,
                                             frozen_periodic_trapezoid):
        seen = {"new": [], "frozen": []}

        def recorded(side):
            def f(tau):
                seen[side].append(tau.copy())
                return integrand(tau)
            return f

        new = periodic_trapezoid(recorded("new"), start)
        frozen = frozen_periodic_trapezoid(recorded("frozen"), start)
        assert new == frozen
        assert repr(new) == repr(frozen)
        # The same nodes, bit for bit, in one integrand call fewer: the
        # start rule and its first doubling come from one call.
        assert (np.sort(np.concatenate(seen["new"])).tobytes()
                == np.sort(np.concatenate(seen["frozen"])).tobytes())
        assert len(seen["new"]) == len(seen["frozen"]) - 1
        if name == "deep":
            assert start > 8192
        if name == "three-doublings":
            assert new[2] >= 8 * start
            assert (len(seen["new"]), len(seen["frozen"])) == (3, 4)
        else:
            assert (len(seen["new"]), len(seen["frozen"])) == (1, 2)

    @pytest.mark.parametrize("name,integrand,start",
                             [pytest.param(*case, id=case[0])
                              for case in _trapezoid_cases()])
    def test_the_doubled_grid_holds_both_rules(self, name, integrand, start):
        """The three facts the one-call rule rests on, checked bit for bit:
        the even nodes of the doubled grid are the start rule's nodes, its
        odd nodes are the first doubling's midpoints, and numpy sums a
        strided half as it sums a contiguous copy of it."""
        step = 2.0 * math.pi / start
        doubled = -math.pi + (step / 2) * np.arange(2 * start)
        assert (doubled[::2].tobytes()
                == (-math.pi + step * np.arange(start)).tobytes())
        step_2n = 2.0 * math.pi / (2 * start)
        assert step / 2 == step_2n
        assert (doubled[1::2].tobytes()
                == (-math.pi + step_2n * np.arange(1, 2 * start, 2))
                .tobytes())
        values = integrand(doubled)
        for half in (values[::2], values[1::2]):
            assert (repr(half.sum())
                    == repr(np.ascontiguousarray(half).sum()))

    def test_start_without_room_calls_nothing(self):
        calls = []
        with pytest.raises(ConvergenceError):
            periodic_trapezoid(calls.append, MAX_PERIODIC_NODES // 2 + 1)
        assert calls == []

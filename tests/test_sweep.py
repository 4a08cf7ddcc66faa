"""Sweep-engine tests: surface structure, cell consistency, and spectra
checked line by line against the oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from accelrad import (EMIT_EXCITE, PARALLEL, AtomParams, FreeSpace,
                      GeneralPeriodicMotion, Mirror, OracleMismatchError,
                      PhysicsDomainError, RotationMotion, ShoMotion, Sideband,
                      SweepResult, allowed_sidebands, bessel_j,
                      bessel_j_cells, fig2_surface,
                      fig3_surface, rate_surface)
from accelrad.constants import SPEED_OF_LIGHT as C
from accelrad.oracle import verified_lines
from accelrad.rates import check_clearance, check_closed_form

# The axes of the config-less ``sweep --preset fig2`` and ``fig3``.
FIG2_A_TILDE = np.linspace(0.0, 30.0, 512)
FIG3_AMPLITUDES = np.linspace(1e-8 / 128, 1e-8, 128)
FIG3_ALPHAS = np.linspace(1 / 128, 1.0, 128)


def verified_spectrum(atom, motion, geom, n_max):
    """The closed-form lines, each checked against the oracle as
    ``--verify`` checks them."""
    lines = allowed_sidebands(atom, motion, geom, n_max)
    verified_lines(atom, motion, geom, lines)
    return lines


class TestFig2Surface:
    def test_peak_cell_value(self):
        res = fig2_surface([1.8412], 1)
        assert res.values[0, 0] == pytest.approx(0.33856713916548536,
                                                 rel=1e-10)

    def test_zero_amplitude_column(self):
        res = fig2_surface([0.0], 30)
        assert np.all(res.values == 0.0)

    def test_below_threshold_suppression_cell(self):
        res = fig2_surface([5.0], 12)
        assert res.values[0, 11] < 1e-5

    def test_default_grid_maximum_location(self):
        res = fig2_surface(FIG2_A_TILDE, 30)
        i, j = np.unravel_index(np.argmax(res.values), res.values.shape)
        assert res.axis2_values[j] == 1.0
        assert 1.7 < res.axis1_values[i] < 2.0

    def test_monotone_activation_threshold(self):
        # The smallest a_tilde where J_n^2 exceeds 1e-3 of its own peak
        # is nondecreasing in n.
        a = np.linspace(0.0, 30.0, 3001)
        res = fig2_surface(a, 30)
        thresholds = []
        for j in range(res.values.shape[1]):
            col = res.values[:, j]
            above = np.nonzero(col > 1e-3 * col.max())[0]
            thresholds.append(a[above[0]])
        assert all(b >= a_ for a_, b in zip(thresholds, thresholds[1:]))

    def test_cells_match_single_point_calls(self):
        res = fig2_surface(FIG2_A_TILDE, 30)
        rng = np.random.default_rng(11)
        n_cells = res.values.size
        for flat in rng.choice(n_cells, size=max(1, n_cells // 100),
                               replace=False):
            i, j = np.unravel_index(flat, res.values.shape)
            a = res.axis1_values[i]
            n = int(res.axis2_values[j])
            direct = bessel_j(n, a) ** 2
            assert abs(res.values[i, j] - direct) \
                <= 1e-12 * max(res.values[i, j], direct) + 1e-14

    def test_one_array_pass_per_surface(self, monkeypatch):
        # Every column at a_tilde <= 200 steps in one lockstep pass, whose
        # pair loop runs as often as the longest column's scalar pass, not
        # as often as all of them; no column takes a pass of its own (the
        # one at a_tilde = 0 takes the series).
        import accelrad.specfun as specfun

        passes, pairs = [], []
        lockstep = specfun._miller_lockstep

        def counted(x, start, keep):
            passes.append(x.size)

            def counted_keep(j, *rest):
                pairs.append(j)
                return keep(j, *rest)

            return lockstep(x, start, counted_keep)

        def refused(*args):
            raise AssertionError("a column took its own Miller pass")

        monkeypatch.setattr(specfun, "_miller_lockstep", counted)
        monkeypatch.setattr(specfun, "_miller_range", refused)
        fig2_surface(FIG2_A_TILDE, 30)
        starts = [specfun._miller_start(specfun._column_top(30, a), a)
                  for a in FIG2_A_TILDE.tolist()]
        assert passes == [512]
        assert pairs == list(range(max(starts) // 2, 0, -1))
        assert len(pairs) == 30 and sum(starts) // 2 == 15339

    def test_absolute_mode_restores_prefactor(self):
        g, Omega = 0.3, 2.0
        rel = fig2_surface([1.8412], 1)
        absolute = fig2_surface([1.8412], 1, g=g, Omega=Omega)
        assert absolute.metadata["normalization"] == "hz"
        assert rel.metadata["normalization"] == "prefactor-omitted"
        assert absolute.values[0, 0] == pytest.approx(
            2.0 * math.pi * g**2 / Omega * rel.values[0, 0], rel=1e-14)

    def test_requires_both_prefactor_parameters(self):
        with pytest.raises(ValueError):
            fig2_surface([1.0], 1, g=0.3)

    @pytest.mark.parametrize("kwargs,name", [
        ({"a_tilde_values": [-1.0]}, "a_tilde"),
        ({"g": -1.0, "Omega": 1.0}, "g"),
        ({"g": 1.0, "Omega": 0.0}, "Omega")])
    def test_a_negative_input_is_a_physics_error(self, kwargs, name):
        # A plain ValueError, or a ZeroDivisionError at Omega = 0, before.
        kwargs = {"a_tilde_values": [1.0], "n_max": 3} | kwargs
        with pytest.raises(PhysicsDomainError, match=f"^{name} must be"):
            fig2_surface(**kwargs)


class TestFig3Surface:
    def test_zero_coupling_row(self):
        res = fig3_surface([1e-9], [0.0, 0.5])
        assert res.values[0, 0] == 0.0

    def test_zero_amplitude_row(self):
        res = fig3_surface([0.0, 1e-9], [0.2])
        assert res.values[0, 0] == 0.0

    def test_cqed_example_cell(self):
        # The paper's circuit-QED estimate, frozen: A = 1 nm, alpha = 0.2,
        # Omega/2pi = 10 GHz.
        res = fig3_surface([1e-9], [0.2])
        assert res.values[0, 0] == pytest.approx(1.0838223059911484e-05,
                                                 rel=1e-12)

    def test_cells_match_single_point_calls(self):
        res = fig3_surface(FIG3_AMPLITUDES, FIG3_ALPHAS)
        Omega = res.fixed["Omega"]
        rng = np.random.default_rng(5)
        n_cells = res.values.size
        for flat in rng.choice(n_cells, size=n_cells // 100, replace=False):
            i, j = np.unravel_index(flat, res.values.shape)
            a_alpha = res.axis1_values[i] * res.axis2_values[j]
            direct = math.pi * a_alpha**2 * Omega**3 / (32.0 * C**2)
            assert res.values[i, j] == pytest.approx(direct, rel=1e-12)

    def test_quadratic_amplitude_scaling(self):
        res = fig3_surface([1e-10, 1e-9], [0.2])
        assert res.values[1, 0] == pytest.approx(100.0 * res.values[0, 0],
                                                 rel=1e-12)

    def test_default_surface_reaches_the_reported_decade(self):
        res = fig3_surface(FIG3_AMPLITUDES, FIG3_ALPHAS)
        decade = (res.values >= 1e-4) & (res.values < 1e-3)
        assert np.any(decade)

    def test_exact_rate_tracks_approximation_where_valid(self):
        res = fig3_surface(FIG3_AMPLITUDES, FIG3_ALPHAS)
        exact = res.aux["exact_rate_hz"]
        valid = res.aux["approx_valid"]
        assert np.all(valid)  # nm amplitudes at GHz drives are deep in domain
        rel = np.abs(exact - res.values) / exact
        assert np.nanmax(rel) < 1e-2

    @pytest.mark.parametrize("args,Omega,name", [
        (([-1.0], [0.5]), 1.0, "amplitude"),
        (([1e-9], [-0.5]), 1.0, "alpha"),
        (([1e-9], [0.5]), 0.0, "Omega")])
    def test_a_negative_input_is_a_physics_error(self, args, Omega, name):
        # A plain ValueError before.
        with pytest.raises(PhysicsDomainError, match=f"^{name} must be"):
            fig3_surface(*args, Omega=Omega)

    def test_out_of_domain_cells_are_flagged_not_fatal(self):
        # Omega = 2 rad/s makes the dimensionless amplitude order unity.
        res = fig3_surface([1e6, 5e7], [0.2], Omega=2.0)
        assert res.aux["approx_valid"][0, 0]
        assert not res.aux["approx_valid"][1, 0]


def _result(axis1, axis2, values, **kwargs):
    return SweepResult("a", axis1, "b", axis2, values, metadata={}, **kwargs)


class TestSweepResult:
    def test_axes_must_be_monotone(self):
        with pytest.raises(ValueError):
            _result((1.0, 1.0), (1.0, 2.0), np.zeros((2, 2)))

    def test_axes_must_be_non_empty(self):
        with pytest.raises(ValueError):
            _result((), (1.0,), np.zeros((0, 1)))

    def test_values_shape_is_checked(self):
        with pytest.raises(ValueError):
            _result((1.0, 2.0), (1.0,), np.zeros((3, 3)))

    def test_values_must_be_finite_non_negative(self):
        with pytest.raises(ValueError):
            _result((1.0,), (1.0,), np.array([[-1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_axes_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _result((0.0, bad), (1.0,), np.zeros((2, 1)))

    def test_values_must_be_float(self):
        with pytest.raises(ValueError):
            _result((1.0,), (1.0,), np.array([[1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_aux_is_rejected(self, bad):
        aux = np.array([[0.5], [bad]])
        with pytest.raises(ValueError, match="aux 'extra'"):
            _result((1.0, 2.0), (1.0,), np.zeros((2, 1)), aux={"extra": aux})

    @pytest.mark.parametrize("aux", [np.zeros((1, 2)), np.zeros(2),
                                     np.zeros((2, 1, 1), dtype=bool),
                                     [[0.5], [1.5]]])
    def test_misshaped_aux_is_rejected(self, aux):
        with pytest.raises(ValueError, match="aux 'extra'"):
            _result((1.0, 2.0), (1.0,), np.zeros((2, 1)), aux={"extra": aux})

    @pytest.mark.parametrize("aux", [np.array([[1], [2]]),
                                     np.array([["a"], ["b"]])])
    def test_aux_must_be_bool_or_float(self, aux):
        with pytest.raises(ValueError, match="aux 'extra'"):
            _result((1.0, 2.0), (1.0,), np.zeros((2, 1)), aux={"extra": aux})

    def test_bool_and_finite_float_aux_are_accepted(self):
        aux = {"flag": np.array([[True], [False]]),
               "signed": np.array([[-1.5], [0.0]], dtype=np.float32)}
        res = _result((1.0, 2.0), (1.0,), np.zeros((2, 1)), aux=aux)
        assert res.aux is aux


class TestRateSurface:
    def test_cells_equal_direct_calls(self):
        atom = AtomParams(omega0=1.0, g=0.4)
        motion = ShoMotion(amplitude=1.0, Omega=2.0)
        amplitudes = [1e-3 * C, 2e-3 * C]
        res = rate_surface(atom, motion, FreeSpace(), amplitudes, 3)
        for i, amplitude in enumerate(amplitudes):
            cell_motion = ShoMotion(amplitude=amplitude, Omega=2.0)
            for n in (1, 2, 3):
                assert res.values[i, n - 1] == FreeSpace().sideband(
                    atom, cell_motion, n).rate

    def test_closed_channels_are_zero(self):
        atom = AtomParams(omega0=3.0, g=0.4)
        motion = ShoMotion(amplitude=1.0, Omega=1.0)
        res = rate_surface(atom, motion, FreeSpace(), [1.0], 4)
        assert list(res.values[0, :2]) == [0.0, 0.0]
        assert res.values[0, 3] > 0.0


    @pytest.mark.parametrize("motion", [
        RotationMotion(radius=1.0, Omega=1.0),
        GeneralPeriodicMotion(Omega=1.0, samples=(0.0,) * 16)],
        ids=["rotation", "sampled"])
    @pytest.mark.parametrize("geom", [FreeSpace(), Mirror(z0=2.0)],
                             ids=["free_space", "mirror"])
    def test_motion_other_than_sho_is_refused(self, motion, geom):
        atom = AtomParams(omega0=0.5, g=1.0)
        with pytest.raises(PhysicsDomainError, match="custom sweeps support "
                           "free-space and mirror geometries"):
            rate_surface(atom, motion, geom, [0.5], 2)

    @pytest.mark.parametrize("geom", [FreeSpace(), Mirror(z0=1e-2)],
                             ids=["free_space", "mirror"])
    def test_each_line_factor_is_taken_once(self, geom, monkeypatch):
        # n = 1, 2 are closed at omega0 = 2.5 Omega; n = 3..6 are open.
        # Row 0 takes its 4 open cells through bessel_j, the other 3 rows
        # their 12 through one bessel_j_cells call: 16 evaluations, one per
        # open cell.
        import accelrad.rates as rates_module
        import accelrad.sweep as sweep_module

        calls = {"field_mode": 0, "bessel_j": 0, "bessel_j_cells": 0,
                 "cells": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        def cells(n, x):
            calls["cells"] += np.broadcast(n, x).size
            return bessel_j_cells(n, x)

        monkeypatch.setattr(type(geom), "field_mode",
                            counted("field_mode", type(geom).field_mode))
        for module in (rates_module, sweep_module):
            monkeypatch.setattr(module, "bessel_j",
                                counted("bessel_j", bessel_j))
        monkeypatch.setattr(sweep_module, "bessel_j_cells",
                            counted("bessel_j_cells", cells))
        Omega = 2.0 * math.pi * 1e9
        atom = AtomParams(omega0=2.5 * Omega, g=1e6)
        motion = ShoMotion(amplitude=1e-3, Omega=Omega)
        amplitudes = [1e-4, 2e-4, 4e-4, 8e-4]
        res = rate_surface(atom, motion, geom, amplitudes, 6)
        assert calls == {"field_mode": 6, "bessel_j": 4, "bessel_j_cells": 1,
                         "cells": 3 * 4}
        assert np.count_nonzero(res.values[:, :2]) == 0

    @pytest.mark.parametrize("amplitudes", [[10**400], [1e-9, 10**400]],
                             ids=["first-row", "second-row"])
    def test_an_int_past_float_range_is_a_physics_error(self, amplitudes):
        # As fig2_surface and fig3_surface say it, not float()'s
        # OverflowError.
        with pytest.raises(PhysicsDomainError, match=(
                "^amplitude must be finite and >= 0, got an int past "
                "float64 range$")):
            rate_surface(AtomParams(omega0=1.0, g=1.0),
                         ShoMotion(amplitude=0.0, Omega=2.0), FreeSpace(),
                         amplitudes, 2)


def frozen_sideband(geom, atom, motion, n):
    """The closed-form line as the row-by-row sweep built it: field mode,
    projection, boundary phase, prefactor and Bessel factor in one go."""
    eps = n * motion.Omega - atom.omega0
    field = geom.field_mode(eps)
    if field is None:
        return None
    k, z0, chi, omega_m, m = field
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
    return Sideband(n, omega_m, rate, EMIT_EXCITE, m)


def frozen_rate_surface(atom, motion, geom, amplitude_values, n_max):
    """The custom sweep as one allowed_sidebands call per amplitude row."""
    amplitude_values = tuple(float(a) for a in amplitude_values)
    values = np.zeros((len(amplitude_values), n_max))
    for i, amplitude in enumerate(amplitude_values):
        row = replace(motion, amplitude=amplitude)
        check_clearance(row, geom)
        check_closed_form(row, geom)
        for n in range(1, n_max + 1):
            line = frozen_sideband(geom, atom, row, n)
            if line is not None:
                values[i, line.n - 1] = line.rate
    return SweepResult("amplitude_m", amplitude_values, "n",
                       range(1, n_max + 1), values, {})


def outcome(fn, *args):
    """A call's values as bytes, or the type and message of its error."""
    try:
        return fn(*args).values.tobytes()
    except Exception as exc:  # every error type is compared
        return type(exc), str(exc)


_OMEGA = 2.0 * math.pi * 1e10
_ATOM = AtomParams(omega0=0.5 * _OMEGA, g=1e6)
_SHO = ShoMotion(amplitude=1e-4, Omega=_OMEGA)

ERROR_CASES = {
    # id: (atom, motion, geometry, amplitudes, n_max, error type)
    "reaches-mirror": (_ATOM, _SHO, Mirror(z0=1e-3),
                       [1e-4, 1e-3, 2e-4], 8, PhysicsDomainError),
    "negative-amplitude": (_ATOM, _SHO, Mirror(z0=1e-3),
                           [1e-4, -1e-4, 2e-4], 8, PhysicsDomainError),
    "nan-amplitude": (_ATOM, _SHO, FreeSpace(),
                      [1e-4, math.nan, 2e-4], 8, PhysicsDomainError),
    # A cell of row 1 is refused before row 2's amplitude.
    "argument-before-nan-row": (_ATOM, _SHO, FreeSpace(),
                                [1e-4, 3e4, math.nan], 8, PhysicsDomainError),
    # k A passes MAX_ARGUMENT at n = 3 of the middle row only.
    "bessel-argument": (_ATOM, _SHO, FreeSpace(),
                        [1e-4, 3e4, 1e5], 8, PhysicsDomainError),
    "coupling-overflow": (AtomParams(omega0=0.5 * _OMEGA, g=1e160), _SHO,
                          Mirror(z0=1e-3), [1e-4, 2e-4], 8, OverflowError),
    "rate-past-range": (AtomParams(omega0=0.5 * _OMEGA, g=1e154), _SHO,
                        FreeSpace(), [0.0, 1e-4], 8, PhysicsDomainError),
    "boundary-phase": (_ATOM, _SHO, Mirror(z0=1e307),
                       [1e-4, 2e-4], 8, PhysicsDomainError),
    # n = 1 meets MAX_ARGUMENT before n = 2's photon frequency (and, at
    # the mirror, its boundary phase) is infinite.
    "drive-1e308": (AtomParams(omega0=1.0, g=1.0),
                    ShoMotion(amplitude=1e-3, Omega=1e308), FreeSpace(),
                    [1e-3, 2e-3], 2, PhysicsDomainError),
    "drive-1e308-mirror": (AtomParams(omega0=1.0, g=1.0),
                           ShoMotion(amplitude=1e-3, Omega=1e308),
                           Mirror(z0=1.0), [1e-3, 2e-3], 2,
                           PhysicsDomainError),
    "decreasing-axis": (_ATOM, _SHO, Mirror(z0=1e-3),
                        [2e-4, 1e-4], 8, PhysicsDomainError),
}


class TestRateSurfaceMatchesRowByRowLoop:
    @pytest.mark.parametrize("case", ERROR_CASES.values(),
                             ids=ERROR_CASES.keys())
    def test_error_type_and_message(self, case):
        *args, error = case
        new, old = outcome(rate_surface, *args), outcome(frozen_rate_surface,
                                                         *args)
        assert new == old
        assert isinstance(old, tuple) and old[0] is error

    @pytest.mark.parametrize("geom", [FreeSpace(), Mirror(z0=1e-3)],
                             ids=["free_space", "mirror"])
    @pytest.mark.parametrize("motion", [
        _SHO, ShoMotion(amplitude=1e-4, Omega=_OMEGA, orientation=PARALLEL,
                        delta=0.3)], ids=["perpendicular", "parallel"])
    def test_values_bit_equal(self, motion, geom):
        amplitudes = np.linspace(0.0, 9e-4, 7)
        args = (_ATOM, motion, geom, amplitudes, 40)
        new = outcome(rate_surface, *args)
        assert isinstance(new, bytes)
        assert new == outcome(frozen_rate_surface, *args)


class TestSpectrum:
    def test_free_space_ladder(self):
        atom = AtomParams(omega0=1.0, g=1.0)
        motion = ShoMotion(amplitude=0.02, Omega=2.0)
        lines = allowed_sidebands(atom, motion, FreeSpace(), 5)
        assert [line.omega for line in lines] == pytest.approx(
            [1.0, 3.0, 5.0, 7.0, 9.0])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mirror_node_parity(self, n):
        # k z0 = pi/2 at this n: sin^2(pi/2 - pi n/2) = cos^2(pi n/2)
        # vanishes for odd n.
        atom = AtomParams(omega0=0.5, g=1.0)
        omega = n * 1.0 - 0.5
        k = omega / C
        geom = Mirror(z0=(math.pi / 2) / k)
        motion = ShoMotion(amplitude=1.0 / k, Omega=1.0)
        line = geom.sideband(atom, motion, n)
        if n % 2 == 1:
            assert line.rate < 1e-30 * atom.g**2
        else:
            assert line.rate > 0.0

    def test_empty_below_threshold(self):
        atom = AtomParams(omega0=10.0, g=1.0)
        motion = ShoMotion(amplitude=0.02, Omega=1.0)
        assert allowed_sidebands(atom, motion, FreeSpace(), 5) == []

    def test_verified_spectrum_passes_on_consistent_physics(self):
        atom = AtomParams(omega0=1.0, g=0.5)
        motion = ShoMotion(amplitude=0.4 * C, Omega=2.0)
        lines = verified_spectrum(atom, motion, FreeSpace(), 3)
        assert len(lines) == 3

    def test_verification_flags_a_corrupted_closed_form(self, monkeypatch):
        import accelrad.oracle as oracle_module

        real = oracle_module.one_period_amplitude

        def skewed(*args, **kwargs):
            res = real(*args, **kwargs)
            return replace(res, rate=res.rate * 1.01)

        monkeypatch.setattr(oracle_module, "one_period_amplitude", skewed)
        atom = AtomParams(omega0=1.0, g=0.5)
        motion = ShoMotion(amplitude=0.4 * C, Omega=2.0)
        with pytest.raises(OracleMismatchError):
            verified_spectrum(atom, motion, FreeSpace(), 2)

    def test_verification_flags_a_skewed_line_near_1e_12_of_scale(
            self, monkeypatch):
        # Free-space n = 3 line at about 1e-12 of 8 pi g^2 / Omega: far
        # above the float64 floor of its integral, so a 1% skew of its
        # oracle rate alone must be caught.
        import accelrad.oracle as oracle_module

        atom = AtomParams(omega0=1.0, g=0.5)
        Omega, n = 2.0, 3
        omega = n * Omega - atom.omega0
        motion = ShoMotion(amplitude=0.0458 * C / omega, Omega=Omega)
        rate = FreeSpace().sideband(atom, motion, n).rate
        assert 1e-13 < rate / (8.0 * math.pi * atom.g**2 / Omega) < 1e-11
        real = oracle_module.one_period_amplitude

        def skewed(*args, **kwargs):
            res = real(*args, **kwargs)
            if args[2] != omega:
                return res
            return replace(res, rate=res.rate * 1.01)

        assert verified_spectrum(atom, motion, FreeSpace(), n)
        monkeypatch.setattr(oracle_module, "one_period_amplitude", skewed)
        with pytest.raises(OracleMismatchError, match="n=3"):
            verified_spectrum(atom, motion, FreeSpace(), n)

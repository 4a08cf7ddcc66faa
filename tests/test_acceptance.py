"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single ``criterion N: PASS`` line on success; a failing
criterion fails its test with a diagnostic of the violating cells.  Runtime
bounds are asserted where the criterion pins them.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from accelrad import (ABSORB_DEEXCITE, EMIT_EXCITE, PARALLEL, AtomParams,
                      Cavity, FreeSpace, GeneralPeriodicMotion, Mirror,
                      RotationMotion, ShoMotion, bessel_j, equivalence_cases,
                      fig2_surface, fig3_surface,
                      general_trajectory_spectrum, one_period_amplitude,
                      rational_period_integral, small_amplitude_rate)
from accelrad.oracle import closed_form_rate
from accelrad.constants import SPEED_OF_LIGHT as C

TWO_PI = 2.0 * math.pi


def test_criterion_01_free_space_peak_rate():
    """Free-space line n=1 at a_tilde=1.8412 = 2.13 g^2/Omega to 1%, < 1 ms."""
    atom = AtomParams(omega0=1.0, g=0.37)
    Omega = 2.0
    omega = 1 * Omega - atom.omega0
    motion = ShoMotion(amplitude=1.8412 * C / omega, Omega=Omega)
    free = FreeSpace()
    free.sidebands(atom, motion, 1)  # warm-up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        (line,) = free.sidebands(atom, motion, 1)
        best = min(best, time.perf_counter() - t0)
    ratio = line.rate / (atom.g**2 / Omega)
    assert abs(ratio - 2.13) <= 0.01 * 2.13, f"got {ratio} g^2/Omega"
    assert best < 1e-3, f"single evaluation took {best * 1e3:.3f} ms"
    print(f"criterion 1: PASS - peak rate {ratio:.4f} g^2/Omega "
          f"in {best * 1e6:.0f} us")


def test_criterion_02_selection_rule():
    """|J(x; p, q)| < 1e-10 for all coprime (p, q), q in [2,7], p in [1,20];
    x in {0.3, 1.0, 2.5, 7.0}.  Runtime < 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = None
    cases = 0
    for q in range(2, 8):
        for p in range(1, 21):
            if math.gcd(p, q) != 1:
                continue
            for x in (0.3, 1.0, 2.5, 7.0):
                cases += 1
                value = abs(rational_period_integral(x, p, q))
                if value > worst:
                    worst, worst_at = value, (x, p, q)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"max |J| = {worst:g} at (x, p, q) = {worst_at}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    print(f"criterion 2: PASS - max |J| = {worst:.2e} over {cases} cases "
          f"in {elapsed:.2f} s")


def test_criterion_03_oracle_equivalence():
    """200 random free/mirror/cavity draws: closed form vs quadrature to
    relative 1e-8.  Runtime < 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = None
    cases = equivalence_cases(seed=20260808, count=200)
    for case in cases:
        atom, motion, geom, n, omega = case
        reference = closed_form_rate(atom, motion, geom, n)
        result = one_period_amplitude(motion, geom, omega, atom.omega0,
                                      g=atom.g)
        deviation = abs(result.rate - reference) / reference
        if deviation > worst:
            worst, worst_case = deviation, case
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"max relative deviation {worst:g} at {worst_case}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    print(f"criterion 3: PASS - max relative deviation {worst:.2e} "
          f"over {len(cases)} draws in {elapsed:.2f} s")


def test_criterion_04_static_atom_null_result(cavity_line):
    """A = 0 gives exactly zero rate for n in [1, 20] in every geometry."""
    atom = AtomParams(omega0=0.5, g=1.0)
    Omega = 1.0
    still_sho = ShoMotion(amplitude=0.0, Omega=Omega)
    still_rot = RotationMotion(radius=0.0, Omega=Omega)
    mirror = Mirror(z0=1.0)
    for n in range(1, 21):
        assert FreeSpace().sidebands(atom, still_sho, n)[0].rate == 0.0
        assert mirror.sidebands(atom, still_sho, n)[0].rate == 0.0
        assert mirror.sidebands(atom, still_rot, n)[0].rate == 0.0
        # cavity resonant at this n, mode m = 2
        omega = 0.6 * n * Omega
        cavity_atom = AtomParams(omega0=n * Omega - omega, g=1.0)
        geom = Cavity(length=2.0 * math.pi * C / omega, z0=math.pi * C / omega)
        assert cavity_line(cavity_atom, still_sho, geom, n, 2).rate == 0.0
    for n in (1, 3, 20):
        res = one_period_amplitude(still_sho, mirror, n * Omega - 0.5, 0.5)
        assert abs(res.amplitude) < 1e-12
    print("criterion 4: PASS - zero rate for A = 0, n in [1, 20], "
          "all geometries")


def test_criterion_05_mirror_node_zeros():
    """Rate < 1e-14 (normalized) whenever k z0 - pi n/2 is a multiple of pi,
    scanned over n in [1, 10]."""
    atom = AtomParams(omega0=0.5, g=1.0)
    Omega = 1.0
    worst = 0.0
    for n in range(1, 11):
        omega = n * Omega - atom.omega0
        k = omega / C
        for j in range(4):
            z0 = (0.5 * math.pi * n + j * math.pi) / k
            motion = ShoMotion(amplitude=1.2 / k, Omega=Omega)
            rate = Mirror(z0=z0).sidebands(atom, motion, n)[0].rate
            worst = max(worst, rate / (atom.g**2 / Omega))
    assert worst < 1e-14, f"largest normalized node rate {worst:g}"
    print(f"criterion 5: PASS - largest normalized node rate {worst:.2e}")


def test_criterion_06_cavity_photon_number_scaling(cavity_line):
    """Emit rate at N = 3 is exactly 4x the N = 0 rate; absorb at N = 0 is
    exactly zero."""
    Omega = 2.0e9
    n, m = 2, 3
    omega = 0.6 * n * Omega
    atom = AtomParams(omega0=n * Omega - omega, g=1.0e3)
    length = math.pi * m * C / omega
    motion = ShoMotion(amplitude=0.05 * length, Omega=Omega)

    def cavity(n_photons):
        return Cavity(length=length, z0=0.3 * length, n_photons=n_photons)

    r0 = cavity_line(atom, motion, cavity(0), n, m, EMIT_EXCITE).rate
    r3 = cavity_line(atom, motion, cavity(3), n, m, EMIT_EXCITE).rate
    assert r3 / r0 == 4.0

    omega_abs = 1.5 * n * Omega
    absorb_atom = AtomParams(omega0=n * Omega + omega_abs, g=1.0e3)
    absorb_length = math.pi * m * C / omega_abs
    absorb_motion = ShoMotion(amplitude=0.05 * absorb_length, Omega=Omega)
    absorbed = cavity_line(absorb_atom, absorb_motion,
                           Cavity(length=absorb_length,
                                  z0=0.3 * absorb_length, n_photons=0),
                           n, m, ABSORB_DEEXCITE).rate
    assert absorbed == 0.0
    print("criterion 6: PASS - emit ratio N=3/N=0 exactly 4; "
          "absorb at N=0 exactly 0")


def test_criterion_07_fig2_structure():
    """Grid max at n = 1, a_tilde in [1.83, 1.85]; every sideband n <= 30
    is suppressed below the threshold a_tilde = n/2.  Runtime < 5 s.

    Suppression is checked with bounds that J_n obeys.  DLMF 10.14.4 gives
    |J_n(x)| <= |x/2|^n / n! for real x and integer n >= 0, so:

    (a) for every n and every grid a_tilde < n/2 the rate is at most
        ((a_tilde/2)^n / n!)^2, with a relative slack of 1e-12 for rounding;
    (b) the rate stays below 1e-3 x the global max for all a_tilde < n/2 at
        every n whose majorant at a_tilde = n/2, ((n/4)^n / n!)^2, lies
        below 1e-3 x the global max;
    (c) the worst ratio to the global max below a_tilde = n/2 strictly
        decreases with n: the threshold sharpens as n grows.

    The 1e-3 bound is a large-n statement.  For n = 1..5 the majorant at
    n/2 lies above it and J_n itself exceeds it just below n/2
    (J_1^2(0.49)/J_1^2(1.84) ~ 0.17), so those orders are held to (a) and
    (c) instead.
    """
    t0 = time.perf_counter()
    a_values = np.linspace(0.0, 30.0, 3001)  # step 0.01
    orders = range(1, 31)
    surface = fig2_surface(a_values, len(orders))
    values = surface.values
    i, j = np.unravel_index(np.argmax(values), values.shape)
    peak_a = surface.axis1_values[i]
    peak_n = int(surface.axis2_values[j])
    global_max = values[i, j]
    elapsed = time.perf_counter() - t0
    assert peak_n == 1, f"grid maximum at n = {peak_n}"
    assert 1.83 <= peak_a <= 1.85, f"grid maximum at a_tilde = {peak_a}"
    assert abs(global_max - 0.3386) <= 0.01 * 0.3386
    assert elapsed < 5.0, f"took {elapsed:.1f} s"

    bound = 1e-3 * global_max
    majorant_breaks = []   # (a): (n, cells above the majorant)
    bound_breaks = []      # (b): (n, a_tilde, ratio to global max)
    worst_ratios = []
    worst_majorant_ratio = 0.0
    first_bounded = None
    for column, n in enumerate(orders):
        below = a_values < n / 2.0
        rates = values[below, column]
        majorant = ((a_values[below] / 2.0) ** n / math.factorial(n)) ** 2
        above = int(np.count_nonzero(rates > majorant * (1.0 + 1e-12)))
        if above:
            majorant_breaks.append((n, above))
        positive = majorant > 0.0
        worst_majorant_ratio = max(
            worst_majorant_ratio,
            float(np.max(rates[positive] / majorant[positive])))
        worst_ratios.append(float(rates.max() / global_max))
        if ((n / 4.0) ** n / math.factorial(n)) ** 2 < bound:
            if first_bounded is None:
                first_bounded = n
            if rates.max() >= bound:
                worst_a = a_values[below][np.argmax(rates)]
                bound_breaks.append((n, float(worst_a), worst_ratios[-1]))
    rising = [n for n, previous, current
              in zip(orders[1:], worst_ratios, worst_ratios[1:])
              if current >= previous]

    summary = (f"1e-3 x global max bound applies from n = {first_bounded}, "
               f"worst rate/majorant ratio {worst_majorant_ratio:.7f}")
    failures = []
    if first_bounded is None:
        failures.append("1e-3 bound applies at no n <= 30")
    if majorant_breaks:
        total = sum(k for _, k in majorant_breaks)
        failures.append(f"(a) {total} cells above the DLMF 10.14.4 majorant"
                        ": " + ", ".join(f"n={n} ({k})"
                                         for n, k in majorant_breaks))
    if bound_breaks:
        failures.append("(b) rate >= 1e-3 x global max below a_tilde = n/2 "
                        "at " + ", ".join(f"n={n} (a_tilde={a:.2f}, "
                                          f"ratio={r:.2e})"
                                          for n, a, r in bound_breaks))
    if rising:
        failures.append("(c) worst below-threshold ratio does not decrease "
                        f"at n = {rising}")
    if failures:
        print(f"criterion 7: FAIL - {summary}; " + "; ".join(failures))
    else:
        print(f"criterion 7: PASS - max at (n=1, a_tilde={peak_a:.2f}); "
              f"{summary}; worst below-threshold ratio decreases over "
              "n <= 30")
    assert not failures, f"{summary}; " + "; ".join(failures)


def test_criterion_08_cqed_order_of_magnitude():
    """Default fig3 surface reaches the 1e-4 Hz decade within A <= 10 nm,
    alpha <= 1; the small-amplitude form tracks the exact Bessel formula to
    < 1% wherever a_tilde < 0.05."""
    # Omega/2pi = 10 GHz, omega0 = Omega/2
    surface = fig3_surface(np.linspace(1e-8 / 128, 1e-8, 128),
                           np.linspace(1 / 128, 1.0, 128))
    assert max(surface.axis1_values) <= 1e-8
    assert max(surface.axis2_values) <= 1.0
    decade = (surface.values >= 1e-4) & (surface.values < 1e-3)
    assert np.any(decade), "no cells in the 1e-4 Hz decade"

    Omega = 4.0
    atom = AtomParams(omega0=2.0, alpha=0.3)
    worst = 0.0
    for a_tilde in np.linspace(1e-4, 0.0499, 60):
        motion = ShoMotion(amplitude=a_tilde * C / 2.0, Omega=Omega)
        approx = small_amplitude_rate(atom, motion)
        exact = FreeSpace().sidebands(atom, motion, 1)[0].rate
        worst = max(worst, abs(approx - exact) / exact)
    assert worst < 1e-2, f"approximation error {worst:g}"
    print(f"criterion 8: PASS - {int(decade.sum())} cells in the 1e-4 Hz "
          f"decade; small-amplitude error <= {worst:.2e} for a_tilde < 0.05")


def test_criterion_09_rotation_and_parallel_reductions():
    """Rotating-atom and parallel-oscillation rates equal the substituted
    mirror formula to 1e-12 on a 100-point grid."""
    rng = np.random.default_rng(99)
    atom = AtomParams(omega0=0.5, g=0.8)
    Omega = 1.0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        omega = n * Omega - atom.omega0
        k = omega / C
        delta = float(rng.uniform(0.0, TWO_PI))
        z_tilde = float(rng.uniform(1.0, 7.0))
        a_tilde = float(rng.uniform(0.05, 0.95 * z_tilde))
        z0 = z_tilde / k
        prefactor = 8.0 * math.pi * atom.g**2 / Omega
        expected = prefactor \
            * math.sin(k * math.cos(delta) * z0 - 0.5 * math.pi * n) ** 2 \
            * bessel_j(n, a_tilde) ** 2
        rot = Mirror(z0=z0).sidebands(
            atom, RotationMotion(radius=a_tilde / k, Omega=Omega,
                                 delta=delta), n)[0].rate
        assert rot == pytest.approx(expected, rel=1e-12, abs=1e-290)

        par_expected = prefactor \
            * math.sin(k * math.cos(delta) * z0 - 0.5 * math.pi * n) ** 2 \
            * bessel_j(n, k * math.sin(delta) * (a_tilde / k)) ** 2
        par = Mirror(z0=z0).sidebands(
            atom, ShoMotion(amplitude=a_tilde / k, Omega=Omega,
                            orientation=PARALLEL, delta=delta), n)[0].rate
        assert par == pytest.approx(par_expected, rel=1e-12, abs=1e-290)
        checked += 1
    assert checked == 100
    print("criterion 9: PASS - rotation and parallel reductions match the "
          "substituted formula on 100 draws")


def test_criterion_10_general_trajectory_regression():
    """Sampled pure sinusoid through the quadrature spectrum matches the
    closed-form SHO rates to relative 1e-6."""
    atom = AtomParams(omega0=1.0, g=0.5)
    Omega = 2.0
    amplitude = 2.4 * C / (Omega - atom.omega0)
    ts = TWO_PI * np.arange(64) / 64
    sampled = GeneralPeriodicMotion(
        Omega=Omega, samples=tuple(float(amplitude * math.sin(t))
                                   for t in ts))
    sho = ShoMotion(amplitude=amplitude, Omega=Omega)
    lines = general_trajectory_spectrum(atom, sampled, FreeSpace(), 6)
    assert [line.n for line in lines] == [1, 2, 3, 4, 5, 6]
    worst = 0.0
    for line in lines:
        closed = FreeSpace().sidebands(atom, sho, line.n)[0].rate
        worst = max(worst, abs(line.rate - closed) / closed)
    assert worst <= 1e-6, f"max relative deviation {worst:g}"
    print(f"criterion 10: PASS - sampled sinusoid matches closed form to "
          f"{worst:.2e}")

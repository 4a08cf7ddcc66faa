"""The one line builder against mpmath, next to the expressions it replaced.

Before the three per-geometry rate bodies became one builder over the field
mode, free space wrote its Bessel argument as ``omega A / c`` and the cavity
wrote ``pi m A / L`` and ``pi m z0 / L - n pi / 2``.  The builder writes
``k A`` and ``k z0 - n pi / 2`` with ``k = omega / c`` or ``pi m / L``,
which moves the last bits of those lines.  Frozen copies of the old
expressions stay here.  The reference takes the floats the program works
from (omega, A, m, L, z0, g, Omega) as exact, evaluates at 40 digits and
compares relative to ``max(|rate|, 1e-10 * 8 pi g^2 / Omega)``, the floor
``bench/check.py`` uses.

Both expressions round the same number of times, so which one has the
larger worst error over a draw set is a coin flip decided by one draw (near
a node of sin or J_n, where a last-bit change of the argument is amplified):
over seeds 0-9 the builder's worst was above the old worst on 2 free-space
and 4 cavity seeds, and below it on others, by at most a factor 1.48.  The
gate therefore asks for no systematic loss instead: a sign test on the
draws where the two differ, and a worst error within twice the old worst.
"""

import math

import mpmath
import numpy as np
import pytest

from accelrad import (ABSORB_DEEXCITE, EMIT_EXCITE, AtomParams, Cavity,
                      FreeSpace, ShoMotion, bessel_j)
from accelrad.constants import SPEED_OF_LIGHT as C

DRAWS = 1500
N_MAX = 60
X_MAX = 60.0
SEED = 7


def frozen_free_space_rate(atom, motion, n, omega):
    a_tilde = omega * motion.amplitude / C
    return (2.0 * math.pi * atom.g**2 / motion.Omega
            * bessel_j(n, a_tilde)**2)


def frozen_cavity_rate(atom, motion, geom, n, m, chi):
    a_tilde = math.pi * m * motion.amplitude / geom.length
    theta = math.pi * m * geom.z0 / geom.length - 0.5 * math.pi * n
    return (8.0 * math.pi * chi * atom.g**2 / motion.Omega
            * math.sin(theta)**2 * bessel_j(n, a_tilde)**2)


def relative_error(rate, exact, atom, motion):
    floor = 1e-10 * 8 * mpmath.pi * mpmath.mpf(atom.g)**2 / motion.Omega
    return float(abs(rate - exact) / max(abs(exact), floor))


def free_space_draws(rng):
    """``(atom, motion, n)`` with an open line and 0 < omega A / c <= 60."""
    for _ in range(DRAWS):
        n = int(rng.integers(1, N_MAX + 1))
        Omega = 10.0 ** rng.uniform(6.0, 10.0)
        omega = float(rng.uniform(0.05, 0.95)) * n * Omega
        x = float(rng.uniform(0.0, X_MAX))
        atom = AtomParams(omega0=n * Omega - omega,
                          g=10.0 ** rng.uniform(3.0, 6.0))
        yield atom, ShoMotion(amplitude=x * C / omega, Omega=Omega), n


def cavity_draws(rng):
    """``(atom, motion, geom, n, m, branch)`` resonant with mode m, the
    motion clear of both mirrors, alternating the two branches."""
    for i in range(DRAWS):
        n = int(rng.integers(1, N_MAX + 1))
        m = int(rng.integers(1, N_MAX + 1))
        Omega = 10.0 ** rng.uniform(6.0, 10.0)
        length = math.pi * m * C / (float(rng.uniform(0.05, 0.95))
                                    * n * Omega)
        z_frac = float(rng.uniform(0.15, 0.85))
        geom = Cavity(length=length, z0=z_frac * length,
                      n_photons=int(rng.integers(0, 4)))
        hi = min(X_MAX, 0.98 * math.pi * m * min(z_frac, 1.0 - z_frac))
        x = float(rng.uniform(0.0, hi))
        branch = (EMIT_EXCITE, ABSORB_DEEXCITE)[i % 2]
        omega_m = geom.mode_frequency(m)
        omega0 = (n * Omega - omega_m if branch == EMIT_EXCITE
                  else n * Omega + omega_m)
        atom = AtomParams(omega0=omega0, g=10.0 ** rng.uniform(3.0, 6.0))
        motion = ShoMotion(amplitude=x * length / (math.pi * m), Omega=Omega)
        yield atom, motion, geom, n, m, branch


def the_line(geom, atom, motion, n, branch):
    line = geom.sideband(atom, motion, n)
    assert line.branch == branch
    return line


def free_space_errors():
    errors = []
    with mpmath.workdps(40):
        for atom, motion, n in free_space_draws(np.random.default_rng(SEED)):
            line = the_line(FreeSpace(), atom, motion, n, EMIT_EXCITE)
            k = mpmath.mpf(line.omega) / C
            exact = (2 * mpmath.pi * mpmath.mpf(atom.g)**2 / motion.Omega
                     * mpmath.besselj(n, k * motion.amplitude)**2)
            old = frozen_free_space_rate(atom, motion, n, line.omega)
            errors.append((relative_error(line.rate, exact, atom, motion),
                           relative_error(old, exact, atom, motion)))
    return errors


def cavity_errors():
    errors = []
    with mpmath.workdps(40):
        for atom, motion, geom, n, m, branch in cavity_draws(
                np.random.default_rng(SEED)):
            line = the_line(geom, atom, motion, n, branch)
            assert line.m == m
            chi = geom.n_photons + (branch == EMIT_EXCITE)
            k = mpmath.pi * m / mpmath.mpf(geom.length)
            theta = k * geom.z0 - mpmath.pi * n / 2
            exact = (8 * mpmath.pi * chi * mpmath.mpf(atom.g)**2
                     / motion.Omega * mpmath.sin(theta)**2
                     * mpmath.besselj(n, k * motion.amplitude)**2)
            old = frozen_cavity_rate(atom, motion, geom, n, m, chi)
            errors.append((relative_error(line.rate, exact, atom, motion),
                           relative_error(old, exact, atom, motion)))
    return errors


@pytest.mark.parametrize("errors", [free_space_errors, cavity_errors],
                         ids=["free_space", "cavity"])
def test_builder_is_no_less_accurate_than_the_frozen_expressions(errors):
    pairs = errors()
    assert len(pairs) == DRAWS
    worse = sum(new > old for new, old in pairs)
    better = sum(new < old for new, old in pairs)
    assert worse - better <= 3.0 * math.sqrt(worse + better)
    new, old = (max(column) for column in zip(*pairs))
    assert new <= 2.0 * old
    assert new < 1e-9

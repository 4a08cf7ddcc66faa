"""Special-function tests against independent oracles.

Expected values are frozen from an oracle that never touches the library
code path: an fsum-accumulated power series for Bessel.  scipy serves as a
second, fully external cross-check, and mpmath as the high-precision
reference for the Miller path, which must also match a frozen copy of its
original recurrence bit for bit wherever that copy did not rescale and
Kapteyn's cut takes no order.
"""

import itertools
import math
import random
import re
import sys
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import accelrad.specfun as specfun
from accelrad import (AtomParams, ConvergenceError, FreeSpace,
                      PhysicsDomainError, ShoMotion, allowed_sidebands,
                      bessel_j, bessel_j_orders, rational_period_integral)
from accelrad import _quadrature as quadrature
from accelrad._quadrature import refine_to_tolerance
from accelrad.constants import SPEED_OF_LIGHT as C

# Frozen from the fsum power-series oracle below.
J1_AT_FIRST_PEAK = 0.5818652242276431
# Anger J_{1/2}(1), frozen from the dense-trapezoid oracle below.
ANGER_HALF_AT_ONE = 0.85516530967887


def series_oracle(n, x, terms=400):
    """Independent Bessel J_n power series, fsum-accumulated."""
    term = 1.0
    for i in range(1, n + 1):
        term *= 0.5 * x / i
    vals = []
    for k in range(terms):
        vals.append(term)
        term *= -(0.5 * x) ** 2 / ((k + 1) * (n + k + 1))
        if abs(term) < 1e-300:
            break
    return math.fsum(vals)


def miller_reference(n_max, x):
    """J_0(x) .. J_{n_max}(x) for x > 0, frozen from the original recurrence.

    A straight transcription of the numpy-scratch Miller pass that the
    library's pure-float kernel replaced, rescales by 1e-250 and underflow
    included.  The library matches it bit for bit wherever it did not
    rescale and Kapteyn's cut takes no order of the column
    (``check_against_frozen``).
    """
    base = max(n_max, int(x))
    m = base + 16 + int(2.5 * math.sqrt(base + 1.0))
    m += m & 1
    out = np.empty(n_max + 1)
    j_up = 0.0
    j_cur = 1e-30
    norm = 2.0 * j_cur if m % 2 == 0 else 0.0
    for k in range(m, 0, -1):
        j_down = (2.0 * k / x) * j_cur - j_up
        j_up = j_cur
        j_cur = j_down
        idx = k - 1
        if abs(j_cur) > 1e250:
            scale = 1.0 / 1e250
            j_cur *= scale
            j_up *= scale
            norm *= scale
            out[idx + 1:] *= scale
        if idx <= n_max:
            out[idx] = j_cur
        if idx % 2 == 0:
            norm += j_cur if idx == 0 else 2.0 * j_cur
    out /= norm
    return out


def miller_rescale_orders(n_max, x):
    """The orders at which ``miller_reference(n_max, x)`` rescales, from
    the same recurrence run without storing."""
    base = max(n_max, int(x))
    m = base + 16 + int(2.5 * math.sqrt(base + 1.0))
    m += m & 1
    j_up, j_cur, orders = 0.0, 1e-30, []
    for k in range(m, 0, -1):
        j_up, j_cur = j_cur, (2.0 * k / x) * j_cur - j_up
        if abs(j_cur) > 1e250:
            j_up, j_cur = j_up * (1.0 / 1e250), j_cur * (1.0 / 1e250)
            orders.append(k - 1)
    return orders


def miller_envelope(x):
    """The envelope min(1, sqrt(2/(pi x))) of |J_n(x)|, the unit of
    ``test_miller_path_against_mpmath``'s bound."""
    return min(1.0, math.sqrt(2.0 / (math.pi * x)))


#: test_miller_path_against_mpmath's bound, in units of the envelope.
MILLER_BOUND = 1.5e-11


def check_moved_value(k, x, value):
    """|value - J_k(x)| <= MILLER_BOUND envelopes, x > 0, J from mpmath.
    Where Kapteyn's bound and |value| are both below 1e-12 envelopes the
    bound holds without mpmath."""
    floor = 1e-12 * miller_envelope(x)
    if k > x and abs(value) <= floor and kapteyn_exponent(k, x) < math.log(
            floor):
        return
    with mpmath.workdps(30):
        exact = float(mpmath.besselj(k, mpmath.mpf(x), maxprec=40000,
                                     maxterms=10**6))
    assert abs(value - exact) <= MILLER_BOUND * miller_envelope(x), (
        k, x, value, exact)


def check_against_frozen(values, lo, hi, x):
    """Check ``values``, the library's J_lo(x) .. J_hi(x) at x > 0, against
    ``miller_reference(hi, x)``: bit for bit where the frozen pass did not
    rescale and Kapteyn's cut takes no order up to hi.  Elsewhere every
    order the cut takes is 0.0, as it was in the frozen pass, and every
    other value that moved passes ``check_moved_value``.  Returns whether
    the column could move."""
    frozen = miller_reference(hi, x)[lo:].tolist()
    values = [float(v) for v in values]
    if not miller_rescale_orders(hi, x) and not kapteyn_zero(hi, x):
        assert [v.hex() for v in values] == [v.hex() for v in frozen], (
            lo, hi, x)
        return False
    for k, value, old in zip(range(lo, hi + 1), values, frozen):
        if kapteyn_zero(k, x):
            assert value == 0.0 and old == 0.0, (k, x, value, old)
        elif value != old:
            check_moved_value(k, x, value)
    return True


def miller_grid(seed, count):
    """Seeded (n, x) pairs on the Miller path: n <= 3500, 12 < x <= 5000."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        x = math.exp(rng.uniform(math.log(12.0), math.log(5000.0)))
        n = rng.randint(0, min(3500, int(1.2 * x) + 20))
        pairs.append((n, x))
    return pairs


def anger_gl(nu, x):
    """Anger J_nu(x) = (1/pi) int_0^pi cos(x sin t - nu t) dt, integrated by
    the Gauss-Legendre route that backs rational_period_integral."""
    def integrand(t):
        return np.cos(x * np.sin(t) - nu * t)

    panels = max(16, math.ceil(4.0 * (abs(x) + abs(nu))))
    value, _, _ = refine_to_tolerance(integrand, 0.0, math.pi, panels)
    return value / math.pi


def anger_trapezoid_oracle(nu, x, panels=10**6):
    """Independent dense-trapezoid Anger evaluation."""
    t = np.linspace(0.0, math.pi, panels + 1)
    f = np.cos(x * np.sin(t) - nu * t)
    h = math.pi / panels
    return float(h * (0.5 * f[0] + f[1:-1].sum() + 0.5 * f[-1]) / math.pi)


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_j1_at_zero(self):
        assert bessel_j(1, 0.0) == 0.0

    def test_first_peak_of_j1(self):
        assert series_oracle(1, 1.8412) == pytest.approx(J1_AT_FIRST_PEAK,
                                                         rel=1e-14)
        assert bessel_j(1, 1.8412) == pytest.approx(J1_AT_FIRST_PEAK,
                                                    rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 12])
    @pytest.mark.parametrize("x", [0.3, 1.7, 6.0, 11.9, 13.5, 20.0])
    def test_against_series_and_scipy(self, n, x):
        mine = bessel_j(n, x)
        if x <= 12.0:  # the series oracle itself cancels badly beyond here
            assert mine == pytest.approx(series_oracle(n, x), abs=1e-12)
        assert mine == pytest.approx(scipy.special.jv(n, x), abs=1e-12)

    @pytest.mark.parametrize("x", [15.0, 30.0, 60.0, 120.0, 500.0])
    def test_miller_branch_against_scipy(self, x):
        for n in (0, 1, 3, 10, 25):
            assert bessel_j(n, x) == pytest.approx(scipy.special.jv(n, x),
                                                   abs=1e-12)

    @given(st.integers(0, 12), st.floats(-20.0, 20.0))
    @settings(max_examples=200)
    def test_parity_symmetry(self, n, x):
        assert abs(bessel_j(n, -x) - (-1.0) ** n * bessel_j(n, x)) < 1e-12

    @given(st.integers(1, 12),
           st.floats(0.05, 20.0))
    @settings(max_examples=200)
    def test_three_term_recurrence(self, n, x):
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = (2.0 * n / x) * bessel_j(n, x)
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("x", [math.nextafter(1e7, math.inf), -2e7])
    def test_argument_above_the_cap_is_refused(self, x):
        # A Miller pass costs O(|x|); the huge arguments that would run for
        # hours are covered in a subprocess by tests/test_cli.py.
        for evaluate in (bessel_j, bessel_j_orders):
            with pytest.raises(PhysicsDomainError,
                               match=r"above MAX_ARGUMENT = 1e\+07"):
                evaluate(3, x)

    def test_orders_array_matches_scalar(self):
        for x in (0.0, 0.02, 0.8, 7.5, 11.99, 12.5, 29.7, 55.0):
            arr = bessel_j_orders(30, x)
            for n in (0, 1, 7, 18, 30):
                assert arr[n] == pytest.approx(bessel_j(n, x),
                                               rel=1e-11, abs=1e-13)

    def test_orders_array_negative_argument(self):
        arr = bessel_j_orders(6, -3.2)
        for n in range(7):
            assert arr[n] == pytest.approx(bessel_j(n, -3.2), rel=1e-11,
                                           abs=1e-14)

    def test_miller_path_bit_identical_to_reference(self, monkeypatch):
        # Random orders up to 3500 (most of them cut for small x), the
        # corner just above the series cutoff, where the frozen pass
        # rescaled up to 28 times by 1e-250, and negative arguments.  The
        # Miller kernel, on every order the cut lets through, and bessel_j,
        # on every case it routes to that kernel or to the cut, not to
        # Debye's expansion or to the Debye-anchored pass, must match the
        # frozen pass as ``check_against_frozen`` says.
        class Debye(Exception):
            pass

        class Anchored(Exception):
            pass

        def debye(n, x):
            raise Debye

        def anchored(n, x):
            raise Anchored

        monkeypatch.setattr(specfun, "_bessel_debye", debye)
        monkeypatch.setattr(specfun, "_bessel_anchored", anchored)
        rng = random.Random(3)
        cases = [(rng.randint(0, 3500),
                  math.exp(rng.uniform(math.log(12.0), math.log(5000.0))))
                 for _ in range(150)]
        cases += miller_grid(4, 150)
        cases += [(n, 12.5) for n in range(180, 330, 7)]
        cases += [(3000, 12.5), (1000, 12.0000001), (3500, 5000.0)]
        cases += [(n, -x) for n, x in cases[::5]]
        kinds = {"miller": 0, "cut": 0, "debye": 0, "anchored": 0}
        moved = 0
        for n, x in cases:
            sign = -1.0 if x < 0 and n % 2 else 1.0
            values = ()
            if not kapteyn_zero(n, abs(x)):
                values += (specfun._miller_range(n, n, abs(x))[0],)
            try:
                values += (sign * bessel_j(n, x),)
                kinds["cut" if kapteyn_cut(n, abs(x)) else "miller"] += 1
            except Debye:
                kinds["debye"] += 1
            except Anchored:
                kinds["anchored"] += 1
            for value in values:
                assert type(value) is float, (n, x)
                moved += check_against_frozen([value], n, n, abs(x))
        assert sum(kinds.values()) == len(cases) == 390
        assert all(kinds.values()), kinds  # every kind of case occurs
        assert moved > 10

    def test_orders_bit_identical_to_reference(self):
        # Columns with n_max up to 400 at 1e-3 <= x <= 400, both signs,
        # against the frozen pass as ``check_against_frozen`` says.
        rng = random.Random(5)
        cases = [(rng.randint(0, 400),
                  math.exp(rng.uniform(math.log(1e-3), math.log(400.0))))
                 for _ in range(120)]
        cases += [(0, 0.5), (1, 13.0), (2, 400.0), (400, 12.5), (400, 0.01)]
        same = 0
        for n_max, x in cases:
            got = bessel_j_orders(n_max, x)
            flipped = bessel_j_orders(n_max, -x)
            flipped[1::2] *= -1.0
            assert [v.hex() for v in flipped.tolist()] == [
                v.hex() for v in got.tolist()], (n_max, x)
            same += not check_against_frozen(got, 0, n_max, x)
        assert 20 < same < len(cases) - 20

    def test_one_loop_edges_bit_identical_to_reference(self):
        # The edges of the full pass's one pair body: orders 0-3 at
        # 12 < x <= 200, columns with n_max 0, 1 and 2, kept orders at the
        # top, inside and at the bottom of a column at the two x where the
        # frozen pass rescaled at J_1 alone and at J_0 alone, and cut
        # columns whose last uncut order is odd and even.
        cases = [(n, n, x) for n in range(4) for x in (12.5, 57.1, 200.0)]
        cases += [(0, n_max, x) for n_max in range(3)
                  for x in (0.006, 11.9, 12.5, 57.1, 400.0)]
        cases += [(lo, 40, x) for lo in (0, 17, 40)
                  for x in (0.0060255958607435805, 0.006606934480075957)]
        cases += [(0, 269, 12.5), (0, 300, 12.5), (0, 300, 13.0),
                  (1650, 1650, 12.5), (2393, 2393, 48.75113430192001)]
        tops = set()
        for lo, hi, x in cases:
            top = min(hi, last_uncut_order(x))
            if top < hi:
                tops.add(top % 2)
            got = []
            if lo <= top:
                got.append(specfun._miller_range(lo, top, x)
                           + [0.0] * (hi - top))
            if lo == 0:
                got.append(bessel_j_orders(hi, x).tolist())
            if lo == hi and 12.0 < x <= 200.0:
                got.append([bessel_j(lo, x)])
            assert got, (lo, hi, x)
            for values in got:
                check_against_frozen(values, lo, hi, x)
        assert tops == {0, 1}

    def test_miller_path_against_mpmath(self):
        # Absolute error, in units of the envelope min(1, sqrt(2/(pi x))),
        # of the Miller kernel itself on every case and of bessel_j, which
        # routes 26 of the 81 cases to Debye and 10 to the anchored pass.
        # Measured worst, for the kernel and for bessel_j alike: 7.1e-12 at
        # (144, 151.0).  The bound is twice the worst.  The 1e-12 target is
        # not met yet.
        worst = {"kernel": 0.0, "bessel_j": 0.0}
        with mpmath.workdps(30):
            for n, x in miller_grid(11, 80) + [(22, 279.6)]:
                exact = float(mpmath.besselj(n, x, maxprec=40000,
                                             maxterms=10**6))
                envelope = min(1.0, math.sqrt(2.0 / (math.pi * x)))
                for name, value in (
                        ("kernel", specfun._miller_range(n, n, x)[0]),
                        ("bessel_j", bessel_j(n, x))):
                    worst[name] = max(worst[name],
                                      abs(value - exact) / envelope)
        assert max(worst.values()) < 1.5e-11, worst

    @pytest.mark.parametrize("n_max,x", [(300, 1e-57), (3, 1e-100)])
    def test_orders_finite_at_tiny_argument(self, n_max, x):
        # A Miller step (2k/x) J_k overflows here before the 1e250 rescale
        # test of the frozen pass can act; the result must still be finite
        # and correct.
        assert not np.isfinite(miller_reference(n_max, x)).all()
        arr = bessel_j_orders(n_max, x)
        assert np.isfinite(arr).all()
        assert arr[0] == 1.0
        assert arr[1] == x / 2
        with mpmath.workdps(30):
            for k in range(2, n_max + 1):
                exact = float(mpmath.besselj(k, mpmath.mpf(x)))
                assert abs(arr[k] - exact) <= 1e-13 * abs(exact) + 1e-322, k

    def test_orders_bits_unchanged_wherever_finite_before(self):
        # Over arguments small enough for a step of the frozen pass to
        # overflow, every column is finite with J_0 = 1.0.  Where the
        # frozen pass gave it finite it rescaled, so the values may move:
        # each order it gave 0.0 stays 0.0, and each moved value is within
        # test_orders_finite_at_tiny_argument's bound of mpmath.
        rng = random.Random(9)
        finite = overflowed = moved = 0
        for _ in range(300):
            n_max = rng.randint(0, 400)
            x = 10.0 ** rng.uniform(-120.0, -50.0)
            ref = miller_reference(n_max, x)
            got = bessel_j_orders(n_max, x)
            assert np.isfinite(got).all() and got[0] == 1.0, (n_max, x)
            if not np.isfinite(ref).all():
                overflowed += 1
                continue
            finite += 1
            assert not got[ref == 0.0].any(), (n_max, x)
            for k in np.flatnonzero(got != ref).tolist():
                moved += 1
                exact = float(mpmath.besselj(k, mpmath.mpf(x)))
                assert abs(got[k] - exact) <= 1e-13 * abs(exact) + 1e-322, (
                    n_max, x, k)
        assert finite >= 5 and overflowed >= 200 and moved

    def test_tiny_argument_fallback_is_the_leading_term_bit_for_bit(self):
        # Where the column pass overflows, below the grid of
        # TestColumnPass::test_pass_stays_in_normal_range, the series
        # stops after two terms: the leading term (x/2)^k / k!, built as
        # the former dedicated loop built it, plus its first correction,
        # up to the last order Kapteyn's cut lets through, and 0.0 above.
        def frozen_leading_terms(n_max, x):
            half = 0.5 * x
            term = 1.0
            out = [term + term * (-half * half / 1)]
            for k in range(1, n_max + 1):
                term *= half / k
                out.append(term + term * (-half * half / (k + 1)))
            return out

        rng = random.Random(18)
        overflowed = 0
        for _ in range(400):
            n_max = rng.randint(0, 300)
            x = 10.0 ** rng.uniform(-323.5, -6.0)
            top = min(n_max, last_uncut_order(x))
            try:
                specfun._miller_range(0, top, x)
                continue
            except OverflowError:
                overflowed += 1
            ref = frozen_leading_terms(n_max, x)
            assert not any(ref[top + 1:]), (n_max, x)
            ref = np.array(ref[:top + 1] + [0.0] * (n_max - top))
            for sign in (1.0, -1.0):
                got = bessel_j_orders(n_max, sign * x)
                want = ref.copy()
                if sign < 0:
                    want[1::2] *= -1.0
                assert ([v.hex() for v in got.tolist()]
                        == [v.hex() for v in want.tolist()]), (n_max, x)
        assert overflowed >= 300

    def test_tiny_argument_fallback_stops_at_the_first_zero_order(
            self, monkeypatch):
        # Orders past the last one Kapteyn's cut lets through are 0.0; the
        # fallback sums a series only up to it, not per order up to n_max.
        real = specfun._bessel_series
        orders = []

        def counted(n, x):
            orders.append(n)
            return real(n, x)

        monkeypatch.setattr(specfun, "_bessel_series", counted)
        out = bessel_j_orders(30000, 1e-60)
        assert orders == list(range(6))
        assert out[5] > 0.0 and not out[6:].any()

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(ValueError):
            bessel_j(0, math.nan)
        with pytest.raises(ValueError):
            bessel_j(0, math.inf)


def debye_polynomials(k_max):
    """u_0 .. u_k_max of DLMF 10.41.10 as exact coefficient lists (index =
    power of p): u_{k+1}(p) = p^2 (1 - p^2) u_k'(p) / 2
    + int_0^p (1 - 5 t^2) u_k(t) dt / 8."""
    polys = [[Fraction(1)]]
    for _ in range(k_max):
        u = polys[-1]
        nxt = [Fraction(0)] * (len(u) + 3)
        for j, c in enumerate(u):
            nxt[j + 1] += j * c / 2 + c / (8 * (j + 1))
            nxt[j + 3] -= j * c / 2 + 5 * c / (8 * (j + 3))
        polys.append(nxt)
    return polys


def debye_routed(n, x):
    return x > specfun._DEBYE_MIN_X and (
        x * x - n * n) ** 3 >= specfun._DEBYE_MIN_TAU ** 2 * n ** 4


def turning_edge(n):
    """The x at which Debye's route starts for order n: tau = 120."""
    return math.hypot((specfun._DEBYE_MIN_TAU * n * n) ** (1.0 / 3.0), n)


def debye_draws(seed, count):
    """Seeded (n, x) pairs on the Debye route: log-uniform n <= 3500 and
    x/n in (1, 10] with x <= 4000 (mpmath slows past it near the turning
    point), one in twenty with n <= 5 and x up to 1e7, then the edges of
    the route, where its terms converge slowest."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        if len(pairs) % 20 == 19:
            n = rng.randint(1, 5)
            x = math.exp(rng.uniform(math.log(1e3), math.log(1e7)))
        else:
            n = int(math.exp(rng.uniform(0.0, math.log(3500.5))))
            x = n * math.exp(rng.uniform(0.0, math.log(10.0)))
        if (x <= 4000.0 or n <= 5) and debye_routed(n, x):
            pairs.append((n, x))
    for n in (1, 60, 144, 190, 300, 1000, 3000):
        x = max(turning_edge(n), specfun._DEBYE_MIN_X) * (1.0 + 1e-12)
        assert debye_routed(n, x)
        pairs.append((n, x))
    return pairs


class TestDebye:
    """Debye's expansion, the route of bessel_j for x > 200 well past the
    turning point x = n."""

    def test_tables_are_the_dlmf_recurrence(self):
        polys = debye_polynomials(len(specfun._DEBYE_U) - 1)
        for k, (u, row) in enumerate(zip(polys, specfun._DEBYE_U)):
            # u_k(i t) = i^k t^k sum_j u[k + 2j] (-1)^j t^(2j); the table
            # holds U_k(s), highest power of s = t^2 first, with the sign
            # (-1)^(k//2) folded in.
            assert not any(u[:k]) and not any(u[k + 1::2]), k
            exact = [u[k + 2 * j] * (-1) ** (j + k // 2)
                     for j in range(k, -1, -1)]
            assert list(row) == [float(c) for c in exact], k

    def test_phase_constants(self):
        with mpmath.workdps(50):
            for j, (hi, lo) in enumerate(specfun._ATAN_EIGHTHS):
                exact = mpmath.atan(mpmath.mpf(j) / 8)
                assert hi == float(exact) and lo == float(exact - hi), j
            p1, p2, p3 = specfun._TWO_PI
            assert abs(mpmath.mpf(p1) + p2 + p3 - 2 * mpmath.pi) < 1e-33
        for part in (p1, p2):
            mantissa = math.frexp(part)[0] * 2.0 ** 27
            assert mantissa == int(mantissa)

    def test_routed_draws_against_mpmath(self):
        # Absolute error in units of the envelope sqrt(2 / (pi w)),
        # w = sqrt(x^2 - n^2), and relative error where |J| is not small.
        # Measured worst: 2.9e-16 absolute, at (2147, 3471.5), and 2.3e-15
        # relative, at (438, 2361.8); the bounds are under twice each.  On the
        # same draws below x = 1e6, Miller's absolute error has median
        # 7.9e-14 and worst 2.4e-12.  Order 0 (Hankel's expansion) draws
        # log-uniform 200 < x <= 1e7, its edges included.
        rng = random.Random(27)
        zeros = [(0, math.exp(rng.uniform(math.log(200.0), math.log(1e7))))
                 for _ in range(40)]
        pairs = debye_draws(25, 200) + zeros + [
            (0, specfun._DEBYE_MIN_X * (1.0 + 1e-12)), (0, 1e7)]
        assert all(debye_routed(n, x) for n, x in pairs)
        assert max(n for n, _ in pairs) >= 3000
        assert max(x / n for n, x in pairs if n > 5) > 9.0
        worst_abs = worst_rel = 0.0
        with mpmath.workdps(40):
            for n, x in pairs:
                exact = mpmath.besselj(n, mpmath.mpf(x), maxprec=10**5,
                                       maxterms=10**7)
                got = bessel_j(n, x)
                envelope = math.sqrt(2.0 / (math.pi * math.sqrt(x * x - n * n)))
                worst_abs = max(worst_abs,
                                float(abs(got - exact)) / envelope)
                if abs(exact) >= 1e-3 * envelope:
                    worst_rel = max(worst_rel,
                                    float(abs((got - exact) / exact)))
        assert worst_abs <= 5e-16
        assert worst_rel <= 4e-15

    def test_routed_lines_never_enter_miller(self, monkeypatch):
        # The route is O(1): no Miller pass, even at the argument cap.
        def refused(*args):
            raise AssertionError(f"Miller pass for {args}")

        monkeypatch.setattr(specfun, "_miller_range", refused)
        pairs = debye_draws(26, 60) + [(3, 9.9e6), (1, 1e7), (1000, 9e6),
                                       (0, 201.0), (0, 9.9e6), (0, 1e7)]
        for n, x in pairs:
            value = bessel_j(n, x)
            assert type(value) is float and abs(value) < 1.0
            assert bessel_j(n, -x) == (-value if n % 2 else value)


def anchored_routed(n, x):
    return x > specfun._DEBYE_MIN_X and n > 0 and not debye_routed(n, x)


def anchored_draws(seed, count):
    """Seeded (n, x) pairs on the anchored route: log-uniform 200 < x <=
    4000 (mpmath slows past it near the turning point) and n on both sides
    of the turning point, from the edge of Debye's route up to 1.6 x."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        x = math.exp(rng.uniform(math.log(200.0), math.log(4000.0)))
        k = specfun._debye_anchor(x)
        if len(pairs) % 2:
            n = rng.randint(k + 1, math.ceil(x))  # the band below x
        else:
            n = rng.randint(math.ceil(x), int(1.6 * x))
        if anchored_routed(n, x):
            pairs.append((n, x))
    return pairs


def anchored_error(n, x):
    """|bessel_j - J| / J and |bessel_j - J| / x^(-1/3), J from mpmath at
    40 digits.  x^(-1/3) is the envelope of the band: |J_n(x)| peaks at
    about 0.67 x^(-1/3) over n near x."""
    with mpmath.workdps(40):
        exact = mpmath.besselj(n, mpmath.mpf(x), maxprec=10**5,
                               maxterms=10**7)
        err = abs(bessel_j(n, x) - exact)
        envelope = x ** (-1.0 / 3.0)
        rel = float(err / abs(exact)) if exact else math.inf
        return rel, float(err) / envelope, float(abs(exact)) / envelope


def kapteyn_exponent(n, x):
    """n (ln z + r - ln(1 + r)), z = x/n, r = sqrt(1 - z^2), for n > x > 0:
    the log of Kapteyn's bound on |J_n(x)| (DLMF 10.14.5), in float64 as
    ``specfun._kapteyn_zero`` forms it."""
    z = x / n
    r = math.sqrt((1.0 - z) * (1.0 + z))
    return n * (math.log(z) + r - math.log1p(r))


def kapteyn_zero(n, x):
    """Whether Kapteyn's cut takes J_n(x), 0 < x <= MAX_ARGUMENT, as
    ``specfun._kapteyn_zero`` decides it for n up to 1e300: bessel_j_orders
    applies it at every x, bessel_j above the series cutoff."""
    return n > x and (x / n == 0.0
                      or kapteyn_exponent(n, x) < specfun._KAPTEYN_CUT)


def kapteyn_cut(n, x):
    """Whether bessel_j returns J_n(x) = 0.0 by Kapteyn's cut, x > 0."""
    return x > specfun._SERIES_CUTOFF and kapteyn_zero(n, x)


def cut_edge(n):
    """The x, 12 < x < n, at which Kapteyn's cut lets order n >= 267
    through: the smallest x the bisection finds uncut."""
    lo, hi = specfun._SERIES_CUTOFF, float(n)
    assert kapteyn_cut(n, math.nextafter(lo, hi))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if kapteyn_cut(n, mid):
            lo = mid
        else:
            hi = mid


def last_uncut_order(x):
    """The largest order that Kapteyn's cut lets through at x > 0."""
    lo = math.floor(x)
    hi = 2 * lo + 2
    while not kapteyn_zero(hi, x):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if kapteyn_zero(mid, x):
            hi = mid
        else:
            lo = mid
    return lo


class TestAnchored:
    """The Debye-anchored Miller pass, the route of bessel_j for n >= 1 and
    x > 200 where Debye's expansion declines: the band x ~ n and every order
    above it."""

    @staticmethod
    def check(pairs, rel_bound, abs_bound):
        """Relative error at most ``rel_bound`` where |J| is at least 1e-3
        of the envelope, and absolute error at most ``abs_bound`` of the
        envelope below it.  Each caller's bounds are under twice its
        measured worst."""
        worst_rel = worst_abs = 0.0
        for n, x in pairs:
            assert anchored_routed(n, x), (n, x)
            rel, absolute, size = anchored_error(n, x)
            if size >= 1e-3:
                worst_rel = max(worst_rel, rel)
            else:
                worst_abs = max(worst_abs, absolute)
        assert worst_rel <= rel_bound
        assert worst_abs <= abs_bound

    def test_draws_against_mpmath(self):
        # Measured worst: 4.8e-14 relative, at (355, 401.2), and 4.4e-19
        # of the envelope where |J| is below 1e-3 of it, at (1183, 1141.9).
        # The full Miller pass gives 3.1e-12 and 2.7e-19 on the same draws.
        pairs = anchored_draws(26, 120)
        assert sum(n < x for n, x in pairs) >= 50
        assert sum(n > x for n, x in pairs) >= 50
        assert max(x for _, x in pairs) > 3000.0
        self.check(pairs, 9e-14, 8e-19)

    def test_edges_against_mpmath(self):
        # x = 200 itself stays on the full Miller pass; the next float
        # above it takes the anchored one.  Then both sides of tau = 120,
        # where the anchored pass hands over to Debye's expansion, and
        # integer x = n.
        x = specfun._DEBYE_MIN_X
        for n in (150, 200, 400):
            assert not anchored_routed(n, x)
            assert bessel_j(n, x) == specfun._miller_range(n, n, x)[0]
        above = math.nextafter(x, math.inf)
        pairs = [(n, above) for n in (150, 190, 200, 201, 260, 400)]
        for n in (300, 1000, 2500):
            edge = turning_edge(n)
            assert debye_routed(n, edge * (1.0 + 1e-12))
            pairs.append((n, edge * (1.0 - 1e-12)))
        pairs += [(n, float(n)) for n in (201, 500, 1000, 3000)]
        # Measured worst: 1.7e-14 relative, at (300, 372.6), and 2.7e-30 of
        # the envelope, at (260, 200.00000000000003).
        self.check(pairs, 3e-14, 5e-30)

    def test_anchor_on_a_zero_of_j(self):
        # x is the float nearest a zero of J_1860, found by scanning x for
        # a sign change of Debye's J at the anchor and refining with
        # mpmath; 1860 is the anchor there.  The pass must anchor one
        # order below.
        x = 2005.0467205742682
        assert specfun._debye_anchor(x) == 1860
        with mpmath.workdps(40):
            assert abs(mpmath.besselj(1860, x)) < 1e-14
        calls = []
        real = specfun._bessel_debye

        def counted(n, x):
            calls.append(n)
            return real(n, x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "_bessel_debye", counted)
            # Measured worst: 1.4e-14 relative, at (2005, x), and 4.7e-24
            # of the envelope, at (2100, x).
            self.check([(1900, x), (2005, x), (2100, x)], 2.5e-14, 9e-24)
        assert calls == [1859] * 3

    def test_no_overflow_far_above_the_turning_point(self):
        # J = 1.69e-183.  From the full pass's seed 1e-30 the anchor's
        # recurrence value reaches about 1e235 here, and a normalization by
        # its square returned 0.0.  Measured: 7.9e-16 relative.
        rel, _, _ = anchored_error(2276, 1590.0108505659425)
        assert rel <= 1.5e-15

    def test_pass_stays_in_normal_range(self, monkeypatch):
        # The pass never rescales, so every value it forms must stay
        # inside float64's normal range: at the last order Kapteyn's cut
        # lets through, where the pass spans the most, and in the band
        # (the lowest order above the anchor, and ceil(x)), on a log grid
        # of x from just above 200 up to MAX_ARGUMENT.  The wrapper runs
        # each call one step at a time through the kernel itself, which
        # forms the same values, and records each.  Measured: a peak of
        # 1.1e273 and a smallest nonzero value of 1.4e-283 (the seed),
        # both at x = 1e7, n = 10 018 435.
        real = specfun._miller_steps
        seen = []

        def traced(k, steps, x, up, cur):
            seen.append(cur)
            for j in range(steps):
                up, cur = real(k - j, 1, x, up, cur)
                seen.append(cur)
            return up, cur

        xs = np.geomspace(specfun._DEBYE_MIN_X, specfun.MAX_ARGUMENT,
                          12).tolist()
        xs[0] = math.nextafter(xs[0], math.inf)
        xs[-1] = specfun.MAX_ARGUMENT
        cases = [(n, x) for x in xs for n in (
            last_uncut_order(x), specfun._debye_anchor(x) + 1, math.ceil(x))]
        assert last_uncut_order(specfun.MAX_ARGUMENT) == 10_018_435
        expected = [bessel_j(n, x) for n, x in cases]
        monkeypatch.setattr(specfun, "_miller_steps", traced)
        peak, low = 0.0, math.inf
        for (n, x), value in zip(cases, expected):
            seen.clear()
            assert bessel_j(n, x) == value, (n, x)
            assert anchored_routed(n, x) and seen, (n, x)
            peak = max(peak, max(abs(v) for v in seen))
            low = min(low, min(abs(v) for v in seen if v))
        assert peak <= 1e300
        assert low >= 1e-300

    def test_one_debye_anchor_and_no_full_miller_pass(self, monkeypatch):
        # The anchor is the largest order Debye's route serves, below
        # min(n, x); the pass stops there and calls Debye's route once,
        # at the anchor or one order below it.  The draws that Kapteyn's
        # cut takes return 0.0 with no Debye call and no pass at all.
        def refused(*args):
            raise AssertionError(f"full Miller pass for {args}")

        calls, passes = [], []
        real, real_steps = specfun._bessel_debye, specfun._miller_steps

        def counted(n, x):
            calls.append(n)
            return real(n, x)

        def counted_steps(*args):
            passes.append(args[:3])
            return real_steps(*args)

        monkeypatch.setattr(specfun, "_miller_range", refused)
        monkeypatch.setattr(specfun, "_bessel_debye", counted)
        monkeypatch.setattr(specfun, "_miller_steps", counted_steps)
        pairs = anchored_draws(27, 200)
        for n, x in pairs:
            k = specfun._debye_anchor(x)
            assert k < min(n, x) and debye_routed(k, x)
            assert not any(debye_routed(j, x)
                           for j in range(k + 1, math.ceil(x) + 1))
        pairs += [(8_999_000, 9e6), (9_000_000, 9e6), (10_000_500, 1e7)]
        cut = 0
        for n, x in pairs:
            k = specfun._debye_anchor(x)
            assert k < min(n, x)
            assert debye_routed(k, x) and not debye_routed(k + 1, x)
            calls.clear()
            passes.clear()
            value = bessel_j(n, x)
            assert type(value) is float and abs(value) < 1.0
            if kapteyn_cut(n, x):
                cut += 1
                assert value == 0.0 and not calls and not passes, (n, x)
            else:
                assert calls in ([k], [k - 1]), (n, x, calls)
                assert len(passes) == 2, (n, x)
            assert bessel_j(n, -x) == (-value if n % 2 else value)
        assert 0 < cut < len(pairs) / 2


def frozen_miller_steps(k, steps, x, up, cur):
    """``specfun._miller_steps`` as it was before Kapteyn's cut: the same
    steps, each rescaled by 1/1e250 past 1e250 in magnitude, and the
    number of rescales."""
    big = 1e250
    rescales = 0
    tk = 2.0 * k
    if steps & 1:
        up, cur = cur, (tk / x) * cur - up
        if cur > big or cur < -big:
            up, cur = up / big, cur / big
            rescales += 1
        tk -= 2.0
    for _ in range(steps >> 1):
        up = (tk / x) * cur - up
        if up > big or up < -big:
            up, cur = up / big, cur / big
            rescales += 1
        cur = ((tk - 2.0) / x) * up - cur
        if cur > big or cur < -big:
            up, cur = up / big, cur / big
            rescales += 1
        tk -= 4.0
    return up, cur, rescales


def frozen_bessel_anchored(n, x):
    """``specfun._bessel_anchored`` as it was before Kapteyn's cut, from
    the seed 1e-30 with rescales: (value, rescales)."""
    k = specfun._debye_anchor(x)
    m = specfun._miller_start(n, x)
    f_up, f_n, first = frozen_miller_steps(m, m - n, x, 0.0, 1e-30)
    f_k, f_km1, rescales = frozen_miller_steps(n, n - k + 1, x, f_up, f_n)
    if abs(f_k) >= abs(f_km1):
        value = f_n / f_k * specfun._bessel_debye(k, x)
    else:
        value = f_n / f_km1 * specfun._bessel_debye(k - 1, x)
    for _ in range(rescales):
        value /= 1e250
    return value, first + rescales


def frozen_bessel_j(n, x):
    """bessel_j(n, x), x > 0, as it was before Kapteyn's cut, with the
    number of rescales of its Miller pass: (value, rescales)."""
    if x <= specfun._SERIES_CUTOFF:
        return specfun._bessel_series(n, x), 0
    if x > specfun._DEBYE_MIN_X:
        if specfun._debye_serves(n, x):
            return specfun._bessel_debye(n, x), 0
        return frozen_bessel_anchored(n, x)
    return miller_reference(n, x)[n], len(miller_rescale_orders(n, x))


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestKapteynCut:
    """bessel_j returns 0.0 with no recurrence where Kapteyn's bound on
    |J_n(x)|, n > x > 12, is a nat below 2^-1075; the anchored pass
    behind the cut runs without rescaling."""

    def test_bound_against_mpmath(self):
        # |J_n(x)| <= e^E with E evaluated in mpmath, and the float64 E of
        # the cut within 1e-9 nats of it, far inside the cut's one-nat
        # margin.  So where the cut acts |J| < 2^-1075 / e, whose correctly
        # rounded value is 0.0.  Draws: n log-uniform up to 5000 and x/n
        # log-uniform in (0.05, 1), then the cut edges; then, for the
        # columns that bessel_j_orders cuts at every x, x log-uniform in
        # (1e-300, 12) with n uniform from above x to twice the last uncut
        # order, and the edges at x = 1e-6, 0.5 and 12.
        rng = random.Random(31)
        pairs = []
        while len(pairs) < 150:
            n = int(math.exp(rng.uniform(math.log(20.0), math.log(5000.5))))
            x = n * math.exp(rng.uniform(math.log(0.05), 0.0))
            if 12.0 < x < n:
                pairs.append((n, x))
        pairs += [(n, cut_edge(n) * f) for n in (267, 600, 3000)
                  for f in (1.0 - 1e-9, 1.0 + 1e-9)]
        while len(pairs) < 216:
            x = 10.0 ** rng.uniform(-300.0, math.log10(12.0))
            pairs.append((rng.randint(math.floor(x) + 1,
                                      2 * last_uncut_order(x) + 1), x))
        pairs += [(last_uncut_order(x) + k, x) for x in (1e-6, 0.5, 12.0)
                  for k in (0, 1)]
        small_cut = sum(kapteyn_zero(n, x) for n, x in pairs[156:])
        assert 10 < small_cut < 56
        cut = 0
        with mpmath.workdps(40):
            for n, x in pairs:
                z = mpmath.mpf(x) / n
                r = mpmath.sqrt(1 - z * z)
                exponent = n * (mpmath.log(z) + r - mpmath.log(1 + r))
                assert abs(kapteyn_exponent(n, x) - exponent) <= 1e-9
                exact = mpmath.besselj(n, mpmath.mpf(x), maxprec=10**5,
                                       maxterms=10**7)
                assert abs(exact) <= mpmath.exp(exponent), (n, x)
                if kapteyn_zero(n, x):
                    cut += 1
                    assert abs(exact) < mpmath.ldexp(1, -1075) / mpmath.e
        assert 20 < cut < len(pairs) - 20

    def test_cut_starts_at_order_267_just_above_x_12(self):
        assert cut_edge(267) > 12.0
        assert not kapteyn_cut(266, math.nextafter(12.0, 13.0))
        assert last_uncut_order(math.nextafter(12.0, 13.0)) == 266

    def test_bits_equal_the_pre_cut_routes(self):
        # bessel_j against the frozen pre-cut routes: seeded draws
        # n <= 5000, x = n u^0.3, and draws 1e-9 (relative) on both sides
        # of the cut edge, from x near 12 to the anchored pass above 200.
        # Every cut draw was 0.0 before the cut too.  Every other draw is
        # bit-identical wherever the old Miller pass, anchored or full, did
        # not rescale; where it did, the seed 1e-30 * 2^-840 moves the last
        # bits.  There an anchored value must meet
        # test_draws_against_mpmath's gate and a relative one wherever
        # |J| >= 1e-300.  Measured on those 159 draws: no |J| reaches 1e-3
        # of the envelope, the worst absolute error is 1.9e-237 of it, and
        # of the 122 with |J| >= 1e-300 the worst relative error is
        # 2.3e-14, at (3423, 2371.7), against 1.9e-14 before; 62 of them
        # moved closer to mpmath.  A full-pass value, on 8 draws at most 51
        # orders below the last order the cut lets through (5 of them at
        # it), must meet test_miller_path_against_mpmath's gate and the
        # same relative one.  Measured: 1.1e-295 of the envelope, and
        # 3.1e-15 relative on the 3 with |J| >= 1e-300, at (651, 181.5),
        # against 1.2e-15 before.
        rng = random.Random(3131)
        pairs = []
        while len(pairs) < 2000:
            n = rng.randint(0, 5000)
            x = n * rng.random() ** 0.3
            if x > specfun._SERIES_CUTOFF:
                pairs.append((n, x))
        edges = [(n, cut_edge(n) * f)
                 for n in (267, 300, 412, 600, 735, 736, 900, 1500, 1878,
                           3000, 5000) for f in (1.0 - 1e-9, 1.0 + 1e-9)]
        assert any(x <= 200.0 for _, x in edges)
        assert any(x > 200.0 for _, x in edges)
        kinds = {"cut": 0, "same": 0, "rescaled": 0}
        rescaled = []
        for n, x in pairs + edges:
            new = bessel_j(n, x)
            old, rescales = frozen_bessel_j(n, x)
            if kapteyn_cut(n, x):
                kinds["cut"] += 1
                assert new == 0.0 and same_float(old, 0.0), (n, x, old)
            elif rescales:
                kinds["rescaled"] += 1
                rescaled.append((n, x))
            else:
                kinds["same"] += 1
                assert same_float(new, old), (n, x, new, old)
        for n, x in edges:
            assert kapteyn_cut(n, x) == (x < cut_edge(n)), (n, x)
        assert all(v > 20 for v in kinds.values()), kinds
        normal = full = 0
        for n, x in rescaled:
            if x <= specfun._DEBYE_MIN_X:
                full += 1
                check_moved_value(n, x, bessel_j(n, x))
                with mpmath.workdps(40):
                    exact = mpmath.besselj(n, mpmath.mpf(x), maxprec=10**5,
                                           maxterms=10**7)
                    if abs(exact) >= 1e-300:
                        rel = abs((bessel_j(n, x) - exact) / exact)
                        assert rel <= 4.5e-14, (n, x, rel)
                continue
            assert anchored_routed(n, x), (n, x)
            rel, absolute, size = anchored_error(n, x)
            assert rel <= 9e-14 if size >= 1e-3 else absolute <= 8e-19
            if size * x ** (-1.0 / 3.0) >= 1e-300:
                normal += 1
                assert rel <= 4.5e-14, (n, x, rel)
        assert normal > 100 and full == 8

    def test_anchored_pass_equals_the_frozen_pass_where_it_did_not_rescale(
            self):
        # The kernel itself on anchored draws that the cut lets through,
        # from the band to the last uncut order, up to x = 1e5.  Where the
        # old pass did not rescale the new one differs from it only by the
        # power-of-two seed, so every ratio, and the value, is the same.
        rng = random.Random(3132)
        pairs = []
        while len(pairs) < 300:
            x = math.exp(rng.uniform(math.log(200.0), math.log(1e5)))
            n = rng.randint(specfun._debye_anchor(x) + 1, last_uncut_order(x))
            pairs.append((n, x))
        same = 0
        for n, x in pairs:
            old, rescales = frozen_bessel_anchored(n, x)
            if not rescales:
                same += 1
                assert same_float(specfun._bessel_anchored(n, x), old), (n, x)
        assert 100 < same < len(pairs)


def traced_miller_range(lo, hi, x):
    """``specfun._miller_range`` with the same steps in the same order, and
    the largest and the smallest nonzero magnitude it forms, normalization
    included: (values, peak, low)."""
    m = specfun._miller_start(hi, x)
    top, bot = hi // 2 + 1, lo // 2 + 1
    kept = []
    up, cur, norm = 0.0, specfun._MILLER_SEED, 0.0
    peak = low = cur
    tk = 2.0 * m
    for pairs, keep in ((m // 2 - top, False), (top - bot + 1, True),
                        (bot - 1, False)):
        for _ in range(pairs):
            norm += 2.0 * cur
            up = (tk / x) * cur - up
            cur = ((tk - 2.0) / x) * up - cur
            a, b = abs(up), abs(cur)
            if a > peak or b > peak:
                peak = max(peak, a, b)
            if a < low or b < low:
                low = min(low, a or low, b or low)
            if keep:
                kept += (up, cur)
            tk -= 4.0
    norm += cur
    first = 2 * top - 1
    values = [v / norm for v in reversed(kept[first - hi:first - lo + 1])]
    return values, max(peak, abs(norm)), low


class TestColumnPass:
    """``bessel_j_orders`` runs its one Miller pass only up to the last order
    Kapteyn's cut lets through, from one seed and with no rescaling."""

    def test_pass_stays_in_normal_range(self):
        # At the top of a cut column, where the pass spans the most, every
        # value it forms, the normalization too, stays inside float64's
        # normal range, on a log grid of x from 1e-6 up to MAX_ARGUMENT.
        # The traced copy keeps only the top order, as bessel_j does; its
        # steps are those of the column pass, and it must match the kernel
        # bit for bit.  Measured: a peak of 1.9e307 at x = 1e-6 (top order
        # 43; at the top of a cut column it overflows already at x = 5e-7
        # and at 1e-7, where the series fallback takes over), and 3.4e275 at
        # x = 1e7 (the normalization; top order 10 018 435); the smallest
        # nonzero value is the seed, 1.4e-283.
        xs = np.geomspace(1e-6, specfun.MAX_ARGUMENT, 14).tolist()
        xs[0], xs[-1] = 1e-6, specfun.MAX_ARGUMENT
        peak, low = 0.0, math.inf
        for x in xs:
            top = last_uncut_order(x)
            values, top_peak, top_low = traced_miller_range(top, top, x)
            assert values == specfun._miller_range(top, top, x), x
            peak, low = max(peak, top_peak), min(low, top_low)
        assert peak <= sys.float_info.max
        assert low >= sys.float_info.min

    def test_columns_run_to_the_cut_top(self, monkeypatch):
        # The pass runs up to min(n_max, last uncut order), and every order
        # above it is 0.0.  An uncut column tests the cut once, at n_max.
        calls, tests = [], []
        real_range, real_zero = specfun._miller_range, specfun._kapteyn_zero

        def recorded(lo, hi, x):
            calls.append((lo, hi))
            return real_range(lo, hi, x)

        def counted(n, x):
            tests.append(n)
            return real_zero(n, x)

        monkeypatch.setattr(specfun, "_miller_range", recorded)
        monkeypatch.setattr(specfun, "_kapteyn_zero", counted)
        rng = random.Random(32)
        cases = []
        for _ in range(200):
            x = 10.0 ** rng.uniform(-5.0, 4.0)
            cases.append((rng.randint(0, 2 * last_uncut_order(x)), x))
        cases += [(0, 1e-6), (43, 1e-6), (44, 1e-6), (269, 12.5),
                  (270, 12.5)]
        cut = 0
        for n_max, x in cases:
            calls.clear()
            tests.clear()
            top = min(n_max, last_uncut_order(x))
            out = bessel_j_orders(n_max, x)
            assert calls == [(0, top)], (n_max, x)
            assert not out[top + 1:].any(), (n_max, x)
            if top == n_max:
                assert tests == [n_max], (n_max, x)
            else:
                cut += 1
        assert 50 < cut < len(cases) - 50

    def test_orders_beyond_float_range_are_zero(self):
        # Kapteyn's bound falls as n rises, so an order too large for a
        # float is tested as 1e300; at x = 13 the series route already
        # returned 0.0 for it.
        for n, x in [(10**400, 13.0), (2**1030, 1e5), (10**400, 1e7),
                     (2**1030, 5e-324), (10**400, 0.5)]:
            assert specfun._kapteyn_zero(n, x), (n, x)
            assert bessel_j(n, x) == 0.0 and bessel_j(n, -x) == 0.0, (n, x)

    def test_cut_agrees_with_the_test_replica(self):
        # specfun._kapteyn_zero against kapteyn_zero, the float64 form that
        # test_bound_against_mpmath checks, from subnormal x, where x/n
        # underflows to 0.0, up to MAX_ARGUMENT.
        rng = random.Random(3232)
        cut = 0
        for _ in range(3000):
            x = 10.0 ** rng.uniform(-323.5, 7.0)
            n = rng.randint(0, 3 * last_uncut_order(x) + 3)
            assert specfun._kapteyn_zero(n, x) == kapteyn_zero(n, x), (n, x)
            cut += kapteyn_zero(n, x)
        assert 500 < cut < 2500


def series_products(n, x):
    """How many prefix products ``_bessel_series(n, x)`` forms: n, or fewer
    once the product underflows to 0.0."""
    half, term = 0.5 * x, 1.0
    for i in range(1, n + 1):
        term *= half / i
        if term == 0.0:
            return i
    return n


class CountingArgument(float):
    """An argument x that counts the Miller steps run with it: each step
    forms 2k / x once, through ``__rtruediv__``, and nothing else divides
    by x.  The quotient is a plain float, so every value stays the same."""

    def __new__(cls, x):
        arg = super().__new__(cls, x)
        arg.steps = 0
        return arg

    def __rtruediv__(self, other):
        self.steps += 1
        return float.__rtruediv__(self, other)


def full_pass_draws(seed, count):
    """(n, x) pairs that ``bessel_j`` serves by the full Miller pass:
    12 < x <= 200, not cut by Kapteyn's bound."""
    rng = random.Random(seed)
    draws = [(0, 12.000001), (17, 200.0), (250, 200.0)]
    while len(draws) < count:
        n, x = rng.randint(0, 400), rng.uniform(12.0, 200.0)
        if x > 12.0 and not kapteyn_cut(n, x):
            draws.append((n, x))
    return draws


@pytest.fixture
def work(monkeypatch):
    """Counted work of the Bessel kernels, each wrapped to add the trip
    count its arguments fix: a full Miller pass its ``_miller_start(hi,
    x)`` steps, an anchored one its ``steps``, the series its prefix
    products plus 30 terms (it takes at most 27) and Debye's route its 17
    terms.  ``TestCountedWork`` gates both Miller counts and the 27.
    Nothing is counted inside the kernels."""
    counts = {"miller": 0, "steps": 0, "series": 0, "debye": 0}
    costs = {
        "miller": ("_miller_range",
                   lambda lo, hi, x: specfun._miller_start(hi, x)),
        "steps": ("_miller_steps", lambda k, steps, *_: steps),
        "series": ("_bessel_series", lambda n, x: series_products(n, x) + 30),
        "debye": ("_bessel_debye", lambda n, x: 17),
    }
    for kind, (name, cost) in costs.items():
        def counted(*args, _real=getattr(specfun, name), _kind=kind,
                    _cost=cost):
            counts[_kind] += _cost(*args)
            return _real(*args)

        monkeypatch.setattr(specfun, name, counted)
    return counts


class TestCountedWork:
    """Aim 1's "no quadratic loops over n_max and no O(x) loops in J_n(x)"
    as counts of kernel work."""

    def test_cut_line_does_no_work(self, work):
        # (4140, 2712.6) and (3000, 1500) took the anchored pass before the
        # cut, the rest the full pass.
        rng = random.Random(33)
        pairs = [(4140, 2712.5629687615187), (3000, 1500.0), (267, 12.0001),
                 (10**15, 100.0), (10_018_436, 1e7)]
        while len(pairs) < 100:
            n = rng.randint(267, 20000)
            x = rng.uniform(12.0, n)
            if kapteyn_cut(n, x):
                pairs.append((n, x))
        for n, x in pairs:
            assert kapteyn_cut(n, x), (n, x)
            assert bessel_j(n, x) == 0.0 and bessel_j(n, -x) == 0.0
        assert not any(work.values()), work

    def test_anchored_call_takes_the_closed_form_steps(self, work):
        # _miller_start(n, x) - _debye_anchor(x) + 1 steps, one Debye call
        # and nothing else: 328 steps at (3000, 3150), as the README says.
        pairs = [(3000, 3150.0)] + anchored_draws(34, 60)
        for n, x in pairs:
            if kapteyn_cut(n, x):
                continue
            work.update(dict.fromkeys(work, 0))
            bessel_j(n, x)
            steps = specfun._miller_start(n, x) - specfun._debye_anchor(x) + 1
            assert work == {"miller": 0, "steps": steps, "series": 0,
                            "debye": 17}, (n, x)
            if (n, x) == (3000, 3150.0):
                assert steps == 328

    def test_column_work_is_flat_past_the_cut(self, work):
        # bessel_j_orders runs its pass only up to the last order Kapteyn's
        # cut lets through, 140 at x = 0.5, so n_max 1000 and 100 000 both
        # cost _miller_start(140, 0.5) = 186 steps (1096 and 100 806 when
        # the pass ran up to n_max).
        totals = []
        for n_max in (1000, 100_000):
            work.update(dict.fromkeys(work, 0))
            bessel_j_orders(n_max, 0.5)
            totals.append(sum(work.values()))
        assert last_uncut_order(0.5) == 140
        assert totals == [186, 186], totals

    @pytest.mark.parametrize("speed", [2e-7, 0.021])
    def test_free_space_spectrum_work_grows_linearly(self, work, speed):
        # Free space at Omega = 2 pi 10 GHz, omega0 = 2 pi 5 GHz and peak
        # speed Omega A = speed * c: every line has n > x.  From n_max 1000
        # to 3000 linear work grows 3x.  Measured: 3.19x at 2e-7, every
        # line on the series route, which stops at its first underflowing
        # product (so already before the cut), and 1.00x at 0.021, where
        # the cut takes every line from n = 572 up (9.5x before it).
        # Speeds 0.5 and 0.9 (2.4x and 5.4x) wait for an O(1) route below
        # the turning point.
        omega = 2.0 * math.pi * 1e10
        atom = AtomParams(omega0=2.0 * math.pi * 5e9, g=1.0)
        motion = ShoMotion(amplitude=speed * C / omega, Omega=omega)
        totals = []
        for n_max in (1000, 3000):
            work.update(dict.fromkeys(work, 0))
            lines = allowed_sidebands(atom, motion, FreeSpace(), n_max)
            assert len(lines) == n_max
            totals.append(sum(work.values()))
        assert totals[1] <= 3.5 * totals[0], totals

    def test_full_pass_takes_miller_start_steps(self):
        # From the seed at _miller_start(hi, x) down to order 0, whatever
        # the kept orders lo..hi are: 60, 48, 252 and 30 steps here.
        cases = [(0, 30, 12.5), (5, 5, 20.0), (0, 200, 150.0), (3, 7, 1e-3)]
        rng = random.Random(38)
        for _ in range(60):
            lo = rng.randint(0, 300)
            cases.append((lo, lo + rng.randint(0, 100),
                          rng.uniform(1e-3, 200.0)))
        for lo, hi, x in cases:
            arg = CountingArgument(x)
            values = specfun._miller_range(lo, hi, arg)
            assert arg.steps == specfun._miller_start(hi, x), (lo, hi, x)
            assert values == specfun._miller_range(lo, hi, x)

    def test_bessel_j_full_pass_takes_miller_start_steps(self, monkeypatch):
        real = specfun._miller_range
        passes = []

        def counted(lo, hi, x):
            passes.append(arg := CountingArgument(x))
            return real(lo, hi, arg)

        monkeypatch.setattr(specfun, "_miller_range", counted)
        for n, x in full_pass_draws(39, 80):
            passes.clear()
            bessel_j(n, x)
            assert [arg.steps for arg in passes] == [
                specfun._miller_start(n, x)], (n, x)

    def test_series_takes_at_most_27_terms(self, monkeypatch):
        # The terms after the first: one per k that itertools.count yields.
        # The series' docstring states the bound; measured 27 at (0, 11.7).
        terms = []

        def count(start):
            terms.append(0)
            for k in itertools.count(start):
                terms[-1] += 1
                yield k

        monkeypatch.setattr(specfun, "itertools",
                            types.SimpleNamespace(count=count))
        rng = random.Random(40)
        cases = [(n, 0.1 * i) for n in range(60) for i in range(1, 121)]
        cases += [(rng.randint(0, 3000), rng.uniform(0.0, 12.0))
                  for _ in range(2000)]
        for n, x in cases:
            bessel_j(n, x)
        assert max(terms) <= 27, max(terms)


class TestAnger:
    """At integer order the Anger integral is Bessel's integral, so the
    Gauss-Legendre route and bessel_j check each other."""

    def test_at_origin(self):
        assert anger_gl(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_bessel_at_integer_order(self):
        assert anger_gl(3.0, 2.0) == pytest.approx(bessel_j(3, 2.0), abs=1e-12)

    @pytest.mark.parametrize("nu", range(0, 9))
    @pytest.mark.parametrize("x", [0.0, 0.7, 2.5, 6.0, 10.0])
    def test_integer_order_agreement_grid(self, nu, x):
        assert abs(anger_gl(float(nu), x) - bessel_j(nu, x)) < 1e-8

    def test_half_order_against_trapezoid_oracle(self):
        assert anger_trapezoid_oracle(0.5, 1.0) == pytest.approx(
            ANGER_HALF_AT_ONE, abs=1e-12)
        assert anger_gl(0.5, 1.0) == pytest.approx(ANGER_HALF_AT_ONE,
                                                   abs=1e-10)

    def test_infeasible_budget_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_PERIODIC_NODES", 40)
        with pytest.raises(ConvergenceError) as excinfo:
            anger_gl(0.5, 40.0)
        estimate = re.search(r"error estimate (\S+)\)$", str(excinfo.value))
        assert float(estimate[1]) >= 0.0


class TestRationalPeriodIntegral:
    def test_half_integer_vanishes(self):
        assert abs(rational_period_integral(1.0, 3, 2)) < 1e-10

    def test_integer_ratio_reduces_to_bessel(self):
        assert rational_period_integral(2.0, 4, 2) == pytest.approx(
            bessel_j(2, 2.0), abs=1e-12)

    def test_five_thirds_vanishes(self):
        assert abs(rational_period_integral(0.7, 5, 3)) < 1e-10

    @pytest.mark.parametrize("p,q", [(p, q) for p in (1, 3, 7, 11)
                                     for q in (2, 3, 4, 5)
                                     if math.gcd(p, q) == 1])
    def test_coprime_grid_vanishes(self, p, q):
        for x in (0.3, 2.5):
            assert abs(rational_period_integral(x, p, q)) < 1e-10

    @pytest.mark.parametrize("p,q", [(2, 1), (6, 3), (8, 2), (15, 5)])
    def test_divisible_reduces_to_bessel(self, p, q):
        assert rational_period_integral(1.3, p, q) == pytest.approx(
            bessel_j(p // q, 1.3), abs=1e-11)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            rational_period_integral(1.0, 0, 2)
        with pytest.raises(ValueError):
            rational_period_integral(1.0, 3, -1)


def frozen_bessel_series(n, x, rel_tol=1e-10, max_terms=10**6):
    """``specfun._bessel_series`` as it was before its loop invariants were
    hoisted; the two must agree bit for bit."""
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    if term == 0.0:
        return 0.0
    total = term
    peak = abs(term)
    h2 = half * half
    for k in range(1, max_terms + 1):
        term *= -h2 / (k * (n + k))
        total += term
        mag = abs(term)
        peak = max(peak, mag)
        if mag <= 1e-2 * rel_tol * abs(total) or mag <= 1e-17 * peak:
            return total
    raise ConvergenceError(
        f"Bessel series for J_{n}({x}) did not converge in "
        f"{max_terms} terms (last term {abs(term):g})")


class TestSeriesMatchesFrozenLoop:
    def test_bit_identical_on_seeded_pairs(self):
        rng = np.random.default_rng(20261018)
        orders = rng.integers(0, 40, 20000).tolist()
        args = (12.0 * (1.0 - rng.random(20000))).tolist()  # 0 < x <= 12
        for n, x in zip(orders, args):
            new = specfun._bessel_series(n, x)
            old = frozen_bessel_series(n, x)
            assert new == old and math.copysign(1.0, new) == \
                math.copysign(1.0, old), (n, x)

    def test_bit_identical_where_the_prefix_underflows(self):
        # The series stops at the first prefix product that underflows to
        # 0.0; the frozen loop ran all n products first.  Orders up to 400
        # at x scaled down towards 1e-8: 15 805 of the 20 000 prefixes reach
        # 0.0, and the rest take the series as before.
        rng = np.random.default_rng(20261019)
        orders = rng.integers(0, 401, 20000).tolist()
        args = (12.0 * 10.0 ** (-9.0 * rng.random(20000))).tolist()
        zeros = 0
        for n, x in zip(orders, args):
            new = specfun._bessel_series(n, x)
            old = frozen_bessel_series(n, x)
            assert new == old and math.copysign(1.0, new) == \
                math.copysign(1.0, old), (n, x)
            zeros += new == 0.0
        assert 5000 < zeros < 19000

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-14, 1e-3])
    def test_bit_identical_under_other_budgets(self, rel_tol, monkeypatch):
        # The threshold is a module constant; patching it checks that the
        # loop reads it where the frozen loop read 1e-2 of its argument.
        monkeypatch.setattr(specfun, "_SERIES_TOL", 1e-2 * rel_tol)
        for n in range(0, 40, 3):
            for x in np.linspace(0.05, 12.0, 40).tolist():
                assert specfun._bessel_series(n, x) == \
                    frozen_bessel_series(n, x, rel_tol), (n, x)

    def test_no_term_cap_is_reached(self):
        # The series runs without a term cap: it takes at most 27 terms on
        # 0 < x <= 12, the most at order 0 near x = 12.  So with a cap of 30
        # the frozen loop never raises and gives the same bits, on a dense
        # grid up to 12.0 and its lower float neighbour and seeded orders
        # up to 400; a cap of 26 fails at (0, 12.0).
        rng = random.Random(29)
        orders = list(range(12)) + sorted(rng.sample(range(12, 401), 20))
        args = np.linspace(0.0, 12.0, 1201)[1:].tolist()
        args.append(math.nextafter(12.0, 0.0))
        assert 12.0 in args
        for n in orders:
            for x in args:
                assert specfun._bessel_series(n, x).hex() == \
                    frozen_bessel_series(n, x, max_terms=30).hex(), (n, x)
        with pytest.raises(ConvergenceError):
            frozen_bessel_series(0, 12.0, max_terms=26)

"""Special-function tests against independent oracles.

Expected values are frozen from an oracle that never touches the library
code path: an fsum-accumulated power series for Bessel.  scipy serves as a
second, fully external cross-check, and mpmath as the high-precision
reference for the Miller path, which must also match a frozen copy of its
original recurrence bit for bit.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import accelrad.specfun as specfun
from accelrad import (ConvergenceError, PhysicsDomainError, bessel_j,
                      bessel_j_orders, rational_period_integral)
from accelrad import _quadrature as quadrature
from accelrad._quadrature import refine_to_tolerance

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
    library's pure-float kernel replaced; the kernel must reproduce it bit
    for bit, rescales and underflow included.
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


def rescale_stretches(lo, hi, x):
    """Where the rescales of ``_miller_range(lo, hi, x)`` land: in a pair
    "above", "inside" or "below" the pairs that hold the kept orders lo..hi,
    and "last kept" or "last below" for the last pair, orders 1 and 0."""
    top, bot = hi // 2 + 1, lo // 2 + 1
    stretches = set()
    for k in miller_rescale_orders(hi, x):
        pair = k // 2 + 1
        stretches.add("above" if pair > top else
                      "inside" if pair >= bot else "below")
        if pair == 1:
            stretches.add("last kept" if bot == 1 else "last below")
    return stretches


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
        # Random orders up to 3500 (most of them deep in underflow for small
        # x), the rescale-heavy corner just above the series cutoff, where
        # up to 28 rescales by 1e-250 happen and J_n turns subnormal, and
        # negative arguments.  The Miller kernel must match on every case,
        # and bessel_j itself on every case it routes to that kernel, not
        # to Debye's expansion or to the Debye-anchored pass.
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
        kinds = {"miller": 0, "debye": 0, "anchored": 0}
        for n, x in cases:
            ref = miller_reference(n, abs(x))[n]
            kernel = specfun._miller_range(n, n, abs(x))[0]
            if x < 0 and n % 2:
                ref, kernel = -ref, -kernel
            values = (kernel,)
            try:
                values += (bessel_j(n, x),)
                kinds["miller"] += 1
            except Debye:
                kinds["debye"] += 1
            except Anchored:
                kinds["anchored"] += 1
            for value in values:
                assert type(value) is float, (n, x)
                assert value == ref and math.copysign(
                    1.0, value) == math.copysign(1.0, ref), (n, x, value, ref)
        assert sum(kinds.values()) == len(cases) == 390
        assert all(kinds.values()), kinds  # every kind of case occurs

    def test_orders_bit_identical_to_reference(self):
        rng = random.Random(5)
        cases = [(rng.randint(0, 400),
                  math.exp(rng.uniform(math.log(1e-3), math.log(400.0))))
                 for _ in range(120)]
        cases += [(0, 0.5), (1, 13.0), (2, 400.0), (400, 12.5), (400, 0.01)]
        for n_max, x in cases:
            assert np.array_equal(bessel_j_orders(n_max, x),
                                  miller_reference(n_max, x)), (n_max, x)
            flipped = miller_reference(n_max, x)
            flipped[1::2] *= -1.0
            assert np.array_equal(bessel_j_orders(n_max, -x), flipped)

    def test_one_loop_edges_bit_identical_to_reference(self):
        # The random cases above reach every edge of the full pass's one
        # pair body except a rescale on the last pair below the kept
        # orders, which needs x < 12 and so never comes from bessel_j.
        # These cases reach each edge on purpose: orders 0-3 at
        # 12 < x <= 200, columns with n_max 0, 1 and 2, and rescales
        # above, inside and below the kept orders and on the last pair,
        # at J_1 alone and at J_0 alone, kept or not.
        at_j1, at_j0 = 0.0060255958607435805, 0.006606934480075957
        cases = [(n, n, x) for n in range(4) for x in (12.5, 57.1, 200.0)]
        cases += [(0, n_max, x) for n_max in range(3)
                  for x in (0.006, 11.9, 12.5, 57.1, 400.0)]
        cases += [(lo, 40, x) for lo in (0, 40) for x in (at_j1, at_j0)]
        cases += [(0, 300, 12.5), (1650, 1650, 12.5),
                  (2393, 2393, 48.75113430192001)]
        assert miller_rescale_orders(40, at_j1) == [1]
        assert miller_rescale_orders(40, at_j0) == [0]
        seen = set()
        for lo, hi, x in cases:
            ref = [v.hex() for v in miller_reference(hi, x)[lo:].tolist()]
            got = [specfun._miller_range(lo, hi, x)]
            if lo == 0:
                got.append(bessel_j_orders(hi, x).tolist())
            if lo == hi and 12.0 < x <= 200.0:
                got.append([bessel_j(lo, x)])
            for values in got:
                assert [v.hex() for v in values] == ref, (lo, hi, x)
            seen |= rescale_stretches(lo, hi, x)
        assert seen == {"above", "inside", "below", "last kept",
                        "last below"}

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
        # test can act; the result must still be finite and correct.
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
        # Over arguments small enough for a step to overflow, every result
        # the reference recurrence gives finite keeps its bits.
        rng = random.Random(9)
        finite = overflowed = 0
        for _ in range(300):
            n_max = rng.randint(0, 400)
            x = 10.0 ** rng.uniform(-120.0, -50.0)
            ref = miller_reference(n_max, x)
            got = bessel_j_orders(n_max, x)
            if np.isfinite(ref).all():
                finite += 1
                assert np.array_equal(got, ref), (n_max, x)
            else:
                overflowed += 1
                assert np.isfinite(got).all() and got[0] == 1.0, (n_max, x)
        assert finite >= 5 and overflowed >= 200

    def test_tiny_argument_fallback_is_the_leading_term_bit_for_bit(self):
        # Where Miller overflows, the series gives the leading term
        # (x/2)^k / k! unchanged, as the former dedicated loop did.
        def frozen_leading_terms(n_max, x):
            half = 0.5 * x
            term = 1.0
            out = [term]
            for k in range(1, n_max + 1):
                term *= half / k
                out.append(term)
            return out

        rng = random.Random(18)
        overflowed = 0
        for _ in range(400):
            n_max = rng.randint(0, 300)
            x = 10.0 ** rng.uniform(-323.5, -50.0)
            if np.isfinite(miller_reference(n_max, x)).all():
                continue
            overflowed += 1
            ref = np.array(frozen_leading_terms(n_max, x))
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
        # Orders past the first underflowed leading term are 0.0; the
        # fallback must not sum a series per order up to n_max.
        real = specfun._bessel_series
        orders = []

        def counted(n, x):
            orders.append(n)
            return real(n, x)

        monkeypatch.setattr(specfun, "_bessel_series", counted)
        out = bessel_j_orders(30000, 1e-60)
        assert orders == list(range(7))
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
        # Measured worst: 2.9e-16 absolute and 2.3e-15 relative.  On the
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
        assert worst_abs <= 1e-14
        assert worst_rel <= 1e-13

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


class TestAnchored:
    """The Debye-anchored Miller pass, the route of bessel_j for n >= 1 and
    x > 200 where Debye's expansion declines: the band x ~ n and every order
    above it."""

    def check(self, pairs):
        worst_rel = worst_abs = 0.0
        for n, x in pairs:
            assert anchored_routed(n, x), (n, x)
            rel, absolute, size = anchored_error(n, x)
            if size >= 1e-3:
                worst_rel = max(worst_rel, rel)
            else:
                worst_abs = max(worst_abs, absolute)
        assert worst_rel <= 1e-12
        assert worst_abs <= 1e-14

    def test_draws_against_mpmath(self):
        # Measured worst: 4.8e-14 relative, at (355, 401.2), and 4.4e-19
        # of the envelope where |J| is below 1e-3 of it.  The full Miller
        # pass gives 3.1e-12 and 2.7e-19 on the same draws.
        pairs = anchored_draws(26, 120)
        assert sum(n < x for n, x in pairs) >= 50
        assert sum(n > x for n, x in pairs) >= 50
        assert max(x for _, x in pairs) > 3000.0
        self.check(pairs)

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
        self.check(pairs)

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
            self.check([(1900, x), (2005, x), (2100, x)])
        assert calls == [1859] * 3

    def test_no_overflow_far_above_the_turning_point(self):
        # J = 1.69e-183.  The anchor's recurrence value reaches about 1e235
        # here, and a normalization by its square returned 0.0.
        rel, _, _ = anchored_error(2276, 1590.0108505659425)
        assert rel <= 1e-12

    def test_one_debye_anchor_and_no_full_miller_pass(self, monkeypatch):
        # The anchor is the largest order Debye's route serves, below
        # min(n, x); the pass stops there and calls Debye's route once,
        # at the anchor or one order below it.
        def refused(*args):
            raise AssertionError(f"full Miller pass for {args}")

        calls = []
        real = specfun._bessel_debye

        def counted(n, x):
            calls.append(n)
            return real(n, x)

        monkeypatch.setattr(specfun, "_miller_range", refused)
        monkeypatch.setattr(specfun, "_bessel_debye", counted)
        pairs = anchored_draws(27, 200)
        for n, x in pairs:
            k = specfun._debye_anchor(x)
            assert k < min(n, x) and debye_routed(k, x)
            assert not any(debye_routed(j, x)
                           for j in range(k + 1, math.ceil(x) + 1))
        pairs += [(8_999_000, 9e6), (9_000_000, 9e6), (10_000_500, 1e7)]
        for n, x in pairs:
            k = specfun._debye_anchor(x)
            assert k < min(n, x)
            assert debye_routed(k, x) and not debye_routed(k + 1, x)
            calls.clear()
            value = bessel_j(n, x)
            assert type(value) is float and abs(value) < 1.0
            assert calls in ([k], [k - 1]), (n, x, calls)
            assert bessel_j(n, -x) == (-value if n % 2 else value)


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
        assert excinfo.value.error_estimate >= 0.0


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
        f"{max_terms} terms",
        error_estimate=abs(term),
    )


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
        # The tolerance is a module constant; patching it checks that the
        # loop reads it where the frozen loop read its argument.
        monkeypatch.setattr(specfun, "_REL_TOL", rel_tol)
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

"""Special functions behind the closed-form rates.

Two evaluators, both self-contained (no scipy):

* ``bessel_j``      -- integer-order Bessel J_n, ascending power series for
                       |x| <= 12 and normalized downward (Miller) recurrence
                       above.
* ``rational_period_integral`` -- one-period average
                       (1/2pi) * int_{-pi}^{pi} exp(i(x sin(q s) - p s)) ds,
                       which vanishes unless q divides p; this is the
                       mathematical form of the sideband selection rule,
                       by adaptive composite Gauss-Legendre quadrature.
                       Library API: the ``oracle`` command's scan runs on
                       the trapezoid route alone, and the tests keep this
                       one as its independent check.
"""

import math

from ._lazy import np
from ._quadrature import refine_to_tolerance
from .errors import ConvergenceError, PhysicsDomainError

_SERIES_CUTOFF = 12.0
_MILLER_RESCALE = 1e250

#: Relative accuracy of the Bessel series.
_REL_TOL = 1e-10
#: Most terms the Bessel series may use.
_MAX_TERMS = 10**6
#: Largest |x| the Bessel evaluators accept; a Miller pass there takes ~1 s.
MAX_ARGUMENT = 1e7


def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x) for non-negative integer order.

    Satisfies J_n(-x) = (-1)^n J_n(x) by construction.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"order must be a non-negative integer, got {n}")
    n = int(n)
    _check_argument(x)
    x = float(x)  # numpy scalars would leak into the result and slow the loops
    if x < 0:
        return -bessel_j(n, -x) if n % 2 else bessel_j(n, -x)
    if x <= _SERIES_CUTOFF:
        return _bessel_series(n, x)
    return _miller_range(n, n, x)[0]


def bessel_j_orders(n_max: int, x: float) -> "np.ndarray":
    """All of J_0(x) .. J_{n_max}(x) from a single downward recurrence.

    One Miller pass yields every order at once, which is what the sweep
    engine wants for whole-column evaluation.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    _check_argument(x)
    sign = -1.0 if x < 0 else 1.0
    x = abs(float(x))
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    out = np.array(_miller_range(0, n_max, x))
    if not math.isfinite(out[0]):
        # A Miller step (2k/x) J_k overflows only for x < 1e-50.  There the
        # series is exact from its first term, and past the first order
        # whose leading term underflows to 0.0 every order is 0.0.
        out[:] = 0.0
        for k in range(n_max + 1):
            out[k] = _bessel_series(k, x)
            if out[k] == 0.0:
                break
    if sign < 0:
        out[1::2] *= -1.0
    return out


def _check_argument(x: float) -> None:
    if not math.isfinite(x):
        raise PhysicsDomainError(f"argument must be finite, got {x}")
    if abs(x) > MAX_ARGUMENT:
        raise PhysicsDomainError(f"Bessel argument |x| = {abs(x):g} is "
                                 f"above MAX_ARGUMENT = {MAX_ARGUMENT:g}")


def _bessel_series(n: int, x: float) -> float:
    # J_n(x) = sum_k (-1)^k (x/2)^{n+2k} / (k! (n+k)!), built multiplicatively
    # so large n underflows gracefully instead of overflowing n!.
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    if term == 0.0:
        return 0.0
    total = term
    peak = abs(term)
    h2 = half * half
    tol = 1e-2 * _REL_TOL
    for k in range(1, _MAX_TERMS + 1):
        term *= -h2 / (k * (n + k))
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        if mag <= tol * abs(total) or mag <= 1e-17 * peak:
            return total
    raise ConvergenceError(
        f"Bessel series for J_{n}({x}) did not converge in "
        f"{_MAX_TERMS} terms",
        error_estimate=abs(term),
    )


def _miller_start(n: int, x: float) -> int:
    # Start far enough above both the order and the turning point k ~ x that
    # the downward recurrence has fully locked onto the minimal solution.
    base = max(n, int(x))
    m = base + 16 + int(2.5 * math.sqrt(base + 1.0))
    return m + (m & 1)


def _miller_range(lo: int, hi: int, x: float) -> list:
    """J_lo(x) .. J_hi(x), x > 0, as floats in ascending order.

    Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} from the seed 1e-30
    at ``_miller_start(hi, x)``, normalized by J_0 + 2*sum_k J_2k = 1.  The
    start index is even, so the steps come in pairs (k even, then k odd)
    whose second member is the even order that enters the normalization.
    Pairs above the kept orders only recur, kept pairs also store, and pairs
    below recur while rescaling what was stored.  Any step past 1e250 in
    magnitude rescales the recurrence, the normalization and every value
    stored so far by 1e-250, one rescale at a time.
    """
    m = _miller_start(hi, x)
    top = hi // 2 + 1    # pair holding orders 2*top-1 (>= hi) and 2*top-2
    bot = lo // 2 + 1    # pair holding orders 2*bot-1 and 2*bot-2 (<= lo)
    kept = []            # stored values, descending order from 2*top-1
    seed = 1e-30
    up, cur, norm = _miller_pairs(m // 2, top, x, 0.0, seed, 2.0 * seed, kept)
    up, cur, norm = _miller_kept_pairs(top, max(bot, 2) - 1, x, up, cur,
                                       norm, kept)
    up, cur, norm = _miller_pairs(bot - 1, 1, x, up, cur, norm, kept)
    # The last pair, orders 1 and 0: J_0 enters the normalization once.
    j1 = (4.0 / x) * cur - up
    if abs(j1) > _MILLER_RESCALE:
        j1, cur, norm = _rescale(j1, cur, norm, kept)
    j0 = (2.0 / x) * j1 - cur
    if abs(j0) > _MILLER_RESCALE:
        j0, j1, norm = _rescale(j0, j1, norm, kept)
    norm += j0
    if bot == 1:
        kept += (j1, j0)
    first = 2 * top - 1
    return [v / norm for v in reversed(kept[first - hi:first - lo + 1])]


def _miller_pairs(start: int, stop: int, x: float, up: float, cur: float,
                  norm: float, kept: list):
    """Pairs ``start`` down to ``stop + 1`` of ``_miller_range``, not stored.

    Pair j takes J_{2j+1} (``up``) and J_{2j} (``cur``) to J_{2j-1} and
    J_{2j-2}; ``tk`` is 2k for k = 2j, an exact float.
    """
    big = _MILLER_RESCALE
    tk = 4.0 * start
    for _ in range(start - stop):
        # a > big or a < -big is abs(a) > big without the call.
        a = (tk / x) * cur - up
        if a > big or a < -big:
            a, cur, norm = _rescale(a, cur, norm, kept)
        b = ((tk - 2.0) / x) * a - cur
        if b > big or b < -big:
            b, a, norm = _rescale(b, a, norm, kept)
        tk -= 4.0
        norm += 2.0 * b
        up = a
        cur = b
    return up, cur, norm


def _miller_kept_pairs(start: int, stop: int, x: float, up: float,
                       cur: float, norm: float, kept: list):
    """``_miller_pairs`` that also appends both new values to ``kept``.

    A loop of its own, so that the unstored pairs pay no store test.
    """
    big = _MILLER_RESCALE
    tk = 4.0 * start
    for _ in range(start - stop):
        a = (tk / x) * cur - up
        if a > big or a < -big:
            a, cur, norm = _rescale(a, cur, norm, kept)
        b = ((tk - 2.0) / x) * a - cur
        if b > big or b < -big:
            b, a, norm = _rescale(b, a, norm, kept)
        kept += (a, b)
        tk -= 4.0
        norm += 2.0 * b
        up = a
        cur = b
    return up, cur, norm


def _rescale(u: float, v: float, norm: float, kept: list):
    """The rescale of ``_miller_range``: the two live values ``u`` and
    ``v``, the normalization and, in place, every stored value times
    1 / _MILLER_RESCALE."""
    scale = 1.0 / _MILLER_RESCALE
    kept[:] = [w * scale for w in kept]
    return u * scale, v * scale, norm * scale


def rational_period_integral(x: float, p: int, q: int) -> float:
    """One-period average (1/2pi) * int_{-pi}^{pi} e^{i(x sin(q s) - p s)} ds.

    p/q need not be reduced.  Vanishes whenever p/q is not an integer; equals
    bessel_j(p//q, x) when q divides p.  The integral is real by symmetry:
    the imaginary part is checked against 1e-12 and discarded.
    """
    if p != int(p) or q != int(q) or p < 1 or q < 1:
        raise ValueError(f"p and q must be positive integers, got p={p}, q={q}")
    if not math.isfinite(x):
        raise PhysicsDomainError(f"argument must be finite, got {x}")
    p, q = int(p), int(q)

    def integrand(s):
        return np.exp(1j * (x * np.sin(q * s) - p * s))

    panels = max(16, math.ceil(4.0 * (abs(x) + p)))
    value, _, _ = refine_to_tolerance(integrand, -math.pi, math.pi, panels)
    value /= 2.0 * math.pi
    if abs(value.imag) >= 1e-12:
        raise ConvergenceError(
            f"rational-period integral returned imaginary part "
            f"{value.imag:g}; expected < 1e-12 by symmetry",
            error_estimate=abs(value.imag),
        )
    return float(value.real)

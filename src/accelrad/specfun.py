"""Special functions behind the closed-form rates.

Two evaluators, both self-contained (no scipy):

* ``bessel_j``      -- integer-order Bessel J_n, J_n(-x) = (-1)^n J_n(x),
                       on the route this table picks from (n, |x|) alone:

    |x| <= 12          the ascending power series
    n > x > 12, cut    0.0 at O(1), where Kapteyn's bound (DLMF 10.14.5)
                       proves it
    x > 200, Debye     Debye's expansion (DLMF 10.19.6) far enough past the
                       turning point x = n, at most 17 terms (at n = 0
                       Hankel's expansion, DLMF 10.17.3)
    x > 200, the rest  the downward (Miller) recurrence run only to the
                       largest order Debye's route serves, normalized by
                       Debye's value there, at O(|n - x| + sqrt(x)) steps
    12 < x <= 200      the full Miller pass, normalized by J_0 + 2 sum J_2k
                       = 1, at O(max(n, x)): one loop of step pairs that
                       stores only the orders asked for

                       ``bessel_j_cells`` takes each element's route from
                       the table: the series and the full pass step every
                       element at once, the pass in lockstep on its pair
                       index, and every other element calls ``bessel_j``.
                       ``bessel_j_orders`` takes a column J_0 .. J_top, top
                       the last order Kapteyn's cut lets through: at |x| <=
                       200 by the lockstep full pass, or by the series where
                       its normalization is not finite or zero (below about
                       |x| = 1e-6), and above 200 by a full pass of its own.
                       A number x runs as a one-element column.
* ``rational_period_integral`` -- one-period average
                       (1/2pi) * int_{-pi}^{pi} exp(i(x sin(q s) - p s)) ds,
                       which vanishes unless q divides p; this is the
                       mathematical form of the sideband selection rule,
                       by adaptive composite Gauss-Legendre quadrature.
                       Library API: the ``oracle`` command's scan runs on
                       the trapezoid route alone, and the tests keep this
                       one as its independent check.
"""

import itertools
import math

from ._lazy import np
from ._quadrature import refine_to_tolerance
from .errors import ConvergenceError, PhysicsDomainError, real, whole_number

_SERIES_CUTOFF = 12.0
# One nat below ln 2^-1075 = -745.13, which covers the bound's rounding.
_KAPTEYN_CUT = -746.2
_MILLER_SEED = 1e-30 * 2.0 ** -840  # 1.4e-283, where both Miller passes start

#: Stopping threshold of the Bessel series, not its accuracy (cancellation
#: near x = 12 costs more); it stops within 27 terms
#: (``TestCountedWork::test_series_takes_at_most_27_terms``).
_SERIES_TOL = 1e-12
#: Largest |x| the Bessel evaluators accept; a full Miller pass there, which
#: only ``bessel_j_orders`` still runs, takes about 1e7 steps.  Neither
#: Miller pass rescales: raising the cap requires re-running both
#: ``test_pass_stays_in_normal_range`` tests at the new cap.
MAX_ARGUMENT = 1e7

# Debye's route takes x > _DEBYE_MIN_X with tau = n tan^3(beta) = w^3 / n^2
# >= _DEBYE_MIN_TAU, where x = n sec(beta) and w = sqrt(x^2 - n^2).  There a
# term falls below _DEBYE_TOL within the 17 of _DEBYE_U: on a scan of n up
# to 5000 the worst case needs all 17, at (144, 200); at x = 150 the same tau
# needs 18.  The anchored pass of the band x ~ n takes 16 + 2.5 sqrt(x) +
# 12 x^(1/3) steps for x >= n, 328 at (3000, 3150) against 3306 for a full
# Miller pass (``TestCountedWork``).
_DEBYE_MIN_X = 200.0
_DEBYE_MIN_TAU = 120.0
_DEBYE_TOL = 2.0 ** -54

# U_k(s), s = cot^2(beta), highest power first, with
# u_k(i cot beta) / n^k = i^k (-1)^(k//2) U_k(s) / w^k for the polynomials
# u_k of DLMF 10.41.10; the coefficients of one U_k share a sign.
_DEBYE_U = (
    (1.0,),
    (0.20833333333333334, 0.125),
    (-0.3342013888888889, -0.4010416666666667, -0.0703125),
    (-1.0258125964506173, -1.8464626736111112, -0.8912109375, -0.0732421875),
    (4.669584423426247, 11.207002616222994, 8.78912353515625,
     2.3640869140625, 0.112152099609375),
    (28.212072558200244, 84.63621767460073, 91.81824154324002,
     42.53499874538846, 7.368794359479632, 0.22710800170898438),
    (-212.57013003921713, -765.2524681411817, -1059.9904525279999,
     -699.5796273761325, -218.1905117442116, -26.491430486951554,
     -0.5725014209747314),
    (-1919.457662318407, -8061.722181737309, -13586.550006434138,
     -11655.393336864534, -5305.646978613403, -1200.9029132163525,
     -108.09091978839466, -1.7277275025844574),
    (20204.29133096615, 96980.59838863752, 192547.00123253153,
     203400.17728041555, 122200.46498301746, 41192.65496889755,
     7109.514302489364, 493.915304773088, 6.074042001273483),
    (242919.18790055133, 1311763.6146629772, 2998015.9185381066,
     3763271.297656404, 2813563.226586534, 1268365.2733216248,
     331645.1724845636, 45218.76898136273, 2499.8304818112097,
     24.380529699556064),
    (-3284469.853072038, -19706819.118432228, -50952602.49266464,
     -74105148.21153265, -66344512.27472903, -37567176.66076335,
     -13288767.166421818, -2785618.1280864547, -308186.4046126624,
     -13886.08975371704, -110.01714026924674),
    (-49329253.66450996, -325573074.18576574, -939462359.6815784,
     -1553596899.57058, -1621080552.1083372, -1106842816.8230145,
     -495889784.2750303, -142062907.7975331, -24474062.72573873,
     -2243768.1779224495, -84005.43360302408, -551.3358961220206),
    (814789096.1183121, 5866481492.051847, 18688207509.295826,
     34632043388.158775, 41280185579.753975, 33026599749.800724,
     17954213731.1556, 6563293792.619285, 1559279864.8792574,
     225105661.88941526, 17395107.553978164, 549842.3275722887,
     3038.090510922384),
    (14679261247.695616, 114498237732.0258, 399096175224.4665,
     819218669548.5773, 1098375156081.2233, 1008158106865.3821,
     645364869245.3765, 287900649906.1506, 87867072178.02327,
     17634730606.83497, 2167164983.223795, 143157876.71888897,
     3871833.442572613, 18257.755474293175),
    (-286464035717.679, -2406297900028.504, -9109341185239.898,
     -20516899410934.438, -30565125519935.32, -31667088584785.16,
     -23348364044581.84, -12320491305598.287, -4612725780849.132,
     -1196552880196.1816, -205914503232.41, -21822927757.529224,
     -1247009293.5127103, -29188388.122220814, -118838.42625678325),
    (-6019723417234.006, -54177510755106.05, -221349638702525.2,
     -542739664987659.75, -889496939881026.5, -1026955196082762.5,
     -857461032982895.0, -523054882578444.6, -232604831188939.94,
     -74373122908679.14, -16634824724892.48, -2485000928034.0854,
     -229619372968.24646, -11465754899.448236, -234557963.52225152,
     -832859.3040162893),
    (135522158703093.69, 1301012723549699.5, 5705782159023671.0,
     1.5129826322457682e+16, 2.705471130619708e+16, 3.4447226006485144e+16,
     3.213827526858624e+16, 2.2268225133911144e+16, 1.1486706978449752e+16,
     4379325838364015.5, 1212675804250347.5, 236652530451649.25,
     31007436472896.46, 2521558474912.8545, 110997405139.17902,
     2001646928.1917763, 6252951.493434797),
)

# atan(j/8), j = 0..8, as double-doubles (hi, lo).
_ATAN_EIGHTHS = (
    (0.0, 0.0), (0.12435499454676144, -3.1253241424539383e-18),
    (0.24497866312686414, 1.0698755618734451e-17),
    (0.35877067027057225, -2.4623815582638635e-17),
    (0.4636476090008061, 2.2698777452961687e-17),
    (0.5585993153435624, -5.4556305485916264e-18),
    (0.6435011087932844, 1.5834785051444286e-17),
    (0.7188299996216245, -2.1478388444456983e-17),
    (0.7853981633974483, 3.061616997868383e-17))
# 2 pi = P1 + P2 + P3, P1 and P2 of 27 bits each, so that turns * P1 and
# turns * P2 are exact for the at most 25-bit turn counts of x <= 1e7.
_TWO_PI = (6.283185303211212, 3.968374295837407e-09, 2.2884754904439327e-17)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x) for non-negative integer order.

    Satisfies J_n(-x) = (-1)^n J_n(x) by construction.
    """
    n = whole_number("order", n, 0)
    _check_argument(x)
    x = float(x)  # numpy scalars would leak into the result and slow the loops
    if x < 0:
        return -bessel_j(n, -x) if n % 2 else bessel_j(n, -x)
    if x <= _SERIES_CUTOFF:
        return _bessel_series(n, x)
    if _kapteyn_zero(n, x):
        return 0.0
    if x > _DEBYE_MIN_X:
        if _debye_serves(n, x):
            return _bessel_debye(n, x)
        return _bessel_anchored(n, x)
    return _miller_range(n, n, x)[0]


def bessel_j_orders(n_max: int, x) -> "np.ndarray":
    """J_0(x) .. J_{n_max}(x), shape ``(n_max + 1,)`` for a number ``x``, or
    one such column per element of a 1-D array ``x``, shape ``(len(x),
    n_max + 1)``; routes as in the module's table, every order above the
    column's top 0.0.  Each column equals the call at its element alone bit
    for bit, the sign of 0.0 included.  Any other shape of ``x`` is refused
    with ValueError, and the first element that ``bessel_j`` refuses raises
    its error.
    """
    n_max = whole_number("n_max", n_max, 0)
    x = np.asarray(x)
    if x.ndim > 1:
        raise ValueError(f"x must be a number or a 1-D array, got shape "
                         f"{x.shape}")
    _, x, shape = _read_cells(0, x)  # the argument checks of bessel_j
    ax = np.abs(x)
    tops = [_column_top(n_max, a) for a in ax.tolist()]
    out = np.zeros((x.size, n_max + 1))
    near = np.flatnonzero(ax <= _DEBYE_MIN_X)
    top = np.array(tops, dtype=np.int64)[near]
    start = _miller_starts(top, ax[near])
    by_start = np.argsort(-start, kind="stable")
    near, top, start = near[by_start], top[by_start], start[by_start]
    width = int(top.max(initial=-1)) + 1  # orders 0 .. the highest top
    kept = np.zeros((near.size, width + 1))  # pair j: orders 2j - 1, 2j - 2

    def keep(j, count, up, cur):
        if 2 * j - 2 < width:
            kept[:count, 2 * j - 2] = cur[:count]
            kept[:count, 2 * j - 1] = up[:count]

    norm = _miller_lockstep(ax[near], start, keep)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = kept[:, :width] / norm[:, None]
    values[np.arange(width) > top[:, None]] = 0.0
    out[near, :width] = values
    for k in np.flatnonzero(ax > _DEBYE_MIN_X):
        out[k, :tops[k] + 1] = _miller_range(0, tops[k], ax[k].item())
    for k in near[~np.isfinite(norm) | (norm == 0.0)]:
        out[k, :tops[k] + 1] = [_bessel_series(i, ax[k].item())
                                for i in range(tops[k] + 1)]
    out[x < 0, 1::2] *= -1.0
    return out.reshape(shape + (n_max + 1,))


def bessel_j_cells(n, x) -> "np.ndarray":
    """J_n(x) over the broadcast arrays ``n`` (whole orders) and ``x``, routes
    as in the module's table: each element equals ``bessel_j(n_i, x_i)`` bit
    for bit, the sign of 0.0 included, and the first element that
    ``bessel_j`` refuses raises its error.
    """
    n, x, shape = _read_cells(n, x)
    ax = np.abs(x)
    out = np.empty(x.size)
    series = ax <= _SERIES_CUTOFF
    out[series] = _series_cells(n[series], ax[series])
    far = np.flatnonzero(ax > _DEBYE_MIN_X)
    out[far] = [bessel_j(k, a) for k, a in zip(n[far].tolist(),
                                               ax[far].tolist())]
    middle = np.flatnonzero(~series & (ax <= _DEBYE_MIN_X))
    cut = np.array([_kapteyn_zero(k, a) for k, a in zip(
        n[middle].tolist(), ax[middle].tolist())], dtype=bool)
    out[middle[cut]] = 0.0
    miller = middle[~cut]
    out[miller] = _miller_cells(n[miller], ax[miller])
    flip = (x < 0) & (n % 2 == 1)  # J_n(-x) = -J_n(x) for odd n
    out[flip] = -out[flip]
    return out.reshape(shape)


def _read_cells(n, x):
    """``n`` and ``x`` broadcast and flattened, as whole orders and float
    arguments, and their shape.  The first element at which ``bessel_j``
    refuses its order or its argument raises that call's error."""
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x))
    shape = x.shape
    n, x = n.ravel(), x.ravel()
    if n.dtype.kind in "iu" and np.can_cast(x.dtype, float):
        # int64 orders: an unsigned or narrow order would wrap in -n or n + k
        orders = n.astype(np.int64, copy=False)
        args = x.astype(float, copy=False)
        if ((np.abs(args) <= MAX_ARGUMENT) & (orders >= 0)).all():
            return orders, args, shape
    orders, args = [], []
    for k, a in zip(n.tolist(), x.tolist()):  # bessel_j's checks, in order
        orders.append(whole_number("order", k, 0))
        _check_argument(a)
        args.append(float(a))
    return np.array(orders, dtype=np.int64), np.array(args), shape


def _check_argument(x: float) -> None:
    if abs(real("argument", x)) > MAX_ARGUMENT:
        raise PhysicsDomainError(f"Bessel argument |x| = {abs(x):g} is "
                                 f"above MAX_ARGUMENT = {MAX_ARGUMENT:g}")


def _kapteyn_zero(n: int, x: float) -> bool:
    """Whether J_n(x), 0 < x <= MAX_ARGUMENT, is 0.0 by Kapteyn's bound
    |J_n(nz)| <= (z e^r / (1 + r))^n, z = x/n < 1, r = sqrt(1 - z^2) (DLMF
    10.14.5).  It falls as n rises, so an order past float range is tested
    at 1e300.  Where z underflows, n >= 2 and J_n(x) <= (x/2)^2 / 2 is 0.0."""
    if n <= x:
        return False
    z = x / (n := min(n, 1e300))
    r = math.sqrt((1.0 - z) * (1.0 + z))
    return z == 0.0 or n * (math.log(z) + r - math.log1p(r)) < _KAPTEYN_CUT


def _bessel_series(n: int, x: float) -> float:
    """J_n(x) = sum_k (-1)^k (x/2)^{n+2k} / (k! (n+k)!), built
    multiplicatively so large n underflows gracefully instead of
    overflowing n!.

    The loop needs no term cap: once k > (x/2)^2, each term shrinks by
    (x/2)^2 / (k (n+k)) < 1 until it reaches 0.0 or 1e-17 of the peak.  On
    a dense grid plus 200 000 draws with n <= 3000 and x <= 12 it took at
    most 27 terms, at order 0 from x = 11.6 up to 12.0; the bound is
    ``TestCountedWork::test_series_takes_at_most_27_terms``.
    """
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
        if term == 0.0:  # every later product stays 0.0
            return 0.0
    total = term
    peak = abs(term)
    h2 = half * half
    for k in itertools.count(1):
        term *= -h2 / (k * (n + k))
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        if mag <= _SERIES_TOL * abs(total) or mag <= 1e-17 * peak:
            return total


def _debye_serves(n: int, x: float) -> bool:
    """Whether Debye's route serves J_n(x), x > _DEBYE_MIN_X: tau = w^3 / n^2
    >= _DEBYE_MIN_TAU, false for n >= x.  tau falls as n rises, so the
    orders served are 0 .. ``_debye_anchor(x)``."""
    return (x * x - n * n) ** 3 >= _DEBYE_MIN_TAU ** 2 * n ** 4


def _debye_anchor(x: float) -> int:
    """The largest order that Debye's route serves at x > _DEBYE_MIN_X.

    With y = 1 - (k/x)^2 the route's edge is y^1.5 = a (1 - y), a = tau/x.
    Newton's method from y = a^(2/3), to the right of the root of this
    convex rising function, stays to its right; two steps land on the
    right order in all but 97 of 200 000 draws of x up to 1e7, and the
    served test itself settles the last order.
    """
    a = _DEBYE_MIN_TAU / x
    y = a ** (2.0 / 3.0)
    for _ in range(2):
        r = math.sqrt(y)
        y -= (y * r - a * (1.0 - y)) / (1.5 * r + a)
    k = int(x * math.sqrt(1.0 - y))
    while not _debye_serves(k, x):  # order 1 is served
        k -= 1
    while _debye_serves(k + 1, x):
        k += 1
    return k


def _bessel_anchored(n: int, x: float) -> float:
    """J_n(x) for x > _DEBYE_MIN_X where Debye's route and Kapteyn's cut
    decline: the turning-point band and the orders above it.

    Miller's recurrence runs from ``_miller_start(n, x)`` only down to
    the anchor k - 1, k = ``_debye_anchor(x)`` < n, and is normalized by one
    Debye value instead of by J_0 + 2 sum J_2k = 1 (DLMF 3.6(iii)).  Of
    f_k and f_{k-1} the larger in magnitude anchors: two consecutive orders
    are never both near a zero of J.  f_n / f_anchor is formed first: the
    square of f_anchor would overflow.  Behind the cut the pass spans at
    most 1280 nats, from the seed to 1.1e273 at x = MAX_ARGUMENT, and never
    rescales (``TestAnchored::test_pass_stays_in_normal_range``).
    """
    k = _debye_anchor(x)
    m = _miller_start(n, x)
    f_up, f_n = _miller_steps(m, m - n, x, 0.0, _MILLER_SEED)
    f_k, f_km1 = _miller_steps(n, n - k + 1, x, f_up, f_n)
    if abs(f_k) >= abs(f_km1):
        return f_n / f_k * _bessel_debye(k, x)
    return f_n / f_km1 * _bessel_debye(k - 1, x)


def _miller_steps(k: int, steps: int, x: float, up: float, cur: float):
    """``steps`` steps J_{j-1} = (2j/x) J_j - J_{j+1}, j = k, k - 1, ..,
    from (up, cur) = (f_{k+1}, f_k), with no rescaling: returns f_{k-steps+1}
    and f_{k-steps}.  An odd step first, then pairs of steps."""
    tk = 2.0 * k
    if steps & 1:
        up, cur = cur, (tk / x) * cur - up
        tk -= 2.0
    for _ in range(steps >> 1):
        up = (tk / x) * cur - up
        cur = ((tk - 2.0) / x) * up - cur
        tk -= 4.0
    return up, cur


def _bessel_debye(n: int, x: float) -> float:
    """J_n(x) by Debye's expansion (DLMF 10.19.6) with x = n sec(beta):

    J = sqrt(2 / (pi w)) (cos(xi) sum_{k even} U_k(s) / w^k
                          + sin(xi) sum_{k odd} U_k(s) / w^k),

    with w = n tan(beta), s = cot^2(beta) and xi = w - n beta - pi/4.  xi
    reaches 1e7, and a float64 xi would be off by eps * xi of the
    envelope, so w and n beta are formed in double-double and xi is reduced
    against the split 2 pi of ``_TWO_PI``.
    """
    nu = float(n)
    sq, sq_lo = _two_prod(x, x)
    w2, w2_lo = _two_sum(sq, -nu * nu)  # nu^2 is exact: nu < x <= 1e7
    w2_lo += sq_lo
    w = math.sqrt(w2)
    sq, sq_lo = _two_prod(w, w)
    w_lo = ((w2 - sq) - sq_lo + w2_lo) / (2.0 * w)
    # Past beta = pi/4, beta = pi/2 - atan(n/w), and n pi/2 is a whole number
    # of quarter turns; the eighths of a turn include the -pi/4.
    if w <= nu:
        sign, eighths = -1.0, 1
        a, a_lo = _atan_dd(*_div_dd(w, w_lo, nu, 0.0))
    else:
        sign, eighths = 1.0, 2 * (n % 4) + 1
        a, a_lo = _atan_dd(*_div_dd(nu, 0.0, w, w_lo))
    na, na_lo = _two_prod(nu, a)
    xi, xi_lo = _two_sum(w, sign * na)
    xi_lo += w_lo + sign * (na_lo + nu * a_lo)
    turns = round(xi / _TWO_PI[0] - eighths / 8.0) + eighths / 8.0
    xi, e1 = _two_sum(xi, -turns * _TWO_PI[0])
    xi, e2 = _two_sum(xi, -turns * _TWO_PI[1])
    xi_lo += e1 + e2 - turns * _TWO_PI[2]
    cos, sin = math.cos(xi), math.sin(xi)
    z = 1.0 / w
    s = (nu * z) ** 2
    sums = [0.0, 0.0]
    zk = 1.0
    for k, coeffs in enumerate(_DEBYE_U):
        term = 0.0
        for c in coeffs:
            term = term * s + c
        term *= zk
        sums[k & 1] += term
        if abs(term) < _DEBYE_TOL:
            break
        zk *= z
    return math.sqrt(2.0 / (math.pi * w)) * (
        (cos - sin * xi_lo) * sums[0] + (sin + cos * xi_lo) * sums[1])


def _atan_dd(u: float, u_lo: float):
    """atan(u + u_lo), 0 <= u <= 1, as a double-double: atan(c) for the
    nearest c = j/8 plus atan(v), v = (u - c) / (1 + u c), |v| <= 1/16, by
    its Taylor series to v^17 (next term below 1e-24)."""
    j = int(8.0 * u + 0.5)
    c = 0.125 * j
    p, p_lo = _two_prod(u, c)
    d, d_lo = _two_sum(1.0, p)
    v, v_lo = _div_dd(u - c, u_lo, d, d_lo + p_lo + u_lo * c)  # u - c exact
    v2 = v * v
    g = 0.0
    for m in range(17, 1, -2):
        g = g * v2 + (1.0 if m % 4 == 1 else -1.0) / m
    a, a_lo = _two_sum(v, v * v2 * g)
    hi, lo = _ATAN_EIGHTHS[j]
    b, b_lo = _two_sum(hi, a)
    return b, b_lo + a_lo + v_lo + lo


def _div_dd(a: float, a_lo: float, b: float, b_lo: float):
    """(a + a_lo) / (b + b_lo) as a double-double."""
    q = a / b
    p, p_lo = _two_prod(q, b)
    return q, ((a - p) - p_lo + a_lo - q * b_lo) / b


def _two_sum(a: float, b: float):
    """a + b as s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float):
    """a * b as p + e exactly (Dekker), for |a|, |b| well below 1e300."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _miller_start(n: int, x: float) -> int:
    # Start far enough above both the order and the turning point k ~ x that
    # the downward recurrence has fully locked onto the minimal solution.
    base = max(n, int(x))
    m = base + 16 + int(2.5 * math.sqrt(base + 1.0))
    return m + (m & 1)


def _miller_range(lo: int, hi: int, x: float) -> list:
    """J_lo(x) .. J_hi(x), x > 0, as floats in ascending order.

    Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} from the seed at
    ``_miller_start(hi, x)``, normalized by J_0 + 2*sum_k J_2k = 1.  The
    start index is even, so the steps come in pairs: pair j takes J_{2j+1}
    (``up``) and J_{2j} (``cur``) to J_{2j-1} and J_{2j-2}, and first adds
    2 J_{2j} to the normalization; J_0 enters it once, after the last
    pair.  One pair body runs over three stretches, the pairs above the
    kept orders, across them and below them, and only the middle one
    stores.  For any hi Kapteyn's cut lets through at 1e-6 <= x <=
    MAX_ARGUMENT the pass stays in the normal range with no rescaling
    (``TestColumnPass``); a normalization past it raises OverflowError.
    """
    m = _miller_start(hi, x)
    top = hi // 2 + 1    # pair holding orders 2*top-1 (>= hi) and 2*top-2
    bot = lo // 2 + 1    # pair holding orders 2*bot-1 and 2*bot-2 (<= lo)
    kept = []            # stored values, descending order from 2*top-1
    up, cur, norm = 0.0, _MILLER_SEED, 0.0
    tk = 2.0 * m         # 2k for k = 2j at pair j, an exact float
    for pairs, keep in ((m // 2 - top, False), (top - bot + 1, True),
                        (bot - 1, False)):
        for _ in range(pairs):
            norm += 2.0 * cur
            up = (tk / x) * cur - up
            cur = ((tk - 2.0) / x) * up - cur
            if keep:
                kept += (up, cur)
            tk -= 4.0
    norm += cur
    if not math.isfinite(norm):
        raise OverflowError(f"Miller normalization overflows at x = {x!r}")
    first = 2 * top - 1
    return [v / norm for v in reversed(kept[first - hi:first - lo + 1])]


def _column_top(n_max: int, x: float) -> int:
    """The last of the orders 0 .. n_max that Kapteyn's cut lets through at
    x >= 0; the bound falls as n rises past x, so a cut column bisects."""
    top = n_max
    if _kapteyn_zero(top, x):
        top, cut = int(x), n_max
        while cut - top > 1:
            mid = (top + cut) // 2
            top, cut = (top, mid) if _kapteyn_zero(mid, x) else (mid, cut)
    return top


def _miller_starts(n, x):
    """``_miller_start`` over arrays of orders and arguments x > 0, with
    the same integer and float operations."""
    base = np.maximum(n, x.astype(np.int64))
    m = base + 16 + (2.5 * np.sqrt(base + 1.0)).astype(np.int64)
    return m + (m & 1)


def _miller_lockstep(x, start, keep):
    """``_miller_range``'s pass for every element of x > 0 at once, each
    from its own even ``start``, x and start ordered by start, largest
    first; returns each element's normalization J_0 + 2 sum J_2k.

    Pair j runs the scalar pair body, with tk = 4j, on the elements whose
    start reaches it, a prefix of the order; the others wait at (up, cur,
    norm) = (0, seed, 0), as a scalar pass waits until it starts.  So each
    element takes exactly its scalar pass's operations, and its bits.
    ``keep(j, count, up, cur)`` reads J_{2j-1} and J_{2j-2}, unnormalized,
    after pair j.  An element whose pass overflows, or which sits at 0,
    ends with a normalization that is not finite, silently.
    """
    up = np.zeros(x.size)
    cur = np.full(x.size, _MILLER_SEED)
    norm = np.zeros(x.size)
    pairs = start // 2
    last = int(pairs[0]) if pairs.size else 0
    counts = np.searchsorted(-pairs, -np.arange(last + 1), side="right")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(last, 0, -1):
            c = counts[j]
            tk, xs, u, v = 4.0 * j, x[:c], up[:c], cur[:c]
            norm[:c] += 2.0 * v
            np.subtract(tk / xs * v, u, out=u)
            np.subtract((tk - 2.0) / xs * u, v, out=v)
            keep(j, c, up, cur)
        norm += cur
    return norm


def _miller_cells(n, x):
    """``_miller_range(n_i, n_i, x_i)[0]`` for each element, 12 < x <= 200,
    from one lockstep pass: the pair holding order n, n // 2 + 1, keeps its
    ``up`` for odd n and its ``cur`` for even n."""
    start = _miller_starts(n, x)
    order = np.argsort(-start, kind="stable")
    n, x, start = n[order], x[order], start[order]
    pair = n // 2 + 1
    odd = n % 2 == 1
    by_pair = np.argsort(pair, kind="stable")
    edges = np.searchsorted(pair[by_pair], np.arange(pair.max(initial=0) + 2))
    value = np.empty(n.size)

    def keep(j, count, up, cur):
        if j + 1 < edges.size and edges[j] < edges[j + 1]:
            sel = by_pair[edges[j]:edges[j + 1]]
            value[sel] = np.where(odd[sel], up[sel], cur[sel])

    norm = _miller_lockstep(x, start, keep)
    for k in np.flatnonzero(~np.isfinite(norm) | (norm == 0.0)):
        _miller_range(int(n[k]), int(n[k]), float(x[k]))  # raises
    out = np.empty(n.size)
    out[order] = value / norm
    return out


def _series_cells(n, x):
    """``_bessel_series(n_i, x_i)`` for each element, x >= 0, in the scalar
    loop's operations: one loop turn per factor of (x/2)^n / n! for every
    element whose order reaches it, then one per term for every element not
    yet stopped.  A factor product that reaches 0.0 stays 0.0, and its
    series then stops after one term at 0.0, the scalar's early return."""
    order = np.argsort(-n, kind="stable")
    ns, half = n[order], 0.5 * x[order]
    term = np.ones(n.size)
    count = n.size
    for i in itertools.count(1):
        while count and ns[count - 1] < i:
            count -= 1
        if not count or not term[:count].any():
            break
        term[:count] *= half[:count] / i
    out = np.empty(n.size)
    live = np.arange(n.size)
    total, peak, h2 = term.copy(), np.abs(term), half * half
    for k in itertools.count(1):
        if not live.size:
            break
        term *= -h2 / (k * (ns + k))
        total += term
        mag = np.abs(term)
        peak = np.maximum(peak, mag)
        done = (mag <= _SERIES_TOL * np.abs(total)) | (mag <= 1e-17 * peak)
        out[order[live[done]]] = total[done]
        stay = ~done
        live, term, total, peak, h2, ns = (
            live[stay], term[stay], total[stay], peak[stay], h2[stay],
            ns[stay])
    return out


def rational_period_integral(x: float, p: int, q: int) -> float:
    """One-period average (1/2pi) * int_{-pi}^{pi} e^{i(x sin(q s) - p s)} ds.

    p/q need not be reduced.  Vanishes whenever p/q is not an integer; equals
    bessel_j(p//q, x) when q divides p.  The integral is real by symmetry:
    the imaginary part is checked against 1e-12 and discarded.
    """
    p, q, x = whole_number("p", p, 1), whole_number("q", q, 1), real("x", x)

    def integrand(s):
        return np.exp(1j * (x * np.sin(q * s) - p * s))

    panels = max(16, math.ceil(4.0 * (abs(x) + p)))
    value, _, _ = refine_to_tolerance(integrand, -math.pi, math.pi, panels)
    value /= 2.0 * math.pi
    if abs(value.imag) >= 1e-12:
        raise ConvergenceError(
            f"rational-period integral returned imaginary part "
            f"{value.imag:g}; expected < 1e-12 by symmetry")
    return float(value.real)

"""Brute-force evaluation of the one-period emission amplitude.

Ground truth for every closed-form rate: the first-order amplitude

    amplitude = int_{-pi}^{pi} f(tau) * exp(i n tau) dtau

is evaluated by the periodic trapezoid rule, where f is the conjugated
field-mode profile along the trajectory,

    free space:      f(tau) = exp(-i * phi(tau))            (right-moving)
    mirror / cavity: f(tau) = exp(i(phi - theta0)) - c.c.
                            = 2i sin(phi(tau) - theta0)

with phi(tau) = k * z(tau) the position phase in scaled time tau = Omega t
and theta0 = k * z0 the mirror offset.  Next to a boundary the k of phi and
of theta0 are the wave-vector components along the motion and along the
mirror normal (``project`` of the motion types); free space takes the full
k.  The trajectory comes from the motion types in ``rates`` and the field
mode from ``field_mode(omega) -> (k, z0, chi, omega_m, m)`` of the geometry
types, the one tuple the closed-form line builder reads too.  The oracle
takes omega > 0, n Omega = omega0 + omega: emission lines only; the
cavity's absorption lines (n Omega - omega0 < 0) have no oracle.  The
per-cycle transition rate follows as

    rate = chi * (Omega / 2 pi) * (g / Omega)^2 * |amplitude|^2

(chi is the cavity photon-number factor, 1 otherwise).  Sampled trajectories
are reconstructed by trigonometric interpolation, which preserves the
sideband selection rule exactly.

The integrand is analytic and 2 pi-periodic, so the N-node trapezoid rule
converges exponentially: its error is the aliasing tail, the integrand's
Fourier coefficients at nonzero multiples of N (Trefethen & Weideman,
SIAM Review 56, 2014).  Starting from 4 (n + B + 40) nodes, B a bound on
|dphi/dtau|, puts that tail far below float64; one doubling confirms it.
The oracle integrates the trajectory directly and shares only that
description with the closed forms, none of their Bessel or sin^2 algebra.

The selection-rule scan checks (1/2 pi) int e^{i(x sin(q psi) - p psi)} dpsi
by the N-node trapezoid rule alone, taking every p of one (q, x, N) row
from a single FFT of exp(i x sin(q psi_j)): 29 FFTs for the 300-case scan,
over 11 sine rows sin(q psi_j).
A proof, not a second rule, bounds that route.  The N-node sum is the signed
sum of J_j(x) over every j with q j = p (mod N), so it differs from the
exact value (0 for coprime p, q) by at most 2 sum_{j >= (N - p)/q}
(|x|/2)^j / j! (DLMF 10.14.4), far below float64 at the scan's N >= 4096.
"""

import math
from dataclasses import dataclass

from ._lazy import np
from ._quadrature import MAX_PERIODIC_NODES, periodic_trapezoid
from .constants import SPEED_OF_LIGHT as C
from .errors import (OracleMismatchError, OracleRangeError,
                     PhysicsDomainError, real, whole_number)
from .rates import (EMIT_EXCITE, AtomParams, Cavity, FreeSpace, Mirror,
                    ShoMotion, Sideband, check_clearance, off_resonance)

_EPS = 2.0 ** -52  # float64 machine epsilon
#: Relative deviation ``--verify`` allows between a closed form and the oracle.
VERIFY_TOL = 1e-6
#: Largest |J(x; p, q)| that passes the selection-rule scan (``oracle``).
SELECTION_RULE_TOL = 1e-10
#: Largest relative deviation that passes the equivalence draws (``oracle``).
EQUIVALENCE_TOL = 1e-8


@dataclass(frozen=True)
class OracleResult:
    """One-period amplitude with its per-cycle rate, quadrature metadata and
    the rate floor under which float64 cannot resolve it to VERIFY_TOL."""

    amplitude: complex
    rate: float
    error_estimate: float
    panels_used: int
    floor: float


def _resonance(geom, motion, omega: float, omega0: float):
    """``(n, field_mode)`` of the emission line at ``omega``, or None unless
    omega and its mode both meet n Omega = omega + omega0 (off_resonance)."""
    n = round((omega + omega0) / motion.Omega)
    field = geom.field_mode(omega)
    if n < 1 or field is None or any(
            off_resonance(n, motion.Omega, omega0, w)
            for w in (omega, field[3])):
        return None
    return n, field


def _line_integral(motion, geom, omega: float, omega0: float):
    """Check that (omega, omega0) is a resonant line and build its integral:
    ``(integrand, n, bandwidth, peak_phase, chi)``, with bandwidth bounding
    |dphi/dtau|, peak_phase every phase the integrand evaluates and chi the
    cavity photon-number factor (1 otherwise)."""
    line = _resonance(geom, motion, real("omega", omega, "> 0"),
                      real("omega0", omega0, "> 0"))
    if line is None:
        raise PhysicsDomainError(
            f"omega={omega!r}, omega0={omega0!r}: no field mode meets "
            f"n*Omega = omega + omega0; verify_selection_rule checks that "
            f"the off-resonant amplitude vanishes")
    n, (k, z0, chi, _, _) = line
    check_clearance(motion, geom)

    if z0 is None:
        phi, bandwidth, peak = motion.phase(k)
        theta0 = 0.0

        def integrand(tau):
            return np.exp(1j * (-phi(tau) + n * tau))
    else:
        k_motion, k_normal = motion.project(k)
        theta0 = k_normal * z0
        phi, bandwidth, peak = motion.phase(k_motion)

        def integrand(tau):
            return 2j * np.sin(phi(tau) - theta0) * np.exp(1j * n * tau)

    return integrand, n, bandwidth, n * math.pi + peak + abs(theta0), chi


def _rate(chi: float, Omega: float, g: float, amplitude: float) -> float:
    """Per-cycle rate chi (Omega / 2 pi) (g / Omega)^2 |amplitude|^2."""
    return chi * (Omega / (2.0 * math.pi)) * (g / Omega) ** 2 * amplitude ** 2


def one_period_amplitude(motion, geom, omega: float, omega0: float, *,
                         g: float = 1.0) -> OracleResult:
    """Direct quadrature of the one-period emission amplitude.

    Requires n Omega = omega + omega0 of omega and its field mode (the closed
    forms' ``rates.off_resonance``): off-resonant one-period integrals do not
    represent a steady rate (use the selection-rule checks for those).
    Free space takes the right-moving travelling wave.  ``g`` enters only
    the returned rates, not the amplitude.

    The trapezoid rule starts from ``4 (n + ceil(B) + 40)`` nodes, B the
    bound on |dphi/dtau|.  A start with no room for one doubling under
    :data:`accelrad._quadrature.MAX_PERIODIC_NODES` raises
    :class:`OracleRangeError` before any node is evaluated.

    ``floor`` is the smallest rate whose integral float64 resolves to
    :data:`VERIFY_TOL`.  Each integrand value has modulus at most 2 and is
    an exp or sin of a phase no larger than ``peak_phase``, which float64
    rounds to about eps * peak_phase; so the amplitude over the 2 pi period
    carries an absolute rounding error of at most 4 pi eps peak_phase.  A
    rate goes as |amplitude|^2, so its relative deviation stays under
    VERIFY_TOL once |amplitude| >= 2 (4 pi eps peak_phase) / VERIFY_TOL.
    """
    real("g", g, "> 0")
    integrand, n, bandwidth, peak_phase, chi = _line_integral(
        motion, geom, omega, omega0)
    nodes = 4 * (n + math.ceil(bandwidth) + 40)
    if 2 * nodes > MAX_PERIODIC_NODES:
        raise OracleRangeError(
            f"sideband n={n} needs a trapezoid start of {nodes} nodes, "
            f"more than half of the oracle's node cap MAX_PERIODIC_NODES = "
            f"{MAX_PERIODIC_NODES}; it is beyond the oracle's range")
    value, err, used = periodic_trapezoid(integrand, nodes)
    rate = _rate(chi, motion.Omega, g, abs(value))
    floor = _rate(chi, motion.Omega, g,
                  8.0 * math.pi * _EPS * peak_phase / VERIFY_TOL)
    return OracleResult(amplitude=complex(value), rate=float(rate),
                        error_estimate=float(err), panels_used=used,
                        floor=floor)


def verified_lines(atom: AtomParams, motion, geom, lines) -> list:
    """Pair each sideband with its oracle rate and relative deviation.

    Returns ``(line, oracle_rate, deviation)`` rows; absorption-branch lines
    get ``(line, None, None)`` since the oracle models emission only.  Lines
    whose larger rate lies under the oracle's ``floor`` get deviation 0.0;
    any other deviation above :data:`VERIFY_TOL` raises
    :class:`OracleMismatchError`.
    """
    rows = []
    for line in lines:
        if line.branch != EMIT_EXCITE:
            rows.append((line, None, None))
            continue
        # Looked up at call time, so that a replaced oracle is the one used.
        result = one_period_amplitude(motion, geom, line.omega, atom.omega0,
                                      g=atom.g)
        scale = max(line.rate, result.rate)
        deviation = (0.0 if scale <= result.floor
                     else abs(result.rate - line.rate) / scale)
        if deviation > VERIFY_TOL:
            raise OracleMismatchError(
                f"sideband n={line.n}: closed form {line.rate!r} Hz vs "
                f"oracle {result.rate!r} Hz (relative deviation "
                f"{deviation:g} > {VERIFY_TOL:g})",
                relative_deviation=deviation,
            )
        rows.append((line, result.rate, deviation))
    return rows


def _selection_nodes(p: int, q: int, x: float) -> int:
    """Trapezoid node count of the selection-rule check at (p, q, x).

    Raises :class:`PhysicsDomainError` for a non-finite ``x`` and
    :class:`OracleRangeError` for a count above :data:`MAX_PERIODIC_NODES`,
    before any node is evaluated.
    """
    nodes = max(4096, 64 * math.ceil(abs(real("x", x)) * q + p))
    if nodes > MAX_PERIODIC_NODES:
        raise OracleRangeError(
            f"selection rule at (p, q, x) = ({p}, {q}, {x!r}) needs {nodes} "
            f"trapezoid nodes, more than MAX_PERIODIC_NODES = "
            f"{MAX_PERIODIC_NODES}; it is beyond the oracle's range")
    return nodes


def _selection_sines(q: int, nodes: int):
    """sin(q psi_j) on the uniform nodes psi_j = -pi + 2 pi j / N."""
    psi = -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes
    return np.sin(q * psi)


def _selection_row(x: float, sines):
    """|J(x; p, q)| for every p in [0, N) from one FFT, given
    ``sines = sin(q psi_j)`` from :func:`_selection_sines`.

    On the uniform grid psi_j = -pi + 2 pi j / N the N-node trapezoid sum
    of exp(i(x sin(q psi) - p psi)) is (-1)^p times the p-th DFT
    coefficient of exp(i x sin(q psi_j)), so one FFT gives every p at once.
    """
    return np.abs(np.fft.fft(np.exp(1j * x * sines))) / sines.size


def verify_selection_rule(p: int, q: int, x: float) -> float:
    """|J(x; p, q)| by the trapezoid rule over one full period.

    Uniform sampling of exp(i(x sin(q psi) - p psi)) over psi in [-pi, pi),
    summed for all p at once by one FFT, the row that
    :func:`selection_rule_report` reads.  For coprime p, q with q >= 2 the
    result must vanish; q = 1 is the Bessel control case.  A non-finite
    ``x`` or a node count past the cap raises (:func:`_selection_nodes`).

    The documented one-case library API: no command calls it, since the
    ``oracle`` report scans its whole grid through the same row helpers.
    """
    p, q = whole_number("p", p, 1), whole_number("q", q, 1)
    sines = _selection_sines(q, _selection_nodes(p, q, x))
    return float(_selection_row(x, sines)[p])


def general_trajectory_spectrum(atom: AtomParams, motion, geom,
                                n_max: int) -> list[Sideband]:
    """Emission spectrum of a periodic trajectory, by quadrature: the route
    of sampled motion, which has no closed form.  Any motion is accepted.

    Scans n in [1, n_max]; only lines whose mode meets the resonance survive.
    For samples of a pure sinusoid this reproduces the closed-form SHO rates.
    """
    n_max = whole_number("n_max", n_max, 1)
    check_clearance(motion, geom)
    out = []
    for n in range(1, n_max + 1):
        omega = n * motion.Omega - atom.omega0
        if omega <= 0 or not _resonance(geom, motion, omega, atom.omega0):
            continue
        result = one_period_amplitude(motion, geom, omega, atom.omega0,
                                      g=atom.g)
        out.append(Sideband(n=n, omega=omega, rate=result.rate))
    return out


def equivalence_cases(seed: int = 0, count: int = 200) -> list[tuple]:
    """Randomized ``(atom, motion, geom, n, omega)`` draws for the
    oracle-equivalence check.

    Dimensionless ranges: a_tilde in [0.05, 25], mirror offset
    k z0 in (0, 2 pi], n in [1, 20].  Two documented restrictions keep each
    draw well-posed:

    * the trajectory must clear the boundary (A < z0, from the model's own
      no-collision invariant), which caps a_tilde at k z0 for mirror and
      cavity draws;
    * draws whose closed-form amplitude factor |sin(theta)| * J_n(a_tilde)
      falls below 1e-5 are redrawn: a relative comparison below the float64
      cancellation floor of the integral (~1e-15 absolute on an O(2 pi)
      integrand) is meaningless for any double-precision quadrature.  The
      deeply suppressed region is covered by the absolute selection-rule
      bound instead.  Where |sin(theta)| (a_tilde/2)^n / n!, at least the
      factor by DLMF 10.14.4, lies below 0.5e-5 the draw is redrawn without
      evaluating J_n: no float64 error in J_n bridges that factor of 2, so
      the pre-test keeps the same draws.

    Raises :class:`ValueError` unless ``count`` is a whole number >= 1.
    """
    from .specfun import bessel_j

    count = whole_number("count", count, 1)
    rng = np.random.default_rng(seed)

    def uniform(lo, hi):  # Generator.uniform's own formula, bit for bit
        return lo + (hi - lo) * rng.random()

    cases = []
    attempts = 0
    while len(cases) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise RuntimeError("equivalence draw rejection rate too high")
        kind = ("free", "mirror", "cavity")[len(cases) % 3]
        n = int(rng.integers(1, 21))
        Omega = 10.0 ** uniform(6.0, 10.0)
        g = 10.0 ** uniform(3.0, 6.0)
        omega = uniform(0.05, 0.95) * n * Omega
        omega0 = n * Omega - omega
        k = omega / C
        if kind == "free":
            hi, theta = 25.0, 0.5 * math.pi
        elif kind == "mirror":
            z_tilde = uniform(0.1, 2.0 * math.pi)
            hi = min(25.0, 0.98 * z_tilde)
            theta = z_tilde - 0.5 * math.pi * n
        else:
            m = int(rng.integers(1, 9))
            length = math.pi * m * C / omega
            z_frac = uniform(0.15, 0.85)
            z0 = z_frac * length
            hi = min(25.0, 0.98 * k * min(z0, length - z0))
            theta = math.pi * m * z_frac - 0.5 * math.pi * n
        a_tilde = uniform(0.05, hi)
        sin_theta = math.sin(theta)
        if (abs(sin_theta) * (0.5 * a_tilde) ** n / math.factorial(n) < 0.5e-5
                or abs(sin_theta * bessel_j(n, a_tilde)) < 1e-5):
            continue
        motion = ShoMotion(amplitude=a_tilde / k, Omega=Omega)
        if kind == "free":
            geom = FreeSpace()
        elif kind == "mirror":
            geom = Mirror(z0=z_tilde / k)
        else:
            geom = Cavity(length=length, z0=z0,
                          n_photons=int(rng.integers(0, 4)))
        atom = AtomParams(omega0=omega0, g=g)
        cases.append((atom, motion, geom, n, omega))
    return cases


def equivalence_report(seed: int = 0, count: int = 200) -> dict:
    """Run the oracle-equivalence suite; returns max deviation and cases.

    Raises :class:`ValueError` unless ``count`` is a whole number >= 1 (from
    :func:`equivalence_cases`): a report over no draws would pass without
    checking anything.
    """
    worst = 0.0
    worst_case = None
    for case in equivalence_cases(seed, count):
        atom, motion, geom, n, omega = case
        # Every draw is a closed-form emission line that clears its boundary.
        reference = geom.sideband(atom, motion, n).rate
        result = one_period_amplitude(motion, geom, omega, atom.omega0,
                                      g=atom.g)
        deviation = abs(result.rate - reference) / reference
        if deviation > worst:
            worst, worst_case = deviation, case
    return {"count": count, "seed": seed, "max_relative_deviation": worst,
            "worst_case": worst_case}


def selection_rule_report() -> dict:
    """Scan the coprime (p, q) grid; returns the largest |J(x; p, q)|.

    Runs the trapezoid rule of :func:`verify_selection_rule` over q in
    [2, 7], p in [1, 20] coprime, x in {0.3, 1.0, 2.5, 7.0}: one FFT per
    distinct (q, x, node count) row, 29 FFTs for the 300 cases, on one
    sine row per (q, node count) (11), all kept only for the one report.
    Each case's aliasing error is at most 2 sum_{j >= (N - p)/q}
    (|x|/2)^j / j! (module docstring), below 1e-300 on this grid, so the
    report needs no second route.
    """
    worst = 0.0
    worst_case = None
    cases = 0
    sines, rows = {}, {}
    for q in range(2, 8):
        for p in range(1, 21):
            if math.gcd(p, q) != 1:
                continue
            for x in (0.3, 1.0, 2.5, 7.0):
                cases += 1
                nodes = _selection_nodes(p, q, x)
                if (q, nodes) not in sines:
                    sines[q, nodes] = _selection_sines(q, nodes)
                if (q, x, nodes) not in rows:
                    rows[q, x, nodes] = _selection_row(x, sines[q, nodes])
                value = float(rows[q, x, nodes][p])
                if value > worst:
                    worst, worst_case = value, (x, p, q)
    return {"count": cases, "max_abs_value": worst, "worst_case": worst_case}

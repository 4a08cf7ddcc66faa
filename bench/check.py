"""Independent output checker for benchmark requests.

Every emitted rate and every fig2/fig3/custom cell is recomputed from the
formulas in the README with ``scipy.special.jv``; a few Bessel values per
output are spot-checked against ``mpmath`` at 30 digits, and where scipy
and mpmath disagree the mpmath value becomes the reference.  Nothing here
imports ``accelrad``: the checker must not share the code it checks.

``check(request, exit_code, stdout)`` returns a :class:`Verdict`.  Relative
errors are taken against ``max(|reference|, FLOOR * peak)``, where ``peak``
is the largest reference value in the same output, so values many orders
below the output's scale (deep Bessel tails, mirror nodes) are compared on
that scale instead of amplifying double-precision rounding.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.special import jv

C = 2.99792458e8
TWO_PI = 2.0 * math.pi

FLOOR = 1e-10          # relative floor, as a share of the output's peak
RATE_TOL = 1e-8        # closed-form values against the scipy reference
QUADRATURE_TOL = 1e-6  # values that come from the program's quadrature
VERIFY_TOL = 1e-6      # every oracle_rel_dev column must stay below this
SPOT_CHECKS = 3        # mpmath checks of the Bessel reference per output
RESONANCE_TOL = 1e-9   # cavity mode matching, relative to Omega

mpmath.mp.dps = 30


@dataclass
class Verdict:
    ok: bool = True
    max_rel_err: float = 0.0        # closed-form values against scipy
    oracle_dev: float = 0.0         # deviations the oracle reports, or that
                                    # a quadrature spectrum shows
    lines: int = 0                  # sideband lines or cells emitted
    spot_checks: int = 0
    spot_fallbacks: int = 0         # scipy replaced by mpmath
    np_repr_fields: int = 0         # CSV fields spelled np.float64(...)
    problems: list = field(default_factory=list)

    def fail(self, message):
        self.ok = False
        if len(self.problems) < 5:
            self.problems.append(message)


class _Reference:
    """Bessel reference: scipy, with mpmath spot checks on a few values."""

    def __init__(self, verdict):
        self.verdict = verdict

    def jv(self, n, x):
        n = np.asarray(n, dtype=float)
        x = np.asarray(x, dtype=float)
        n, x = np.broadcast_arrays(n, x)
        values = np.array(jv(n, x), dtype=float)
        flat_n, flat_x, flat_v = n.ravel(), x.ravel(), values.reshape(-1)
        if flat_v.size == 0:
            return values
        # The largest arguments are where an approximation is most likely to
        # slip; add the largest value for a well-conditioned control.
        picks = set(np.argsort(-np.abs(flat_x))[:SPOT_CHECKS - 1].tolist())
        picks.add(int(np.argmax(np.abs(flat_v))))
        scale = max(float(np.max(np.abs(flat_v))), 1e-300)
        for idx in picks:
            try:
                exact = float(mpmath.besselj(int(flat_n[idx]), flat_x[idx]))
            except (ValueError, mpmath.libmp.NoConvergence):
                continue  # mpmath gives up near some zeros; skip the spot
            self.verdict.spot_checks += 1
            if abs(exact - flat_v[idx]) > 1e-12 * max(abs(exact), 1e-5 * scale):
                self.verdict.spot_fallbacks += 1
                flat_v[idx] = exact
        return values


def _compare(verdict, got, ref, tol, what, floor=None, closed_form=True):
    """Record the worst relative error of ``got`` against ``ref``.

    Closed-form values are compared relative to ``max(|ref|, FLOOR * peak)``.
    Values from the program's quadrature pass ``floor``, an absolute scale
    below which their float64 cancellation error is expected to dominate.
    """
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        verdict.fail(f"{what}: shape {got.shape} != expected {ref.shape}")
        return
    if got.size == 0:
        return
    if not np.all(np.isfinite(got)):
        verdict.fail(f"{what}: non-finite values")
        return
    if floor is None:
        floor = FLOOR * float(np.max(np.abs(ref)))
    denom = np.maximum(np.abs(ref), floor)
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.where(denom > 0, np.abs(got - ref) / denom,
                       np.where(got == ref, 0.0, np.inf))
    worst = float(np.max(err))
    if closed_form:
        verdict.max_rel_err = max(verdict.max_rel_err, worst)
    else:
        verdict.oracle_dev = max(verdict.oracle_dev, worst)
    if worst > tol:
        i = int(np.argmax(err))
        verdict.fail(f"{what}: relative error {worst:.3g} > {tol:g} at "
                     f"index {i} (got {got.ravel()[i]!r}, "
                     f"expected {ref.ravel()[i]!r})")


def _coupling(spec):
    omega0 = TWO_PI * spec["f0"]
    if "alpha" in spec:
        return omega0, spec["alpha"] * omega0
    return omega0, TWO_PI * spec["coupling"]


def _free_or_mirror(spec, n, omega):
    """(prefactor, a_tilde, theta or None) for free-space and mirror lines."""
    Omega = TWO_PI * spec["f_drive"]
    _, g = _coupling(spec)
    k = omega / C
    geometry, motion = spec["geometry"], spec["motion"]
    if geometry == "free_space":
        return 2.0 * math.pi * g**2 / Omega, k * spec["amp"], None
    if motion == "rotation":
        a = k * spec["radius"]
        theta = k * math.cos(spec["delta"]) * spec["z0"] - 0.5 * math.pi * n
    elif spec.get("orientation") == "parallel":
        a = k * math.sin(spec["delta"]) * spec["amp"]
        theta = k * math.cos(spec["delta"]) * spec["z0"] - 0.5 * math.pi * n
    else:
        a = k * spec["amp"]
        theta = k * spec["z0"] - 0.5 * math.pi * n
    return 8.0 * math.pi * g**2 / Omega, a, theta


def expected_lines(spec, bessel=jv):
    """Expected sideband lines from the README formulas.

    Returns ``({(n, branch): (m, omega, rate, scale)}, ambiguous)`` where
    ``scale = 8 pi g^2 / Omega`` is the rate unit the program's own verify
    floor refers to, and ``ambiguous`` holds cavity lines whose mode match
    is too close to the resonance tolerance to call.  A sampled (general)
    trajectory is integrated by the oracle, which models the emission
    branch only and reports no cavity mode index.
    """
    Omega = TWO_PI * spec["f_drive"]
    omega0, g = _coupling(spec)
    scale = 8.0 * math.pi * g**2 / Omega
    general = spec["motion"] == "general"
    rows = []   # (key, m, omega, prefactor, n, a, theta)
    ambiguous = set()
    for n in range(1, spec["n_max"] + 1):
        if spec["geometry"] != "cavity":
            omega = n * Omega - omega0
            if omega <= 0:
                continue
            pref, a, theta = _free_or_mirror(spec, n, omega)
            rows.append(((n, "emit-excite"), None, omega, pref, n, a, theta))
            continue
        length, z0 = spec["length"], spec["z0"]
        for branch, omega, chi in (
                ("emit-excite", n * Omega - omega0, spec["photons"] + 1),
                ("absorb-deexcite", omega0 - n * Omega, spec["photons"])):
            if omega <= 0 or (general and branch != "emit-excite"):
                continue
            m = round(omega * length / (math.pi * C))
            if m < 1:
                continue
            mode = math.pi * m * C / length
            mismatch = abs(omega - mode) / Omega
            if mismatch > 1e3 * RESONANCE_TOL:
                continue
            if mismatch > 1e-3 * RESONANCE_TOL:
                ambiguous.add((n, branch))
            a = math.pi * m * spec["amp"] / length
            theta = math.pi * m * z0 / length - 0.5 * math.pi * n
            pref = 8.0 * math.pi * chi * g**2 / Omega
            rows.append(((n, branch), None if general else m, mode, pref, n,
                         a, theta))
    if not rows:
        return {}, ambiguous
    j = bessel([r[4] for r in rows], [r[5] for r in rows])
    out = {}
    for (key, m, omega, pref, _, _, theta), jn in zip(rows, j):
        rate = pref * jn**2
        if theta is not None:
            rate *= math.sin(theta) ** 2
        out[key] = (m, omega, rate, scale)
    return out, ambiguous


_NP_REPR = "np.float64("


def _number(text, verdict):
    """Parse a CSV number; ``np.float64(x)`` is read as x and counted."""
    if text.startswith(_NP_REPR) and text.endswith(")"):
        verdict.np_repr_fields += 1
        text = text[len(_NP_REPR):-1]
    return float(text)


def _parse_sidebands(fmt, text, verdict):
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("kind") != "sidebands":
            raise ValueError("not a sidebands document")
        return payload["sidebands"]
    rows = []
    reader = csv.DictReader(io.StringIO(text))
    for row in reader:
        entry = {"n": int(row["n"]), "branch": row["branch"],
                 "m": int(row["m"]) if row["m"] else None}
        for key in ("omega_rad_per_s", "photon_frequency_hz", "rate_hz",
                    "oracle_rate_hz", "oracle_rel_dev"):
            if key in row:
                entry[key] = _number(row[key], verdict) if row[key] else None
        rows.append(entry)
    return rows


def check_sidebands(spec, text, verdict):
    entries = _parse_sidebands(spec["fmt"], text, verdict)
    verdict.lines += len(entries)
    expected, ambiguous = expected_lines(spec, _Reference(verdict).jv)
    got_keys = [(e["n"], e["branch"]) for e in entries]
    if len(set(got_keys)) != len(got_keys):
        verdict.fail("duplicate sideband lines")
    missing = set(expected) - set(got_keys) - ambiguous
    extra = set(got_keys) - set(expected)
    if missing or extra:
        verdict.fail(f"sideband set differs: missing {sorted(missing)[:3]}, "
                     f"unexpected {sorted(extra)[:3]}")
        return
    by_key = {(e["n"], e["branch"]): e for e in entries}
    keys = list(by_key)
    ref_omega = [expected[k][1] for k in keys]
    _compare(verdict, [by_key[k]["omega_rad_per_s"] for k in keys], ref_omega,
             1e-12, "omega")
    _compare(verdict, [by_key[k]["photon_frequency_hz"] for k in keys],
             [w / TWO_PI for w in ref_omega], 1e-12, "photon_frequency_hz")
    if any(by_key[k]["m"] != expected[k][0] for k in keys):
        verdict.fail("cavity mode index differs")
    got_rate = [by_key[k]["rate_hz"] for k in keys]
    ref_rate = [expected[k][2] for k in keys]
    scale = expected[keys[0]][3] if keys else 0.0
    # The oracle's documented domain is an amplitude factor |sin J| >= 1e-5,
    # i.e. rates above 1e-10 of the rate unit; below it, compare absolutely.
    quadrature_floor = 1e-10 * scale
    if spec["motion"] == "general":
        _compare(verdict, got_rate, ref_rate, QUADRATURE_TOL, "rate_hz",
                 floor=quadrature_floor, closed_form=False)
        verified = False
    else:
        _compare(verdict, got_rate, ref_rate, RATE_TOL, "rate_hz")
        verified = spec["verify"]
    has_oracle = any("oracle_rel_dev" in e for e in entries)
    if keys and verified != has_oracle:
        verdict.fail(f"oracle columns present={has_oracle}, "
                     f"expected {verified}")
    if not verified:
        return
    emit = []
    for k in keys:
        dev = by_key[k].get("oracle_rel_dev")
        if k[1] != "emit-excite":
            if dev is not None or by_key[k].get("oracle_rate_hz") is not None:
                verdict.fail("oracle columns on a non-emission line")
            continue
        emit.append(k)
        if dev is None or not dev < VERIFY_TOL:
            verdict.fail(f"oracle_rel_dev {dev!r} not below {VERIFY_TOL:g}")
            continue
        verdict.oracle_dev = max(verdict.oracle_dev, dev)
    _compare(verdict, [by_key[k]["oracle_rate_hz"] for k in emit],
             [expected[k][2] for k in emit], QUADRATURE_TOL,
             "oracle_rate_hz", floor=quadrature_floor, closed_form=False)


def _parse_sweep(fmt, text):
    """(axis1, axis2, values, aux) from sweep output."""
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("kind") != "sweep":
            raise ValueError("not a sweep document")
        aux = {k: np.asarray(v, dtype=float) for k, v in payload["aux"].items()}
        return (np.asarray(payload["axis1"]["values"]),
                np.asarray(payload["axis2"]["values"]),
                np.asarray(payload["values"], dtype=float), aux)
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if "value" in header:   # long form: axis1, axis2, value, aux...
        table = np.array(rows, dtype=float)
        axis1 = np.unique(table[:, 0])
        axis2 = np.unique(table[:, 1])
        shape = (len(axis1), len(axis2))
        aux = {name: table[:, 3 + i].reshape(shape)
               for i, name in enumerate(header[3:])}
        return axis1, axis2, table[:, 2].reshape(shape), aux
    axis2 = np.array([float(h.split("=", 1)[1]) for h in header[1:]])
    table = np.array(rows, dtype=float)
    return table[:, 0], axis2, table[:, 1:], {}


def check_sweep(spec, text, verdict):
    ref = _Reference(verdict)
    axis1, axis2, values, aux = _parse_sweep(spec["fmt"], text)
    preset = spec["preset"]
    Omega = TWO_PI * spec["f_drive"]
    if preset == "fig2":
        grid = np.linspace(0.0, spec["a_tilde_max"], spec["a_tilde_count"])
        orders = np.arange(1, spec["n_max"] + 1)
        _compare(verdict, axis1, grid, 1e-15, "fig2 axis")
        _compare(verdict, axis2, orders, 0.0, "fig2 orders")
        expected = ref.jv(orders[None, :], grid[:, None]) ** 2
        if spec["absolute"]:
            _, g = _coupling(spec)
            expected = expected * (2.0 * math.pi * g**2 / Omega)
        _compare(verdict, values, expected, RATE_TOL, "fig2 cells")
    elif preset == "fig3":
        amax, acount = spec["amplitude_max"], spec["amplitude_count"]
        lmax, lcount = spec["alpha_max"], spec["alpha_count"]
        amps = np.linspace(amax / acount, amax, acount)
        alphas = np.linspace(lmax / lcount, lmax, lcount)
        _compare(verdict, axis1, amps, 1e-15, "fig3 amplitude axis")
        _compare(verdict, axis2, alphas, 1e-15, "fig3 alpha axis")
        small = (math.pi * np.outer(amps, alphas) ** 2 * Omega**3
                 / (32.0 * C**2))
        _compare(verdict, values, small, RATE_TOL, "fig3 cells")
        a_tilde = 0.5 * Omega * amps / C
        exact = (2.0 * math.pi / Omega
                 * np.outer(ref.jv(1, a_tilde) ** 2, (alphas * 0.5 * Omega) ** 2))
        if set(aux) != {"exact_rate_hz", "approx_valid"}:
            verdict.fail(f"fig3 aux columns {sorted(aux)}")
            return
        _compare(verdict, aux["exact_rate_hz"], exact, RATE_TOL,
                 "fig3 exact_rate_hz")
        flags = np.broadcast_to((a_tilde < 0.1)[:, None], exact.shape)
        if not np.array_equal(aux["approx_valid"].astype(bool), flags):
            verdict.fail("fig3 approx_valid flags differ")
    else:
        lo, hi, count = (spec["amplitude_min"], spec["amplitude_max"],
                         spec["amplitude_count"])
        amps = np.linspace(lo if lo > 0 else hi / count, hi, count)
        orders = np.arange(1, spec["n_max"] + 1)
        _compare(verdict, axis1, amps, 1e-15, "custom amplitude axis")
        _compare(verdict, axis2, orders, 0.0, "custom orders")
        omega0, _ = _coupling(spec)
        omega = orders * Omega - omega0
        expected = np.zeros((count, len(orders)))
        open_cols = np.nonzero(omega > 0)[0]
        a_cols, pref_cols = [], []
        for j in open_cols:
            pref, a_unit, theta = _free_or_mirror(
                dict(spec, amp=1.0), int(orders[j]), float(omega[j]))
            a_cols.append(a_unit)
            pref_cols.append(pref * (1.0 if theta is None
                                     else math.sin(theta) ** 2))
        if len(open_cols):
            a = amps[:, None] * np.asarray(a_cols)[None, :]
            j_vals = ref.jv(orders[open_cols][None, :], a)
            expected[:, open_cols] = np.asarray(pref_cols)[None, :] * j_vals**2
        _compare(verdict, values, expected, RATE_TOL, "custom cells")
    verdict.lines += values.size


def check_oracle(spec, text, exit_code, verdict):
    if spec["fmt"] == "json":
        payload = json.loads(text)
        passed = payload.get("pass") is True
        dev = float(payload["equivalence"]["max_relative_deviation"])
        if payload["equivalence"]["seed"] != spec["seed"]:
            verdict.fail("oracle report has the wrong seed")
    else:
        passed = text.rstrip().endswith("overall: PASS")
        line = next(l for l in text.splitlines()
                    if l.startswith("oracle equivalence"))
        dev = float(line.split("=", 1)[1].split()[0])
        if f"seed {spec['seed']} " not in line:
            verdict.fail("oracle report has the wrong seed")
    if not passed or exit_code != 0:
        verdict.fail(f"oracle report did not pass (exit {exit_code})")
    verdict.oracle_dev = max(verdict.oracle_dev, dev)


def check(request, exit_code, stdout) -> Verdict:
    """Check one request's exit code and output against the reference."""
    verdict = Verdict()
    spec = request.spec
    if spec["cmd"] == "oracle":
        try:
            check_oracle(spec, stdout, exit_code, verdict)
        except (ValueError, KeyError, StopIteration) as exc:
            verdict.fail(f"unreadable oracle report: {exc!r}")
        return verdict
    if exit_code != 0:
        verdict.fail(f"exit code {exit_code}")
        return verdict
    try:
        if spec["cmd"] == "sweep":
            check_sweep(spec, stdout, verdict)
        else:
            check_sidebands(spec, stdout, verdict)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        verdict.fail(f"unreadable output: {exc!r}")
    return verdict

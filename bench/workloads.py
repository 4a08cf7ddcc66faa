"""Seeded request pools for the four benchmark workloads.

Each workload turns its seed into a fixed pool of requests.  A request is
the argv handed to ``accelrad.cli.main`` plus, for config-driven commands,
the config text and a ``spec`` that holds the same physical parameters as
plain numbers, so the output checker can recompute every emitted value
without parsing the config or calling the program.

The mix within a pool is fixed by position (which geometry, which command,
which format, which requests verify); only the physical parameters are
drawn from the seed.  Fixed proportions keep the latency percentiles
comparable from seed to seed.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from check import expected_lines

C = 2.99792458e8

# `--verify` compares closed form and oracle for every emission line whose
# rate is above 1e-20 of 8 pi g^2 / Omega, but the oracle's float64 floor
# sits near 1e-16 of it, so a line in between can fail the 1e-6 check with
# both routes correct.  Verified requests are redrawn until no emission line
# falls in VERIFY_BAND (rate / (8 pi g^2 / Omega)); the band reaches from
# two decades under the verify floor to the 1e-5 amplitude factor that
# oracle.equivalence_cases requires of its own draws.
VERIFY_BAND = (1e-22, 1e-10)

_LENGTH_SCALES = (("nm", 1e-9), ("um", 1e-6), ("mm", 1e-3))


@dataclass
class Request:
    """One ``accelrad`` invocation; ``{config}`` in argv is the config path."""

    label: str
    argv: list
    spec: dict
    config: str | None = None
    tags: set = field(default_factory=set)


def _rng(seed, stream):
    """The generator for one workload's stream; any integer seed works."""
    return np.random.default_rng([seed % 2**63, stream])


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _spread(rng, count):
    """``count`` evenly spaced points in (0, 1), in an order the seed picks.

    Parameters that set a request's cost are drawn this way, so every pool
    holds the same spread of costs and the latency percentiles do not
    depend on which seed happened to draw many expensive requests.
    """
    return (rng.permutation(count) + 0.5) / count


def _length(rng, value_m):
    """Config text for a length and the value the CLI will parse from it.

    Half of the lengths carry a unit suffix, so the suffix parser runs; the
    returned value is float(number) * scale, exactly what the text means.
    """
    if rng.random() < 0.5:
        return repr(value_m), value_m
    suffix, scale = _LENGTH_SCALES[int(rng.integers(len(_LENGTH_SCALES)))]
    number = repr(value_m / scale)
    return f"{number} {suffix}", float(number) * scale


def _atom(rng, f0):
    spec = {"f0": f0}
    if rng.random() < 0.7:
        spec["alpha"] = float(rng.uniform(0.01, 1.0))
        text = f"alpha = {spec['alpha']!r}\n"
    else:
        spec["coupling"] = float(f0 * rng.uniform(0.001, 0.5))
        text = f"coupling_hz = {spec['coupling']!r}\n"
    return spec, f"[atom]\nfrequency_hz = {f0!r}\n{text}"


def _config(atom_text, motion_lines, geometry_lines, run_lines=()):
    parts = [atom_text, "\n[motion]\n", *(f"{line}\n" for line in motion_lines),
             "\n[geometry]\n", *(f"{line}\n" for line in geometry_lines)]
    if run_lines:
        parts += ["\n[run]\n", *(f"{line}\n" for line in run_lines)]
    return "".join(parts)


def sideband_request(rng, command, geometry, motion, n_max, *, a_top,
                     verify=False, fmt="csv", detuning=(0.05, 2.5)):
    """A ``rate`` or ``spectrum`` request with every parameter drawn.

    ``a_top`` is the dimensionless amplitude k*A seen by the highest
    sideband; the trajectory always clears the boundary.  Verified requests
    are redrawn until no emission line falls in VERIFY_BAND.
    """
    for _ in range(1000):
        request = _draw_sideband_request(rng, command, geometry, motion,
                                         n_max, a_top, verify, fmt, detuning)
        if not verify or motion == "general":
            return request
        lines, _ = expected_lines(request.spec)
        lo, hi = VERIFY_BAND
        if not any(lo <= rate / scale < hi
                   for (_, branch), (_, _, rate, scale) in lines.items()
                   if branch == "emit-excite"):
            return request
    raise RuntimeError(f"no verifiable {geometry} request in 1000 draws")


def _draw_sideband_request(rng, command, geometry, motion, n_max, a_top,
                           verify, fmt, detuning):
    f_drive = _log_uniform(rng, 1e8, 1e11)
    Omega = 2.0 * math.pi * f_drive
    spec = {"cmd": command, "geometry": geometry, "motion": motion,
            "n_max": n_max, "verify": verify, "fmt": fmt, "f_drive": f_drive}
    motion_lines = [f"drive_frequency_hz = {f_drive!r}"]
    geometry_lines = [f"kind = {geometry}"]

    if geometry == "cavity":
        # Put one sideband exactly on a cavity mode, then size the cavity.
        n_res = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, 9))
        f0 = float(n_res * f_drive * rng.uniform(0.05, 0.95))
        omega = n_res * Omega - 2.0 * math.pi * f0
        length = math.pi * m * C / omega
        z_text, z0 = _length(rng, length * float(rng.uniform(0.15, 0.85)))
        clearance = min(z0, length - z0)
        a_hi = min(a_top, 0.98 * math.pi * m * clearance / length)
        amp = a_hi * length / (math.pi * m)
        photons = int(rng.integers(0, 5))
        geometry_lines += [f"length = {length!r}", f"z0 = {z_text}",
                           f"photons = {photons}"]
        spec.update(length=length, z0=z0, photons=photons)
    else:
        f0 = float(f_drive * rng.uniform(*detuning))
        omega_top = n_max * Omega - 2.0 * math.pi * f0
        if omega_top <= 0:
            f0 = float(f_drive * rng.uniform(0.05, 0.95))
            omega_top = n_max * Omega - 2.0 * math.pi * f0
        amp = a_top * C / omega_top

    atom_spec, atom_text = _atom(rng, f0)
    spec.update(atom_spec)

    if motion == "general":
        # Samples of a pure sinusoid: the quadrature spectrum must reproduce
        # the closed-form SHO rates.
        samples = amp * np.sin(2.0 * math.pi * np.arange(32) / 32)
        motion_lines = ["kind = general"] + motion_lines + [
            "samples = " + ",".join(repr(float(s)) for s in samples)]
        spec["amp"] = float(np.max(np.abs(samples)))
        spec["samples"] = [float(s) for s in samples]
    elif motion == "rotation":
        delta = float(rng.uniform(0.0, 2.0 * math.pi))
        r_text, radius = _length(rng, amp)
        motion_lines = ["kind = rotation"] + motion_lines + [
            f"radius = {r_text}", f"delta_rad = {delta!r}"]
        spec.update(radius=radius, delta=delta)
    else:
        orientation = "parallel" if motion == "sho-parallel" else "perpendicular"
        delta = 0.0
        if orientation == "parallel":
            delta = float(rng.uniform(0.2, 1.4))
            amp /= math.sin(delta)
        a_text, amp = _length(rng, amp)
        motion_lines = ["kind = sho"] + motion_lines + [
            f"amplitude = {a_text}", f"orientation = {orientation}",
            f"delta_rad = {delta!r}"]
        spec.update(amp=amp, orientation=orientation, delta=delta)

    if geometry == "mirror":
        extent = spec.get("radius", spec.get("amp"))
        # Clear the trajectory, then add up to ~3 wavelengths at the top line.
        z_text, z0 = _length(rng, 1.05 * extent
                             + float(rng.uniform(0.0, 20.0)) * C / omega_top)
        geometry_lines.append(f"z0 = {z_text}")
        spec["z0"] = z0

    # Half of the settings come from argv, half from the [run] section.
    argv = [command, "--config", "{config}"]
    run_lines = []
    if rng.random() < 0.5:
        argv += ["--n-max", str(n_max), "--format", fmt]
        if verify:
            argv.append("--verify")
    else:
        run_lines += [f"n_max = {n_max}", f"format = {fmt}"]
        if verify:
            run_lines.append("verify = true")
        if command == "spectrum" and n_max < 10:
            # spectrum raises the config's n_max to at least 10
            spec["n_max"] = 10
    label = f"{command}/{geometry}/{motion}" + ("/verify" if verify else "")
    request = Request(label=label, argv=argv, spec=spec,
                      config=_config(atom_text, motion_lines, geometry_lines,
                                     run_lines))
    if geometry != "cavity" and motion != "general":
        # The closed form calls bessel_j exactly once per emitted line.
        request.tags.add("bessel-per-line")
    return request


# (command, geometry, motion) slots of the queries mix, in pool order.
_QUERY_SLOTS = (
    ("rate", "free_space", "sho"),
    ("spectrum", "free_space", "sho"),
    ("rate", "mirror", "sho"),
    ("spectrum", "mirror", "sho-parallel"),
    ("rate", "mirror", "rotation"),
    ("rate", "cavity", "sho"),
    ("spectrum", "cavity", "sho"),
    ("spectrum", "free_space", "general"),
    ("rate", "mirror", "sho-parallel"),
    ("spectrum", "mirror", "rotation"),
)


def queries(seed, size=200):
    """Many small rate/spectrum requests over every geometry and motion."""
    rng = _rng(seed, 1)
    slots = []
    for i in range(size):
        command, geometry, motion = _QUERY_SLOTS[i % len(_QUERY_SLOTS)]
        turn = i + i // len(_QUERY_SLOTS)
        if motion == "general" and (i // 10) % 2:
            motion = "sho"
        if motion == "general":
            # The sampled trajectory goes through the oracle quadrature for
            # every line; one request in twenty and small amplitudes keep
            # its share of the time small (verify does not apply to it).
            geometry = ("free_space", "mirror", "cavity")[(i // 20) % 3]
            kind = "general"
        else:
            kind = "verify" if turn % 5 == 0 else "plain"
        slots.append((command, geometry, motion, kind))
    # n_max and k*A evenly spread within each kind of request, so the cost
    # of, say, the verified cavity requests is the same in every pool.
    spreads = {slot: (list(_spread(rng, count)), list(_spread(rng, count)))
               for slot, count in Counter(slots).items()}
    pool = []
    for i, slot in enumerate(slots):
        command, geometry, motion, kind = slot
        # spectrum raises a config's n_max below 10 to 10; start there
        low = 10 if command == "spectrum" else 1
        n_max = low + int((21 - low) * spreads[slot][0].pop())
        u = spreads[slot][1].pop()
        detuning = (0.05, 2.5)
        if kind == "verify":
            # k*A above n: no line sits in the deep Bessel tail.  Every line
            # is open, so the verified work is the same in every pool.
            a_top, detuning = 1.25 * n_max, (0.05, 0.95)
        elif kind == "general":
            n_max, a_top = 10, 1e-6 * (1.0 / 1e-6) ** u
        else:
            a_top = 1e-6 * (20.0 / 1e-6) ** u
        turn = i + i // len(_QUERY_SLOTS)
        pool.append(sideband_request(
            rng, command, geometry, motion, n_max, a_top=float(a_top),
            verify=kind == "verify", fmt=("csv", "json")[turn % 2],
            detuning=detuning))
    return pool


# (geometry, n_max, k*A / n_max at the top line) of the spectrum-deep pool.
# Free space and mirror call bessel_j once per line, so they carry the
# quadratic cost; the cavity keeps only mode-matched lines and mostly scans.
# Two cheap requests, three at n_max 1000 and one at 3000: the median falls
# in the middle of the n_max 1000 samples and p90 among the n_max 3000 ones.
# ``None`` geometries are free space or mirror by seed, and the n_max 1000
# requests take k*A / n_max evenly spread over 1..2 in an order the seed
# picks.
_DEEP_SLOTS = (("free_space", 100, 1.5), ("cavity", 3000, 1.5),
               ("free_space", 1000, None), ("mirror", 1000, None),
               (None, 1000, None), (None, 3000, 1.05))


def spectrum_deep(seed, slots=_DEEP_SLOTS):
    """Few rate requests at n_max 100/1000/3000, k*A above n, so the Miller
    branch runs for every line above k*A = 12."""
    rng = _rng(seed, 2)
    ratios = list(1.0 + _spread(rng, 3))
    pool = []
    for i, (geometry, n_max, ratio) in enumerate(slots):
        if geometry is None:
            geometry = ("free_space", "mirror")[seed % 2]
        if ratio is None:
            ratio = ratios.pop()
        pool.append(sideband_request(
            rng, "rate", geometry, "sho", n_max, a_top=float(n_max * ratio),
            fmt=("csv", "json")[i % 2], detuning=(0.05, 0.95)))
    return pool


def _sweep_request(rng, preset, fmt, size):
    """A sweep request; ``size`` in [0, 1) scales its grid over 0.6..1.4x
    the preset's default."""
    spec = {"cmd": "sweep", "preset": preset, "fmt": fmt}
    scale = 0.6 + 0.8 * size
    sweep_lines = [f"preset = {preset}"]
    if preset == "fig2":
        count = round(512 * scale)
        n_max = int(rng.integers(29, 32))
        a_max = float(rng.uniform(28.0, 32.0))
        absolute = bool(rng.random() < 0.5)
        spec.update(a_tilde_count=count, n_max=n_max, a_tilde_max=a_max,
                    absolute=absolute)
        sweep_lines += [f"a_tilde_count = {count}", f"n_max = {n_max}",
                        f"a_tilde_max = {a_max!r}",
                        f"absolute = {'true' if absolute else 'false'}"]
        base = sideband_request(rng, "sweep", "free_space", "sho", 1,
                                a_top=1.0)
    elif preset == "fig3":
        amp_count = round(128 * scale)
        alpha_count = int(rng.integers(124, 133))
        amp_max = _log_uniform(rng, 1e-9, 1e-7)
        alpha_max = float(rng.uniform(0.5, 1.0))
        a_text, amp_max = _length(rng, amp_max)
        spec.update(amplitude_count=amp_count, alpha_count=alpha_count,
                    amplitude_max=amp_max, alpha_max=alpha_max)
        sweep_lines += [f"amplitude_count = {amp_count}",
                        f"alpha_count = {alpha_count}",
                        f"amplitude_max = {a_text}",
                        f"alpha_max = {alpha_max!r}"]
        base = sideband_request(rng, "sweep", "free_space", "sho", 1,
                                a_top=1.0)
    else:
        geometry = ("free_space", "mirror")[int(rng.integers(2))]
        n_max = int(rng.integers(29, 32))
        amp_count = round(128 * scale)
        base = sideband_request(rng, "sweep", geometry, "sho", n_max,
                                a_top=float(rng.uniform(5.0, 30.0)),
                                detuning=(0.05, 2.5))
        amp_max = base.spec["amp"]
        if base.spec["orientation"] == "perpendicular" and geometry == "mirror":
            amp_max = min(amp_max, 0.95 * base.spec["z0"])
        amp_min = amp_max * float(rng.uniform(0.0, 0.2)) \
            if rng.random() < 0.5 else 0.0
        spec.update(n_max=n_max, amplitude_count=amp_count,
                    amplitude_max=amp_max, amplitude_min=amp_min)
        sweep_lines += [f"n_max = {n_max}", f"amplitude_count = {amp_count}",
                        f"amplitude_max = {amp_max!r}",
                        f"amplitude_min = {amp_min!r}"]
    for key in ("geometry", "motion", "f0", "alpha", "coupling", "f_drive",
                "amp", "orientation", "delta", "z0"):
        if key in base.spec:
            spec[key] = base.spec[key]
    config = base.config.split("\n[run]\n")[0] + "\n[sweep]\n" + "".join(
        f"{line}\n" for line in sweep_lines)
    argv = ["sweep", "--config", "{config}", "--format", fmt]
    return Request(label=f"sweep/{preset}/{fmt}", argv=argv, spec=spec,
                   config=config)


def figures(seed):
    """sweep fig2, fig3 and custom in csv and json, grids around defaults."""
    rng = _rng(seed, 3)
    kinds = [(preset, fmt) for preset in ("fig2", "fig3", "custom")
             for fmt in ("csv", "json")]
    # Grid sizes evenly spread for each kind, so every pool spans the same
    # range of costs.
    sizes = {kind: _spread(rng, 4) for kind in kinds}
    return [_sweep_request(rng, preset, fmt, sizes[preset, fmt][i])
            for i in range(4) for preset, fmt in kinds]


def integrity(seed, pairs=8):
    """oracle reports mixed with rate --verify at n_max 50..200.

    Half the verified requests sit at n_max 50..110 and cost less than an
    oracle report, half at 185..200 and cost more, so the median request is
    an oracle report and p90 falls inside the costly verified group.
    """
    rng = _rng(seed, 4)
    cheap = list(50 + (61 * _spread(rng, pairs - pairs // 2)).astype(int))
    costly = list(185 + (16 * _spread(rng, pairs // 2)).astype(int))
    pool = []
    for i in range(pairs):
        oracle_seed = int(rng.integers(0, 2**31))
        fmt = ("text", "json")[i % 2]
        argv = ["oracle", "--seed", str(oracle_seed)]
        if fmt == "json":
            argv += ["--format", "json"]
        pool.append(Request(label=f"oracle/{fmt}", argv=argv,
                            spec={"cmd": "oracle", "fmt": fmt,
                                  "seed": oracle_seed}))
        # The two halves alternate.  The cavity verifies only its
        # mode-matched lines, so it is cheap whatever n_max is: it stays in
        # the cheaper half.
        if i % 2 == 0:
            n_max = int(cheap.pop())
            geometry = ("mirror", "cavity", "free_space")[(i // 2) % 3]
        else:
            n_max = int(costly.pop())
            geometry = ("mirror", "free_space")[(i // 2) % 2]
        pool.append(sideband_request(
            rng, "rate", geometry, "sho", n_max, a_top=1.2 * n_max,
            verify=True, fmt=("csv", "json")[(i // 3) % 2],
            detuning=(0.05, 0.95)))
    return pool


PROBE_SEED = 2003


def probe(workload):
    """The workload's accuracy probe: the same requests for every seed.

    How far an output strays from the reference depends on exactly which
    inputs were drawn, and the largest error over a seeded pool swings by
    several times from seed to seed.  The accuracy metrics are therefore
    taken over this fixed set, which covers the workload's regime plus one
    oracle-verified request, so that both accuracy metrics exist on every
    workload and compare across commits without seed noise.
    """
    rng = _rng(PROBE_SEED, 5)
    verified = sideband_request(rng, "rate", "mirror", "sho", 40, a_top=44.0,
                                verify=True, detuning=(0.05, 0.95))
    if workload == "queries":
        return queries(PROBE_SEED, size=60)
    if workload == "spectrum-deep":
        return spectrum_deep(PROBE_SEED, slots=_DEEP_SLOTS[:4]) + [verified]
    if workload == "figures":
        return figures(PROBE_SEED)[:6] + [verified]
    return integrity(PROBE_SEED, pairs=3)


WORKLOADS = {
    "queries": queries,
    "spectrum-deep": spectrum_deep,
    "figures": figures,
    "integrity": integrity,
}

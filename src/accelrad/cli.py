"""Command-line interface: rate queries, spectra, sweeps, oracle checks.

Configuration is a flat INI-style text file with sections
``[atom]``, ``[motion]``, ``[geometry]`` and optional ``[sweep]``/``[run]``.
All boundary inputs are ordinary frequencies in Hz and lengths in meters
(``nm``/``um``/``mm`` suffixes accepted); conversion to angular frequencies
happens once at parse time.  Identical config + seed produce byte-identical
output.

Exit codes: 0 success, 2 config error, 3 physics-domain error,
4 oracle-integrity failure.
"""

import argparse
import configparser
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, oracle, sweep
from .constants import angular_to_hz, hz_to_angular
from .errors import (ConfigError, ConvergenceError, OracleMismatchError,
                     PhysicsDomainError)
from .rates import (AtomParams, Cavity, FreeSpace, GeneralPeriodicMotion,
                    Mirror, RotationMotion, ShoMotion, allowed_sidebands)

_LENGTH_UNITS = (("nm", 1e-9), ("um", 1e-6), ("mm", 1e-3), ("m", 1.0))

SELECTION_RULE_TOL = 1e-10
EQUIVALENCE_TOL = 1e-8
VERIFY_TOL = 1e-6


def parse_length(text: str) -> float:
    """Parse a length like ``1e-9``, ``1 nm`` or ``2.5um`` into meters."""
    raw = text.strip()
    for suffix, scale in _LENGTH_UNITS:
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            try:
                return float(number) * scale
            except ValueError:
                raise ConfigError(f"bad length value {text!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"bad length value {text!r}") from None


@dataclass(frozen=True)
class AtomConfig:
    frequency_hz: float
    alpha: float | None = None
    coupling_hz: float | None = None


@dataclass(frozen=True)
class MotionConfig:
    kind: str
    drive_frequency_hz: float
    amplitude_m: float | None = None
    orientation: str = "perpendicular"
    delta_rad: float = 0.0
    radius_m: float | None = None
    samples_m: tuple | None = None


@dataclass(frozen=True)
class GeometryConfig:
    kind: str
    z0_m: float | None = None
    length_m: float | None = None
    photons: int = 0


@dataclass(frozen=True)
class SweepSettings:
    preset: str = "fig2"
    n_max: int = 30
    a_tilde_max: float = 30.0
    a_tilde_count: int = 512
    amplitude_min_m: float = 0.0
    amplitude_max_m: float = 1e-8
    amplitude_count: int = 128
    alpha_max: float = 1.0
    alpha_count: int = 128
    absolute: bool = False


@dataclass(frozen=True)
class RunConfig:
    atom: AtomConfig
    motion: MotionConfig
    geometry: GeometryConfig
    sweep: SweepSettings | None = None
    output: str | None = None
    fmt: str = "csv"
    verify: bool = False
    seed: int = 0
    n_max: int = 1


_ATOM_KEYS = {"frequency_hz", "alpha", "coupling_hz"}
_MOTION_KEYS = {"kind", "drive_frequency_hz", "amplitude", "orientation",
                "delta_rad", "radius", "samples"}
_GEOMETRY_KEYS = {"kind", "z0", "length", "photons"}
_SWEEP_KEYS = {"preset", "n_max", "a_tilde_max", "a_tilde_count",
               "amplitude_min", "amplitude_max", "amplitude_count",
               "alpha_max", "alpha_count", "absolute"}
_RUN_KEYS = {"format", "verify", "seed", "n_max", "output"}


def _check_keys(section: str, present, allowed):
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"[{section}] has unknown key(s): {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}")


def _get_float(cp, section, key, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return None
    try:
        return cp.getfloat(section, key)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {cp.get(section, key)!r} is not a number"
        ) from None


def _get_int(cp, section, key, default, minimum=None):
    if not cp.has_option(section, key):
        return default
    try:
        value = cp.getint(section, key)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {cp.get(section, key)!r} is not an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"[{section}] {key} must be >= {minimum}, "
                          f"got {value}")
    return value


def _positive(section, key, value, default):
    """``value`` if it is a finite positive number, ``default`` if None."""
    if value is None:
        return default
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"[{section}] {key} must be a finite positive "
                          f"number, got {value!r}")
    return value


def _get_bool(cp, section, key, default):
    if not cp.has_option(section, key):
        return default
    try:
        return cp.getboolean(section, key)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {cp.get(section, key)!r} is not a boolean"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a :class:`RunConfig`."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    for section in ("atom", "motion", "geometry"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    known = {"atom", "motion", "geometry", "sweep", "run"}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")

    _check_keys("atom", cp.options("atom"), _ATOM_KEYS)
    atom = AtomConfig(
        frequency_hz=_get_float(cp, "atom", "frequency_hz", required=True),
        alpha=_get_float(cp, "atom", "alpha"),
        coupling_hz=_get_float(cp, "atom", "coupling_hz"),
    )

    _check_keys("motion", cp.options("motion"), _MOTION_KEYS)
    kind = cp.get("motion", "kind", fallback=None)
    if kind not in ("sho", "rotation", "general"):
        raise ConfigError(
            f"[motion] kind must be sho, rotation or general, got {kind!r}")
    samples = None
    if cp.has_option("motion", "samples"):
        try:
            samples = tuple(float(v) for v in
                            cp.get("motion", "samples").split(","))
        except ValueError:
            raise ConfigError("[motion] samples must be comma-separated "
                              "numbers (meters)") from None
    orientation = cp.get("motion", "orientation", fallback="perpendicular")
    if orientation not in ("perpendicular", "parallel"):
        raise ConfigError(f"[motion] orientation must be perpendicular or "
                          f"parallel, got {orientation!r}")
    motion = MotionConfig(
        kind=kind,
        drive_frequency_hz=_get_float(cp, "motion", "drive_frequency_hz",
                                      required=True),
        amplitude_m=(parse_length(cp.get("motion", "amplitude"))
                     if cp.has_option("motion", "amplitude") else None),
        orientation=orientation,
        delta_rad=_get_float(cp, "motion", "delta_rad") or 0.0,
        radius_m=(parse_length(cp.get("motion", "radius"))
                  if cp.has_option("motion", "radius") else None),
        samples_m=samples,
    )

    _check_keys("geometry", cp.options("geometry"), _GEOMETRY_KEYS)
    gkind = cp.get("geometry", "kind", fallback=None)
    if gkind not in ("free_space", "mirror", "cavity"):
        raise ConfigError(
            f"[geometry] kind must be free_space, mirror or cavity, "
            f"got {gkind!r}")
    photons = _get_int(cp, "geometry", "photons", 0)
    geometry = GeometryConfig(
        kind=gkind,
        z0_m=(parse_length(cp.get("geometry", "z0"))
              if cp.has_option("geometry", "z0") else None),
        length_m=(parse_length(cp.get("geometry", "length"))
                  if cp.has_option("geometry", "length") else None),
        photons=photons,
    )

    sweep_settings = None
    if cp.has_section("sweep"):
        _check_keys("sweep", cp.options("sweep"), _SWEEP_KEYS)
        defaults = SweepSettings()
        preset = cp.get("sweep", "preset", fallback=defaults.preset)
        if preset not in ("fig2", "fig3", "custom"):
            raise ConfigError(
                f"[sweep] preset must be fig2, fig3 or custom, got {preset!r}")
        sweep_settings = SweepSettings(
            preset=preset,
            n_max=_get_int(cp, "sweep", "n_max", defaults.n_max, 1),
            a_tilde_max=_positive(
                "sweep", "a_tilde_max", _get_float(cp, "sweep", "a_tilde_max"),
                defaults.a_tilde_max),
            a_tilde_count=_get_int(cp, "sweep", "a_tilde_count",
                                   defaults.a_tilde_count, 1),
            amplitude_min_m=(parse_length(cp.get("sweep", "amplitude_min"))
                             if cp.has_option("sweep", "amplitude_min")
                             else defaults.amplitude_min_m),
            amplitude_max_m=_positive(
                "sweep", "amplitude_max",
                (parse_length(cp.get("sweep", "amplitude_max"))
                 if cp.has_option("sweep", "amplitude_max") else None),
                defaults.amplitude_max_m),
            amplitude_count=_get_int(cp, "sweep", "amplitude_count",
                                     defaults.amplitude_count, 1),
            alpha_max=_positive(
                "sweep", "alpha_max", _get_float(cp, "sweep", "alpha_max"),
                defaults.alpha_max),
            alpha_count=_get_int(cp, "sweep", "alpha_count",
                                 defaults.alpha_count, 1),
            absolute=_get_bool(cp, "sweep", "absolute", defaults.absolute),
        )

    fmt, verify, seed, n_max, output = "csv", False, 0, 1, None
    if cp.has_section("run"):
        _check_keys("run", cp.options("run"), _RUN_KEYS)
        fmt = cp.get("run", "format", fallback="csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"[run] format must be csv or json, got {fmt!r}")
        verify = _get_bool(cp, "run", "verify", False)
        seed = _get_int(cp, "run", "seed", 0, 0)
        n_max = _get_int(cp, "run", "n_max", 1, 1)
        output = cp.get("run", "output", fallback=None)

    return RunConfig(atom=atom, motion=motion, geometry=geometry,
                     sweep=sweep_settings, output=output, fmt=fmt,
                     verify=verify, seed=seed, n_max=n_max)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of a RunConfig; parse(serialize(c)) == c."""
    out = io.StringIO()

    def emit(section, pairs):
        out.write(f"[{section}]\n")
        for key, value in pairs:
            if value is None:
                continue
            out.write(f"{key} = {value}\n")
        out.write("\n")

    a = cfg.atom
    emit("atom", [("frequency_hz", repr(a.frequency_hz)),
                  ("alpha", None if a.alpha is None else repr(a.alpha)),
                  ("coupling_hz",
                   None if a.coupling_hz is None else repr(a.coupling_hz))])
    m = cfg.motion
    emit("motion", [
        ("kind", m.kind),
        ("drive_frequency_hz", repr(m.drive_frequency_hz)),
        ("amplitude", None if m.amplitude_m is None else repr(m.amplitude_m)),
        ("orientation", m.orientation),
        ("delta_rad", repr(m.delta_rad)),
        ("radius", None if m.radius_m is None else repr(m.radius_m)),
        ("samples", None if m.samples_m is None
         else ",".join(repr(s) for s in m.samples_m)),
    ])
    ge = cfg.geometry
    emit("geometry", [
        ("kind", ge.kind),
        ("z0", None if ge.z0_m is None else repr(ge.z0_m)),
        ("length", None if ge.length_m is None else repr(ge.length_m)),
        ("photons", repr(ge.photons)),
    ])
    if cfg.sweep is not None:
        s = cfg.sweep
        emit("sweep", [
            ("preset", s.preset),
            ("n_max", repr(s.n_max)),
            ("a_tilde_max", repr(s.a_tilde_max)),
            ("a_tilde_count", repr(s.a_tilde_count)),
            ("amplitude_min", repr(s.amplitude_min_m)),
            ("amplitude_max", repr(s.amplitude_max_m)),
            ("amplitude_count", repr(s.amplitude_count)),
            ("alpha_max", repr(s.alpha_max)),
            ("alpha_count", repr(s.alpha_count)),
            ("absolute", "true" if s.absolute else "false"),
        ])
    emit("run", [
        ("format", cfg.fmt),
        ("verify", "true" if cfg.verify else "false"),
        ("seed", repr(cfg.seed)),
        ("n_max", repr(cfg.n_max)),
        ("output", cfg.output),
    ])
    return out.getvalue()


def build_atom(cfg: AtomConfig) -> AtomParams:
    if (cfg.alpha is None) == (cfg.coupling_hz is None):
        raise ConfigError(
            "[atom] needs exactly one of alpha or coupling_hz")
    omega0 = hz_to_angular(cfg.frequency_hz)
    if cfg.alpha is not None:
        return AtomParams(omega0=omega0, alpha=cfg.alpha)
    return AtomParams(omega0=omega0, g=hz_to_angular(cfg.coupling_hz))


def build_motion(cfg: MotionConfig):
    Omega = hz_to_angular(cfg.drive_frequency_hz)
    if cfg.kind == "sho":
        if cfg.amplitude_m is None:
            raise ConfigError("[motion] sho needs amplitude")
        return ShoMotion(amplitude=cfg.amplitude_m, Omega=Omega,
                         orientation=cfg.orientation, delta=cfg.delta_rad)
    if cfg.kind == "rotation":
        if cfg.radius_m is None:
            raise ConfigError("[motion] rotation needs radius")
        return RotationMotion(radius=cfg.radius_m, Omega=Omega,
                              delta=cfg.delta_rad)
    if cfg.samples_m is None:
        raise ConfigError("[motion] general needs samples")
    return GeneralPeriodicMotion(Omega=Omega, samples=cfg.samples_m)


def build_geometry(cfg: GeometryConfig):
    if cfg.kind == "free_space":
        return FreeSpace()
    if cfg.kind == "mirror":
        if cfg.z0_m is None:
            raise ConfigError("[geometry] mirror needs z0")
        return Mirror(z0=cfg.z0_m)
    if cfg.length_m is None or cfg.z0_m is None:
        raise ConfigError("[geometry] cavity needs length and z0")
    return Cavity(length=cfg.length_m, z0=cfg.z0_m, n_photons=cfg.photons)


def sidebands_text(rows, fmt: str) -> str:
    """Serialize (sideband, oracle_rate, deviation) rows as CSV or JSON."""
    verified = any(orate is not None for _, orate, _ in rows)
    if fmt == "json":
        payload = {"kind": "sidebands", "version": __version__,
                   "sidebands": []}
        for line, orate, dev in rows:
            entry = {"n": line.n, "branch": line.branch, "m": line.m,
                     "omega_rad_per_s": line.omega,
                     "photon_frequency_hz": angular_to_hz(line.omega),
                     "rate_hz": line.rate}
            if verified:
                entry["oracle_rate_hz"] = orate
                entry["oracle_rel_dev"] = dev
            payload["sidebands"].append(entry)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    header = "n,branch,m,omega_rad_per_s,photon_frequency_hz,rate_hz"
    if verified:
        header += ",oracle_rate_hz,oracle_rel_dev"
    out = [header]
    for line, orate, dev in rows:
        row = (f"{line.n},{line.branch},"
               f"{'' if line.m is None else line.m},"
               f"{line.omega!r},{angular_to_hz(line.omega)!r},{line.rate!r}")
        if verified:
            row += f",{'' if orate is None else repr(orate)}"
            row += f",{'' if dev is None else repr(dev)}"
        out.append(row)
    return "\n".join(out) + "\n"


def _json_join(items, depth, brackets="[]"):
    """JSON texts laid out as ``json.dumps(indent=2)`` lays out a list at
    nesting ``depth``, or an object when each item is ``"key": value``."""
    pad = "\n" + "  " * (depth + 1)
    return (f"{brackets[0]}{pad}{(',' + pad).join(items)}{pad[:-2]}"
            f"{brackets[1]}" if items else brackets)


def sweep_text(result, fmt: str) -> str:
    """Serialize a SweepResult: matrix CSV, long CSV when aux data exist, or
    JSON laid out exactly as ``json.dumps(payload, sort_keys=True, indent=2)``.
    Every float is written as its shortest ``repr``, formatted once."""
    grid = result.grid
    axis1 = list(map(repr, grid.axis1_values))
    axis2 = list(map(repr, grid.axis2_values))
    aux_keys = sorted(result.aux)
    true, false = ("true", "false") if fmt == "json" else ("1", "0")

    def texts(array):  # cell texts of each row, made as the row is written
        if array.dtype == bool:
            return ([true if c else false for c in r] for r in array.tolist())
        return (list(map(repr, r)) for r in array.tolist())

    if fmt == "json":
        def matrix(array, depth):
            return _json_join([_json_join(row, depth + 1)
                               for row in texts(array)], depth)
        aux = [f"{json.dumps(key)}: {matrix(result.aux[key], 2)}"
               for key in aux_keys]
        axes = [_json_join([f'"name": {json.dumps(name)}',
                            f'"values": {_json_join(values, 2)}'], 1, "{}")
                for name, values in ((grid.axis1_name, axis1),
                                     (grid.axis2_name, axis2))]
        # The members that sort between "axis2" and "values", unbraced.
        small = json.dumps({"fixed": grid.fixed, "kind": "sweep",
                            "metadata": result.metadata},
                           sort_keys=True, indent=2)[4:-2]
        return _json_join([f'"aux": {_json_join(aux, 1, "{}")}',
                           f'"axis1": {axes[0]}', f'"axis2": {axes[1]}', small,
                           f'"values": {matrix(result.values, 1)}'],
                          0, "{}") + "\n"
    if aux_keys:
        out = [f"{grid.axis1_name},{grid.axis2_name},value,"
               + ",".join(aux_keys)]
        rows = zip(texts(result.values),
                   *(texts(result.aux[key]) for key in aux_keys))
        for a, row in zip(axis1, rows):
            out.extend(f"{a},{','.join(cells)}" for cells in zip(axis2, *row))
    else:
        out = [grid.axis1_name + "," + ",".join(
            f"{grid.axis2_name}={v:g}" for v in grid.axis2_values)]
        out.extend(f"{a},{','.join(row)}"
                   for a, row in zip(axis1, texts(result.values)))
    return "\n".join(out) + "\n"


def _load_config(path: str | None) -> RunConfig | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _n_max_option(args, default: int) -> int:
    if args.n_max is None:
        return default
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    return args.n_max


def cmd_rate(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        raise ConfigError("rate needs --config")
    atom = build_atom(cfg.atom)
    motion = build_motion(cfg.motion)
    geom = build_geometry(cfg.geometry)
    n_max = _n_max_option(args, cfg.n_max)
    lines = allowed_sidebands(atom, motion, geom, n_max)
    verify = args.verify or cfg.verify
    rows = (oracle.verified_lines(atom, motion, geom, lines, VERIFY_TOL)
            if verify else [(line, None, None) for line in lines])
    fmt = args.format or cfg.fmt
    _emit(sidebands_text(rows, fmt), args.output or cfg.output)
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        raise ConfigError("spectrum needs --config")
    atom = build_atom(cfg.atom)
    motion = build_motion(cfg.motion)
    geom = build_geometry(cfg.geometry)
    n_max = _n_max_option(args, max(cfg.n_max, 10))
    if isinstance(motion, GeneralPeriodicMotion):
        lines = oracle.general_trajectory_spectrum(motion, geom, atom, n_max)
        rows = [(line, None, None) for line in lines]
    else:
        lines = allowed_sidebands(atom, motion, geom, n_max)
        verify = args.verify or cfg.verify
        rows = (oracle.verified_lines(atom, motion, geom, lines, VERIFY_TOL)
                if verify else [(line, None, None) for line in lines])
    fmt = args.format or cfg.fmt
    _emit(sidebands_text(rows, fmt), args.output or cfg.output)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    settings = cfg.sweep if cfg is not None and cfg.sweep is not None \
        else SweepSettings()
    preset = args.preset or settings.preset
    if preset == "fig2":
        a_values = np.linspace(0.0, settings.a_tilde_max,
                               settings.a_tilde_count)
        n_values = range(1, settings.n_max + 1)
        if settings.absolute:
            if cfg is None:
                raise ConfigError("absolute fig2 sweep needs a config "
                                  "with [atom] and [motion]")
            atom = build_atom(cfg.atom)
            motion = build_motion(cfg.motion)
            result = sweep.fig2_surface(a_values, n_values, g=atom.g,
                                        Omega=motion.Omega)
        else:
            result = sweep.fig2_surface(a_values, n_values)
    elif preset == "fig3":
        Omega = (hz_to_angular(cfg.motion.drive_frequency_hz)
                 if cfg is not None else 2.0 * math.pi * 1e10)
        amplitudes = np.linspace(
            settings.amplitude_max_m / settings.amplitude_count,
            settings.amplitude_max_m, settings.amplitude_count)
        alphas = np.linspace(settings.alpha_max / settings.alpha_count,
                             settings.alpha_max, settings.alpha_count)
        result = sweep.fig3_surface(amplitudes, alphas, Omega=Omega)
    elif preset == "custom":
        if cfg is None:
            raise ConfigError("custom sweep needs --config")
        atom = build_atom(cfg.atom)
        motion = build_motion(cfg.motion)
        geom = build_geometry(cfg.geometry)
        if not isinstance(motion, ShoMotion):
            raise ConfigError("custom sweep needs sho motion")
        lo = settings.amplitude_min_m
        hi = settings.amplitude_max_m
        count = settings.amplitude_count
        amplitudes = np.linspace(lo if lo > 0 else hi / count, hi, count)
        result = sweep.rate_surface(atom, motion, geom, amplitudes,
                                    range(1, settings.n_max + 1))
    else:
        raise ConfigError(f"unknown sweep preset {preset!r}")
    fmt = args.format or (cfg.fmt if cfg is not None else "csv")
    output = args.output or (cfg.output if cfg is not None else None)
    _emit(sweep_text(result, fmt), output)
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else \
        (cfg.seed if cfg is not None else 0)
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    draws = args.draws
    if draws < 1:
        raise ConfigError(f"--draws must be >= 1, got {draws}")
    selection = oracle.selection_rule_report()
    equivalence = oracle.equivalence_report(seed=seed, count=draws)
    selection_pass = bool(selection["max_abs_value"] < SELECTION_RULE_TOL)
    equivalence_pass = bool(equivalence["max_relative_deviation"]
                            < EQUIVALENCE_TOL)
    ok = selection_pass and equivalence_pass
    fmt = args.format or "text"
    if fmt == "json":
        payload = {
            "kind": "oracle-report",
            "version": __version__,
            "selection_rule": {
                "cases": selection["count"],
                "max_abs_value": selection["max_abs_value"],
                "tolerance": SELECTION_RULE_TOL,
                "pass": selection_pass,
            },
            "equivalence": {
                "draws": equivalence["count"],
                "seed": seed,
                "max_relative_deviation":
                    equivalence["max_relative_deviation"],
                "tolerance": EQUIVALENCE_TOL,
                "pass": equivalence_pass,
            },
            "pass": ok,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join([
            f"selection rule: max |J(x;p,q)| = "
            f"{selection['max_abs_value']:.3e} over {selection['count']} "
            f"coprime cases (tol {SELECTION_RULE_TOL:g}): "
            f"{'PASS' if selection_pass else 'FAIL'}",
            f"oracle equivalence: max relative deviation = "
            f"{equivalence['max_relative_deviation']:.3e} over "
            f"{equivalence['count']} draws, seed {seed} "
            f"(tol {EQUIVALENCE_TOL:g}): "
            f"{'PASS' if equivalence_pass else 'FAIL'}",
            f"overall: {'PASS' if ok else 'FAIL'}",
        ]) + "\n"
    _emit(text, args.output)
    return 0 if ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelrad",
        description="Photon-emission rates for mechanically driven "
                    "two-level atoms.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config):
        p.add_argument("--config", required=needs_config,
                       help="path to INI-style run configuration")
        p.add_argument("--output", help="write output to this path "
                                        "(default: stdout)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (default from config, else csv)")
        p.add_argument("--seed", type=int,
                       help="seed for randomized checks")

    p_rate = sub.add_parser("rate", help="per-sideband rates")
    common(p_rate, needs_config=True)
    p_rate.add_argument("--n-max", type=int, help="highest sideband index")
    p_rate.add_argument("--verify", action="store_true",
                        help="cross-check each line against the oracle")
    p_rate.set_defaults(func=cmd_rate)

    p_spec = sub.add_parser("spectrum", help="full sideband spectrum")
    common(p_spec, needs_config=True)
    p_spec.add_argument("--n-max", type=int, help="highest sideband index")
    p_spec.add_argument("--verify", action="store_true",
                        help="cross-check each line against the oracle")
    p_spec.set_defaults(func=cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="figure-data surfaces")
    common(p_sweep, needs_config=False)
    p_sweep.add_argument("--preset", choices=("fig2", "fig3", "custom"),
                         help="sweep preset (default from config, else fig2)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="run the selection-rule and oracle-equivalence suites")
    common(p_oracle, needs_config=False)
    p_oracle.add_argument("--draws", type=int, default=200,
                          help="number of equivalence draws (default 200)")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OracleMismatchError, ConvergenceError) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 4
    except (PhysicsDomainError, ValueError, TypeError) as exc:
        print(f"physics-domain error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer (head, less, ...) closed the pipe
        return 0


if __name__ == "__main__":
    sys.exit(main())

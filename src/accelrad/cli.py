"""Command-line interface: rate queries, spectra, sweeps, oracle checks.

Configuration is a flat INI-style text file with sections
``[atom]``, ``[motion]``, ``[geometry]`` and optional ``[sweep]``/``[run]``.
All boundary inputs are ordinary frequencies in Hz and lengths in meters
(``nm``/``um``/``mm`` suffixes accepted); conversion to angular frequencies
happens once at parse time.  Identical config + seed produce byte-identical
output.

Exit codes: 0 success, 2 config error, 3 physics-domain error (float64
overflow included), 4 oracle-integrity failure.  The error type alone picks
the code; any other exception is a bug and propagates.
"""

import argparse
import configparser
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields

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
class ConfigKey:
    """One INI config key, declared on the dataclass field it fills.

    ``kind`` is ``float``, ``length`` (meters, unit suffix allowed), ``int``,
    ``bool``, ``str`` or ``tuple`` (comma-separated floats); every float must
    be finite.  ``bound`` is ``"> 0"``, ``">= 0"`` or ``">= 1"``.
    """
    name: str
    kind: str
    bound: str | None = None
    choices: tuple | None = None


def _key(name, kind, default=MISSING, bound=None, choices=None):
    return field(default=default,
                 metadata={"key": ConfigKey(name, kind, bound, choices)})


@dataclass(frozen=True)
class AtomConfig:
    frequency_hz: float = _key("frequency_hz", "float", bound="> 0")
    alpha: float | None = _key("alpha", "float", None, "> 0")
    coupling_hz: float | None = _key("coupling_hz", "float", None, "> 0")


@dataclass(frozen=True)
class MotionConfig:
    kind: str = _key("kind", "str", choices=("sho", "rotation", "general"))
    drive_frequency_hz: float = _key("drive_frequency_hz", "float",
                                     bound="> 0")
    amplitude_m: float | None = _key("amplitude", "length", None, ">= 0")
    orientation: str = _key("orientation", "str", "perpendicular",
                            choices=("perpendicular", "parallel"))
    delta_rad: float = _key("delta_rad", "float", 0.0)
    radius_m: float | None = _key("radius", "length", None, ">= 0")
    samples_m: tuple | None = _key("samples", "tuple", None)


@dataclass(frozen=True)
class GeometryConfig:
    kind: str = _key("kind", "str",
                     choices=("free_space", "mirror", "cavity"))
    z0_m: float | None = _key("z0", "length", None, "> 0")
    length_m: float | None = _key("length", "length", None, "> 0")
    photons: int = _key("photons", "int", 0, ">= 0")


@dataclass(frozen=True)
class SweepSettings:
    preset: str = _key("preset", "str", "fig2",
                       choices=("fig2", "fig3", "custom"))
    n_max: int = _key("n_max", "int", 30, ">= 1")
    a_tilde_max: float = _key("a_tilde_max", "float", 30.0, "> 0")
    a_tilde_count: int = _key("a_tilde_count", "int", 512, ">= 1")
    # 0 starts the custom sweep at amplitude_max / amplitude_count
    amplitude_min_m: float = _key("amplitude_min", "length", 0.0, ">= 0")
    amplitude_max_m: float = _key("amplitude_max", "length", 1e-8, "> 0")
    amplitude_count: int = _key("amplitude_count", "int", 128, ">= 1")
    alpha_max: float = _key("alpha_max", "float", 1.0, "> 0")
    alpha_count: int = _key("alpha_count", "int", 128, ">= 1")
    absolute: bool = _key("absolute", "bool", False)


@dataclass(frozen=True)
class RunConfig:
    atom: AtomConfig
    motion: MotionConfig
    geometry: GeometryConfig
    sweep: SweepSettings | None = None
    output: str | None = _key("output", "str", None)
    fmt: str = _key("format", "str", "csv", choices=("csv", "json"))
    verify: bool = _key("verify", "bool", False)
    seed: int = _key("seed", "int", 0, ">= 0")
    n_max: int = _key("n_max", "int", 1, ">= 1")


# section -> (dataclass, {INI key: (field name, ConfigKey, default)})
CONFIG_SECTIONS = {
    section: (cls, {f.metadata["key"].name: (f.name, f.metadata["key"],
                                              f.default)
                    for f in fields(cls) if "key" in f.metadata})
    for section, cls in (("atom", AtomConfig), ("motion", MotionConfig),
                         ("geometry", GeometryConfig),
                         ("sweep", SweepSettings), ("run", RunConfig))}

# kind -> (reader, what a text it cannot read is not)
_KINDS = {
    "float": (float, "a number"),
    "length": (parse_length, "a length"),
    "int": (int, "an integer"),
    "bool": (lambda text: configparser.ConfigParser.BOOLEAN_STATES[
        text.lower()], "a boolean"),
    "str": (str, "text"),
    "tuple": (lambda text: tuple(map(float, text.split(","))),
              "comma-separated numbers"),
}
_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
           ">= 1": lambda v: v >= 1}


def _read_value(section, key: ConfigKey, text):
    reader, noun = _KINDS[key.kind]
    try:
        value = reader(text)
    except (ValueError, KeyError, ConfigError):
        raise ConfigError(f"[{section}] {key.name} = {text!r} is not "
                          f"{noun}") from None
    if (key.kind in ("float", "length") and not math.isfinite(value)
            or key.kind == "tuple" and not all(map(math.isfinite, value))):
        raise ConfigError(f"[{section}] {key.name} must be finite, "
                          f"got {text!r}")
    if key.bound is not None and not _BOUNDS[key.bound](value):
        raise ConfigError(f"[{section}] {key.name} must be {key.bound}, "
                          f"got {text!r}")
    if key.choices is not None and value not in key.choices:
        raise ConfigError(f"[{section}] {key.name} must be one of "
                          f"{', '.join(key.choices)}; got {value!r}")
    return value


def _read_section(cp, section, **values):
    cls, table = CONFIG_SECTIONS[section]
    for name, text in cp.items(section, raw=True):
        if name not in table:
            raise ConfigError(f"[{section}] {name} is not a known key; "
                              f"allowed: {', '.join(sorted(table))}")
        attr, key, _ = table[name]
        values[attr] = _read_value(section, key, text)
    for name, (attr, _, default) in table.items():
        if default is MISSING and attr not in values:
            raise ConfigError(f"[{section}] {name} is required")
    return cls(**values)


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
    for section in cp.sections():
        if section not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    parts = {section: _read_section(cp, section)
             for section in ("atom", "motion", "geometry", "sweep")
             if cp.has_section(section)}
    if not cp.has_section("run"):
        return RunConfig(**parts)
    return _read_section(cp, "run", **parts)


def _write_value(key: ConfigKey, value) -> str:
    if key.kind == "str":
        return value
    if key.kind == "bool":
        return "true" if value else "false"
    if key.kind == "tuple":
        return ",".join(map(repr, value))
    return repr(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of a RunConfig; parse(serialize(c)) == c."""
    out = []
    for section, (_, table) in CONFIG_SECTIONS.items():
        obj = cfg if section == "run" else getattr(cfg, section)
        if obj is None:
            continue
        out.append(f"[{section}]")
        for name, (attr, key, _) in table.items():
            value = getattr(obj, attr)
            if value is not None:
                out.append(f"{name} = {_write_value(key, value)}")
        out.append("")
    return "\n".join(out) + "\n"


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
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {output}: {exc}") from None


def _n_max_option(args, default: int) -> int:
    if args.n_max is None:
        return default
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    return args.n_max


def cmd_sidebands(args) -> int:
    """``rate`` and ``spectrum``.  ``spectrum`` raises the config's n_max to
    at least 10 and takes sampled motion through the oracle quadrature,
    which leaves nothing for ``--verify`` to check."""
    cfg = _load_config(args.config)
    atom = build_atom(cfg.atom)
    motion = build_motion(cfg.motion)
    geom = build_geometry(cfg.geometry)
    spectrum = args.command == "spectrum"
    n_max = _n_max_option(args, max(cfg.n_max, 10) if spectrum
                          else cfg.n_max)
    if spectrum and cfg.motion.kind == "general":
        if args.verify or cfg.verify:
            raise ConfigError(
                "--verify does not apply to sampled motion: its spectrum is "
                "oracle output, with no closed form to check it against")
        lines = oracle.general_trajectory_spectrum(motion, geom, atom, n_max)
        rows = [(line, None, None) for line in lines]
    else:
        lines = allowed_sidebands(atom, motion, geom, n_max)
        rows = (oracle.verified_lines(atom, motion, geom, lines, VERIFY_TOL)
                if args.verify or cfg.verify
                else [(line, None, None) for line in lines])
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
    else:
        if cfg is None:
            raise ConfigError("custom sweep needs --config")
        atom = build_atom(cfg.atom)
        motion = build_motion(cfg.motion)
        geom = build_geometry(cfg.geometry)
        if not isinstance(motion, ShoMotion):
            raise ConfigError("custom sweep needs sho motion")
        lo, hi = settings.amplitude_min_m, settings.amplitude_max_m
        count = settings.amplitude_count
        if 0 < lo and hi <= lo and count > 1:
            raise ConfigError(f"[sweep] amplitude_min = {lo!r} m must be "
                              f"below amplitude_max = {hi!r} m")
        amplitudes = np.linspace(lo if lo > 0 else hi / count, hi, count)
        result = sweep.rate_surface(atom, motion, geom, amplitudes,
                                    range(1, settings.n_max + 1))
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

    def common(p, needs_config, formats=("csv", "json"),
               default="from config, else csv"):
        p.add_argument("--config", required=needs_config,
                       help="path to INI-style run configuration")
        p.add_argument("--output", help="write output to this path "
                                        "(default: stdout)")
        p.add_argument("--format", choices=formats,
                       help=f"output format (default {default})")

    for name, what in (("rate", "per-sideband rates"),
                       ("spectrum", "full sideband spectrum")):
        p_lines = sub.add_parser(name, help=what)
        common(p_lines, needs_config=True)
        p_lines.add_argument("--n-max", type=int,
                             help="highest sideband index")
        p_lines.add_argument("--verify", action="store_true",
                             help="cross-check each line against the oracle")
        p_lines.set_defaults(func=cmd_sidebands)

    p_sweep = sub.add_parser("sweep", help="figure-data surfaces")
    common(p_sweep, needs_config=False)
    p_sweep.add_argument("--preset", choices=("fig2", "fig3", "custom"),
                         help="sweep preset (default from config, else fig2)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="run the selection-rule and oracle-equivalence suites")
    common(p_oracle, needs_config=False, formats=("text", "json"),
           default="text")
    p_oracle.add_argument("--seed", type=int,
                          help="seed for the equivalence draws "
                               "(default from config, else 0)")
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
    except PhysicsDomainError as exc:
        print(f"physics-domain error: {exc}", file=sys.stderr)
        return 3
    except OverflowError:
        print("physics-domain error: value beyond float64 range",
              file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer (head, less, ...) closed the pipe
        return 0


if __name__ == "__main__":
    sys.exit(main())

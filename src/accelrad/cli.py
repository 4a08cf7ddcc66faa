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
import functools
import json
import math
import sys
from dataclasses import MISSING
from types import SimpleNamespace

from . import __version__, oracle, sweep
from ._lazy import np
from .constants import angular_to_hz, hz_to_angular
from .errors import (ConfigError, ConvergenceError, OracleMismatchError,
                     PhysicsDomainError)
from .oracle import EQUIVALENCE_TOL, SELECTION_RULE_TOL
from .rates import (AtomParams, Cavity, FreeSpace, GeneralPeriodicMotion,
                    Mirror, RotationMotion, ShoMotion, allowed_sidebands)

_LENGTH_UNITS = (("nm", 1e-9), ("um", 1e-6), ("mm", 1e-3), ("m", 1.0))


def parse_length(text: str) -> float:
    """Parse a length like ``1e-9``, ``1 nm`` or ``2.5um`` into meters."""
    raw = text.strip()
    for suffix, scale in _LENGTH_UNITS:
        if raw.endswith(suffix):
            return float(raw[:-len(suffix)]) * scale
    return float(raw)


# section -> {INI key: (kind, default, bound, choices)}, the one
# declaration of every config key.  kind is "float", "length" (meters, unit
# suffix allowed), "int", "bool", "str" or "tuple" (comma-separated
# floats); every float must be finite.  A MISSING default marks a required
# key, a None default a key that is absent unless given.  bound is "> 0",
# ">= 0" or ">= 1".
CONFIG_SECTIONS = {
    "atom": {
        "frequency_hz": ("float", MISSING, "> 0", None),
        "alpha": ("float", None, "> 0", None),
        "coupling_hz": ("float", None, "> 0", None),
    },
    "motion": {
        "kind": ("str", MISSING, None, ("sho", "rotation", "general")),
        "drive_frequency_hz": ("float", MISSING, "> 0", None),
        "amplitude": ("length", None, ">= 0", None),
        "orientation": ("str", "perpendicular", None,
                        ("perpendicular", "parallel")),
        "delta_rad": ("float", 0.0, None, None),
        "radius": ("length", None, ">= 0", None),
        "samples": ("tuple", None, None, None),
    },
    "geometry": {
        "kind": ("str", MISSING, None, ("free_space", "mirror", "cavity")),
        "z0": ("length", None, "> 0", None),
        "length": ("length", None, "> 0", None),
        "photons": ("int", 0, ">= 0", None),
    },
    "sweep": {
        "preset": ("str", "fig2", None, ("fig2", "fig3", "custom")),
        "n_max": ("int", 30, ">= 1", None),
        "a_tilde_max": ("float", 30.0, "> 0", None),
        "a_tilde_count": ("int", 512, ">= 1", None),
        # 0 starts fig3 and custom sweeps at amplitude_max / amplitude_count
        "amplitude_min": ("length", 0.0, ">= 0", None),
        "amplitude_max": ("length", 1e-8, "> 0", None),
        "amplitude_count": ("int", 128, ">= 1", None),
        "alpha_max": ("float", 1.0, "> 0", None),
        "alpha_count": ("int", 128, ">= 1", None),
        "absolute": ("bool", False, None, None),
    },
    "run": {
        "output": ("str", None, None, None),
        "format": ("str", "csv", None, ("csv", "json")),
        "verify": ("bool", False, None, None),
        "seed": ("int", 0, ">= 0", None),
        "n_max": ("int", 1, ">= 1", None),
    },
}

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


def _read_value(section, name, text, label=None):
    """``text`` read by key ``name``'s row; an error names ``label``, by
    default ``[section] name``."""
    kind, _, bound, choices = CONFIG_SECTIONS[section][name]
    reader, noun = _KINDS[kind]
    try:
        value = reader(text)
    except (ValueError, KeyError):
        rule = f"= {text!r} is not {noun}"
    else:
        if (kind in ("float", "length") and not math.isfinite(value)
                or kind == "tuple" and not all(map(math.isfinite, value))):
            rule = f"must be finite, got {text!r}"
        elif bound is not None and not _BOUNDS[bound](value):
            rule = f"must be {bound}, got {text!r}"
        elif choices is not None and value not in choices:
            rule = f"must be one of {', '.join(choices)}; got {value!r}"
        else:
            return value
    raise ConfigError(f"{label or f'[{section}] {name}'} {rule}")


def _read_section(section, items=(), **values):
    """The namespace of one section: its ``(key, text)`` items read over
    the table's defaults, plus ``values``."""
    table = CONFIG_SECTIONS[section]
    values.update((name, row[1]) for name, row in table.items())
    for name, text in items:
        if name not in table:
            raise ConfigError(f"[{section}] {name} is not a known key; "
                              f"allowed: {', '.join(sorted(table))}")
        values[name] = _read_value(section, name, text)
    for name in table:
        if values[name] is MISSING:
            raise ConfigError(f"[{section}] {name} is required")
    return SimpleNamespace(**values)


def parse_config(text: str) -> SimpleNamespace:
    """Parse configuration text into the ``[run]`` namespace, which holds
    the ``atom``, ``motion``, ``geometry`` and ``sweep`` namespaces; an
    absent ``[sweep]`` or ``[run]`` reads as its defaults."""
    # No header spells the empty default section, so [DEFAULT] is a section
    # like any other and the unknown-section check refuses it.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
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
    items = {section: cp.items(section, raw=True)
             for section in cp.sections()}
    parts = {section: _read_section(section, items.get(section, ()))
             for section in ("atom", "motion", "geometry", "sweep")}
    return _read_section("run", items.get("run", ()), **parts)


def build_atom(cfg) -> AtomParams:
    if (cfg.alpha is None) == (cfg.coupling_hz is None):
        raise ConfigError(
            "[atom] needs exactly one of alpha or coupling_hz")
    omega0 = hz_to_angular(cfg.frequency_hz)
    if cfg.alpha is not None:
        return AtomParams(omega0=omega0, alpha=cfg.alpha)
    return AtomParams(omega0=omega0, g=hz_to_angular(cfg.coupling_hz))


def build_motion(cfg):
    Omega = hz_to_angular(cfg.drive_frequency_hz)
    if cfg.kind == "sho":
        if cfg.amplitude is None:
            raise ConfigError("[motion] sho needs amplitude")
        return ShoMotion(amplitude=cfg.amplitude, Omega=Omega,
                         orientation=cfg.orientation, delta=cfg.delta_rad)
    if cfg.kind == "rotation":
        if cfg.radius is None:
            raise ConfigError("[motion] rotation needs radius")
        return RotationMotion(radius=cfg.radius, Omega=Omega,
                              delta=cfg.delta_rad)
    if cfg.samples is None:
        raise ConfigError("[motion] general needs samples")
    return GeneralPeriodicMotion(Omega=Omega, samples=cfg.samples)


def build_geometry(cfg):
    if cfg.kind == "free_space":
        return FreeSpace()
    if cfg.kind == "mirror":
        if cfg.z0 is None:
            raise ConfigError("[geometry] mirror needs z0")
        return Mirror(z0=cfg.z0)
    if cfg.length is None or cfg.z0 is None:
        raise ConfigError("[geometry] cavity needs length and z0")
    return Cavity(length=cfg.length, z0=cfg.z0, n_photons=cfg.photons)


def sidebands_text(rows, fmt: str, verified: bool) -> str:
    """Serialize (sideband, oracle_rate, deviation) rows as CSV, or as JSON
    laid out exactly as ``json.dumps(payload, sort_keys=True, indent=2)``; a
    ``verified`` request carries both oracle fields on every line.

    A line's floats are written once, as ``float.__repr__`` (what ``json``
    writes; ``Sideband`` keeps them finite).  An oracle cell may be None or
    not finite, so ``json`` itself writes it in JSON."""
    as_json = fmt == "json"
    null = "null" if as_json else ""
    quote = json.encoder.encode_basestring_ascii  # json's own str encoder
    text = float.__repr__
    out = []
    for line, orate, dev in rows:
        m = null if line.m is None else line.m
        omega, hz = text(line.omega), text(angular_to_hz(line.omega))
        rate = text(line.rate)
        if not as_json:
            row = f"{line.n},{line.branch},{m},{omega},{hz},{rate}"
            if verified:
                row += (f",{'' if orate is None else text(orate)}"
                        f",{'' if dev is None else text(dev)}")
            out.append(row)
            continue
        oracle = (f'"oracle_rate_hz": {json.dumps(orate)},\n      '
                  f'"oracle_rel_dev": {json.dumps(dev)},\n      '
                  if verified else "")
        out.append(f'{{\n      "branch": {quote(line.branch)},\n      '
                   f'"m": {m},\n      "n": {line.n},\n      '
                   f'"omega_rad_per_s": {omega},\n      {oracle}'
                   f'"photon_frequency_hz": {hz},\n      "rate_hz": {rate}'
                   f'\n    }}')
    if as_json:
        return _json_join(['"kind": "sidebands"',
                           f'"sidebands": {_json_join(out, 1)}',
                           f'"version": {quote(__version__)}'],
                          0, "{}") + "\n"
    header = "n,branch,m,omega_rad_per_s,photon_frequency_hz,rate_hz"
    if verified:
        header += ",oracle_rate_hz,oracle_rel_dev"
    return "\n".join([header, *out]) + "\n"


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
    axis1 = list(map(repr, result.axis1_values))
    axis2 = list(map(repr, result.axis2_values))
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
                for name, values in ((result.axis1_name, axis1),
                                     (result.axis2_name, axis2))]
        # The members that sort between "axis2" and "values", unbraced.
        small = json.dumps({"fixed": result.fixed, "kind": "sweep",
                            "metadata": result.metadata},
                           sort_keys=True, indent=2)[4:-2]
        return _json_join([f'"aux": {_json_join(aux, 1, "{}")}',
                           f'"axis1": {axes[0]}', f'"axis2": {axes[1]}', small,
                           f'"values": {matrix(result.values, 1)}'],
                          0, "{}") + "\n"
    if aux_keys:
        out = [f"{result.axis1_name},{result.axis2_name},value,"
               + ",".join(aux_keys)]
        rows = zip(texts(result.values),
                   *(texts(result.aux[key]) for key in aux_keys))
        for a, row in zip(axis1, rows):
            out.extend(f"{a},{','.join(cells)}" for cells in zip(axis2, *row))
    else:
        out = [result.axis1_name + "," + ",".join(
            f"{result.axis2_name}={v:g}" for v in result.axis2_values)]
        out.extend(f"{a},{','.join(row)}"
                   for a, row in zip(axis1, texts(result.values)))
    return "\n".join(out) + "\n"


def _load_config(path: str) -> SimpleNamespace:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


# flag -> the key it mirrors: a flag given is read by that key's row, over
# the key's value
FLAG_KEYS = {"--n-max": ("run", "n_max"), "--format": ("run", "format"),
             "--output": ("run", "output"), "--verify": ("run", "verify"),
             "--seed": ("run", "seed"), "--preset": ("sweep", "preset")}


def _settings(args) -> SimpleNamespace:
    """The request's ``[run]`` namespace: ``--config``'s, else the key
    table's defaults with no atom, motion or geometry; over it, each flag
    given, read by its key's row."""
    cfg = (_load_config(args.config) if args.config is not None else
           _read_section("run", atom=None, motion=None, geometry=None,
                         sweep=_read_section("sweep")))
    if args.command == "spectrum":  # a floor on the config's n_max alone
        cfg.n_max = max(cfg.n_max, 10)
    for flag, (section, name) in FLAG_KEYS.items():
        text = getattr(args, name, None)  # stored under the key's name
        if text is not None:
            setattr(cfg if section == "run" else cfg.sweep, name,
                    _read_value(section, name, text, flag))
    return cfg


def _emit(text: str, cfg):
    """Write ``text`` to the request's output, else to stdout."""
    if cfg.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {cfg.output}: {exc}") from None


def cmd_sidebands(args, cfg) -> int:
    """``rate`` and ``spectrum``.  The motion alone picks the route:
    sampled motion goes through the oracle quadrature, which leaves nothing
    for ``verify`` to check, and every other motion through the closed
    forms."""
    atom = build_atom(cfg.atom)
    motion = build_motion(cfg.motion)
    geom = build_geometry(cfg.geometry)
    if cfg.motion.kind == "general":
        if cfg.verify:
            raise ConfigError(
                "--verify does not apply to sampled motion: its spectrum is "
                "oracle output, with no closed form to check it against")
        route = oracle.general_trajectory_spectrum
    else:
        route = allowed_sidebands
    lines = route(atom, motion, geom, cfg.n_max)
    rows = (oracle.verified_lines(atom, motion, geom, lines)
            if cfg.verify else [(line, None, None) for line in lines])
    _emit(sidebands_text(rows, cfg.format, cfg.verify), cfg)
    return 0


def _amplitude_axis(settings):
    """The fig3 and custom amplitude axis: amplitude_count points up to
    amplitude_max, from amplitude_min, or from amplitude_max / count when
    amplitude_min is 0."""
    lo, hi = settings.amplitude_min, settings.amplitude_max
    count = settings.amplitude_count
    if 0 < lo and hi <= lo:
        raise ConfigError(f"[sweep] amplitude_min = {lo!r} m must be "
                          f"below amplitude_max = {hi!r} m")
    return np.linspace(lo if lo > 0 else hi / count, hi, count)


def _free_space_only(surface, cfg):
    """fig3 (which sets ``omega0 = Omega / 2`` and sweeps alpha, so it
    reads only the drive) and absolute fig2 (the drive and the atom) are
    free-space surfaces: after the config's own checks, refuse any other
    geometry before any cell."""
    if not isinstance(build_geometry(cfg.geometry), FreeSpace):
        raise PhysicsDomainError(
            f"{surface} sweeps support free-space geometry only, got "
            f"[geometry] kind = {cfg.geometry.kind}")


#: Most cells a sweep grid may hold: about 40 times the largest grid a
#: default, test or benchmark request builds (25k cells), and a fig3 long
#: CSV of about 100 MB.
MAX_SWEEP_CELLS = 2 ** 20
# preset -> the two [sweep] keys whose product is its number of cells
_SWEEP_GRID_KEYS = {"fig2": ("a_tilde_count", "n_max"),
                    "fig3": ("amplitude_count", "alpha_count"),
                    "custom": ("amplitude_count", "n_max")}


def _check_sweep_budget(preset, settings):
    """Refuse a grid of more than MAX_SWEEP_CELLS before any axis is built."""
    rows, cols = _SWEEP_GRID_KEYS[preset]
    cells = getattr(settings, rows) * getattr(settings, cols)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(f"[sweep] {rows} * {cols} = {cells} cells is above "
                          f"MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}; lower "
                          f"{rows} or {cols}")


def cmd_sweep(args, cfg) -> int:
    """One preset's surface; with no config, fig3 takes ``fig3_surface``'s
    own drive and custom is refused."""
    settings = cfg.sweep
    preset = settings.preset
    _check_sweep_budget(preset, settings)
    if preset == "fig2":
        a_values = np.linspace(0.0, settings.a_tilde_max,
                               settings.a_tilde_count)
        if settings.absolute:
            atom = build_atom(cfg.atom)
            motion = build_motion(cfg.motion)
            _free_space_only("absolute fig2", cfg)
            result = sweep.fig2_surface(a_values, settings.n_max, g=atom.g,
                                        Omega=motion.Omega)
        else:  # reads nothing of the config but [sweep]
            result = sweep.fig2_surface(a_values, settings.n_max)
    elif preset == "fig3":
        amplitudes = _amplitude_axis(settings)
        alphas = np.linspace(settings.alpha_max / settings.alpha_count,
                             settings.alpha_max, settings.alpha_count)
        if cfg.motion is None:
            result = sweep.fig3_surface(amplitudes, alphas)
        else:
            _free_space_only("fig3", cfg)
            result = sweep.fig3_surface(amplitudes, alphas, Omega=hz_to_angular(
                cfg.motion.drive_frequency_hz))
    else:
        if cfg.motion is None:
            raise ConfigError("custom sweep needs --config")
        atom = build_atom(cfg.atom)
        motion = build_motion(cfg.motion)
        geom = build_geometry(cfg.geometry)
        result = sweep.rate_surface(atom, motion, geom,
                                    _amplitude_axis(settings), settings.n_max)
    _emit(sweep_text(result, cfg.format), cfg)
    return 0


#: Most equivalence draws one report may take: 40 times the largest count
#: a test or benchmark asks for (1000), about 20 MB of held draws and 3 s.
MAX_ORACLE_DRAWS = 40_000


def cmd_oracle(args, cfg) -> int:
    """The selection-rule and equivalence reports, in ``--format``'s own
    ``text`` or ``json``: ``[run] format`` does not apply here."""
    seed, draws = cfg.seed, args.draws
    if draws < 1:
        raise ConfigError(f"--draws must be >= 1, got {draws}")
    if draws > MAX_ORACLE_DRAWS:
        raise ConfigError(f"--draws = {draws} is above MAX_ORACLE_DRAWS = "
                          f"{MAX_ORACLE_DRAWS}; lower --draws")
    selection = oracle.selection_rule_report()
    equivalence = oracle.equivalence_report(seed=seed, count=draws)
    selection_pass = bool(selection["max_abs_value"] < SELECTION_RULE_TOL)
    equivalence_pass = bool(equivalence["max_relative_deviation"]
                            < EQUIVALENCE_TOL)
    ok = selection_pass and equivalence_pass
    if args.report == "json":
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
    _emit(text, cfg)
    return 0 if ok else 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every ``main`` call;
    it binds the ``cmd_*`` functions as they are when it is built."""
    parser = argparse.ArgumentParser(
        prog="accelrad",
        description="Photon-emission rates for mechanically driven "
                    "two-level atoms.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def mirror(p, flag, what, **how):
        """A flag stored under its key's name, for the key's row to read;
        usage shows the row's choices."""
        section, name = FLAG_KEYS[flag]
        choices = CONFIG_SECTIONS[section][name][3]
        p.add_argument(flag, dest=name, help=what, **how, metavar=choices
                       and "{" + ",".join(choices) + "}")

    def common(p, needs_config):
        p.add_argument("--config", required=needs_config,
                       help="path to INI-style run configuration")
        mirror(p, "--output", "write output to this path (default: stdout)")

    csv_or_json = "output format (default from config, else csv)"
    for name, what in (("rate", "per-sideband rates"),
                       ("spectrum", "full sideband spectrum")):
        p_lines = sub.add_parser(name, help=what)
        common(p_lines, needs_config=True)
        mirror(p_lines, "--format", csv_or_json)
        mirror(p_lines, "--n-max", "highest sideband index")
        mirror(p_lines, "--verify", "cross-check each line against the "
               "oracle", action="store_const", const="true")
        p_lines.set_defaults(func=cmd_sidebands)

    p_sweep = sub.add_parser("sweep", help="figure-data surfaces")
    common(p_sweep, needs_config=False)
    mirror(p_sweep, "--format", csv_or_json)
    mirror(p_sweep, "--preset", "sweep preset (default from config, else "
           "fig2)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="run the selection-rule and oracle-equivalence suites")
    common(p_oracle, needs_config=False)
    p_oracle.add_argument("--format", dest="report", choices=("text", "json"),
                          default="text", help="output format (default text)")
    mirror(p_oracle, "--seed", "seed for the equivalence draws (default "
           "from config, else 0)")
    p_oracle.add_argument("--draws", type=int, default=200,
                          help="number of equivalence draws (default 200)")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _settings(args))
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

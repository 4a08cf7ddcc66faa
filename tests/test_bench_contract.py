"""The benchmark's tracer must find every function it traces, its checker
must judge resonance with the program's tolerance, and the closed forms
must call ``bessel_j`` once per line, as a traced run counts them.

``bench/tracing.py`` wraps a fixed list of ``accelrad`` functions, by
module and name; renaming or deleting one breaks ``bench/run.py --trace``.
``bench/check.py`` scales its band of ambiguous cavity lines from its own
copy of ``RESONANCE_TOL`` and bounds every ``oracle_rel_dev`` by its own
copy of ``VERIFY_TOL``.  These tests read ``bench/`` and change nothing
there.
"""

import importlib.util
import math
import pathlib
import sys

import pytest

import accelrad.cli  # noqa: F401  (the tracer expects it imported)
import accelrad.rates
import accelrad.specfun
from accelrad.constants import SPEED_OF_LIGHT as C
from accelrad.oracle import VERIFY_TOL
from accelrad.rates import (ABSORB_DEEXCITE, EMIT_EXCITE, PARALLEL,
                            RESONANCE_TOL, AtomParams, Cavity, FreeSpace,
                            Mirror, RotationMotion, ShoMotion,
                            allowed_sidebands)

_BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("bench_tracing", "tracing.py")
check = _load("bench_check", "check.py")


def test_checker_resonance_tolerance_is_the_programs():
    assert check.RESONANCE_TOL == RESONANCE_TOL


def test_checker_verify_tolerance_is_the_programs():
    assert check.VERIFY_TOL == VERIFY_TOL


def test_every_traced_span_resolves():
    tracer = tracing.Tracer()
    assert set(tracer.originals) == set(tracing.SPANS)
    assert all(callable(fn) for fn in tracer.originals.values())


def test_every_traced_function_is_bound_and_wrapped():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.coverage_problems() == []
    finally:
        tracer.uninstall()


# Lists the SPANS names (argv) that a fresh ``import accelrad.cli`` leaves
# unresolved: the tracer reads each module from ``sys.modules`` right after
# that import, so no traced module may be imported later, on first use.
_UNRESOLVED_AFTER_IMPORT = """\
import sys
import accelrad.cli
for name in sys.argv[1:]:
    module, attr = name.rsplit(".", 1)
    if not callable(getattr(sys.modules.get("accelrad." + module), attr, None)):
        print(name)
"""


def test_importing_cli_loads_every_traced_module(fresh_python):
    proc = fresh_python("-c", _UNRESOLVED_AFTER_IMPORT, *tracing.SPANS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


# ``bench/run.py`` asserts, on every traced request tagged
# ``bessel-per-line``, one ``specfun.bessel_j`` call per emitted line.
@pytest.fixture
def bessel_calls(monkeypatch):
    """The order of every ``bessel_j`` call the closed forms make."""
    calls = []
    bessel_j = accelrad.rates.bessel_j

    def counted(n, x):
        calls.append(n)
        return bessel_j(n, x)

    monkeypatch.setattr(accelrad.rates, "bessel_j", counted)
    return calls


@pytest.mark.parametrize("geom", [FreeSpace(), Mirror(z0=0.05)],
                         ids=["free_space", "mirror"])
@pytest.mark.parametrize("motion", [
    ShoMotion(amplitude=0.01, Omega=2 * math.pi * 1e10),
    ShoMotion(amplitude=0.01, Omega=2 * math.pi * 1e10,
              orientation=PARALLEL, delta=0.6),
    RotationMotion(radius=0.01, Omega=2 * math.pi * 1e10, delta=0.6)],
    ids=["sho", "parallel", "rotation"])
def test_one_bessel_call_per_emitted_line(bessel_calls, motion, geom):
    atom = AtomParams(omega0=2 * math.pi * 2.5e10, g=1e6)
    lines = allowed_sidebands(atom, motion, geom, 40)
    assert len(lines) == 38
    assert bessel_calls == [line.n for line in lines]


def test_one_bessel_call_per_emitted_cavity_line(bessel_calls):
    # Driven at the mode spacing with omega0 = 5 Omega, mode n - 5 meets the
    # emit-excite line of n > 5 and mode 5 - n the absorb-deexcite line of
    # n < 5; with N = 2 photons both branches carry a nonzero rate.
    length = 0.1
    Omega = math.pi * C / length
    geom = Cavity(length=length, z0=0.037, n_photons=2)
    atom = AtomParams(omega0=5 * Omega, g=1e6)
    lines = allowed_sidebands(atom, ShoMotion(amplitude=0.01, Omega=Omega),
                              geom, 40)
    assert [(line.branch, line.m) for line in lines] == (
        [(ABSORB_DEEXCITE, 5 - n) for n in range(1, 5)]
        + [(EMIT_EXCITE, n - 5) for n in range(6, 41)])
    assert all(line.rate > 0 for line in lines)
    assert bessel_calls == [line.n for line in lines]


def test_one_bessel_call_per_line_on_the_debye_route(bessel_calls,
                                                     monkeypatch):
    # The tracer's scaling row: x = k A is about 2.1 n, so every line above
    # x = 200 (n >= 96) takes Debye's route inside bessel_j; the route
    # changes how a call evaluates, never how many calls there are.
    debye = []
    real = accelrad.specfun._bessel_debye

    def counted(n, x):
        debye.append(n)
        return real(n, x)

    monkeypatch.setattr(accelrad.specfun, "_bessel_debye", counted)
    atom = AtomParams(omega0=2 * math.pi * 5e9, g=1e6)
    motion = ShoMotion(amplitude=0.01, Omega=2 * math.pi * 1e10)
    lines = allowed_sidebands(atom, motion, FreeSpace(), 400)
    assert len(lines) == 400
    assert bessel_calls == [line.n for line in lines]
    assert debye == list(range(96, 401))

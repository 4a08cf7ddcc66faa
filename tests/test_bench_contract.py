"""The benchmark's tracer must find every function it traces.

``bench/tracing.py`` wraps a fixed list of ``accelrad`` functions, by
module and name; renaming or deleting one breaks ``bench/run.py --trace``.
This test reads ``bench/`` and changes nothing there.
"""

import importlib.util
import pathlib
import sys

import accelrad.cli  # noqa: F401  (the tracer expects it imported)

_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracing  # dataclasses look their module up
_SPEC.loader.exec_module(tracing)


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

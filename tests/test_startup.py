"""Start-up: numpy is loaded on first use, never at import time, and the
package builds few dataclasses as it loads.

Each test runs a new interpreter, because pytest has imported numpy and
accelrad long before any test here runs.
"""

import json
from pathlib import Path

import pytest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Runs ``cli.main`` on its arguments (none: import only), then writes the
# loaded ``numpy.*`` submodules to stderr as its last line.  The lazy
# ``numpy`` module itself is in ``sys.modules`` either way.
_NUMPY_AFTER = """\
import json, sys
import accelrad.cli
code = accelrad.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stderr.write(json.dumps(sorted(name for name in sys.modules
                                   if name.startswith("numpy."))))
sys.exit(code)
"""


def numpy_submodules_after(fresh_python, *argv):
    proc = fresh_python("-c", _NUMPY_AFTER, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["rate", "--config", str(CONFIGS / "cavity.cfg")],
    ["spectrum", "--config", str(CONFIGS / "free_space.cfg")],
], ids=["import", "rate-cavity", "spectrum-free-space"])
def test_closed_form_path_loads_no_numpy(fresh_python, argv):
    assert numpy_submodules_after(fresh_python, *argv) == []


def test_verify_loads_numpy_on_first_use(fresh_python):
    argv = ["rate", "--verify", "--config", str(CONFIGS / "cavity.cfg")]
    assert numpy_submodules_after(fresh_python, *argv) != []


_THIRD_PARTY = """\
import json, sys
import accelrad
import numpy
import scipy.special
print(json.dumps({
    "same": numpy is sys.modules["numpy"],
    "norm": float(numpy.linalg.norm([3, 4])),
    "scipy": float(scipy.special.jv(1, 2.0)),
    "accelrad": accelrad.bessel_j(1, 2.0),
}))
"""


def test_numpy_imported_after_accelrad_works(fresh_python):
    pytest.importorskip("scipy")
    proc = fresh_python("-c", _THIRD_PARTY)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["same"] is True
    assert seen["norm"] == 5.0
    assert seen["accelrad"] == pytest.approx(seen["scipy"], rel=0, abs=1e-15)


# Building a dataclass costs about a millisecond of import time each.
MAX_IMPORT_DATACLASSES = 9

_DATACLASSES = """\
import dataclasses, json, sys
import accelrad.cli
print(json.dumps(sorted({f"{cls.__module__}.{cls.__qualname__}"
    for name, module in list(sys.modules.items())
    if name == "accelrad" or name.startswith("accelrad.")
    for cls in vars(module).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    and cls.__module__.startswith("accelrad")})))
"""


def test_cli_import_builds_few_dataclasses(fresh_python):
    proc = fresh_python("-c", _DATACLASSES)
    assert proc.returncode == 0, proc.stderr
    built = json.loads(proc.stdout)
    assert len(built) <= MAX_IMPORT_DATACLASSES, built

"""The suite's pytest settings must let a failing property report itself,
and keep every known failure strict.

``filterwarnings = ["error"]`` turns every warning into an error.  When a
Hypothesis test fails, Hypothesis imports libcst to explain the failure,
and that import warns about ``mypy_extensions.TypedDict``; unless the
project's settings ignore that one warning, pytest stops with INTERNALERROR
(exit 3) before it prints the falsifying example.

``xfail_strict = true`` makes an expected failure that starts to pass fail
the suite, so a pinned wrong answer cannot be mended, or moved, unseen.
"""

import pathlib
import subprocess
import sys
import tomllib

_PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 10
"""


def test_failing_property_shows_its_example(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(_FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT),
         "-p", "no:cacheprovider", "-q", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_expected_failures_are_strict():
    with _PYPROJECT.open("rb") as f:
        options = tomllib.load(f)["tool"]["pytest"]["ini_options"]
    assert options["xfail_strict"] is True

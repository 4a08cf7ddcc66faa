"""Shared fixtures."""

import os
import pathlib
import subprocess
import sys

import pytest

import accelrad


@pytest.fixture
def fresh_python(tmp_path):
    """Run ``python *args`` in a new interpreter that imports this
    ``accelrad``, from ``tmp_path``; returns the completed process (text)."""
    src = str(pathlib.Path(accelrad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    return run

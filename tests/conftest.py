"""Shared fixtures."""

import os
import pathlib
import subprocess
import sys

import pytest

import accelrad
from accelrad import EMIT_EXCITE


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


@pytest.fixture
def cavity_line():
    """``line(atom, motion, geom, n, m, branch=EMIT_EXCITE)``: the line
    ``geom.sideband`` builds at index n if it sits on mode m and branch,
    else None."""
    def line(atom, motion, geom, n, m, branch=EMIT_EXCITE):
        s = geom.sideband(atom, motion, n)
        return s if s is not None and (s.m, s.branch) == (m, branch) else None

    return line

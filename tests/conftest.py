"""Shared fixtures."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import accelrad
import accelrad._quadrature as quadrature
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


@pytest.fixture
def frozen_periodic_trapezoid():
    """``periodic_trapezoid`` as it was before one call on the doubled grid
    gave both the start rule and its first doubling, frozen: one integrand
    call per rule, summed through ``np.sum``.  The reference the live rule
    must equal bit for bit, under the live refinement contract."""
    def trapezoid(f, nodes):
        total = None

        def estimate(count):
            nonlocal total
            step = 2.0 * math.pi / count
            if total is None:
                total = np.sum(f(-math.pi + step * np.arange(count)))
            else:  # the odd nodes, the previous rule's midpoints
                total += np.sum(f(-math.pi + step * np.arange(1, count, 2)))
            return step * total

        return quadrature._refine(estimate, int(nodes))

    return trapezoid

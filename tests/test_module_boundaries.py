"""No module of the package reaches into a sibling's private names.

A name with a leading underscore is its module's own business: a rule that
two modules share lives, public, in the module that owns it (the input
rules in ``errors``, say).  The guard reads every module's syntax tree and
refuses ``from .sibling import _name``, and ``sibling._name`` on a sibling
module it imported.  Dunder names such as ``__version__``, and public names
of private modules such as ``_lazy.np``, are allowed.
"""

import ast
import pathlib

import pytest

import accelrad

PACKAGE = pathlib.Path(accelrad.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """Every private sibling name that ``source`` imports or reads."""
    tree = ast.parse(source)
    found, siblings = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or (
                node.level == 0
                and (node.module or "").split(".")[0] != "accelrad"):
            continue
        for alias in node.names:
            if node.module in (None, "accelrad"):  # a sibling module itself
                siblings.add(alias.asname or alias.name)
            elif _private(alias.name):
                found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_a_private_sibling_name(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,found", [
    ("from .rates import AtomParams, _check_positive\n",
     ["rates._check_positive"]),
    ("from accelrad.specfun import _miller_range\n",
     ["accelrad.specfun._miller_range"]),
    ("from . import _quadrature\n_quadrature._refine\n",
     ["_quadrature._refine"]),
    ("from . import oracle\noracle._selection_nodes(1, 2, 3.0)\n",
     ["oracle._selection_nodes"]),
    ("from . import __version__ as _version\n", []),
    ("from ._lazy import np\n", []),
    ("from ._quadrature import MAX_PERIODIC_NODES, periodic_trapezoid\n", []),
    ("import math\nmath._private\n", []),
])
def test_the_guard_sees_a_private_reach(source, found):
    assert private_reaches(source) == found

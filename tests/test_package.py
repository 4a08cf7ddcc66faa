"""The package's public surface and its one version string.

``accelrad.__all__`` is the public API: a star import binds exactly it, it
names nothing twice, and every name that ``accelrad/__init__.py`` imports
from a submodule is in it, so no export is left behind or left out.
The version is written once, as ``accelrad.__version__``; ``pyproject.toml``
reads it from there.
"""

import ast
import pathlib
import warnings

from setuptools.config.pyprojecttoml import read_configuration

import accelrad

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_INIT = pathlib.Path(accelrad.__file__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from accelrad import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(accelrad.__all__)


def test_all_names_each_export_once():
    assert len(accelrad.__all__) == len(set(accelrad.__all__))


def test_every_submodule_import_is_exported():
    tree = ast.parse(_INIT.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported, "no 'from .x import ...' line found"
    assert set(imported) <= set(accelrad.__all__)


def test_pyproject_reads_the_package_version():
    # setuptools warns that its [tool.setuptools] table is beta; the suite
    # turns warnings into errors.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = read_configuration(_ROOT / "pyproject.toml")
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == accelrad.__version__

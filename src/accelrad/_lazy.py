"""numpy, loaded on first attribute access rather than at import time.

The closed forms need only ``math``, so no module here touches ``np`` at
import time: a command that never reaches numpy never loads it.
"""

import importlib.util
import sys


def lazy_numpy():
    """The loaded ``numpy`` module if any, else a stand-in put in
    ``sys.modules`` that runs numpy's import on its first attribute access."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = lazy_numpy()

"""Quadrature rules shared by the special functions and the amplitude oracle.

* ``periodic_trapezoid`` -- the N-node trapezoid rule over one full period,
  for analytic periodic integrands.  Its error is the aliasing tail (the
  integrand's Fourier coefficients at multiples of N), which decays
  exponentially once N exceeds the integrand's bandwidth, so the caller
  sets the node count from that bandwidth and one doubling confirms it.
* ``composite_gl`` / ``refine_to_tolerance`` -- composite Gauss-Legendre
  panels with panel doubling, for the second, independent route of the
  selection-rule scan (``specfun.rational_period_integral``).  The panel
  rules depend on ``(a, b, panels)`` only, so the most recent
  :data:`GL_CACHE_RULES` rules of at most :data:`GL_CACHE_MAX_NODES` nodes
  are kept, read-only, for reuse: at most 128 x 4096 nodes x 16 bytes =
  8 MiB.  Larger rules are built per call.
"""

import functools
import math

import numpy as np

from .errors import ConvergenceError

_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

#: Most nodes ``periodic_trapezoid`` may use; it raises rather than go past.
MAX_PERIODIC_NODES = 2**20

#: How many Gauss-Legendre panel rules ``composite_gl`` keeps for reuse.
GL_CACHE_RULES = 128
#: Largest rule, in nodes, that ``composite_gl`` keeps for reuse.
GL_CACHE_MAX_NODES = 4096


def periodic_trapezoid(f, nodes: int, rel_tol: float):
    """Integrate a 2 pi-periodic ``f`` over [-pi, pi) by the trapezoid rule.

    Starts from ``nodes`` uniform nodes and doubles (adding only the
    midpoints) until two successive estimates agree to
    ``rel_tol * max(1, |value|)``.  Returns ``(value, error_estimate,
    nodes_used)``; raises :class:`ConvergenceError` rather than pass
    :data:`MAX_PERIODIC_NODES`.  ``f`` must accept an ndarray of abscissae
    and return an ndarray of the same shape.
    """
    count = int(nodes)
    err = math.inf
    if 2 * count <= MAX_PERIODIC_NODES:
        step = 2.0 * math.pi / count
        total = np.sum(f(-math.pi + step * np.arange(count)))
        value = step * total
        while 2 * count <= MAX_PERIODIC_NODES:
            total += np.sum(f(-math.pi + step * (np.arange(count) + 0.5)))
            count *= 2
            step *= 0.5
            refined = step * total
            err = abs(refined - value)
            value = refined
            if err <= rel_tol * max(1.0, abs(value)):
                return value, err, count
    raise ConvergenceError(
        f"periodic trapezoid rule did not reach rel_tol={rel_tol:g} within "
        f"the node cap MAX_PERIODIC_NODES = {MAX_PERIODIC_NODES} (started at "
        f"{int(nodes)} nodes; error estimate {err:g})",
        error_estimate=err,
    )


def composite_gl(f, a: float, b: float, panels: int):
    """Integrate ``f`` over [a, b] with ``panels`` Gauss-Legendre panels.

    ``f`` must accept an ndarray of abscissae and return an ndarray (real or
    complex) of the same shape; the abscissae it gets are read-only.
    """
    if panels * _GL_ORDER <= GL_CACHE_MAX_NODES:
        x, w = _cached_gl_rule(a, b, panels)
    else:
        x, w = _gl_rule(a, b, panels)
    return np.sum(w * f(x))


def _gl_rule(a: float, b: float, panels: int):
    """Read-only nodes and weights of ``panels`` GL panels over [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    w = np.broadcast_to(half * _GL_WEIGHTS, (panels, _GL_ORDER)).ravel()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


_cached_gl_rule = functools.lru_cache(maxsize=GL_CACHE_RULES)(_gl_rule)


def refine_to_tolerance(f, a: float, b: float, panels: int,
                        rel_tol: float, max_nodes: int = 10**6):
    """Panel-doubling driver around :func:`composite_gl`, starting at
    ``panels`` panels.

    Returns ``(value, error_estimate, panels_used)`` where the error estimate
    is the difference between the last two refinements.  Raises
    :class:`ConvergenceError` when the node budget is exhausted first.
    """
    panels = max(1, int(panels))
    value = composite_gl(f, a, b, panels)
    err = math.inf
    while panels * _GL_ORDER <= max_nodes:
        panels *= 2
        refined = composite_gl(f, a, b, panels)
        err = abs(refined - value)
        value = refined
        if err <= rel_tol * max(1.0, abs(value)):
            return value, err, panels
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={rel_tol:g} within "
        f"{max_nodes} nodes (achieved {err:g})",
        error_estimate=err,
    )

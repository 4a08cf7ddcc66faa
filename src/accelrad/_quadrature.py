"""Quadrature rules shared by the special functions and the amplitude oracle.

Both rules keep one refinement contract, written once in ``_refine``: the
node count doubles until two successive estimates agree to :data:`REL_TOL`
relative, and no rule above :data:`MAX_PERIODIC_NODES` nodes is evaluated;
a start with no room for one doubling raises before any node is evaluated.

* ``periodic_trapezoid`` -- the N-node trapezoid rule over one full period,
  for analytic periodic integrands.  Its error is the aliasing tail (the
  integrand's Fourier coefficients at multiples of N), which decays
  exponentially once N exceeds the integrand's bandwidth, so the caller
  sets the node count from that bandwidth and one doubling confirms it.
  The N-node rule is the even half of the 2N-node rule, so one integrand
  call on the 2N-node grid yields both (it holds 2N values at once).
* ``composite_gl`` / ``refine_to_tolerance`` -- composite Gauss-Legendre
  panels with panel doubling, behind ``specfun.rational_period_integral``.
  Library API only: no command reaches them.  Each call builds its panel
  rule afresh.
"""

import math

from ._lazy import np
from .errors import ConvergenceError

_GL_ORDER = 8

#: Relative agreement two successive estimates must reach.
REL_TOL = 1e-10
#: Most nodes either rule may use; it raises rather than go past.
MAX_PERIODIC_NODES = 2**20


def _refine(estimate, nodes: int):
    """``(value, error_estimate, nodes_used)`` of ``estimate(count)``, with
    ``count`` doubling from ``nodes`` under the module's contract."""
    count = nodes
    err = math.inf
    if 2 * count <= MAX_PERIODIC_NODES:
        value = estimate(count)
        while 2 * count <= MAX_PERIODIC_NODES:
            count *= 2
            refined = estimate(count)
            err = abs(refined - value)
            value = refined
            if err <= REL_TOL * max(1.0, abs(value)):
                return value, err, count
    raise ConvergenceError(
        f"quadrature did not reach REL_TOL = {REL_TOL:g} within the node cap "
        f"MAX_PERIODIC_NODES = {MAX_PERIODIC_NODES} (started at {nodes} "
        f"nodes; error estimate {err:g})",
        error_estimate=err,
    )


def periodic_trapezoid(f, nodes: int):
    """Integrate a 2 pi-periodic ``f`` over [-pi, pi) by the trapezoid rule,
    from ``nodes`` uniform nodes.  One call of ``f`` on the doubled grid
    gives both the start rule (its even nodes) and the first doubling (its
    odd nodes, the start's midpoints); each later doubling adds only the
    midpoints.  Halving a step is exact, so every node and partial sum
    has the bits that separate calls on the two grids would give.  Every
    call of ``f`` is on a full-period uniform grid, tau[j] = tau[0] +
    2 pi j / N for j < N: the 2N nodes from -pi, then the odd nodes of
    each later doubling.

    Returns ``(value, error_estimate, nodes_used)``.  ``f`` must accept an
    ndarray of abscissae and return an ndarray of the same shape.
    """
    total = midpoints = None

    def estimate(count):
        nonlocal total, midpoints
        step = 2.0 * math.pi / count
        if total is None:
            values = f(-math.pi + (step / 2) * np.arange(2 * count))
            total, midpoints = values[::2].sum(), values[1::2].sum()
        elif midpoints is not None:
            total += midpoints
            midpoints = None
        else:  # the odd nodes, the previous rule's midpoints
            total += f(-math.pi + step * np.arange(1, count, 2)).sum()
        return step * total

    return _refine(estimate, int(nodes))


def composite_gl(f, a: float, b: float, panels: int):
    """Integrate ``f`` over [a, b] with ``panels`` Gauss-Legendre panels.

    ``f`` must accept an ndarray of abscissae and return an ndarray (real or
    complex) of the same shape.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * nodes[None, :]).ravel()
    w = np.broadcast_to(half * weights, (panels, _GL_ORDER)).ravel()
    return np.sum(w * f(x))


def refine_to_tolerance(f, a: float, b: float, panels: int):
    """Integrate ``f`` over [a, b] by :func:`composite_gl`, doubling from
    ``panels`` panels.  Returns ``(value, error_estimate, panels_used)``."""
    def estimate(nodes):  # a replaced composite_gl is the one used
        return composite_gl(f, a, b, nodes // _GL_ORDER)

    value, err, nodes = _refine(estimate, max(1, int(panels)) * _GL_ORDER)
    return value, err, nodes // _GL_ORDER

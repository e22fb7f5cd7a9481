"""Gauss-Legendre quadrature: tensor-product rules with adaptive order
doubling, and composite Gauss-Legendre panels on an interval.

Eigenfunctions and metric factors handled by the package are smooth, so
Gauss-Legendre converges geometrically; doubling the per-axis order until
two successive estimates agree is both cheap and robust.  Long oscillatory
integrands (window integrals in time, Grams of high modes) use composite
panels instead: one fixed ``_PANEL_ORDER``-point rule on each of a number of
equal sub-intervals, refined by doubling the panel count.  Only the one
small rule is ever built, where a global rule of order n costs a dense
O(n^3) eigensolve.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure

_START_ORDER = 8
_MAX_ORDER = 512
_REL_TOL = 1e-10
#: points of the Gauss-Legendre rule on each panel of ``panel_rule``
_PANEL_ORDER = 32


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def axis_rule(order: int, a: float, b: float):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [a, b]."""
    x, w = _leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def panel_rule(panels: int, a: float, b: float):
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]:
    the ``_PANEL_ORDER``-point rule on each of ``panels`` equal sub-intervals."""
    x, w = _leggauss(_PANEL_ORDER)
    half = 0.5 * (b - a) / panels
    left = a + 2.0 * half * np.arange(panels)
    nodes = left[:, None] + half * (x + 1.0)
    return nodes.ravel(), np.tile(half * w, panels)


def tensor_rule(order: int, bounds):
    """Tensor-product rule on a box.

    Returns points of shape (npts, dim) and weights of shape (npts,).
    """
    axes = [axis_rule(order, a, b) for a, b in bounds]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = axes[0][1]
    for _, wi in axes[1:]:
        w = np.multiply.outer(w, wi)
    return pts, np.asarray(w).ravel()


def adaptive_tensor_integral(f, bounds):
    """Integrate ``f(points) -> values`` over a box until order doubling converges.

    ``f`` must accept an (npts, dim) array and return (npts,) values.  The
    convergence test compares successive estimates relative to the current
    magnitude, with an absolute floor tied to the sampled scale of ``f``.
    """
    dim = len(bounds)
    order = _START_ORDER
    prev = None
    while order <= _MAX_ORDER:
        if order ** dim > 20_000_000:
            raise QuadratureFailure(
                f"node budget exceeded at order {order} in dimension {dim}")
        pts, w = tensor_rule(order, bounds)
        vals = np.asarray(f(pts))
        est = np.sum(w * vals)
        if prev is not None:
            scale = float(np.max(np.abs(vals)))
            vol = float(np.prod([b - a for a, b in bounds]))
            floor = 1e-14 * max(scale * vol, 1e-300)
            if abs(est - prev) <= _REL_TOL * abs(est) + floor:
                return est
        prev = est
        order *= 2
    raise QuadratureFailure(
        f"no convergence up to Gauss-Legendre order {_MAX_ORDER}")

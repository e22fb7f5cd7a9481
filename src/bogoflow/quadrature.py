"""Composite Gauss-Legendre panels on an interval.

Long oscillatory integrands (window integrals in time, Grams of high modes)
are integrated on panels: one fixed ``_PANEL_ORDER``-point rule on each of
a number of equal sub-intervals, refined by doubling the panel count.  Only
the one small rule is ever built, where a global rule of order n costs a
dense O(n^3) eigensolve.
"""

from functools import lru_cache

import numpy as np
import numpy.polynomial.legendre  # noqa: F401  numpy defers it; load it here

#: points of the Gauss-Legendre rule on each panel of ``panel_rule``
_PANEL_ORDER = 32


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def panel_rule(panels: int, a: float, b: float):
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]:
    the ``_PANEL_ORDER``-point rule on each of ``panels`` equal sub-intervals."""
    x, w = _leggauss(_PANEL_ORDER)
    half = 0.5 * (b - a) / panels
    left = a + 2.0 * half * np.arange(panels)
    nodes = left[:, None] + half * (x + 1.0)
    return nodes.ravel(), np.tile(half * w, panels)

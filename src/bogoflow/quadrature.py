"""Gauss-Legendre rules, composite panels, and the chop of a series.

Long oscillatory integrands (the numeric window integrals in time) are
integrated on panels: one fixed ``_PANEL_ORDER``-point rule on each of a
number of equal sub-intervals, refined by doubling the panel count.  A
Galerkin pencil of polynomials up to degree P is integrated instead by one
global rule of 2P + 20 points (:func:`_leggauss`, cached per order): a
panel rule of fixed order does not integrate degree 2P exactly, and near
the ends of the interval Legendre polynomials vary too fast for it (at
P = 96 on 7 panels, the flat stiffness matrix comes out 0.4 off).

:func:`_standard_chop` decides where a Chebyshev or Legendre series has
converged; the driver tables and the Galerkin slice solver both use it.
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


def _standard_chop(coeffs: np.ndarray, tol: float) -> int:
    """Number of coefficients of a Chebyshev (or Legendre) series to keep
    for relative accuracy tol < 1, of a series that is not all zero.

    Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS 43 (2017)
    33: find where the envelope of ``|coeffs|`` flattens out (a plateau
    below about tol^(2/3), possibly of noise), then cut where a line of
    slope tol^(1/3) over the whole series touches it.  Returns
    ``len(coeffs)`` when the series is not resolved.
    """
    n = len(coeffs)
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    env = env / env[0]
    log_tol = np.log(tol)
    for j in range(2, n + 1):           # 1-based, as in the paper
        j2 = int(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - np.log(e1) / log_tol):
            plateau = j - 1
            break
    if env[plateau - 1] == 0.0:
        return plateau
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    cc = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(cc)), 1)

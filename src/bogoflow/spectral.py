"""Instantaneous eigenbases of the slice operator -lap_h + xi*R_h + m^2.

Two solver paths produce a :class:`ModeBasis` on a time slice:

* an analytic path for spatially constant diagonal metrics on boxes/tori
  (separable trigonometric/exponential modes), and
* a second-order finite-difference Sturm-Liouville solver for generic
  one-dimensional metrics with Dirichlet, Neumann, Robin or periodic
  conditions.

Modes are normalized so that the slice integral of |Phi_n|^2 against the
metric volume element equals 1/(2 omega_n).  Slice integrals (Grams) of
separable modes are exact; Grams of grid modes are the discrete inner
product sum M a b of the FD eigenproblem K Phi = omega^2 M Phi on the
modes' own grid, so FD bases are orthonormal to rounding.
"""

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.interpolate import CubicSpline

from .errors import (DegeneracyMismatch, InvalidArgument, NegativeEigenvalue,
                     ZeroMode)
from .geometry import BoundarySpec, SyncSpacetime
from .quadrature import axis_rule

_TINY_K = 1e-14


# ---------------------------------------------------------------------------
# separable mode functions


@dataclass(frozen=True)
class AxisFactor:
    kind: str   # 'sin' | 'cos' | 'exp'
    k: float    # wavenumber, signed for 'exp'

    def values(self, x):
        if self.kind == "sin":
            return np.sin(self.k * x)
        if self.kind == "cos":
            return np.cos(self.k * x)
        return np.exp(1j * self.k * x)

    def d1(self):
        """First derivative as (coefficient, AxisFactor)."""
        if self.kind == "sin":
            return self.k, AxisFactor("cos", self.k)
        if self.kind == "cos":
            return -self.k, AxisFactor("sin", self.k)
        return 1j * self.k, AxisFactor("exp", self.k)


@dataclass(frozen=True)
class SeparableFunction:
    """Product of per-axis factors with a complex amplitude."""

    amplitude: complex
    factors: Tuple[AxisFactor, ...]

    def value(self, points):
        pts = np.asarray(points, dtype=float)
        out = np.full(pts.shape[0], self.amplitude, dtype=complex)
        for ax, f in enumerate(self.factors):
            out = out * f.values(pts[:, ax])
        return out

    def d1(self, axis):
        coef, fac = self.factors[axis].d1()
        new = list(self.factors)
        new[axis] = fac
        return SeparableFunction(self.amplitude * coef, tuple(new))

    def d2(self, axis):
        k = self.factors[axis].k
        return SeparableFunction(self.amplitude * (-k * k), self.factors)

    def scaled(self, c):
        return SeparableFunction(self.amplitude * c, self.factors)


def _int_cos(k, L):
    # integral of cos(kx) over [0, L]
    return L if abs(k) < _TINY_K else np.sin(k * L) / k


def _int_sin(k, L):
    # integral of sin(kx) over [0, L]
    return 0.0 if abs(k) < _TINY_K else (1.0 - np.cos(k * L)) / k


def _axis_pair(fa: AxisFactor, fb: AxisFactor, L: float, conj_b: bool):
    """Exact integral over [0, L] of fa(x) * fb(x) (fb conjugated on demand)."""
    if fa.kind == "exp" or fb.kind == "exp":
        if fa.kind != "exp" or fb.kind != "exp":
            raise InvalidArgument("mixed exp/trig factors on one axis")
        k = fa.k - fb.k if conj_b else fa.k + fb.k
        if abs(k) < _TINY_K:
            return complex(L)
        return (np.exp(1j * k * L) - 1.0) / (1j * k)
    ka, kb = fa.k, fb.k
    pair = (fa.kind, fb.kind)
    if pair == ("sin", "sin"):
        return 0.5 * (_int_cos(ka - kb, L) - _int_cos(ka + kb, L))
    if pair == ("cos", "cos"):
        return 0.5 * (_int_cos(ka - kb, L) + _int_cos(ka + kb, L))
    if pair == ("sin", "cos"):
        return 0.5 * (_int_sin(ka + kb, L) + _int_sin(ka - kb, L))
    # cos * sin: swap roles
    return 0.5 * (_int_sin(ka + kb, L) - _int_sin(ka - kb, L))


# ---------------------------------------------------------------------------
# mode objects


@dataclass(frozen=True)
class SeparableMode:
    """Mode given by a short linear combination of separable functions."""

    label: tuple
    terms: Tuple[Tuple[complex, SeparableFunction], ...]
    wavenumbers: Optional[Tuple[float, ...]] = None  # set for pure product modes

    def value(self, points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[0], dtype=complex)
        for c, f in self.terms:
            out += c * f.value(pts)
        return out

    __call__ = value

    def scaled(self, c):
        return replace(self, terms=tuple((tc * c, f) for tc, f in self.terms))

    def d2_terms(self, axis):
        return tuple((c, f.d2(axis)) for c, f in self.terms)


def combine_separable(label, coef_modes) -> SeparableMode:
    """Linear combination of separable modes as a new mode."""
    terms = []
    for c, mode in coef_modes:
        terms.extend((c * tc, f) for tc, f in mode.terms)
    return SeparableMode(label, tuple(terms))


@dataclass(frozen=True)
class GridMode:
    """1D eigenfunction sampled on a uniform FD grid.

    Grams read the grid values directly; ``value`` interpolates them by
    cubic spline for evaluation at arbitrary points.
    """

    label: tuple
    x: np.ndarray
    values: np.ndarray
    periodic: bool = False

    def _spline(self):
        if self.periodic:
            xs = np.append(self.x, self.x[0] + (self.x[1] - self.x[0]) * len(self.x))
            vs = np.append(self.values, self.values[0])
            return CubicSpline(xs, vs, bc_type="periodic")
        return CubicSpline(self.x, self.values)

    def value(self, points):
        pts = np.asarray(points, dtype=float)
        xq = pts[:, 0] if pts.ndim == 2 else pts
        return self._spline()(xq)

    __call__ = value

    def scaled(self, c):
        return replace(self, values=self.values * c)


# ---------------------------------------------------------------------------
# slice integrals


class SliceContext:
    """Mode pair integrals on one slice.

    Separable modes integrate exactly, or by Gauss-Legendre quadrature
    under a callable weight (1D); grid modes use the FD mass matrix M of
    their own grid.
    """

    def __init__(self, spacetime: SyncSpacetime, t: float):
        self.spacetime = spacetime
        self.t = t

    def sqrt_det(self) -> float:
        st = self.spacetime
        if st.diag_scales is not None:
            return float(np.sqrt(np.prod(np.asarray(st.diag_scales(self.t)))))
        raise InvalidArgument("constant sqrt(det h) only defined for diagonal metrics")

    def gram(self, modes_a, modes_b, conj=True, weight=None):
        """Matrix of integrals dV * A_n * (B_m or B_m*) * weight.

        ``weight`` may be None, a scalar, or a callable of points.  A Gram
        of grid modes is sum_p W_p A_n(x_p) B_m(x_p) with W = M * weight;
        grid and separable modes cannot share one Gram.
        """
        st = self.spacetime
        modes = list(modes_a) + list(modes_b)
        n_grid = sum(isinstance(m, GridMode) for m in modes)
        if n_grid:
            if n_grid != len(modes):
                raise InvalidArgument(
                    "a Gram cannot mix grid and separable modes")
            return self._gram_fd(modes_a, modes_b, conj, weight)
        if st.diag_scales is not None and (weight is None or np.isscalar(weight)):
            return self._gram_separable(modes_a, modes_b, conj,
                                        1.0 if weight is None else complex(weight))
        if st.dim != 1:
            raise InvalidArgument(
                "generic pair integrals are only implemented in 1D")
        return self._gram_quadrature(modes_a, modes_b, conj, weight)

    def _gram_separable(self, modes_a, modes_b, conj, weight):
        L = self.spacetime.domain.lengths
        root_h = self.sqrt_det()
        out = np.zeros((len(modes_a), len(modes_b)), dtype=complex)
        for i, ma in enumerate(modes_a):
            for j, mb in enumerate(modes_b):
                acc = 0.0 + 0.0j
                for ca, fa in ma.terms:
                    for cb, fb in mb.terms:
                        amp = fa.amplitude * (np.conj(fb.amplitude) if conj
                                              else fb.amplitude)
                        cc = ca * (np.conj(cb) if conj else cb)
                        prod = amp * cc
                        for ax in range(len(L)):
                            prod *= _axis_pair(fa.factors[ax], fb.factors[ax],
                                               L[ax], conj)
                            if prod == 0:
                                break
                        acc += prod
                out[i, j] = acc
        return out * root_h * weight

    def _gram_quadrature(self, modes_a, modes_b, conj, weight):
        L = self.spacetime.domain.lengths[0]
        kmax = max((abs(f.factors[0].k) for m in list(modes_a) + list(modes_b)
                    for _, f in m.terms), default=0.0)
        order = int(min(2048, max(64, 1.5 * kmax * L / np.pi + 32)))
        x, w = axis_rule(order, 0.0, L)
        pts = x[:, None]
        va = np.array([m.value(pts) for m in modes_a])
        vb = np.array([m.value(pts) for m in modes_b])
        return self._weighted_products(va, vb, w, pts, conj, weight)

    def _gram_fd(self, modes_a, modes_b, conj, weight):
        x, periodic = modes_a[0].x, modes_a[0].periodic
        for m in list(modes_a) + list(modes_b):
            if m.periodic != periodic or not np.array_equal(m.x, x):
                raise InvalidArgument("grid modes live on different grids")
        va = np.array([m.values for m in modes_a])
        vb = np.array([m.values for m in modes_b])
        lump = _trapezoid_lump(len(x), x[1] - x[0], periodic)
        return self._weighted_products(va, vb, lump, x[:, None], conj, weight)

    def _weighted_products(self, va, vb, w, pts, conj, weight):
        """sum_p w_p sqrt(det h)(x_p) weight(x_p) va[i, p] (vb[j, p] or conj)."""
        wfull = w * self.spacetime.sqrt_det_h(self.t, pts)
        if weight is not None:
            wfull = wfull * (weight(pts) if callable(weight) else weight)
        return (va * wfull) @ (np.conj(vb) if conj else vb).T


# ---------------------------------------------------------------------------
# mode basis


@dataclass(frozen=True)
class ModeBasis:
    """Truncated instantaneous eigenbasis on one slice.

    Modes are stored in label order; at standalone construction that order
    is ascending in frequency, and :func:`align_basis` preserves it across
    slices so degeneracy crossings never permute columns.
    """

    t: float
    omegas: np.ndarray
    modes: tuple
    labels: tuple
    spacetime: SyncSpacetime

    def __post_init__(self):
        if len(self.modes) != len(self.labels) or len(self.modes) != len(self.omegas):
            raise InvalidArgument("omegas, modes and labels must align")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def context(self) -> SliceContext:
        return SliceContext(self.spacetime, self.t)

    def gram(self, conj=True, weight=None):
        return self.context.gram(self.modes, self.modes, conj=conj, weight=weight)


# ---------------------------------------------------------------------------
# operator description


@dataclass(frozen=True)
class OperatorSpec:
    """Slice operator description: metric Laplacian + xi*R_h + m^2 (+ shift).

    ``mass_shift_sq`` implements zero-mode regularization (m^2 -> m^2 + dm^2).
    ``fd_points`` sets the grid resolution of the finite-difference path.
    """

    boundary: BoundarySpec = field(default_factory=BoundarySpec)
    mass_shift_sq: float = 0.0
    fd_points: int = 1024
    zero_tol: float = 1e-12

    def potential(self, st: SyncSpacetime, t: float, pts) -> np.ndarray:
        base = st.coupling * st.curvature_at(t, pts) + st.mass ** 2
        return np.asarray(base, dtype=float) + self.mass_shift_sq


def regularize_zero_mode(op: OperatorSpec, dm: float) -> OperatorSpec:
    """Shift m^2 by dm^2; the dm -> 0 extrapolation is the caller's concern."""
    if not dm > 0:
        raise InvalidArgument("mass regularization dm must be positive")
    return replace(op, mass_shift_sq=op.mass_shift_sq + dm * dm)


def apply_operator(op: OperatorSpec, st: SyncSpacetime, t: float,
                   mode: SeparableMode) -> SeparableMode:
    """Exact action of the slice operator on a separable mode (diagonal metric)."""
    if st.diag_scales is None:
        raise InvalidArgument("exact operator action requires a diagonal metric")
    scales = np.asarray(st.diag_scales(t), dtype=float)
    terms = []
    for ax in range(st.dim):
        terms.extend((-c / scales[ax], f)
                     for c, f in mode.d2_terms(ax))
    pot = float(op.potential(st, t, np.zeros((1, st.dim)))[0])
    terms.extend((c * pot, f) for c, f in mode.terms)
    return SeparableMode(mode.label, tuple(terms))


# ---------------------------------------------------------------------------
# analytic separable eigenbasis


def _axis_spectrum(kind: str, L: float, count: int):
    """First ``count`` axis factors with ascending k^2 for one axis."""
    if kind == "periodic":
        js = [0] + [sj for j in range(1, count + 1) for sj in (j, -j)]
    else:
        js = range(1 if kind == "dirichlet" else 0, count + 1)
    return [(j, _label_factor(kind, L, j)) for j in js]


def _axis_kinds(op: OperatorSpec, st: SyncSpacetime):
    return ["periodic" if p else op.boundary.kind for p in st.domain.periodic]


def _label_factor(kind: str, L: float, j: int) -> AxisFactor:
    if kind == "periodic":
        return AxisFactor("exp", 2.0 * np.pi * j / L)
    if kind == "dirichlet":
        if j < 1:
            raise InvalidArgument("dirichlet axis indices start at 1")
        return AxisFactor("sin", np.pi * j / L)
    if kind == "neumann":
        if j < 0:
            raise InvalidArgument("neumann axis indices start at 0")
        return AxisFactor("cos", np.pi * j / L)
    raise InvalidArgument(f"no analytic family for boundary {kind!r}")


def separable_basis(op: OperatorSpec, st: SyncSpacetime, t: float,
                    labels) -> ModeBasis:
    """Exact separable eigenbasis for an explicit label set (diagonal metric)."""
    scales = np.asarray(st.diag_scales(t), dtype=float)
    if np.any(scales <= 0):
        raise InvalidArgument("metric scales must be positive")
    pot = float(op.potential(st, t, st.domain.sample_points(1))[0])
    kinds = _axis_kinds(op, st)
    root_h = float(np.sqrt(np.prod(scales)))

    w2s = []
    factor_sets = []
    for label in labels:
        factors = tuple(_label_factor(kinds[ax], st.domain.lengths[ax], j)
                        for ax, j in enumerate(label))
        w2s.append(sum(f.k ** 2 / scales[ax] for ax, f in enumerate(factors))
                   + pot)
        factor_sets.append(factors)

    scale_w2 = max(max(abs(v) for v in w2s), 1.0)
    omegas, modes = [], []
    for label, w2, factors in zip(labels, w2s, factor_sets):
        if w2 < -op.zero_tol * scale_w2:
            raise NegativeEigenvalue(f"omega^2 = {w2:.3e} for mode {label}")
        if abs(w2) <= op.zero_tol * scale_w2:
            raise ZeroMode(
                f"mode {label} has omega^2 = {w2:.3e}; consider a mass shift")
        omega = np.sqrt(w2)
        norm = root_h
        for ax, f in enumerate(factors):
            norm *= np.real(_axis_pair(f, f, st.domain.lengths[ax], True))
        amp = 1.0 / np.sqrt(2.0 * omega * norm)
        modes.append(SeparableMode(tuple(label),
                                   ((1.0 + 0.0j, SeparableFunction(amp, factors)),),
                                   wavenumbers=tuple(f.k for f in factors)))
        omegas.append(omega)
    return ModeBasis(t=t, omegas=np.array(omegas), modes=tuple(modes),
                     labels=tuple(tuple(l) for l in labels), spacetime=st)


def _analytic_basis(op: OperatorSpec, st: SyncSpacetime, t: float,
                    n_modes: int) -> ModeBasis:
    scales = np.asarray(st.diag_scales(t), dtype=float)
    if np.any(scales <= 0):
        raise InvalidArgument("metric scales must be positive")
    pot = float(op.potential(st, t, st.domain.sample_points(1))[0])
    kinds = _axis_kinds(op, st)

    count = max(2, int(np.ceil(n_modes ** (1.0 / st.dim))) + 1)
    while True:
        axes = [_axis_spectrum(kinds[ax], st.domain.lengths[ax], count)
                for ax in range(st.dim)]
        cands = []
        for combo in itertools.product(*axes):
            label = tuple(c[0] for c in combo)
            ksq = sum(c[1].k ** 2 / scales[ax] for ax, c in enumerate(combo))
            cands.append((ksq + pot, label))
        cands.sort(key=lambda c: (c[0], c[1]))
        # every unseen mode has k^2/s above the per-axis cutoff, so the
        # lowest n_modes are certainly inside once enough candidates exist
        per_axis_min_excluded = min(
            axes[ax][-1][1].k ** 2 / scales[ax] for ax in range(st.dim))
        if len(cands) >= n_modes and (
                cands[n_modes - 1][0] <= per_axis_min_excluded + pot):
            break
        count *= 2

    return separable_basis(op, st, t, [c[1] for c in cands[:n_modes]])


# ---------------------------------------------------------------------------
# 1D finite-difference eigenbasis


def _trapezoid_lump(n: int, dx: float, periodic: bool) -> np.ndarray:
    """Trapezoid weights of ``n`` uniform nodes ``dx`` apart covering a slice:
    dx everywhere on a torus, dx/2 at the two ends of an interval.  Times
    sqrt(h_xx) they are the diagonal FD mass matrix M."""
    lump = np.full(n, dx)
    if not periodic:
        lump[0] = lump[-1] = 0.5 * dx
    return lump


def fd_operator_1d(op: OperatorSpec, st: SyncSpacetime, t: float):
    """Assemble the self-adjoint FD eigenproblem on a uniform 1D grid.

    Returns (x_nodes, K, mass) with K Phi = omega^2 diag(mass) Phi; K comes
    from the flux form -d/dx(p dPhi/dx) with p = 1/sqrt(h_xx), plus w*V with
    weight w = sqrt(h_xx), and mass = w * lump (:func:`_trapezoid_lump`).
    Dirichlet grids keep the interior nodes only.  Robin conditions add
    exactly gamma at boundary diagonal entries (p * sqrt(h) = 1).
    """
    L = st.domain.lengths[0]
    periodic = st.domain.periodic[0]
    M = op.fd_points
    dx = L / M

    mids = (np.arange(M) + 0.5) * dx        # all M cell midpoints on [0, L]
    p = 1.0 / st.sqrt_det_h(t, mids[:, None])
    x = np.arange(M if periodic else M + 1) * dx
    lump = _trapezoid_lump(len(x), dx, periodic)

    if periodic:
        w = st.sqrt_det_h(t, x[:, None])
        V = op.potential(st, t, x[:, None])
        main = (p + np.roll(p, 1)) / dx + w * V * lump
        rows = np.arange(M)
        cols = (rows + 1) % M
        link = scipy.sparse.coo_matrix((-p / dx, (rows, cols)), shape=(M, M))
        K = (scipy.sparse.diags(main) + link + link.T).tocsr()
        return x, K, w * lump

    if op.boundary.kind == "dirichlet":
        x, lump = x[1:-1], lump[1:-1]
        main = (p[:-1] + p[1:]) / dx        # node j+1 sees p_j and p_{j+1}
        off = -p[1:-1] / dx
    else:
        main = np.zeros(len(x))
        main[:-1] += p / dx
        main[1:] += p / dx
        off = -p / dx

    w = st.sqrt_det_h(t, x[:, None])
    V = op.potential(st, t, x[:, None])
    main = main + w * V * lump
    if op.boundary.kind == "robin":
        main[0] += op.boundary.gamma_at(np.array([0.0]))
        main[-1] += op.boundary.gamma_at(np.array([L]))
    K = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr")
    return x, K, w * lump


def _fd_basis(op: OperatorSpec, st: SyncSpacetime, t: float,
              n_modes: int) -> ModeBasis:
    x, K, mass = fd_operator_1d(op, st, t)
    periodic = st.domain.periodic[0]
    rootm = np.sqrt(mass)
    n = len(x)
    if n_modes > n - 1:
        raise InvalidArgument("requested more modes than grid resolves")

    if periodic:
        D = scipy.sparse.diags(1.0 / rootm)
        T = (D @ K @ D).tocsc()
        vmin = float(np.min(op.potential(st, t, x[:, None])))
        sigma = min(0.0, vmin) - max(1e-8, 1e-3 * max(abs(vmin), 1.0))
        vals, vecs = scipy.sparse.linalg.eigsh(T, k=n_modes, sigma=sigma,
                                               which="LM")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        D = 1.0 / rootm
        main = K.diagonal() * D * D
        sub = K.diagonal(-1) * D[:-1] * D[1:]
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            main, sub, select="i", select_range=(0, n_modes - 1))

    scale = max(abs(vals[-1]), 1.0)
    if vals[0] < -op.zero_tol * scale:
        raise NegativeEigenvalue(f"omega^2 = {vals[0]:.3e}")
    if abs(vals[0]) <= op.zero_tol * scale:
        raise ZeroMode(f"omega^2 = {vals[0]:.3e}; consider a mass shift")

    omegas = np.sqrt(vals)
    # sum mass |phi|^2 = 1 -> rescale to 1/(2w); Dirichlet modes carry
    # their zero end nodes so every mode lives on the whole grid
    phis = vecs / rootm[:, None] / np.sqrt(2.0 * omegas)
    if op.boundary.kind == "dirichlet":
        x = np.concatenate(([0.0], x, [st.domain.lengths[0]]))
        phis = np.pad(phis, ((1, 1), (0, 0)))
    modes, labels = [], []
    for i in range(n_modes):
        phi = phis[:, i]
        jmax = int(np.argmax(np.abs(phi)))
        if phi[jmax] < 0:
            phi = -phi
        label = (i,)
        modes.append(GridMode(label, x, phi.astype(complex), periodic=periodic))
        labels.append(label)
    return ModeBasis(t=t, omegas=omegas, modes=tuple(modes),
                     labels=tuple(labels), spacetime=st)


def instantaneous_basis(op: OperatorSpec, st: SyncSpacetime, t: float,
                        n_modes: int) -> ModeBasis:
    """Lowest ``n_modes`` eigenpairs of the slice operator at time ``t``."""
    if n_modes < 1:
        raise InvalidArgument("n_modes must be at least 1")
    analytic_ok = (st.diag_scales is not None
                   and op.boundary.kind in ("none", "dirichlet", "neumann"))
    if analytic_ok:
        return _analytic_basis(op, st, t, n_modes)
    if st.dim == 1:
        return _fd_basis(op, st, t, n_modes)
    raise InvalidArgument(
        "no solver: analytic families cover diagonal metrics, FD covers 1D")


# ---------------------------------------------------------------------------
# alignment across slices


def _clusters(omegas, rel_tol=1e-8):
    """Indices grouped into degenerate clusters of omega^2."""
    order = np.argsort(omegas)
    scale = max(float(np.max(omegas ** 2)), 1e-300)
    groups, current = [], [order[0]]
    for prev, idx in zip(order[:-1], order[1:]):
        if abs(omegas[idx] ** 2 - omegas[prev] ** 2) <= rel_tol * scale:
            current.append(idx)
        else:
            groups.append(current)
            current = [idx]
    groups.append(current)
    return groups


def _combine(label, coef_modes):
    first = coef_modes[0][1]
    if isinstance(first, SeparableMode):
        return combine_separable(label, coef_modes)
    vals = sum(c * m.values for c, m in coef_modes)
    return replace(first, label=label, values=vals)


def align_basis(prev: ModeBasis, next_basis: ModeBasis,
                degeneracy_rtol: float = 1e-8) -> ModeBasis:
    """Fix phases/rotations of ``next_basis`` against ``prev`` and match label order.

    Within each degenerate eigenspace the previous modes are projected onto
    the new eigenspace and re-orthogonalized in label order; single modes
    only receive a global phase maximizing the real overlap.  Both read
    one overlap Gram of all previous against all new modes.
    """
    if set(prev.labels) != set(next_basis.labels):
        raise DegeneracyMismatch("label sets differ between slices")

    ctx = next_basis.context
    overlaps = ctx.gram(prev.modes, next_basis.modes, conj=True)
    groups_prev = _clusters(prev.omegas, degeneracy_rtol)
    groups_next = _clusters(next_basis.omegas, degeneracy_rtol)
    next_group_by_label = {}
    for g in groups_next:
        labset = frozenset(next_basis.labels[i] for i in g)
        for i in g:
            next_group_by_label[next_basis.labels[i]] = (labset, tuple(g))

    aligned = {}
    for g in groups_prev:
        prev_labels = [prev.labels[i] for i in g]
        labset, next_idx = next_group_by_label[prev_labels[0]]
        if frozenset(prev_labels) != labset or len(next_idx) != len(g):
            raise DegeneracyMismatch(
                f"eigenspace dimensions changed around labels {prev_labels}")
        next_modes = [next_basis.modes[i] for i in next_idx]
        omega = float(next_basis.omegas[next_idx[0]])
        if len(g) == 1:
            z = overlaps[g[0], next_idx[0]]
            phase = 1.0 if abs(z) == 0 else z / abs(z)
            aligned[prev_labels[0]] = (next_modes[0].scaled(phase), omega)
        else:
            # project previous modes on the new eigenspace, then Gram-Schmidt
            # in label order; inner products in L2(dV) of the new slice
            overlap = overlaps[np.ix_(g, next_idx)]
            gram_next = ctx.gram(next_modes, next_modes, conj=True)
            coefs = np.linalg.solve(gram_next.T, overlap.T).T  # rows: targets
            new_modes = []
            for r, lab in enumerate(prev_labels):
                vec = coefs[r].astype(complex)
                cand = _combine(lab, list(zip(vec, next_modes)))
                for done in new_modes:
                    ip = ctx.gram([cand], [done], conj=True)[0, 0]
                    nrm = ctx.gram([done], [done], conj=True)[0, 0]
                    cand = _combine(lab, [(1.0, cand), (-ip / nrm, done)])
                nrm = ctx.gram([cand], [cand], conj=True)[0, 0].real
                if nrm <= 0:
                    raise DegeneracyMismatch(
                        f"projection collapsed for label {lab}")
                cand = cand.scaled(1.0 / np.sqrt(2.0 * omega * nrm))
                new_modes.append(cand)
            for lab, m in zip(prev_labels, new_modes):
                aligned[lab] = (m, omega)

    modes, omegas = [], []
    for lab in prev.labels:
        m, om = aligned[lab]
        modes.append(m)
        omegas.append(om)
    return ModeBasis(t=next_basis.t, omegas=np.array(omegas),
                     modes=tuple(modes), labels=prev.labels,
                     spacetime=next_basis.spacetime)


def orthonormality_residual(basis: ModeBasis) -> float:
    """Klein-Gordon orthonormality residual of the slice initial data.

    max over (n, m) of |(w_n + w_m) int dV Phi_n Phi_m* - delta_nm| and
    |(w_n - w_m) int dV Phi_n Phi_m|.
    """
    w = basis.omegas
    g_conj = basis.gram(conj=True)
    g_plain = basis.gram(conj=False)
    sum_w = w[:, None] + w[None, :]
    diff_w = w[:, None] - w[None, :]
    res1 = np.abs(sum_w * g_conj - np.eye(basis.n_modes))
    res2 = np.abs(diff_w * g_plain)
    return float(max(res1.max(), res2.max()))

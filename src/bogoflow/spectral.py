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

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .errors import (DegeneracyMismatch, InvalidArgument, NegativeEigenvalue,
                     ZeroMode)
from .geometry import BoundarySpec, SyncSpacetime, q_factor, time_step
from .quadrature import panel_rule

_TINY_K = 1e-14
#: omega^2 within this fraction of the largest |omega^2| counts as a zero mode.
_ZERO_TOL = 1e-12
#: Relative omega^2 spread within which modes count as one degenerate cluster.
_DEGENERACY_RTOL = 1e-8
#: |phi| within this fraction of a mode's maximum ties for the sign node.
_SIGN_TIE_RTOL = 1e-6


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
    # integral of cos(kx) over [0, L], for an array of k
    flat = np.abs(k) < _TINY_K
    k = np.where(flat, 1.0, k)
    return np.where(flat, L, np.sin(k * L) / k)


def _int_sin(k, L):
    # integral of sin(kx) over [0, L], for an array of k
    flat = np.abs(k) < _TINY_K
    k = np.where(flat, 1.0, k)
    return np.where(flat, 0.0, (1.0 - np.cos(k * L)) / k)


def _axis_table(factors_a, factors_b, L: float, conj_b: bool) -> np.ndarray:
    """Exact integrals over [0, L] of fa(x) * fb(x) (fb conjugated on
    demand), for fa in ``factors_a`` (rows) and fb in ``factors_b``."""
    ka = np.array([f.k for f in factors_a], dtype=float)
    kb = np.array([f.k for f in factors_b], dtype=float)
    exp_a = np.array([f.kind == "exp" for f in factors_a], dtype=bool)
    exp_b = np.array([f.kind == "exp" for f in factors_b], dtype=bool)
    diff, total = np.subtract.outer(ka, kb), np.add.outer(ka, kb)
    if exp_a.any() or exp_b.any():
        if not (exp_a.all() and exp_b.all()):
            raise InvalidArgument("mixed exp/trig factors on one axis")
        k = diff if conj_b else total
        flat = np.abs(k) < _TINY_K
        k = np.where(flat, 1.0, k)
        return np.where(flat, L, (np.exp(1j * k * L) - 1.0) / (1j * k))
    cos_diff, cos_total = _int_cos(diff, L), _int_cos(total, L)
    sin_diff, sin_total = _int_sin(diff, L), _int_sin(total, L)
    sin_a = np.array([f.kind == "sin" for f in factors_a], dtype=bool)[:, None]
    sin_b = np.array([f.kind == "sin" for f in factors_b], dtype=bool)[None, :]
    return np.select([sin_a & sin_b, ~sin_a & ~sin_b, sin_a],
                     [0.5 * (cos_diff - cos_total), 0.5 * (cos_diff + cos_total),
                      0.5 * (sin_total + sin_diff)],
                     0.5 * (sin_total - sin_diff))     # cos * sin


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
    """1D eigenfunction sampled on the nodes of a uniform FD grid."""

    label: tuple
    x: np.ndarray
    values: np.ndarray
    periodic: bool = False

    def scaled(self, c):
        return GridMode(self.label, self.x, self.values * c, self.periodic)


# ---------------------------------------------------------------------------
# slice integrals


def _term_rows(modes):
    """Terms of ``modes`` in mode order: coefficients, amplitudes, the
    index of each term's mode, and each term's axis factors."""
    terms = [(i, c, f) for i, m in enumerate(modes) for c, f in m.terms]
    coef = np.array([c for _, c, _ in terms], dtype=complex)
    amp = np.array([f.amplitude for _, _, f in terms], dtype=complex)
    owner = np.array([i for i, _, _ in terms], dtype=int)
    return coef, amp, owner, [f.factors for _, _, f in terms]


def _distinct(factors, ax):
    """Distinct axis-``ax`` factors and each term's index into them."""
    index = {}
    ids = [index.setdefault(f[ax], len(index)) for f in factors]
    return list(index), np.array(ids, dtype=int)


class SliceContext:
    """Mode pair integrals on one slice.

    Separable modes integrate exactly, or on composite Gauss-Legendre panels
    under a callable weight (1D); grid modes use the FD mass matrix M of
    their own grid.  The context keeps M, and M times each callable weight
    it was given, for the last grid it integrated on, so every Gram on that
    grid evaluates the metric and the weight once.
    """

    def __init__(self, spacetime: SyncSpacetime, t: float):
        self.spacetime = spacetime
        self.t = t
        # (x, periodic, M, {id(weight): (weight, M * weight(x))}) of the
        # last grid
        self._grid_cache = None

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
            return self._gram_fd(modes_a, modes_b, modes, conj, weight)
        if st.diag_scales is not None and (weight is None or np.isscalar(weight)):
            return self._gram_separable(modes_a, modes_b, conj,
                                        1.0 if weight is None else complex(weight))
        if st.dim != 1:
            raise InvalidArgument(
                "generic pair integrals are only implemented in 1D")
        return self._gram_quadrature(modes_a, modes_b, conj, weight)

    def _gram_separable(self, modes_a, modes_b, conj, weight):
        """Sum over term pairs of amplitudes times per-axis factor integrals.

        Each axis' integrals come from one table over the distinct factor
        pairs on that axis.  Every term product is formed, and added into
        its mode pair, in the order of a nested loop over modes, terms and
        axes, so an entry does not depend on the other modes in the Gram.
        """
        L = self.spacetime.domain.lengths
        na, nb = len(modes_a), len(modes_b)
        coef_a, amp_a, owner_a, factors_a = _term_rows(modes_a)
        coef_b, amp_b, owner_b, factors_b = _term_rows(modes_b)
        if conj:
            coef_b, amp_b = np.conj(coef_b), np.conj(amp_b)
        prod = np.multiply.outer(amp_a, amp_b) * np.multiply.outer(coef_a, coef_b)
        for ax in range(len(L)):
            ua, ia = _distinct(factors_a, ax)
            ub, ib = _distinct(factors_b, ax)
            prod = prod * _axis_table(ua, ub, L[ax], conj)[np.ix_(ia, ib)]
        pair = np.add.outer(owner_a * nb, owner_b).ravel()
        out = np.empty(na * nb, dtype=complex)
        out.real = np.bincount(pair, prod.real.ravel(), na * nb)
        out.imag = np.bincount(pair, prod.imag.ravel(), na * nb)
        return out.reshape(na, nb) * self.sqrt_det() * weight

    def _gram_quadrature(self, modes_a, modes_b, conj, weight):
        L = self.spacetime.domain.lengths[0]
        kmax = max((abs(f.factors[0].k) for m in list(modes_a) + list(modes_b)
                    for _, f in m.terms), default=0.0)
        # a pair product oscillates up to e^{2i kmax x}: kmax*h radians over
        # a panel's half-width h/2.  The 32-point rule integrates e^{i w u}
        # on [-1, 1] to rounding up to w = 28 (5e-14 at 32, 8e-9 at 40), so
        # panels keep kmax*h <= 24, with room for the weight's own variation
        panels = int(min(64, max(2, np.ceil(kmax * L / 24.0))))
        x, w = panel_rule(panels, 0.0, L)
        pts = x[:, None]
        va = np.array([m.value(pts) for m in modes_a])
        vb = np.array([m.value(pts) for m in modes_b])
        w = w * self.spacetime.sqrt_det_h(self.t, pts)
        if weight is not None:
            w = w * (weight(pts) if callable(weight) else weight)
        return (va * w) @ (np.conj(vb) if conj else vb).T

    def _grid_weights(self, modes):
        """(x, periodic, M, weighted) of the one grid all ``modes`` live on.
        Each distinct grid array among them is compared once, and the
        cached M is reused when its grid is one of them or equal."""
        x, periodic = modes[0].x, modes[0].periodic
        grids = {id(m.x): m.x for m in modes}
        if any(m.periodic != periodic for m in modes) or not all(
                g is x or np.array_equal(g, x) for g in grids.values()):
            raise InvalidArgument("grid modes live on different grids")
        grid = self._grid_cache
        if grid is None or grid[1] != periodic or not (
                id(grid[0]) in grids or np.array_equal(grid[0], x)):
            lump = _trapezoid_lump(len(x), x[1] - x[0], periodic)
            mass = lump * self.spacetime.sqrt_det_h(self.t, x[:, None])
            grid = self._grid_cache = (x, periodic, mass, {})
        return grid

    def _gram_fd(self, modes_a, modes_b, modes, conj, weight):
        x, _, w, weighted = self._grid_weights(modes)
        if callable(weight):
            # keyed by id; holding the weight keeps its id from being reused
            if id(weight) not in weighted:
                weighted[id(weight)] = (weight, w * weight(x[:, None]))
            w = weighted[id(weight)][1]
        elif weight is not None:
            w = w * weight
        va = np.array([m.values for m in modes_a])
        vb = np.array([m.values for m in modes_b])
        return (va * w) @ (np.conj(vb) if conj else vb).T


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

    @functools.cached_property
    def context(self) -> SliceContext:
        """The slice's :class:`SliceContext`, one per basis, so its Grams
        share the cached weights."""
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

    # sqrt(det h) times the squared norms of each mode's factors, one table
    # per axis
    norms = np.full(len(factor_sets), root_h)
    for ax, L in enumerate(st.domain.lengths):
        distinct, ids = _distinct(factor_sets, ax)
        squares = np.real(np.diagonal(_axis_table(distinct, distinct, L, True)))
        norms = norms * squares[ids]

    scale_w2 = max(max(abs(v) for v in w2s), 1.0)
    omegas, modes = [], []
    for label, w2, factors, norm in zip(labels, w2s, factor_sets, norms):
        if w2 < -_ZERO_TOL * scale_w2:
            raise NegativeEigenvalue(f"omega^2 = {w2:.3e} for mode {label}")
        if abs(w2) <= _ZERO_TOL * scale_w2:
            raise ZeroMode(
                f"mode {label} has omega^2 = {w2:.3e}; consider a mass shift")
        omega = np.sqrt(w2)
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

    Returns (x_nodes, main, off, mass) with K Phi = omega^2 diag(mass) Phi
    for the symmetric tridiagonal K with diagonal ``main`` and
    K[j, j+1] = off[j]; on a torus ``off`` has one more entry, off[-1],
    which couples the last node to node 0.  K comes from the flux form
    -d/dx(p dPhi/dx) with p = 1/sqrt(h_xx), plus w*V with weight
    w = sqrt(h_xx), and mass = w * lump (:func:`_trapezoid_lump`).
    Dirichlet grids keep the interior nodes only.  Robin conditions add
    exactly gamma at boundary diagonal entries (p * sqrt(h) = 1).
    """
    return _fd_bands(op, st, t, rate=False)


def _fd_bands(op: OperatorSpec, st: SyncSpacetime, t: float, rate: bool):
    """:func:`fd_operator_1d`, or with ``rate`` the t-derivatives
    (x_nodes, main', off', mass') of its bands.  K is linear in p and in
    w*V, so K' is the same assembly with p' = -q p and (w V)' = q w V + w V',
    where q = h_xx'/(2 h_xx) (:func:`geometry.q_factor`) and V' is a central
    difference, taken only when V moves with the curvature.  The Robin
    gamma is constant and drops out of K'."""
    L = st.domain.lengths[0]
    periodic = st.domain.periodic[0]
    M = op.fd_points
    dx = L / M

    mids = (np.arange(M) + 0.5) * dx        # all M cell midpoints on [0, L]
    p = 1.0 / st.sqrt_det_h(t, mids[:, None])
    if rate:
        p = -q_factor(st, t, mids[:, None]) * p
    x = np.arange(M if periodic else M + 1) * dx
    lump = _trapezoid_lump(len(x), dx, periodic)

    if periodic:
        main = (p + np.roll(p, 1)) / dx
        off = -p / dx
    elif op.boundary.kind == "dirichlet":
        x, lump = x[1:-1], lump[1:-1]
        main = (p[:-1] + p[1:]) / dx        # node j+1 sees p_j and p_{j+1}
        off = -p[1:-1] / dx
    else:
        main = np.zeros(len(x))
        main[:-1] += p / dx
        main[1:] += p / dx
        off = -p / dx

    w = st.sqrt_det_h(t, x[:, None])
    wv = w * op.potential(st, t, x[:, None])
    if rate:
        q = q_factor(st, t, x[:, None])
        wv = q * wv
        if st.coupling != 0.0 and st.spatial_curvature is not None:
            dt = time_step(t)
            wv = wv + w * (op.potential(st, t + dt, x[:, None])
                           - op.potential(st, t - dt, x[:, None])) / (2 * dt)
        w = q * w
    main = main + wv * lump
    if op.boundary.kind == "robin" and not rate:
        main[0] += op.boundary.gamma_at(np.array([0.0]))
        main[-1] += op.boundary.gamma_at(np.array([L]))
    return x, main, off, w * lump


def _fd_basis(op: OperatorSpec, st: SyncSpacetime, t: float,
              n_modes: int) -> ModeBasis:
    x, main, off, mass = fd_operator_1d(op, st, t)
    periodic = st.domain.periodic[0]
    rootm = np.sqrt(mass)
    n = len(x)
    if n_modes > n - 1:
        raise InvalidArgument("requested more modes than grid resolves")

    # bands of the symmetric T = D K D, D = mass^(-1/2); each entry is
    # K[j, j+1] * D[j] * D[j+1] in this order, since reassociating moves
    # the eigenvectors, and every coupling built on them, by rounding
    D = 1.0 / rootm
    main = main * D * D
    off = off * D[:len(off)] * np.roll(D, -1)[:len(off)]
    if periodic:
        from scipy.sparse import coo_matrix, diags
        from scipy.sparse.linalg import eigsh
        rows = np.arange(n)
        link = coo_matrix((off, (rows, (rows + 1) % n)), shape=(n, n))
        T = (diags(main) + link + link.T).tocsc()
        vmin = float(np.min(op.potential(st, t, x[:, None])))
        sigma = min(0.0, vmin) - max(1e-8, 1e-3 * max(abs(vmin), 1.0))
        # a fixed generic start vector: ARPACK's own draws from a stream
        # that advances across calls, and picks another basis of each
        # degenerate +-k pair on every solve
        v0 = np.random.default_rng(0).standard_normal(n)
        vals, vecs = eigsh(T, k=n_modes, sigma=sigma, which="LM", v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        from scipy.linalg import eigh_tridiagonal
        vals, vecs = eigh_tridiagonal(
            main, off, select="i", select_range=(0, n_modes - 1))

    scale = max(abs(vals[-1]), 1.0)
    if vals[0] < -_ZERO_TOL * scale:
        raise NegativeEigenvalue(f"omega^2 = {vals[0]:.3e}")
    if abs(vals[0]) <= _ZERO_TOL * scale:
        raise ZeroMode(f"omega^2 = {vals[0]:.3e}; consider a mass shift")

    omegas = np.sqrt(vals)
    # sum mass |phi|^2 = 1 -> rescale to 1/(2w); one row per mode
    phis = (vecs / rootm[:, None] / np.sqrt(2.0 * omegas)).T
    # the first near-maximal node of each mode is positive: on a
    # mirror-symmetric slice the maxima of opposite lobes agree to rounding,
    # so the plain argmax would let rounding pick the sign
    mag = np.abs(phis)
    jsign = np.argmax(mag >= (1.0 - _SIGN_TIE_RTOL) * mag.max(axis=1)[:, None],
                      axis=1)
    sign = np.where(phis[np.arange(n_modes), jsign] < 0, -1.0, 1.0)
    phis = phis * sign[:, None]
    if op.boundary.kind == "dirichlet":
        # the zero end nodes, so every mode lives on the whole grid
        x = np.concatenate(([0.0], x, [st.domain.lengths[0]]))
        values = np.zeros((n_modes, n + 2), dtype=complex)
        values[:, 1:-1] = phis
    else:
        values = phis.astype(complex, order="C")
    labels = tuple((i,) for i in range(n_modes))
    modes = tuple(GridMode(label, x, v, periodic)
                  for label, v in zip(labels, values))
    return ModeBasis(t=t, omegas=omegas, modes=modes, labels=labels,
                     spacetime=st)


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


def _clusters(omegas):
    """Indices grouped into degenerate clusters of omega^2."""
    order = np.argsort(omegas)
    scale = max(float(np.max(omegas ** 2)), 1e-300)
    groups, current = [], [order[0]]
    for prev, idx in zip(order[:-1], order[1:]):
        if abs(omegas[idx] ** 2 - omegas[prev] ** 2) <= _DEGENERACY_RTOL * scale:
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
    return GridMode(label, first.x, vals, first.periodic)


def align_basis(prev: ModeBasis, next_basis: ModeBasis) -> ModeBasis:
    """Fix phases/rotations of ``next_basis`` against ``prev`` and match label order.

    Within each degenerate eigenspace the previous modes are projected onto
    the new eigenspace and re-orthogonalized in label order; single modes
    only receive a global phase maximizing the real overlap.  Both read
    one overlap Gram of all previous against all new modes.  The aligned
    basis shares the slice context of ``next_basis``.
    """
    if set(prev.labels) != set(next_basis.labels):
        raise DegeneracyMismatch("label sets differ between slices")

    ctx = next_basis.context
    overlaps = ctx.gram(prev.modes, next_basis.modes, conj=True)
    groups_prev = _clusters(prev.omegas)
    groups_next = _clusters(next_basis.omegas)
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
            # in label order, on coefficient vectors over the new modes: with
            # G their Gram, <sum_i a_i N_i, sum_j b_j N_j> = a G b^H in
            # L2(dV) of the new slice
            overlap = overlaps[np.ix_(g, next_idx)]
            gram_next = ctx.gram(next_modes, next_modes, conj=True)
            coefs = np.linalg.solve(gram_next.T, overlap.T).T  # rows: targets
            done = []
            for lab, vec in zip(prev_labels, coefs.astype(complex)):
                for d in done:
                    vec = vec - (vec @ gram_next @ d.conj()) / (
                        d @ gram_next @ d.conj()) * d
                nrm = (vec @ gram_next @ vec.conj()).real
                if nrm <= 0:
                    raise DegeneracyMismatch(
                        f"projection collapsed for label {lab}")
                vec = vec / np.sqrt(2.0 * omega * nrm)
                done.append(vec)
                aligned[lab] = (_combine(lab, list(zip(vec, next_modes))),
                                omega)

    modes, omegas = [], []
    for lab in prev.labels:
        m, om = aligned[lab]
        modes.append(m)
        omegas.append(om)
    aligned = ModeBasis(t=next_basis.t, omegas=np.array(omegas),
                        modes=tuple(modes), labels=prev.labels,
                        spacetime=next_basis.spacetime)
    aligned.__dict__["context"] = ctx      # the same slice: share its cache
    return aligned


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

"""Instantaneous eigenbases of the slice operator -lap_h + xi*R_h + m^2.

Two solver paths produce a :class:`ModeBasis` on a time slice:

* an analytic path for spatially constant diagonal metrics on boxes/tori
  (separable trigonometric/exponential modes), and
* a Rayleigh-Ritz (Galerkin) solver for generic one-dimensional metrics in
  a Legendre basis between Dirichlet, Neumann or Robin walls, or a Fourier
  basis on the torus.

Modes are normalized so that the slice integral of |Phi_n|^2 against the
metric volume element equals 1/(2 omega_n).  Slice integrals (Grams) of
separable modes are exact and take a constant weight only; Grams of
Galerkin modes use the quadrature rule that assembled the mass matrix M of
their pencil K c = omega^2 M c, so Galerkin bases are orthonormal to
rounding.
"""

import functools
import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .errors import (DegeneracyMismatch, InvalidArgument, NegativeEigenvalue,
                     UnresolvedSlice, ZeroMode)
from .geometry import BoundarySpec, SyncSpacetime, q_factor, time_step
from .quadrature import _leggauss, _standard_chop

_TINY_K = 1e-14
#: omega^2 within this fraction of the largest |omega^2| counts as a zero mode.
_ZERO_TOL = 1e-12
#: Relative omega^2 spread within which modes count as one degenerate cluster.
_DEGENERACY_RTOL = 1e-8
#: |phi| within this fraction of a mode's maximum ties for the sign node.
_SIGN_TIE_RTOL = 1e-6
#: Galerkin basis sizes tried in turn on a 1D slice (odd: 1 + 2j on a torus)
_SIZES = (17, 21, 25, 33, 41, 49, 65, 81, 97, 129, 161, 193, 257, 321, 385,
          513)
#: relative accuracy to which the kept eigenvectors' coefficients must chop
_CHOP_TOL = 1e-13


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

    Separable modes integrate exactly, on a diagonal metric under a
    constant weight; nodal modes on the quadrature rule of their
    :class:`GalerkinRule`, the rule that assembled their pencil, under any
    weight.  The context keeps the weights w_j sqrt(h_xx(x_j)), and those
    times each callable weight it was given, for the last rule it
    integrated on, so every Gram on that rule evaluates the metric and the
    weight once.
    """

    def __init__(self, spacetime: SyncSpacetime, t: float):
        self.spacetime = spacetime
        self.t = t
        # (x, mass weights, {id(weight): (weight, mass * weight(x))}) of
        # the last rule
        self._nodal_cache = None

    def sqrt_det(self) -> float:
        st = self.spacetime
        if st.diag_scales is not None:
            return float(np.sqrt(np.prod(np.asarray(st.diag_scales(self.t)))))
        raise InvalidArgument("constant sqrt(det h) only defined for diagonal metrics")

    def gram(self, modes_a, modes_b, conj=True, weight=None):
        """Matrix of integrals dV * A_n * (B_m or B_m*) * weight.

        ``weight`` may be None, a scalar, or (for nodal modes) a callable
        of points.  A Gram of nodal modes is sum_j W_j A_n(x_j) B_m(x_j)
        with W = w_j sqrt(h_xx) * weight; nodal and separable modes cannot
        share one Gram.
        """
        st = self.spacetime
        modes = list(modes_a) + list(modes_b)
        n_nodal = sum(isinstance(m, NodalMode) for m in modes)
        if n_nodal:
            if n_nodal != len(modes):
                raise InvalidArgument(
                    "a Gram cannot mix nodal and separable modes")
            return self._gram_nodal(modes_a, modes_b, modes, conj, weight)
        if st.diag_scales is None or callable(weight):
            raise InvalidArgument(
                "a Gram of separable modes needs a diagonal metric and a "
                "constant weight")
        return self._gram_separable(modes_a, modes_b, conj,
                                    1.0 if weight is None else complex(weight))

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

    def _nodal_weights(self, rule):
        """(x, mass, weighted) of ``rule``, cached for the last rule."""
        cache = self._nodal_cache
        if cache is None or cache[0] is not rule.x:
            mass = rule.weights * self.spacetime.sqrt_det_h(self.t,
                                                            rule.x[:, None])
            cache = self._nodal_cache = (rule.x, mass, {})
        return cache

    def _gram_nodal(self, modes_a, modes_b, modes, conj, weight):
        rule = _common_rule(modes)
        modes_a = [m.lifted(rule) for m in modes_a]
        modes_b = [m.lifted(rule) for m in modes_b]
        x, w, weighted = self._nodal_weights(rule)
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
    slices so degeneracy crossings never permute columns.  ``tail`` is the
    relative size of the last coefficients of Galerkin modes
    (:func:`instantaneous_basis`), 0 for separable ones.
    """

    t: float
    omegas: np.ndarray
    modes: tuple
    labels: tuple
    spacetime: SyncSpacetime
    tail: float = 0.0

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
    The resolution of a 1D Galerkin solve is chosen per slice
    (:func:`instantaneous_basis`), not here.
    """

    boundary: BoundarySpec = field(default_factory=BoundarySpec)
    mass_shift_sq: float = 0.0

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
# 1D Galerkin eigenbasis


def _basis_tables(kind: str, L: float, size: int, x):
    """Values and x-derivatives at ``x`` of the ``size`` functions of a
    :class:`GalerkinRule` basis, one column each, in order of degree."""
    x = np.asarray(x, dtype=float)
    if kind == "fourier":
        k = (2.0 * np.pi / L) * np.arange(1, size // 2 + 1)
        arg = np.multiply.outer(x, k)
        amp = 1.0 / np.sqrt(0.5 * L)
        vals = np.empty((len(x), size))
        slopes = np.empty((len(x), size))
        vals[:, 0], slopes[:, 0] = 1.0 / np.sqrt(L), 0.0
        vals[:, 1::2], slopes[:, 1::2] = np.cos(arg) * amp / k, -np.sin(arg) * amp
        vals[:, 2::2], slopes[:, 2::2] = np.sin(arg) * amp / k, np.cos(arg) * amp
        return vals, slopes
    # Legendre L_0 .. L_{size+1} at u = 2x/L - 1 by the three-term
    # recurrence, and L_k' by L_{k+1}' = L_{k-1}' + (2k + 1) L_k
    u = 2.0 * x / L - 1.0
    leg = np.empty((len(x), size + 2))
    dleg = np.empty((len(x), size + 2))
    leg[:, 0], leg[:, 1] = 1.0, u
    dleg[:, 0], dleg[:, 1] = 0.0, 1.0
    for k in range(1, size + 1):
        leg[:, k + 1] = ((2 * k + 1) * u * leg[:, k] - k * leg[:, k - 1]) / (k + 1)
        dleg[:, k + 1] = dleg[:, k - 1] + (2 * k + 1) * leg[:, k]
    # Shen's functions (L_k - L_{k+2}) / sqrt(4k + 6), with int psi'^2 du = 1
    norm = 1.0 / np.sqrt(4.0 * np.arange(size) + 6.0)
    vals = (leg[:, :size] - leg[:, 2:]) * norm
    slopes = (dleg[:, :size] - dleg[:, 2:]) * (norm * 2.0 / L)
    if kind == "legendre":
        # the walls' hat functions (1 -+ u)/2, then the first size - 2
        # functions of the Dirichlet basis
        vals = np.column_stack((0.5 * (1.0 - u), 0.5 * (1.0 + u), vals[:, :-2]))
        slopes = np.column_stack((np.full(len(x), -1.0 / L),
                                  np.full(len(x), 1.0 / L), slopes[:, :-2]))
    return vals, slopes


@dataclass(frozen=True, eq=False)
class GalerkinRule:
    """A basis of ``size`` functions on [0, L] and the quadrature rule that
    assembles its Rayleigh-Ritz pencil (Boyd, *Chebyshev and Fourier
    Spectral Methods*, 2001, ch. 3 and 7):

    * ``'dirichlet'``: Shen's (L_k - L_{k+2}) / sqrt(4k + 6) of the
      Legendre polynomials L_k at u = 2x/L - 1, zero at both walls (Shen,
      SIAM J. Sci. Comput. 15 (1994) 1489);
    * ``'legendre'``: the hat functions (1 -+ u)/2 of the two walls, then
      Shen's functions, which together span the polynomials of degree
      below ``size``, free at the walls (Neumann, Robin);
    * ``'fourier'``: a constant, then cos and sin of k x / k, k = 2 pi j / L
      (torus).

    Every function but the constants has a derivative of norm O(1), so K
    stays well conditioned as ``size`` grows.  ``x`` and ``weights`` are
    the 2 size + 20 nodes and weights of one Gauss-Legendre rule, or of
    the trapezoid rule on the torus; ``phi`` and ``dphi`` hold the basis
    functions and their x-derivatives there.
    """

    kind: str
    length: float
    size: int
    x: np.ndarray
    weights: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    def tables(self, x):
        """Values and x-derivatives of the basis functions at ``x``."""
        return _basis_tables(self.kind, self.length, self.size, x)

    def coefficient_tail(self, coef: np.ndarray) -> np.ndarray:
        """|coefficients| of one function by degree (on the torus the
        larger of the cos and sin coefficient of each frequency)."""
        mag = np.abs(coef)
        if self.kind != "fourier":
            return mag
        return np.concatenate((mag[:1], np.maximum(mag[1::2], mag[2::2])))


@functools.lru_cache(maxsize=32)
def _galerkin_rule(kind: str, L: float, size: int) -> GalerkinRule:
    if kind == "fourier" and size % 2 == 0:
        raise InvalidArgument("a Fourier basis has an odd size, 1 + 2j")
    n = 2 * size + 20
    if kind == "fourier":
        x, w = np.arange(n) * (L / n), np.full(n, L / n)
    else:
        u, w = _leggauss(n)
        x, w = 0.5 * L * (u + 1.0), 0.5 * L * w
    phi, dphi = _basis_tables(kind, L, size, x)
    return GalerkinRule(kind, L, size, x, w, phi, dphi)


@dataclass(frozen=True)
class NodalMode:
    """1D mode with coefficients ``coef`` over a :class:`GalerkinRule`'s
    basis and ``values`` at the rule's nodes."""

    label: tuple
    rule: GalerkinRule
    coef: np.ndarray
    values: np.ndarray

    def scaled(self, c):
        return NodalMode(self.label, self.rule, self.coef * c, self.values * c)

    def lifted(self, rule: GalerkinRule) -> "NodalMode":
        """The same function on ``rule``, a basis of the same kind with at
        least as many functions: each basis holds the smaller ones as its
        first functions, so the coefficients only gain zeros."""
        if rule is self.rule:
            return self
        if (rule.kind, rule.length) != (self.rule.kind, self.rule.length) \
                or rule.size < self.rule.size:
            raise InvalidArgument("nodal modes live on different bases")
        coef = np.zeros(rule.size, dtype=complex)
        coef[:self.rule.size] = self.coef
        return NodalMode(self.label, rule, coef, rule.phi @ coef)


def _common_rule(modes) -> GalerkinRule:
    """The largest of the modes' rules, which all of them lift to."""
    return max({m.rule for m in modes}, key=lambda r: r.size)


def galerkin_pencil(op: OperatorSpec, st: SyncSpacetime, t: float,
                    rule: GalerkinRule, rate: bool = False):
    """The Rayleigh-Ritz pencil (K, M) of the slice on ``rule``'s basis, or
    with ``rate`` its t-derivatives (K', M').

    K = int p psi_k' psi_l' + w V psi_k psi_l, M = int w psi_k psi_l, with
    w = sqrt(h_xx) and p = 1/w: the weak form of
    -d/dx(p dPhi/dx) + w V Phi = omega^2 w Phi.  Robin walls add
    gamma psi_k psi_l at x = 0 and x = L (the flux p Phi' is the normal
    derivative, -gamma Phi there).  K and M are linear in p, w and w V, so
    K', M' are the same assembly with p' = -q p, w' = q w and
    (w V)' = q w V + w V', where q = h_xx'/(2 h_xx) (:func:`geometry.q_factor`)
    and V' is a central difference, taken only when V moves with the
    curvature.  The Robin gamma is constant and drops out of K'.
    """
    pts = rule.x[:, None]
    w = st.sqrt_det_h(t, pts)
    wv = w * op.potential(st, t, pts)
    p = 1.0 / w
    if rate:
        q = q_factor(st, t, pts)
        p, wv = -q * p, q * wv
        if st.coupling != 0.0 and st.spatial_curvature is not None:
            dt = time_step(t)
            wv = wv + w * (op.potential(st, t + dt, pts)
                           - op.potential(st, t - dt, pts)) / (2 * dt)
        w = q * w
    phi, dphi, quad = rule.phi, rule.dphi, rule.weights
    K = (dphi.T * (quad * p)) @ dphi + (phi.T * (quad * wv)) @ phi
    M = (phi.T * (quad * w)) @ phi
    if op.boundary.kind == "robin" and not rate:
        ends, _ = rule.tables(np.array([0.0, rule.length]))
        gamma = [op.boundary.gamma_at(np.array([0.0])),
                 op.boundary.gamma_at(np.array([rule.length]))]
        K = K + (ends.T * gamma) @ ends
    return K, M


def _galerkin_solve(op: OperatorSpec, st: SyncSpacetime, t: float,
                    n_modes: int, rule: GalerkinRule) -> ModeBasis:
    """The lowest ``n_modes`` eigenpairs of the slice's pencil on ``rule``."""
    if n_modes > rule.size - 2:
        raise InvalidArgument(
            f"requested {n_modes} modes of a {rule.size}-function basis")
    K, M = galerkin_pencil(op, st, t, rule)
    try:
        chol = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        # K is not positive definite, so neither is the lowest omega^2;
        # the direct form finds it to eps lam_max, about K/M's last entry
        inv = np.linalg.inv(np.linalg.cholesky(M))
        lam = np.linalg.eigvalsh(inv @ K @ inv.T)[0]
        scale = max(abs(float(K[-1, -1] / M[-1, -1])), 1.0)
        if lam < -_ZERO_TOL * scale:
            raise NegativeEigenvalue(f"omega^2 = {lam:.3e}")
        raise ZeroMode(f"omega^2 = {lam:.3e}; consider a mass shift")
    # K c = lam M c as the symmetric (C M C^T) y = y / lam, C = L^-1 of
    # K = L L^T: the lowest lam are the largest 1/lam, which eigh finds to
    # eps / lam_1 where the direct form C' K C'^T finds lam to eps lam_max
    inv = np.linalg.inv(chol)
    mu, vecs = np.linalg.eigh(inv @ M @ inv.T)
    mu, vecs = mu[:-n_modes - 1:-1], vecs[:, :-n_modes - 1:-1]
    vals = 1.0 / mu
    # c^T M c = 1, evaluated as such: 1/sqrt(mu) leaves the rounding of
    # the transform in the normalization
    coefs = inv.T @ vecs
    coefs = coefs / np.sqrt(np.einsum('ij,ij->j', coefs, M @ coefs))
    if abs(vals[0]) <= _ZERO_TOL * max(vals[-1], 1.0):
        raise ZeroMode(f"omega^2 = {vals[0]:.3e}; consider a mass shift")
    omegas = np.sqrt(vals)
    # c^T M c = 1 -> rescale to 1/(2w); one row per mode
    coefs = np.ascontiguousarray((coefs / np.sqrt(2.0 * omegas)).T)
    values = coefs @ rule.phi.T
    # the first near-maximal node of each mode is positive: on a
    # mirror-symmetric slice the maxima of opposite lobes agree to rounding,
    # so the plain argmax would let rounding pick the sign
    mag = np.abs(values)
    jsign = np.argmax(mag >= (1.0 - _SIGN_TIE_RTOL) * mag.max(axis=1)[:, None],
                      axis=1)
    sign = np.where(values[np.arange(n_modes), jsign] < 0, -1.0, 1.0)[:, None]
    coefs, values = (coefs * sign).astype(complex), (values * sign).astype(complex)
    labels = tuple((i,) for i in range(n_modes))
    modes = tuple(NodalMode(label, rule, c, v)
                  for label, c, v in zip(labels, coefs, values))
    return ModeBasis(t=t, omegas=omegas, modes=modes, labels=labels,
                     spacetime=st)


def _chop_series(basis: ModeBasis) -> np.ndarray:
    """The coefficients of a Galerkin basis' modes as one series for the
    chop test (:func:`quadrature._standard_chop`): by degree, the largest
    of the modes' coefficients, each relative to its mode's largest."""
    rule = basis.modes[0].rule
    tails = np.array([rule.coefficient_tail(m.coef) for m in basis.modes])
    return np.max(tails / tails.max(axis=1, keepdims=True), axis=0)


def _galerkin_basis(op: OperatorSpec, st: SyncSpacetime, t: float,
                    n_modes: int, min_size: int) -> ModeBasis:
    """The Galerkin eigenbasis on the first of ``_SIZES`` from ``min_size``
    and twice ``n_modes`` on whose modes' coefficients chop at ``_CHOP_TOL``.
    Where none does, as on a metric with a kink, whose coefficients fall
    off only algebraically, it is the basis on the largest size, with an
    :class:`~bogoflow.errors.UnresolvedSlice` warning.  Its ``tail`` is
    the largest of the last size/8 (at least 3) terms of the chop series."""
    kind = ("fourier" if st.domain.periodic[0] else
            "dirichlet" if op.boundary.kind == "dirichlet" else "legendre")
    L = st.domain.lengths[0]
    sizes = [size for size in _SIZES if size >= max(min_size, 2 * n_modes)]
    if not sizes:
        raise InvalidArgument(
            f"requested {n_modes} modes on at least {min_size} basis "
            f"functions; the largest basis holds {_SIZES[-1]}")
    for size in sizes:
        basis = _galerkin_solve(op, st, t, n_modes,
                                _galerkin_rule(kind, L, size))
        series = _chop_series(basis)
        resolved = _standard_chop(series, _CHOP_TOL) < len(series)
        if resolved:
            break
    tail = float(series[-max(3, len(series) // 8):].max())
    if not resolved:
        warnings.warn(f"{size} basis functions do not resolve the lowest "
                      f"{n_modes} modes at t={t:.6g}: their coefficients "
                      f"end at {tail:.1e} of their largest", UnresolvedSlice,
                      stacklevel=3)
    return replace(basis, tail=tail)


def instantaneous_basis(op: OperatorSpec, st: SyncSpacetime, t: float,
                        n_modes: int, min_size: int = 0) -> ModeBasis:
    """Lowest ``n_modes`` eigenpairs of the slice operator at time ``t``.

    Spatially constant diagonal metrics without Robin walls have separable
    modes in closed form.  Other 1D slices take the Galerkin solve on the
    smallest basis size, from ``min_size`` on, whose modes' coefficients
    chop (:func:`_galerkin_basis`); its modes are :class:`NodalMode`, the
    size is ``modes[0].rule.size``, and ``tail`` reports how far the
    coefficients fell.
    """
    if n_modes < 1:
        raise InvalidArgument("n_modes must be at least 1")
    analytic_ok = (st.diag_scales is not None
                   and op.boundary.kind in ("none", "dirichlet", "neumann"))
    if analytic_ok:
        return _analytic_basis(op, st, t, n_modes)
    if st.dim == 1:
        return _galerkin_basis(op, st, t, n_modes, min_size)
    raise InvalidArgument("no solver: analytic families cover diagonal "
                          "metrics, the Galerkin solver covers 1D")


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
    rule = _common_rule(m for _, m in coef_modes)
    lifted = [(c, m.lifted(rule)) for c, m in coef_modes]
    coef = sum(c * m.coef for c, m in lifted)
    vals = sum(c * m.values for c, m in lifted)
    return NodalMode(label, rule, coef, vals)


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
                        spacetime=next_basis.spacetime, tail=next_basis.tail)
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

"""Coupling matrices driving the transformation ODE.

The entries combine slice integrals of mode pairs with the geometric
factors q and rbar and the frequency drifts:

    ahat_nm = (w_m + w_n) <dPhi_n/dt, Phi_m*> + <Phi_n [w_n q + i xi rbar] Phi_m*>
              + delta_nm dw_n/dt / (2 w_n)
    bhat_nm = (w_m - w_n) <dPhi_n/dt, Phi_m>  - <Phi_n [w_n q + i xi rbar] Phi_m>
              - dw_n/dt <Phi_n, Phi_m>

The t-derivatives come from the slice eigenproblem itself
(:func:`basis_derivatives` without ``dt``): closed-form frequency drifts
for separable modes, and first-order eigenpair derivatives of the Galerkin
pencil K c = w^2 M c for nodal modes.  A central difference of aligned
eigenbases at t +/- dt is kept as the cross-check.

The matrices must satisfy ahat = -ahat^dag and bhat = bhat^T; violations
signal inconsistent derivatives or misaligned bases and are raised rather
than repaired.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgument, SymmetryViolation
from .geometry import SyncSpacetime, q_factor, rbar_factor
from .spectral import (ModeBasis, NodalMode, OperatorSpec, _clusters,
                       _combine, align_basis, galerkin_pencil,
                       instantaneous_basis, separable_basis)


@dataclass(eq=False)
class CouplingMatrices:
    t: float
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_modes(self) -> int:
        return self.alpha_hat.shape[0]


@dataclass(eq=False)
class BasisDerivatives:
    """Closed-form (``dt == 0``) or central-difference t-derivatives of an
    aligned basis."""

    labels: tuple
    dmodes_dt: tuple
    domega_dt: np.ndarray
    dt: float


def _diagonal_drift(st: SyncSpacetime, t: float, s: np.ndarray,
                    kvecs: np.ndarray, w: np.ndarray):
    """dw/dt = -(k^2 . ds/s^2)/(2w) and q = (1/2) sum ds/s of a diagonal
    metric h = diag(s(t)); ``s`` is ``st.diag_scales(t)`` as an array."""
    ds = np.asarray(st.diag_scales_dt(t), dtype=float)
    dw = -0.5 * (kvecs ** 2 @ (ds / s ** 2)) / w
    return dw, 0.5 * float(np.sum(ds / s))


def _galerkin_derivatives(op: OperatorSpec,
                          basis: ModeBasis) -> BasisDerivatives:
    """First-order eigenpair derivatives of the Galerkin pencil
    K c = lam M c (Nelson, AIAA J. 14 (1976) 1201), from one solve.

    Over the retained modes a = sqrt(2w) C, C their coefficients, so
    a^H M a = 1, with G = a^H (K' - lam_n M') a and B = a^H M' a:
    dlam_n = G_nn, and c_mn = a_m^H M a_n' is G_mn / (lam_n - lam_m) across
    degenerate clusters and -B_nn/2 on the diagonal.  Inside a cluster it
    takes the gauge of :func:`align_basis`: -B_km for k before m in cluster
    order, 0 after.  ``dmodes_dt`` are the projections of dPhi/dt on the
    retained modes, which is all :func:`coupling_matrices` reads.
    """
    w = basis.omegas
    rule = basis.modes[0].rule      # the modes of a basis share their solve's
    dK, dM = galerkin_pencil(op, basis.spacetime, basis.t, rule, rate=True)
    coef = np.array([m.coef for m in basis.modes]).T    # (size, modes)
    a = coef * np.sqrt(2.0 * w)
    lam = w ** 2
    B = a.conj().T @ dM @ a
    G = a.conj().T @ dK @ a - B * lam

    gap = lam - lam[:, None]                # lam_n - lam_m at [m, n]
    mix = G / np.where(gap == 0.0, 1.0, gap)
    for g in _clusters(w):                  # the align_basis gauge inside
        if len(g) > 1:
            mix[np.ix_(g, g)] = -np.triu(B[np.ix_(g, g)], 1)
    np.fill_diagonal(mix, -0.5 * np.diagonal(B))

    dw = np.real(np.diagonal(G)) / (2.0 * w)
    # Phi_n' = sum_m c_mn sqrt(w_m / w_n) Phi_m - dw_n / (2 w_n) Phi_n
    step = mix * np.sqrt(w[:, None] / w) - np.diag(dw / (2.0 * w))
    dcoef = coef @ step
    dvals = np.array([m.values for m in basis.modes]).T @ step
    dmodes = tuple(NodalMode(m.label, rule, dcoef[:, i], dvals[:, i])
                   for i, m in enumerate(basis.modes))
    return BasisDerivatives(labels=basis.labels, dmodes_dt=dmodes,
                            domega_dt=dw, dt=0.0)


def basis_derivatives(family: Callable, basis: ModeBasis,
                      dt: Optional[float] = None) -> BasisDerivatives:
    """t-derivatives of mode functions and frequencies at ``basis.t``.

    Without ``dt`` they are the family's closed form,
    ``family.analytic_derivatives(basis)``.  An explicit ``dt`` takes
    central differences instead: ``basis`` is ``family(basis.t)``, and the
    slices at t +/- dt are aligned against it before differencing.  Those
    slices come from ``family.solve``, unaligned, where the family has one,
    so that each is aligned once.
    """
    if dt is None:
        if not hasattr(family, "analytic_derivatives"):
            raise InvalidArgument(
                "family has no closed-form derivatives; pass a stencil dt")
        return family.analytic_derivatives(basis)
    t = basis.t
    solve = getattr(family, "solve", family)
    plus = align_basis(basis, solve(t + dt))
    minus = align_basis(basis, solve(t - dt))
    scale = 1.0 / (2.0 * dt)
    dmodes = tuple(
        _combine(lab, [(scale, p), (-scale, m)])
        for p, m, lab in zip(plus.modes, minus.modes, basis.labels))
    domega = (plus.omegas - minus.omegas) * scale
    return BasisDerivatives(labels=basis.labels, dmodes_dt=dmodes,
                            domega_dt=domega, dt=dt)


def coupling_matrices(basis: ModeBasis, derivs: BasisDerivatives,
                      sym_rtol: float = 1e-8) -> CouplingMatrices:
    """Assemble ahat, bhat by quadrature over the slice of ``basis``, whose
    spacetime and t they take; ``derivs`` are the basis' t-derivatives."""
    if derivs.labels != basis.labels:
        raise InvalidArgument("derivative labels do not match the basis")

    st, t = basis.spacetime, basis.t
    ctx = basis.context
    w = basis.omegas
    xi = st.coupling
    center = 0.5 * np.array(st.domain.lengths)

    if st.diag_scales is not None:
        qv = q_factor(st, t, center)
        rv = rbar_factor(st, t, center) if xi != 0.0 else 0.0
        weight_q, weight_r = qv, rv
    else:
        weight_q = lambda pts: q_factor(st, t, pts)
        weight_r = (lambda pts: rbar_factor(st, t, pts)) if xi != 0.0 else 0.0

    gd_conj = ctx.gram(derivs.dmodes_dt, basis.modes, conj=True)
    gd_plain = ctx.gram(derivs.dmodes_dt, basis.modes, conj=False)
    s0_plain = ctx.gram(basis.modes, basis.modes, conj=False)
    sq_conj = ctx.gram(basis.modes, basis.modes, conj=True, weight=weight_q)
    sq_plain = ctx.gram(basis.modes, basis.modes, conj=False, weight=weight_q)
    if xi != 0.0:
        sr_conj = ctx.gram(basis.modes, basis.modes, conj=True, weight=weight_r)
        sr_plain = ctx.gram(basis.modes, basis.modes, conj=False, weight=weight_r)
    else:
        sr_conj = sr_plain = 0.0

    wn = w[:, None]
    wm = w[None, :]
    dw = derivs.domega_dt
    terms_a = [(wm + wn) * gd_conj, wn * sq_conj, 1j * xi * sr_conj,
               np.diag(dw / (2.0 * w))]
    terms_b = [(wm - wn) * gd_plain, -wn * sq_plain, -1j * xi * sr_plain,
               -dw[:, None] * s0_plain]
    ahat = sum(terms_a)
    bhat = sum(terms_b)

    # entries may cancel to zero while the constituent terms are O(1); the
    # symmetry identities hold term-combination-wise, so normalize by the
    # larger of output and ingredient scales
    scale = max(float(np.max(np.abs(ahat))), float(np.max(np.abs(bhat))),
                max(float(np.max(np.abs(np.atleast_2d(m))))
                    for m in terms_a + terms_b),
                1e-300)
    res_a = float(np.max(np.abs(ahat + ahat.conj().T)))
    res_b = float(np.max(np.abs(bhat - bhat.T)))
    floor = 1e-13 * (1.0 + float(np.max(w)))
    if max(res_a, res_b) > sym_rtol * scale + floor:
        raise SymmetryViolation(
            f"coupling symmetry residual {max(res_a, res_b):.3e} "
            f"exceeds {sym_rtol:.1e} * {scale:.3e} at t={t:.6g}")

    cm = CouplingMatrices(t=t, alpha_hat=ahat, beta_hat=bhat)
    cm.meta["symmetry_residual"] = max(res_a, res_b)
    return cm


# ---------------------------------------------------------------------------
# basis families and ODE drivers


class InstantaneousFamily:
    """ModeBasis family from repeated eigensolves with a fixed label set.

    A Galerkin family's ``size`` is the basis size that
    :func:`instantaneous_basis` picks at the reference slice (0 for
    separable modes).  Every slice picks its own size in the same way, from
    ``size`` on rather than from the smallest, so a slice's modes depend on
    that slice alone; the bases are nested, so modes of different sizes
    lift to one (:meth:`~bogoflow.spectral.NodalMode.lifted`).
    """

    def __init__(self, op: OperatorSpec, st: SyncSpacetime, n_modes: int,
                 t_ref: float = 0.0):
        self.op = op
        self.st = st
        self.n_modes = n_modes
        self.reference = instantaneous_basis(op, st, t_ref, n_modes)
        first = self.reference.modes[0]
        self.size = first.rule.size if isinstance(first, NodalMode) else 0

    def solve(self, t: float) -> ModeBasis:
        """The slice's eigenbasis at t as the solver returns it, unaligned."""
        return instantaneous_basis(self.op, self.st, t, self.n_modes,
                                   self.size)

    def __call__(self, t: float) -> ModeBasis:
        return align_basis(self.reference, self.solve(t))

    def analytic_derivatives(self, basis: ModeBasis) -> BasisDerivatives:
        """Closed-form derivatives of ``basis = self(basis.t)``, by the
        solver that built it: eigenpair derivatives for Galerkin modes; for
        separable modes (diagonal metrics) the shapes are fixed, and only
        the normalization (q + dw/w)/2 and the frequency drift move."""
        if isinstance(basis.modes[0], NodalMode):
            return _galerkin_derivatives(self.op, basis)
        # aligned degenerate modes may be combinations; their per-axis k^2
        # match the reference products carrying the same labels
        kvecs = np.array([m.wavenumbers for m in self.reference.modes])
        w = basis.omegas
        s = np.asarray(self.st.diag_scales(basis.t), dtype=float)
        dw, qv = _diagonal_drift(self.st, basis.t, s, kvecs, w)
        dmodes = tuple(m.scaled(-0.5 * (qv + dw[i] / w[i]))
                       for i, m in enumerate(basis.modes))
        return BasisDerivatives(labels=basis.labels, dmodes_dt=dmodes,
                                domega_dt=dw, dt=0.0)


def _conjugate_partners(labels, periodic):
    """Index of each label's conjugate partner (labels negated on periodic
    axes), or None when a partner is missing from ``labels``."""
    index = {lab: i for i, lab in enumerate(labels)}
    flipped = [tuple(-l if p else l for l, p in zip(lab, periodic))
               for lab in labels]
    if any(f not in index for f in flipped):
        return None
    return np.array([index[f] for f in flipped])


def closed_mode_count(op: OperatorSpec, st: SyncSpacetime,
                      n_modes: int) -> int:
    """Smallest count >= ``n_modes`` whose lowest modes close under conjugation.

    On a torus the lowest ``n_modes`` can split a degenerate shell and
    leave a mode (n,) without its partner (-n,); this is the count of
    modes that :class:`DiagonalFamilyDriver` accepts at or above it.  A
    pair has one frequency at every time, so the basis at t = 0 decides.
    """
    count = n_modes
    while _conjugate_partners(instantaneous_basis(op, st, 0.0, count).labels,
                              st.domain.periodic) is None:
        count += 1
    return count


class DiagonalFamilyDriver:
    """Closed-form driver for spatially constant diagonal metrics.

    Mode shapes are time-independent; only frequencies and normalizations
    drift, so ahat = i xi rbar/(2w) on the diagonal and bhat couples each
    mode to its conjugate partner with -q/2 - dw/(2w) - i xi rbar/(2w).
    """

    def __init__(self, op: OperatorSpec, st: SyncSpacetime, n_modes: int = 0,
                 t_ref: float = 0.0, labels=None):
        if st.diag_scales is None:
            raise InvalidArgument("driver requires a diagonal metric family")
        self.op = op
        self.st = st
        if labels is not None:
            basis = separable_basis(op, st, t_ref, labels)
            n_modes = basis.n_modes
        else:
            basis = instantaneous_basis(op, st, t_ref, n_modes)
            if isinstance(basis.modes[0], NodalMode):
                raise InvalidArgument(
                    f"{op.boundary.kind} walls move the mode shapes; use an "
                    "InstantaneousFamily with the quadrature driver")
        self.labels = basis.labels
        self.kvecs = np.array([m.wavenumbers for m in basis.modes])
        self.partner = _conjugate_partners(basis.labels, st.domain.periodic)
        if self.partner is None:
            raise InvalidArgument(
                "mode set does not close under conjugation; see "
                "closed_mode_count")
        self.pot = float(op.potential(st, t_ref,
                                      st.domain.sample_points(1))[0])
        self.n_modes = n_modes

    def _omegas(self, s: np.ndarray) -> np.ndarray:
        return np.sqrt(self.kvecs ** 2 @ (1.0 / s) + self.pot)

    def omegas(self, t: float) -> np.ndarray:
        return self._omegas(np.asarray(self.st.diag_scales(t), dtype=float))

    def __call__(self, t: float):
        # one diag_scales per call: on flrw_spacetime each is a Newton
        # inversion t -> eta
        st = self.st
        s = np.asarray(st.diag_scales(t), dtype=float)
        w = self._omegas(s)
        dw, qv = _diagonal_drift(st, t, s, self.kvecs, w)
        n = self.n_modes
        ahat = np.zeros((n, n), dtype=complex)
        bhat = np.zeros((n, n), dtype=complex)
        if st.coupling != 0.0:
            center = 0.5 * np.array(st.domain.lengths)
            rv = rbar_factor(st, t, center)
            np.fill_diagonal(ahat, 1j * st.coupling * rv / (2.0 * w))
            rterm = 1j * st.coupling * rv / (2.0 * w)
        else:
            rterm = np.zeros(n)
        bvals = -0.5 * qv - dw / (2.0 * w) - rterm
        bhat[np.arange(n), self.partner] = bvals
        return w, CouplingMatrices(t=t, alpha_hat=ahat, beta_hat=bhat)


def quadrature_driver(st: SyncSpacetime, family: Callable,
                      dt: Optional[float] = None) -> Callable:
    """Driver evaluating coupling matrices by quadrature at every call.

    Each call evaluates ``family`` (whose bases must live on ``st``) once at
    t and passes that basis on; only the stencil adds t +/- dt.
    """

    def drive(t: float):
        basis = family(t)
        if basis.spacetime is not st:
            raise InvalidArgument("family bases live on another spacetime")
        derivs = basis_derivatives(family, basis, dt)
        cm = coupling_matrices(basis, derivs)
        return basis.omegas, cm

    return drive

"""Coupling matrices driving the transformation ODE.

The entries combine slice integrals of mode pairs with the geometric
factors q and rbar and the frequency drifts:

    ahat_nm = (w_m + w_n) <dPhi_n/dt, Phi_m*> + <Phi_n [w_n q + i xi rbar] Phi_m*>
              + delta_nm dw_n/dt / (2 w_n)
    bhat_nm = (w_m - w_n) <dPhi_n/dt, Phi_m>  - <Phi_n [w_n q + i xi rbar] Phi_m>
              - dw_n/dt <Phi_n, Phi_m>

They must satisfy ahat = -ahat^dag and bhat = bhat^T; violations signal an
inconsistent derivative stencil or misaligned bases and are raised rather
than repaired.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgument, SymmetryViolation
from .geometry import SyncSpacetime, q_factor, rbar_factor
from .spectral import (ModeBasis, OperatorSpec, _combine, align_basis,
                       instantaneous_basis)

#: dt = DT_FRACTION * (2 pi / omega_min) for derivative stencils.
DT_FRACTION = 1e-4


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
    """Central-difference (or analytic) t-derivatives of an aligned basis."""

    labels: tuple
    dmodes_dt: tuple
    domega_dt: np.ndarray
    dt: float


def default_stencil_dt(basis: ModeBasis) -> float:
    return DT_FRACTION * 2.0 * np.pi / float(np.min(basis.omegas))


def basis_derivatives(family: Callable, t: float, dt: Optional[float] = None
                      ) -> BasisDerivatives:
    """Central differences of mode functions and frequencies at time t.

    ``family`` maps t to a ModeBasis with stable labels; slices at t +/- dt
    are aligned against the slice at t before differencing.  Families may
    expose ``analytic_derivatives(t)`` to bypass the stencil; an explicit
    ``dt`` always forces the stencil.
    """
    analytic = getattr(family, "analytic_derivatives", None)
    if analytic is not None and dt is None:
        out = analytic(t)
        if out is not None:
            return out
    base = family(t)
    if dt is None:
        dt = default_stencil_dt(base)
    plus = align_basis(base, family(t + dt))
    minus = align_basis(base, family(t - dt))
    scale = 1.0 / (2.0 * dt)
    dmodes = tuple(
        _combine(lab, [(scale, p), (-scale, m)])
        for p, m, lab in zip(plus.modes, minus.modes, base.labels))
    domega = (plus.omegas - minus.omegas) * scale
    return BasisDerivatives(labels=base.labels, dmodes_dt=dmodes,
                            domega_dt=domega, dt=dt)


def coupling_matrices(st: SyncSpacetime, family: Callable, t: float,
                      derivs: Optional[BasisDerivatives] = None,
                      sym_rtol: float = 1e-8) -> CouplingMatrices:
    """Assemble ahat(t), bhat(t) by quadrature over the slice at t."""
    basis = family(t)
    if derivs is None:
        derivs = basis_derivatives(family, t)
    if derivs.labels != basis.labels:
        raise InvalidArgument("derivative labels do not match the basis")

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
    # real diagonal of ahat must vanish; keep it visible as a health metric
    cm.meta["diag_real_max"] = float(np.max(np.abs(np.real(np.diagonal(ahat)))))
    cm.meta["symmetry_residual"] = max(res_a, res_b)
    return cm


# ---------------------------------------------------------------------------
# basis families and ODE drivers


class InstantaneousFamily:
    """ModeBasis family from repeated eigensolves with a fixed label set."""

    def __init__(self, op: OperatorSpec, st: SyncSpacetime, n_modes: int,
                 t_ref: float = 0.0):
        self.op = op
        self.st = st
        self.n_modes = n_modes
        self.reference = instantaneous_basis(op, st, t_ref, n_modes)

    def __call__(self, t: float) -> ModeBasis:
        fresh = instantaneous_basis(self.op, self.st, t, self.n_modes)
        return align_basis(self.reference, fresh)

    def analytic_derivatives(self, t: float) -> Optional[BasisDerivatives]:
        """Closed-form derivatives for diagonal metrics: the mode shapes are
        fixed, only the normalization (q + dw/w)/2 and the frequency drift."""
        st = self.st
        if st.diag_scales is None:
            return None
        basis = self(t)
        s = np.asarray(st.diag_scales(t), dtype=float)
        ds = np.asarray(st.diag_scales_dt(t), dtype=float)
        qv = 0.5 * float(np.sum(ds / s))
        # aligned degenerate modes may be combinations; their per-axis k^2
        # match the reference products carrying the same labels
        kvecs = np.array([m.wavenumbers for m in self.reference.modes])
        w = basis.omegas
        dw = -0.5 * (kvecs ** 2 @ (ds / s ** 2)) / w
        dmodes = tuple(m.scaled(-0.5 * (qv + dw[i] / w[i]))
                       for i, m in enumerate(basis.modes))
        return BasisDerivatives(labels=basis.labels, dmodes_dt=dmodes,
                                domega_dt=dw, dt=0.0)


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
            from .spectral import separable_basis
            basis = separable_basis(op, st, t_ref, labels)
            n_modes = basis.n_modes
        else:
            basis = instantaneous_basis(op, st, t_ref, n_modes)
        self.labels = basis.labels
        self.kvecs = np.array([m.wavenumbers for m in basis.modes])
        periodic = st.domain.periodic
        partner_labels = [
            tuple(-l if periodic[ax] else l for ax, l in enumerate(lab))
            for lab in basis.labels]
        try:
            self.partner = np.array([basis.labels.index(pl)
                                     for pl in partner_labels])
        except ValueError as exc:
            raise InvalidArgument(
                "mode set does not close under conjugation; adjust n_modes"
            ) from exc
        self.pot = float(op.potential(st, t_ref,
                                      st.domain.sample_points(1))[0])
        self.n_modes = n_modes

    def omegas(self, t: float) -> np.ndarray:
        s = np.asarray(self.st.diag_scales(t), dtype=float)
        return np.sqrt(self.kvecs ** 2 @ (1.0 / s) + self.pot)

    def __call__(self, t: float):
        st = self.st
        s = np.asarray(st.diag_scales(t), dtype=float)
        ds = np.asarray(st.diag_scales_dt(t), dtype=float)
        w = np.sqrt(self.kvecs ** 2 @ (1.0 / s) + self.pot)
        dw = -0.5 * (self.kvecs ** 2 @ (ds / s ** 2)) / w
        qv = 0.5 * float(np.sum(ds / s))
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
                      dt: Optional[float] = None,
                      sym_rtol: float = 1e-8) -> Callable:
    """Driver evaluating coupling matrices by quadrature at every call."""

    def drive(t: float):
        basis = family(t)
        derivs = basis_derivatives(family, t, dt)
        cm = coupling_matrices(st, family, t, derivs, sym_rtol=sym_rtol)
        return basis.omegas, cm

    return drive

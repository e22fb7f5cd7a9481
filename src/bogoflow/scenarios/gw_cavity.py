"""Rectangular cavity perturbed by a monochromatic plus-polarized wave.

The metric perturbation diag(sin(Omega t), -sin(Omega t), 0) (optionally
under a Gaussian envelope) leaves the box eigenfunctions unchanged to first
order and only drives the frequencies, so the first-order coupling is
purely diagonal in beta.  The exact (all-order) frequencies and geometric
factors are also available in closed form, powering the non-perturbative
cross-check path.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import kernels
from ..coupling import DiagonalFamilyDriver
from ..errors import InvalidArgument
from ..geometry import BoundarySpec, Domain, diagonal_spacetime, static_spacetime
from ..kernels import _gw_profile
from ..perturbation import (DeltaCoupling, PerturbationSpec, ResonanceReport,
                            asymptotic_coefficients, delta_coupling_from_modes,
                            resonance_scan, sin_profile, window_coefficients)
from ..spectral import (OperatorSpec, SeparableMode, regularize_zero_mode,
                        separable_basis)

#: regularization masses for the Neumann zero mode; the limit is checked.
#: A rate moves by its mass shift, ~rate * dm^2 / (2 w^2), between them, so
#: the masses stay small enough for that to sit below DM_AGREEMENT.
DM_SEQUENCE = (1e-3, 1e-4)
DM_AGREEMENT = 1e-6


@dataclass(frozen=True)
class GwCavityConfig:
    lengths: tuple = (1.0, 2.0, 1.0)
    epsilon: float = 1e-5
    omega: float = 0.0                  # wave frequency; 0 = tune to 2 w0 ref
    tau: Optional[float] = None         # Gaussian envelope duration
    boundary: str = "dirichlet"
    n_modes_per_axis: tuple = (2, 2, 2)
    window: Optional[tuple] = None      # (t0, tf) for periodic profiles
    detuning_window: float = 1e-6
    tol: float = 1e-10
    reference_mode: tuple = (1, 1, 1)

    def __post_init__(self):
        if len(self.lengths) != 3 or any(L <= 0 for L in self.lengths):
            raise InvalidArgument("three positive cavity lengths required")
        if not self.epsilon > 0:
            raise InvalidArgument("epsilon must be positive")
        if self.omega < 0:
            raise InvalidArgument("wave frequency must be positive")
        if self.boundary not in ("dirichlet", "neumann"):
            raise InvalidArgument("boundary must be dirichlet or neumann")
        if self.tau is not None and self.tau <= 0:
            raise InvalidArgument("envelope duration must be positive")

    def labels(self):
        nx, ny, nz = (self.n_modes_per_axis if not np.isscalar(self.n_modes_per_axis)
                      else (self.n_modes_per_axis,) * 3)
        lo = 1 if self.boundary == "dirichlet" else 0
        return [(i, j, k)
                for i in range(lo, lo + nx)
                for j in range(lo, lo + ny)
                for k in range(lo, lo + nz)]

    def mode_omega0(self, label) -> float:
        kx, ky, kz = (np.pi * label[0] / self.lengths[0],
                      np.pi * label[1] / self.lengths[1],
                      np.pi * label[2] / self.lengths[2])
        return float(np.sqrt(kx ** 2 + ky ** 2 + kz ** 2))

    def wave_frequency(self) -> float:
        return self.omega if self.omega > 0 else 2.0 * self.mode_omega0(
            self.reference_mode)


def gw_static_basis(cfg: GwCavityConfig, dm: Optional[float] = None):
    """Static box basis for the cavity mode set (with optional mass shift)."""
    domain = Domain(tuple(cfg.lengths), (False, False, False))
    st = static_spacetime(domain, boundary=BoundarySpec(cfg.boundary))
    op = OperatorSpec(boundary=st.boundary)
    if dm is not None:
        op = regularize_zero_mode(op, dm)
    labels = sorted(cfg.labels(), key=lambda l: (cfg.mode_omega0(l), l))
    basis = separable_basis(op, st, 0.0, labels)
    return st, op, basis


def dxx_minus_dyy(mode: SeparableMode) -> SeparableMode:
    """x-part of the operator perturbation for the plus polarization."""
    terms = mode.d2_terms(0) + tuple((-c, f) for c, f in mode.d2_terms(1))
    return SeparableMode(mode.label, terms)


def gw_perturbation(cfg: GwCavityConfig) -> PerturbationSpec:
    # traceless perturbation: dq and drbar vanish identically at first order
    return PerturbationSpec(epsilon=cfg.epsilon,
                            profile=sin_profile(cfg.wave_frequency(), cfg.tau),
                            delta_q=0.0, delta_rbar=0.0,
                            delta_operator=dxx_minus_dyy)


def gw_frequency_drifts(basis) -> np.ndarray:
    """x-parts of the first-order frequency drifts; shapes hold at O(eps)."""
    dw = np.empty(basis.n_modes)
    for i, mode in enumerate(basis.modes):
        kx, ky, _ = mode.wavenumbers
        dw[i] = (ky ** 2 - kx ** 2) / (2.0 * basis.omegas[i])
    return dw


def gw_delta_coupling(cfg: GwCavityConfig,
                      dm: Optional[float] = None) -> DeltaCoupling:
    _, _, basis = gw_static_basis(cfg, dm)
    return delta_coupling_from_modes(basis, gw_frequency_drifts(basis),
                                     gw_perturbation(cfg))


@dataclass(eq=False)
class GwResult:
    report: ResonanceReport
    coefficients: object            # BogoliubovMatrix or None
    basis: object
    dc: DeltaCoupling
    meta: dict = field(default_factory=dict)


def _default_window(cfg: GwCavityConfig) -> tuple:
    # keep 1 << omega_p dt << 1/epsilon with a wide margin on both sides
    omega_p = cfg.wave_frequency()
    target = min(200.0, 0.01 / cfg.epsilon)
    return (0.0, target / omega_p * 2.0 * np.pi)


def gw_cavity_run(cfg: GwCavityConfig) -> GwResult:
    """Resonance report plus first-order coefficients for the cavity.

    Neumann boundaries need the zero-mode mass regularization: the run is
    repeated for a decreasing dm sequence and the scan rates must agree
    within DM_AGREEMENT, confirming the trivial dm -> 0 limit; the
    smallest-dm result is returned.
    """
    meta = {}
    if cfg.boundary == "neumann":
        # the mass shift moves every resonant frequency by ~dm^2/(2w); widen
        # the scan window so the same channels are matched for every dm
        dm_window = max(cfg.detuning_window, DM_SEQUENCE[0] ** 2)
        rates = []
        for dm in DM_SEQUENCE:
            dc = gw_delta_coupling(cfg, dm)
            report = resonance_scan(dc, dc.basis, dm_window)
            rates.append({(e.kind, e.n, e.m): e.rate for e in report})
        keys = set().union(*[set(r) for r in rates])
        spread = 0.0
        for key in keys:
            vals = [abs(r.get(key, 0.0)) / cfg.epsilon for r in rates]
            spread = max(spread, max(vals) - min(vals))
        if spread > DM_AGREEMENT:
            raise InvalidArgument(
                f"dm -> 0 limit not settled: rate spread {spread:.3e}")
        meta["dm_sequence"] = DM_SEQUENCE
        meta["dm_rate_spread"] = spread
        dc = gw_delta_coupling(cfg, DM_SEQUENCE[-1])
    else:
        dc = gw_delta_coupling(cfg)

    report = resonance_scan(dc, dc.basis, cfg.detuning_window)
    if cfg.tau is not None:
        coeffs = asymptotic_coefficients(dc, dc.basis)
    else:
        window = cfg.window or _default_window(cfg)
        coeffs = window_coefficients(dc, dc.basis, window[0], window[1])
        meta["window"] = window
    return GwResult(report=report, coefficients=coeffs, basis=dc.basis,
                    dc=dc, meta=meta)


# ---------------------------------------------------------------------------
# exact (non-perturbative) paths


def gw_spacetime(cfg: GwCavityConfig, dm: float = 0.0):
    """Exact perturbed spacetime h = diag(1 + eps s, 1 - eps s, 1)."""
    eps, omega, tau = cfg.epsilon, cfg.wave_frequency(), cfg.tau

    def scales(t):
        s, _ = _gw_profile(omega, tau, t)
        return np.array([1.0 + eps * s, 1.0 - eps * s, 1.0])

    def scales_dt(t):
        _, ds = _gw_profile(omega, tau, t)
        return np.array([eps * ds, -eps * ds, 0.0])

    domain = Domain(tuple(cfg.lengths), (False, False, False))
    return diagonal_spacetime(domain, scales, scales_dt, mass=dm,
                              boundary=BoundarySpec(cfg.boundary))


def gw_exact_driver(cfg: GwCavityConfig, dm: float = 0.0,
                    labels=None) -> DiagonalFamilyDriver:
    """Closed-form full-matrix driver for the exact cavity evolution."""
    st = gw_spacetime(cfg, dm)
    op = OperatorSpec(boundary=st.boundary)
    labels = labels if labels is not None else sorted(
        cfg.labels(), key=lambda l: (cfg.mode_omega0(l), l))
    return DiagonalFamilyDriver(op, st, labels=labels)


def gw_nonperturbative_pair(cfg: GwCavityConfig, label, t_samples,
                            dm: float = 0.0):
    """Exact evolution of one cavity mode via the scenario kernel.

    Returns (alpha_nn, beta_nn) over ``t_samples`` (U form, t0 at the first
    sample).
    """
    kx, ky, kz = (np.pi * label[0] / cfg.lengths[0],
                  np.pi * label[1] / cfg.lengths[1],
                  np.pi * label[2] / cfg.lengths[2])
    params = [kx ** 2, ky ** 2, kz ** 2, dm ** 2, cfg.epsilon,
              cfg.wave_frequency(), cfg.tau if cfg.tau is not None else 0.0]
    (qa,), (qb,), (phase,), _ = kernels.pair_evolution(
        kernels.GW_MODE, [params], float(t_samples[0]), t_samples,
        rtol=cfg.tol, atol=cfg.tol, ident_cap=100.0 * cfg.tol)
    rot = np.exp(1j * phase)
    return rot * qa, rot * qb

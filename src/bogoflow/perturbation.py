"""First-order machinery: coupling perturbations, windows, resonances.

For a metric perturbed around a static background with a shared time
profile s(t), the first-order coupling matrices factor as
Delta_ahat(t) = s(t) * A and Delta_bhat(t) = s(t) * B.  The first-order
transformation over a window is then a phase-weighted time integral per
channel, resonant exactly when a profile tone matches w_n - w_m (alpha) or
w_n + w_m (beta).  The Fourier convention is unitary in angular frequency,
F[f](w) = (2 pi)^{-1/2} int dt f(t) e^{-i w t}, so asymptotic coefficients
carry an explicit sqrt(2 pi).
"""

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import dawsn, wofz

from .errors import (InvalidArgument, MissingPerturbedModes,
                     NonDecayingProfile, WindowViolation)
from .evolution import BogoliubovMatrix
from .quadrature import axis_rule
from .spectral import ModeBasis, SeparableMode


# ---------------------------------------------------------------------------
# time profiles


@dataclass(frozen=True)
class HarmonicProfile:
    """Sum of complex tones, optionally under a Gaussian envelope.

    s(t) = sum_j c_j exp(i w_j t) * exp(-t^2/tau^2)   (envelope optional)
    """

    tones: Tuple[Tuple[float, complex], ...]
    gaussian_tau: Optional[float] = None

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for w, c in self.tones:
            out += c * np.exp(1j * w * t)
        if self.gaussian_tau is not None:
            out *= np.exp(-(t / self.gaussian_tau) ** 2)
        return out

    __call__ = value

    @property
    def omega_p(self) -> float:
        return max(abs(w) for w, _ in self.tones) if self.tones else 0.0

    @property
    def decaying(self) -> bool:
        return self.gaussian_tau is not None


def sin_profile(omega: float, gaussian_tau: Optional[float] = None) -> HarmonicProfile:
    return HarmonicProfile(((omega, -0.5j), (-omega, 0.5j)), gaussian_tau)


# ---------------------------------------------------------------------------
# perturbation description


@dataclass(frozen=True)
class PerturbationSpec:
    """Separable first-order perturbation: every delta is s(t) * (x-part).

    ``delta_q``/``delta_rbar`` are spatial parts (scalars or callables of
    points); ``delta_operator`` maps a mode to the x-part of the operator
    perturbation applied to it.  Entries of the resulting coupling are
    O(1): epsilon is applied only when coefficients are assembled.
    """

    epsilon: float
    profile: HarmonicProfile
    delta_q: object = 0.0
    delta_rbar: object = 0.0
    delta_operator: Optional[Callable] = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidArgument("epsilon must be non-negative")


@dataclass(frozen=True)
class PerturbedEigenpairs:
    """x-parts of first-order eigenpair shifts: Dw_n(t) = s(t)*delta_omega[n].

    ``delta_modes`` entries may be None when the mode shapes are unchanged
    to first order.
    """

    delta_omega: np.ndarray
    delta_modes: Optional[tuple] = None


# ---------------------------------------------------------------------------
# delta coupling container


@dataclass(eq=False)
class DeltaCoupling:
    """Time-dependent first-order coupling matrices, epsilon factored out.

    Either (base matrices x shared profile) or explicit per-channel tone
    dictionaries; a numeric fallback with callables plus a declared support
    is accepted where closed forms are unavailable.
    """

    basis: ModeBasis
    epsilon: float
    base_alpha: Optional[np.ndarray] = None
    base_beta: Optional[np.ndarray] = None
    profile: Optional[HarmonicProfile] = None
    tones_alpha: Optional[dict] = None
    tones_beta: Optional[dict] = None
    fn_alpha: Optional[Callable] = None
    fn_beta: Optional[Callable] = None
    support: Optional[Tuple[float, float]] = None
    meta: dict = field(default_factory=dict)

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    @property
    def has_tones(self) -> bool:
        return (self.base_alpha is not None and self.profile is not None) \
            or self.tones_alpha is not None

    @property
    def gaussian_tau(self):
        return self.profile.gaussian_tau if self.profile is not None else None

    def channel_tones(self, kind: str, i: int, j: int):
        """Tone list ((omega, amplitude), ...) of one channel."""
        if self.tones_alpha is not None:
            table = self.tones_alpha if kind == "alpha" else self.tones_beta
            return table.get((i, j), ())
        if self.base_alpha is None or self.profile is None:
            raise InvalidArgument("coupling has no accessible Fourier components")
        base = self.base_alpha if kind == "alpha" else self.base_beta
        amp = base[i, j]
        if amp == 0:
            return ()
        return tuple((w, c * amp) for w, c in self.profile.tones)

    def _matrix_from_tones(self, kind, t):
        n = self.n_modes
        out = np.zeros((n, n), dtype=complex)
        table = self.tones_alpha if kind == "alpha" else self.tones_beta
        env = 1.0
        if self.profile is not None and self.profile.gaussian_tau is not None:
            env = np.exp(-(t / self.profile.gaussian_tau) ** 2)
        for (i, j), tones in table.items():
            out[i, j] = sum(c * np.exp(1j * w * t) for w, c in tones) * env
        return out

    def alpha(self, t: float) -> np.ndarray:
        if self.fn_alpha is not None:
            return np.asarray(self.fn_alpha(t), dtype=complex)
        if self.tones_alpha is not None:
            return self._matrix_from_tones("alpha", t)
        return self.base_alpha * self.profile.value(t)

    def beta(self, t: float) -> np.ndarray:
        if self.fn_beta is not None:
            return np.asarray(self.fn_beta(t), dtype=complex)
        if self.tones_alpha is not None:
            return self._matrix_from_tones("beta", t)
        return self.base_beta * self.profile.value(t)

    def resonant_frequency(self, kind: str, i: int, j: int) -> float:
        w = self.basis.omegas
        return float(w[i] - w[j]) if kind == "alpha" else float(w[i] + w[j])


# ---------------------------------------------------------------------------
# assembly from perturbed eigenpairs or from the operator


def _spatial_gram(basis, rows, weight, conj):
    ctx = basis.context
    return ctx.gram(rows, basis.modes, conj=conj, weight=weight)


def delta_coupling_from_modes(static_basis: ModeBasis,
                              eigpairs: PerturbedEigenpairs,
                              spec: PerturbationSpec) -> DeltaCoupling:
    """First-order coupling from perturbed eigenpairs (mode form)."""
    if eigpairs is None or eigpairs.delta_omega is None:
        raise MissingPerturbedModes("perturbed eigenvalues are required")
    n = static_basis.n_modes
    w = static_basis.omegas
    ctx = static_basis.context
    dw = np.asarray(eigpairs.delta_omega, dtype=complex)
    if dw.shape != (n,):
        raise MissingPerturbedModes("delta_omega must cover every mode")

    w2diff = (w ** 2)[:, None] - (w ** 2)[None, :]
    if eigpairs.delta_modes is not None:
        dm = list(eigpairs.delta_modes)
        if any(m is not None for m in dm):
            zero = [m for m in dm if m is not None][0]
            rows = [m if m is not None else zero.scaled(0.0) for m in dm]
            g_conj = ctx.gram(rows, static_basis.modes, conj=True)
            g_plain = ctx.gram(rows, static_basis.modes, conj=False)
        else:
            g_conj = g_plain = np.zeros((n, n), dtype=complex)
    else:
        g_conj = g_plain = np.zeros((n, n), dtype=complex)

    sq_conj = _spatial_gram(static_basis, static_basis.modes, spec.delta_q, True) \
        if _nonzero(spec.delta_q) else 0.0
    sq_plain = _spatial_gram(static_basis, static_basis.modes, spec.delta_q, False) \
        if _nonzero(spec.delta_q) else 0.0
    xi = static_basis.spacetime.coupling
    if xi != 0.0 and _nonzero(spec.delta_rbar):
        sr_conj = _spatial_gram(static_basis, static_basis.modes, spec.delta_rbar, True)
        sr_plain = _spatial_gram(static_basis, static_basis.modes, spec.delta_rbar, False)
    else:
        sr_conj = sr_plain = 0.0
    s0 = ctx.gram(static_basis.modes, static_basis.modes, conj=False)

    base_alpha = 1j * w2diff * g_conj + w[:, None] * sq_conj + 1j * xi * sr_conj
    base_beta = (-1j * w2diff * g_plain - w[:, None] * sq_plain
                 - 1j * xi * sr_plain - 2j * (w * dw)[:, None] * s0)
    return DeltaCoupling(basis=static_basis, epsilon=spec.epsilon,
                         base_alpha=base_alpha, base_beta=base_beta,
                         profile=spec.profile)


def _nonzero(spatial) -> bool:
    return callable(spatial) or (np.isscalar(spatial) and spatial != 0)


def delta_coupling_operator_form(static_basis: ModeBasis,
                                 spec: PerturbationSpec) -> DeltaCoupling:
    """First-order coupling needing only the static eigenbasis (operator form).

    base_alpha[n, m] = int dV0 [Dhat Phi_n] Phi_m*,
    base_beta[n, m] = -int dV0 [Dhat Phi_n] Phi_m, with
    Dhat Phi_n = [i dO + w_n dq + i xi drbar] Phi_n  (all x-parts).
    """
    if spec.delta_operator is None:
        raise MissingPerturbedModes(
            "operator form requires delta_operator in the perturbation spec")
    n = static_basis.n_modes
    w = static_basis.omegas
    ctx = static_basis.context
    xi = static_basis.spacetime.coupling

    images = []
    for k, mode in enumerate(static_basis.modes):
        img = spec.delta_operator(mode)
        pot = 0.0 + 0.0j
        if _nonzero(spec.delta_q) and np.isscalar(spec.delta_q):
            pot += w[k] * spec.delta_q
        if xi != 0.0 and _nonzero(spec.delta_rbar) and np.isscalar(spec.delta_rbar):
            pot += 1j * xi * spec.delta_rbar
        if isinstance(mode, SeparableMode):
            terms = tuple((1j * c, f) for c, f in img.terms)
            if pot != 0:
                terms = terms + tuple((pot * c, f) for c, f in mode.terms)
            images.append(SeparableMode(mode.label, terms))
        else:
            vals = 1j * img.values + pot * mode.values
            images.append(replace(mode, values=vals))
    if (callable(spec.delta_q) or callable(spec.delta_rbar)):
        raise InvalidArgument(
            "operator form expects spatially constant dq/drbar parts")

    base_alpha = ctx.gram(images, static_basis.modes, conj=True)
    base_beta = -ctx.gram(images, static_basis.modes, conj=False)
    return DeltaCoupling(basis=static_basis, epsilon=spec.epsilon,
                         base_alpha=base_alpha, base_beta=base_beta,
                         profile=spec.profile)


# ---------------------------------------------------------------------------
# window / asymptotic coefficients


def _sinc_half(x):
    # int_0^1 e^{i x u} du has modulus sinc(x/2); stable near x = 0
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = np.abs(x) > 1e-8
    out[nz] = np.sin(0.5 * x[nz]) / (0.5 * x[nz])
    return out


def _scaled_erf(s: float, a: float) -> complex:
    """exp(-a^2) * erf(s - i a), stable for any detuning via the Faddeeva w.

    The naive product overflows once |a| > ~26 (erf grows like exp(a^2) off
    the real axis); rewriting through w(z) = exp(-z^2) erfc(-iz) keeps every
    factor bounded.
    """
    if a < 0:
        return np.conj(_scaled_erf(s, -a))
    if s < 0:
        return -np.conj(_scaled_erf(-s, a))
    if s == 0:
        return -2j * dawsn(a) / np.sqrt(np.pi)
    return np.exp(-a * a) - np.exp(-s * s) * np.exp(2j * a * s) \
        * wofz(a + 1j * s)


def _tone_window_integral(delta, t0, tf, tau):
    """int_{t0}^{tf} e^{i delta t} (envelope) dt, exactly."""
    delta = float(delta)
    if tau is None:
        span = tf - t0
        mid = 0.5 * (t0 + tf)
        return span * np.exp(1j * delta * mid) * float(_sinc_half(np.array([delta * span]))[0])
    a = 0.5 * delta * tau
    return 0.5 * np.sqrt(np.pi) * tau * (_scaled_erf(tf / tau, a)
                                         - _scaled_erf(t0 / tau, a))


def _window_check(dc: DeltaCoupling, t0, tf, meta):
    wp = dc.profile.omega_p if dc.profile is not None else None
    span = abs(tf - t0)
    ok = True
    if wp is not None and wp > 0 and dc.epsilon > 0:
        ok = (wp * span >= 1.0) and (wp * span <= 1.0 / dc.epsilon)
    if not ok:
        warnings.warn(
            f"window omega_p*dt = {wp * span:.3g} outside (1, 1/epsilon)",
            WindowViolation, stacklevel=3)
    meta["window_ok"] = ok
    meta["window"] = (t0, tf)


def _channel_integrals(dc: DeltaCoupling, t0, tf, kind, method):
    """Matrix of int e^{-i w_res t} Delta(t) dt per channel."""
    n = dc.n_modes
    w = dc.basis.omegas
    res = (w[:, None] - w[None, :]) if kind == "alpha" else (w[:, None] + w[None, :])
    out = np.zeros((n, n), dtype=complex)
    if method == "tones" or (method == "auto" and dc.has_tones):
        tau = dc.gaussian_tau
        for i in range(n):
            for j in range(n):
                tones = dc.channel_tones(kind, i, j)
                acc = 0.0 + 0.0j
                for omega_t, amp in tones:
                    acc += amp * _tone_window_integral(omega_t - res[i, j],
                                                       t0, tf, tau)
                out[i, j] = acc
        return out
    # adaptive Gauss-Legendre in time on all channels at once
    fn = dc.alpha if kind == "alpha" else dc.beta
    order, prev = 32, None
    while order <= 16384:
        tq, wq = axis_rule(order, t0, tf)
        vals = np.stack([fn(t) for t in tq])            # (nq, n, n)
        phases = np.exp(-1j * np.einsum("ij,q->qij", res, tq))
        est = np.einsum("q,qij->ij", wq, vals * phases)
        if prev is not None and np.max(np.abs(est - prev)) <= \
                1e-10 * max(np.max(np.abs(est)), 1e-300) + 1e-14:
            return est
        prev = est
        order *= 2
    return prev


def window_coefficients(dc: DeltaCoupling, static_basis: ModeBasis,
                        t0: float, tf: float,
                        method: str = "auto") -> BogoliubovMatrix:
    """First-order transformation over [t0, tf].

    alpha_nn = 1; alpha_nm (n != m) and beta_nm are epsilon times the
    phase-weighted window integrals of the coupling channels.  Outside the
    validity window 1 << omega_p dt << 1/epsilon a WindowViolation warning
    is emitted and recorded in ``meta`` (not fatal).
    """
    meta = {}
    _window_check(dc, t0, tf, meta)
    a_int = _channel_integrals(dc, t0, tf, "alpha", method)
    b_int = _channel_integrals(dc, t0, tf, "beta", method)
    n = dc.n_modes
    alpha = dc.epsilon * a_int
    np.fill_diagonal(alpha, 1.0)
    beta = dc.epsilon * b_int
    out = BogoliubovMatrix(alpha, beta, meta)
    out.meta["first_order"] = True
    return out


def asymptotic_coefficients(dc: DeltaCoupling,
                            static_basis: ModeBasis) -> BogoliubovMatrix:
    """Whole-line coefficients from Fourier transforms of the coupling.

    Requires a decaying profile; with the unitary angular-frequency
    convention the result is epsilon * sqrt(2 pi) * F[channel](w_res).
    """
    n = dc.n_modes
    w = dc.basis.omegas
    if dc.has_tones:
        tau = dc.gaussian_tau
        if tau is None:
            raise NonDecayingProfile(
                "asymptotic coefficients need a decaying envelope")
        alpha = np.zeros((n, n), dtype=complex)
        beta = np.zeros((n, n), dtype=complex)
        for kind, out in (("alpha", alpha), ("beta", beta)):
            for i in range(n):
                for j in range(n):
                    res = dc.resonant_frequency(kind, i, j)
                    acc = 0.0 + 0.0j
                    for omega_t, amp in dc.channel_tones(kind, i, j):
                        acc += amp * np.sqrt(np.pi) * tau * np.exp(
                            -0.25 * (res - omega_t) ** 2 * tau ** 2)
                    out[i, j] = dc.epsilon * acc
    elif dc.support is not None:
        t0, tf = dc.support
        alpha = dc.epsilon * _channel_integrals(dc, t0, tf, "alpha", "quadrature")
        beta = dc.epsilon * _channel_integrals(dc, t0, tf, "beta", "quadrature")
    else:
        raise NonDecayingProfile(
            "asymptotic coefficients need a decaying envelope or support")
    np.fill_diagonal(alpha, 1.0)
    out = BogoliubovMatrix(alpha, beta, {"first_order": True, "asymptotic": True})
    return out


# ---------------------------------------------------------------------------
# equivalence reduction and resonance scan


def _tone_tables(dc: DeltaCoupling):
    if not dc.has_tones:
        raise InvalidArgument(
            "equivalence reduction needs accessible Fourier components")
    n = dc.n_modes
    tables = {}
    for kind in ("alpha", "beta"):
        table = {}
        for i in range(n):
            for j in range(n):
                tones = dc.channel_tones(kind, i, j)
                if tones:
                    table[(i, j)] = tuple(tones)
        tables[kind] = table
    return tables


def equivalence_reduce(dc: DeltaCoupling, static_basis: ModeBasis,
                       freq_rtol: float = 1e-9) -> DeltaCoupling:
    """Keep only resonant tone content; the result drives the same resonances.

    Any channel component at a frequency other than the channel's resonant
    frequency is expressible as dX/dt - i*w_res*X for a tone X and cannot
    contribute to resonance, so it is dropped.  Diagonal alpha channels are
    dropped entirely (their first-order effect is a pure phase).
    """
    tables = _tone_tables(dc)
    out_tables = {"alpha": {}, "beta": {}}
    for kind in ("alpha", "beta"):
        for (i, j), tones in tables[kind].items():
            if kind == "alpha" and i == j:
                continue
            res = dc.resonant_frequency(kind, i, j)
            tol = freq_rtol * (1.0 + abs(res))
            kept = tuple((wt, amp) for wt, amp in tones if abs(wt - res) <= tol)
            if kept:
                out_tables[kind][(i, j)] = kept
    return DeltaCoupling(basis=dc.basis, epsilon=dc.epsilon,
                         profile=dc.profile,
                         tones_alpha=out_tables["alpha"],
                         tones_beta=out_tables["beta"])


@dataclass(frozen=True)
class ResonanceEntry:
    kind: str
    n: tuple
    m: tuple
    resonant_frequency: float
    rate: complex


@dataclass(eq=False)
class ResonanceReport:
    entries: Tuple[ResonanceEntry, ...]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def channels(self):
        return {(e.kind, e.n, e.m) for e in self.entries}


def resonance_scan(dc: DeltaCoupling, static_basis: ModeBasis,
                   detuning_window: float,
                   rate_floor_rel: float = 1e-10) -> ResonanceReport:
    """All channels with tone content within ``detuning_window`` of resonance.

    Rates are epsilon times the matched Fourier amplitudes (growth per unit
    time at exact resonance).  Diagonal alpha channels are excluded; beta
    channels are reported once per unordered pair.
    """
    tables = _tone_tables(dc)
    labels = dc.basis.labels
    floor = 0.0
    all_amps = [abs(a) for table in tables.values()
                for tones in table.values() for _, a in tones]
    if all_amps:
        floor = rate_floor_rel * max(all_amps)
    entries = []
    for kind in ("alpha", "beta"):
        for (i, j), tones in tables[kind].items():
            if kind == "alpha" and i == j:
                continue
            if kind == "beta" and j < i:
                continue
            res = dc.resonant_frequency(kind, i, j)
            rate = sum(amp for wt, amp in tones
                       if abs(wt - res) < detuning_window)
            if abs(rate) > floor:
                entries.append(ResonanceEntry(
                    kind=kind, n=labels[i], m=labels[j],
                    resonant_frequency=res, rate=dc.epsilon * complex(rate)))
    entries.sort(key=lambda e: -abs(e.rate))
    return ResonanceReport(tuple(entries))

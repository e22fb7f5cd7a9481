"""First-order machinery: coupling perturbations, windows, resonances.

For a metric perturbed around a static background with a shared time
profile s(t), the first-order coupling matrices factor as
Delta_ahat(t) = s(t) * A and Delta_bhat(t) = s(t) * B.  The first-order
transformation over a window is then a phase-weighted time integral per
channel, resonant exactly when a profile tone matches w_n - w_m (alpha) or
w_n + w_m (beta).  The Fourier convention is unitary in angular frequency,
F[f](w) = (2 pi)^{-1/2} int dt f(t) e^{-i w t}, so asymptotic coefficients
carry an explicit sqrt(2 pi).

Every ``DeltaCoupling`` holds its Fourier content as one tone array:
frequencies ``freqs`` (T,), amplitudes ``amps`` (2, T, n, n) for alpha and
beta, and an optional Gaussian envelope duration ``tau``.  Window
integrals, asymptotic coefficients, the equivalence reduction and the
resonance scan are array operations over the detunings
``freqs - resonances``.  ``window_coefficients`` integrates each tone
exactly (``method="tones"``, the default) or the whole coupling by
adaptive Gauss-Legendre quadrature in time (``method="quadrature"``).
"""

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import dawsn, wofz

from .errors import (InvalidArgument, MissingPerturbedModes,
                     NonDecayingProfile, QuadratureFailure, WindowViolation)
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

#: order of the leading ``amps`` axis
KINDS = ("alpha", "beta")


@dataclass(eq=False)
class DeltaCoupling:
    """Time-dependent first-order coupling matrices, epsilon factored out.

    Built from base matrices times a shared profile (``base_alpha``,
    ``base_beta``, ``profile``) or from per-channel tone tables
    (``tones_alpha``, ``tones_beta``: {(i, j): ((omega, amplitude), ...)},
    with an optional ``profile`` supplying the envelope).  Either form is
    stored as one tone array: ``freqs`` (T,), ``amps`` (2, T, n, n) for
    alpha and beta, and the Gaussian envelope duration ``tau`` (or None),
    so that channel (i, j) of kind k is
    sum_t amps[k, t, i, j] exp(i freqs[t] t) exp(-t^2/tau^2).
    """

    basis: ModeBasis
    epsilon: float
    base_alpha: Optional[np.ndarray] = None
    base_beta: Optional[np.ndarray] = None
    profile: Optional[HarmonicProfile] = None
    tones_alpha: Optional[dict] = None
    tones_beta: Optional[dict] = None
    meta: dict = field(default_factory=dict)
    freqs: np.ndarray = field(init=False, repr=False)
    amps: np.ndarray = field(init=False, repr=False)
    tau: Optional[float] = field(init=False)

    def __post_init__(self):
        if self.base_alpha is not None and self.base_beta is not None \
                and self.profile is not None:
            self.freqs = np.array([w for w, _ in self.profile.tones], dtype=float)
            coef = np.array([c for _, c in self.profile.tones], dtype=complex)
            base = np.stack([self.base_alpha, self.base_beta])
            self.amps = coef[None, :, None, None] * base[:, None]
        elif self.tones_alpha is not None or self.tones_beta is not None:
            tables = (self.tones_alpha or {}, self.tones_beta or {})
            self.freqs = np.unique([w for table in tables
                                    for tones in table.values() for w, _ in tones])
            n = self.n_modes
            self.amps = np.zeros((2, self.freqs.size, n, n), dtype=complex)
            for k, table in enumerate(tables):
                for (i, j), tones in table.items():
                    for w, c in tones:
                        self.amps[k, np.searchsorted(self.freqs, w), i, j] += c
        else:
            raise InvalidArgument(
                "coupling needs base matrices with a profile, or tone tables")
        self.tau = self.profile.gaussian_tau if self.profile is not None else None

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    @property
    def resonances(self) -> np.ndarray:
        """(2, n, n) resonant frequencies: w_i - w_j (alpha), w_i + w_j (beta)."""
        w = self.basis.omegas
        return np.stack([w[:, None] - w[None, :], w[:, None] + w[None, :]])

    @property
    def detunings(self) -> np.ndarray:
        """(2, T, n, n) tone frequency minus channel resonant frequency."""
        return self.freqs[None, :, None, None] - self.resonances[:, None]

    def channel_tones(self, kind: str, i: int, j: int):
        """Tone list ((omega, amplitude), ...) of one channel."""
        amps = self.amps[KINDS.index(kind), :, i, j]
        return tuple((float(w), complex(c))
                     for w, c in zip(self.freqs, amps) if c != 0)

    def _at(self, k: int, t):
        """Matrices of kind k at time(s) t, shape t.shape + (n, n)."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(1j * np.multiply.outer(t, self.freqs))
        if self.tau is not None:
            phases = phases * np.exp(-(t / self.tau) ** 2)[..., None]
        return np.einsum("...t,tij->...ij", phases, self.amps[k])

    def alpha(self, t: float) -> np.ndarray:
        return self._at(0, t)

    def beta(self, t: float) -> np.ndarray:
        return self._at(1, t)

    def resonant_frequency(self, kind: str, i: int, j: int) -> float:
        return float(self.resonances[KINDS.index(kind), i, j])


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
# window / asymptotic coefficients; each ``static_basis`` below must equal
# ``dc.basis`` in labels and frequencies, else InvalidArgument


def _scaled_erf(s: float, a):
    """exp(-a^2) * erf(s - i a), stable for any detuning via the Faddeeva w.

    The naive product overflows once |a| > ~26 (erf grows like exp(a^2) off
    the real axis); rewriting through w(z) = exp(-z^2) erfc(-iz) keeps every
    factor bounded.  Evaluated at |s|, |a| and mapped back by the symmetries
    f(-s, a) = -conj f(s, a) and f(s, -a) = conj f(s, a).
    """
    a = np.asarray(a, dtype=float)
    s_abs, a_abs = abs(s), np.abs(a)
    if s_abs == 0:
        out = -2j * dawsn(a_abs) / np.sqrt(np.pi)
    else:
        out = np.exp(-a_abs ** 2) - np.exp(-s_abs ** 2) \
            * np.exp(2j * a_abs * s_abs) * wofz(a_abs + 1j * s_abs)
    if s < 0:
        out = -np.conj(out)
    return np.where(a < 0, np.conj(out), out)


def _tone_window_integral(delta, t0, tf, tau):
    """int_{t0}^{tf} e^{i delta t} (envelope) dt, exactly, for arrays of delta."""
    delta = np.asarray(delta, dtype=float)
    if tau is None:
        # int_0^1 e^{i x u} du has modulus sinc(x/2) = np.sinc(x/(2 pi))
        span = tf - t0
        return span * np.exp(0.5j * delta * (t0 + tf)) \
            * np.sinc(delta * span / (2.0 * np.pi))
    a = 0.5 * delta * tau
    return 0.5 * np.sqrt(np.pi) * tau * (_scaled_erf(tf / tau, a)
                                         - _scaled_erf(t0 / tau, a))


def _check_static_basis(dc: DeltaCoupling, static_basis: ModeBasis):
    if static_basis.labels != dc.basis.labels or not np.array_equal(
            static_basis.omegas, dc.basis.omegas):
        raise InvalidArgument(
            "static_basis differs from the basis the coupling was built on")


def _window_check(dc: DeltaCoupling, t0, tf, meta):
    wp = float(np.max(np.abs(dc.freqs), initial=0.0))
    span = abs(tf - t0)
    ok = True
    if wp > 0 and dc.epsilon > 0:
        ok = (wp * span >= 1.0) and (wp * span <= 1.0 / dc.epsilon)
    if not ok:
        warnings.warn(
            f"window omega_p*dt = {wp * span:.3g} outside (1, 1/epsilon)",
            WindowViolation, stacklevel=3)
    meta["window_ok"] = ok
    meta["window"] = (t0, tf)


def _channel_integrals(dc: DeltaCoupling, t0, tf, method):
    """(2, n, n) int e^{-i w_res t} Delta(t) dt per kind and channel."""
    if method == "tones":
        return np.sum(dc.amps * _tone_window_integral(dc.detunings, t0, tf,
                                                      dc.tau), axis=1)
    # adaptive Gauss-Legendre in time on all channels of one kind at once
    return np.stack([_quadrature_integrals(dc, k, t0, tf) for k in (0, 1)])


def _quadrature_integrals(dc: DeltaCoupling, k, t0, tf):
    res = dc.resonances[k]
    order, prev = 32, None
    while order <= 16384:
        tq, wq = axis_rule(order, t0, tf)
        vals = dc._at(k, tq)                            # (nq, n, n)
        phases = np.exp(-1j * np.einsum("ij,q->qij", res, tq))
        est = np.einsum("q,qij->ij", wq, vals * phases)
        if prev is not None and np.max(np.abs(est - prev)) <= \
                1e-10 * max(np.max(np.abs(est)), 1e-300) + 1e-14:
            return est
        prev = est
        order *= 2
    raise QuadratureFailure(
        f"window integrals over ({t0}, {tf}) not converged up to "
        f"Gauss-Legendre order {order // 2}")


def window_coefficients(dc: DeltaCoupling, static_basis: ModeBasis,
                        t0: float, tf: float,
                        method: str = "tones") -> BogoliubovMatrix:
    """First-order transformation over [t0, tf].

    alpha_nn = 1; alpha_nm (n != m) and beta_nm are epsilon times the
    phase-weighted window integrals of the coupling channels: exact per
    tone with ``method="tones"``, adaptive Gauss-Legendre in time with
    ``method="quadrature"``.  Outside the validity window
    1 << omega_p dt << 1/epsilon, with omega_p the largest |tone frequency|,
    a WindowViolation warning is emitted and recorded in ``meta`` (not fatal).
    """
    if method not in ("tones", "quadrature"):
        raise InvalidArgument(
            f"method must be 'tones' or 'quadrature', not {method!r}")
    _check_static_basis(dc, static_basis)
    meta = {}
    _window_check(dc, t0, tf, meta)
    alpha, beta = dc.epsilon * _channel_integrals(dc, t0, tf, method)
    np.fill_diagonal(alpha, 1.0)
    out = BogoliubovMatrix(alpha, beta, meta)
    out.meta["first_order"] = True
    return out


def asymptotic_coefficients(dc: DeltaCoupling,
                            static_basis: ModeBasis) -> BogoliubovMatrix:
    """Whole-line coefficients from Fourier transforms of the coupling.

    Requires a decaying profile; with the unitary angular-frequency
    convention the result is epsilon * sqrt(2 pi) * F[channel](w_res).
    """
    _check_static_basis(dc, static_basis)
    tau = dc.tau
    if tau is None:
        raise NonDecayingProfile("asymptotic coefficients need a decaying envelope")
    gauss = np.sqrt(np.pi) * tau * np.exp(-0.25 * dc.detunings ** 2 * tau ** 2)
    alpha, beta = dc.epsilon * np.sum(dc.amps * gauss, axis=1)
    np.fill_diagonal(alpha, 1.0)
    return BogoliubovMatrix(alpha, beta, {"first_order": True, "asymptotic": True})


# ---------------------------------------------------------------------------
# equivalence reduction and resonance scan


def equivalence_reduce(dc: DeltaCoupling, static_basis: ModeBasis,
                       freq_rtol: float = 1e-9) -> DeltaCoupling:
    """Keep only resonant tone content; the result drives the same resonances.

    Any channel component at a frequency other than the channel's resonant
    frequency is expressible as dX/dt - i*w_res*X for a tone X and cannot
    contribute to resonance, so it is dropped.  Diagonal alpha channels are
    dropped entirely (their first-order effect is a pure phase).
    """
    _check_static_basis(dc, static_basis)
    tol = freq_rtol * (1.0 + np.abs(dc.resonances))
    keep = np.abs(dc.detunings) <= tol[:, None]
    keep[0] &= ~np.eye(dc.n_modes, dtype=bool)
    out = DeltaCoupling(basis=dc.basis, epsilon=dc.epsilon, profile=dc.profile,
                        tones_alpha={})
    out.freqs, out.amps = dc.freqs, np.where(keep, dc.amps, 0.0)
    return out


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
    _check_static_basis(dc, static_basis)
    n = dc.n_modes
    floor = rate_floor_rel * np.max(np.abs(dc.amps), initial=0.0)
    matched = np.abs(dc.detunings) < detuning_window
    rates = np.sum(np.where(matched, dc.amps, 0.0), axis=1)
    keep = np.abs(rates) > floor
    keep[0] &= ~np.eye(n, dtype=bool)
    keep[1] &= np.triu(np.ones((n, n), dtype=bool))
    labels = dc.basis.labels
    res = dc.resonances
    entries = [ResonanceEntry(kind=KINDS[k], n=labels[i], m=labels[j],
                              resonant_frequency=float(res[k, i, j]),
                              rate=dc.epsilon * complex(rates[k, i, j]))
               for k, i, j in zip(*np.nonzero(keep))]
    entries.sort(key=lambda e: -abs(e.rate))
    return ResonanceReport(tuple(entries))

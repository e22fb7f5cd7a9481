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
exactly (``method="tones"``, the default) or the whole coupling on
composite Gauss-Legendre panels in time, doubling the panel count until
two estimates agree (``method="quadrature"``).
"""

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (InvalidArgument, MissingPerturbedModes,
                     NonDecayingProfile, QuadratureFailure, WindowViolation)
from .evolution import BogoliubovMatrix
from .quadrature import panel_rule
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

    ``delta_q``/``delta_rbar`` are spatially constant x-parts (scalars);
    ``delta_operator`` maps a mode to the x-part of the operator
    perturbation applied to it.  Entries of the resulting coupling are
    O(1): epsilon is applied only when coefficients are assembled.
    """

    epsilon: float
    profile: HarmonicProfile
    delta_q: complex = 0.0
    delta_rbar: complex = 0.0
    delta_operator: Optional[Callable] = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidArgument("epsilon must be non-negative")
        if not (np.isscalar(self.delta_q) and np.isscalar(self.delta_rbar)):
            raise InvalidArgument("dq/drbar parts must be spatially constant")


# ---------------------------------------------------------------------------
# delta coupling container

#: order of the leading ``amps`` axis
KINDS = ("alpha", "beta")
#: a tone is resonant when its detuning is within this fraction of 1 + |w_res|
_FREQ_RTOL = 1e-9
#: scan rates at or below this fraction of the largest amplitude are noise
_RATE_FLOOR_REL = 1e-10
#: node budget of a numeric window integral (512 panels of 32 points)
_WINDOW_MAX_NODES = 16384


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

    def _at(self, k: int, t, live=None):
        """Matrices of kind k at time(s) t, shape t.shape + (n, n); with a
        boolean (n, n) mask ``live``, its channels only, t.shape + (L,)."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(1j * np.multiply.outer(t, self.freqs))
        if self.tau is not None:
            phases = phases * np.exp(-(t / self.tau) ** 2)[..., None]
        if live is not None:
            return np.einsum("...t,tl->...l", phases, self.amps[k][:, live])
        return np.einsum("...t,tij->...ij", phases, self.amps[k])

    def alpha(self, t: float) -> np.ndarray:
        return self._at(0, t)

    def beta(self, t: float) -> np.ndarray:
        return self._at(1, t)

    def resonant_frequency(self, kind: str, i: int, j: int) -> float:
        return float(self.resonances[KINDS.index(kind), i, j])


# ---------------------------------------------------------------------------
# assembly from frequency drifts or from the operator


def delta_coupling_from_modes(static_basis: ModeBasis, delta_omega,
                              spec: PerturbationSpec) -> DeltaCoupling:
    """First-order coupling from frequency drifts (mode form).

    For a perturbation that keeps the mode shapes and has dq = drbar = 0,
    the drifts Dw_n(t) = s(t) * delta_omega[n] are the whole first-order
    content: base_alpha = 0 and base_beta = -2i (w delta_omega)[:, None] S0,
    with S0 the plain Gram of the static basis.  Anything else takes
    :func:`delta_coupling_operator_form`.
    """
    if spec.delta_q != 0 or spec.delta_rbar != 0:
        raise InvalidArgument("dq/drbar need the operator form")
    n = static_basis.n_modes
    if np.shape(delta_omega) != (n,):
        raise MissingPerturbedModes("delta_omega must cover every mode")
    dw = np.asarray(delta_omega, dtype=complex)
    s0 = static_basis.context.gram(static_basis.modes, static_basis.modes,
                                   conj=False)
    base_beta = -2j * (static_basis.omegas * dw)[:, None] * s0
    return DeltaCoupling(basis=static_basis, epsilon=spec.epsilon,
                         base_alpha=np.zeros((n, n), dtype=complex),
                         base_beta=base_beta, profile=spec.profile)


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
        pot = w[k] * spec.delta_q + 1j * xi * spec.delta_rbar
        if isinstance(mode, SeparableMode):
            terms = tuple((1j * c, f) for c, f in img.terms)
            if pot != 0:
                terms = terms + tuple((pot * c, f) for c, f in mode.terms)
            images.append(SeparableMode(mode.label, terms))
        else:
            vals = 1j * img.values + pot * mode.values
            images.append(replace(mode, values=vals))

    base_alpha = ctx.gram(images, static_basis.modes, conj=True)
    base_beta = -ctx.gram(images, static_basis.modes, conj=False)
    return DeltaCoupling(basis=static_basis, epsilon=spec.epsilon,
                         base_alpha=base_alpha, base_beta=base_beta,
                         profile=spec.profile)


# ---------------------------------------------------------------------------
# window / asymptotic coefficients; each ``static_basis`` below must equal
# ``dc.basis`` in labels and frequencies, else InvalidArgument


def _scaled_erf(s, a):
    """exp(-a^2) * erf(s - i a), stable for any detuning via the Faddeeva w.

    The naive product overflows once |a| > ~26 (erf grows like exp(a^2) off
    the real axis); rewriting through w(z) = exp(-z^2) erfc(-iz) keeps every
    factor bounded.  Evaluated at |s|, |a| and mapped back by the symmetries
    f(-s, a) = -conj f(s, a) and f(s, -a) = conj f(s, a).  ``s`` and ``a``
    broadcast against each other.
    """
    from scipy.special import dawsn, wofz
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    s_abs, a_abs = np.abs(s), np.abs(a)
    out = np.where(s_abs == 0, -2j * dawsn(a_abs) / np.sqrt(np.pi),
                   np.exp(-a_abs ** 2) - np.exp(-s_abs ** 2)
                   * np.exp(2j * a_abs * s_abs) * wofz(a_abs + 1j * s_abs))
    out = np.where(s < 0, -np.conj(out), out)
    return np.where(a < 0, np.conj(out), out)


def _tone_window_integral(delta, t0, tf, tau):
    """int_{t0}^{tf} e^{i delta t} (envelope) dt, exactly; ``delta`` and
    ``tf`` may be arrays that broadcast against each other."""
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
    # composite Gauss-Legendre panels in time on the live channels of a kind
    return np.stack([_quadrature_integrals(dc, k, t0, tf) for k in (0, 1)])


def _quadrature_integrals(dc: DeltaCoupling, k, t0, tf):
    """(n, n) window integrals of kind k; channels without tones stay 0."""
    out = np.zeros((dc.n_modes,) * 2, dtype=complex)
    live = np.any(dc.amps[k] != 0, axis=0)
    if not live.any():
        return out
    res = dc.resonances[k][live]
    panels, prev = 1, None
    while True:
        tq, wq = panel_rule(panels, t0, tf)
        vals = dc._at(k, tq, live)                      # (nq, L)
        phases = np.exp(-1j * np.multiply.outer(tq, res))
        est = np.einsum("q,ql->l", wq, vals * phases)
        if prev is not None and np.max(np.abs(est - prev)) <= \
                1e-10 * max(np.max(np.abs(est)), 1e-300) + 1e-14:
            out[live] = est
            return out
        if tq.size >= _WINDOW_MAX_NODES:
            raise QuadratureFailure(
                f"window integrals over ({t0}, {tf}) not converged with "
                f"{tq.size} Gauss-Legendre nodes")
        prev = est
        panels *= 2


def window_coefficients(dc: DeltaCoupling, static_basis: ModeBasis,
                        t0: float, tf: float,
                        method: str = "tones") -> BogoliubovMatrix:
    """First-order transformation over [t0, tf].

    alpha_nn = 1; alpha_nm (n != m) and beta_nm are epsilon times the
    phase-weighted window integrals of the coupling channels: exact per
    tone with ``method="tones"``, on composite Gauss-Legendre panels in
    time with ``method="quadrature"`` (the panel count doubles until two
    estimates agree; QuadratureFailure past 16384 nodes).  Outside the
    validity window 1 << omega_p dt << 1/epsilon, with omega_p the largest
    |tone frequency|, a WindowViolation warning is emitted and recorded in
    ``meta`` (not fatal).
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


def window_series(dc: DeltaCoupling, t0: float, ts,
                  channels) -> np.ndarray:
    """First-order coefficients of a few channels over [t0, t] for every t
    in ``ts``, shape (len(ts), len(channels)).

    ``channels`` holds (kind, i, j) triples with kind "alpha" or "beta".
    Entry [s, c] equals ``window_coefficients(dc, dc.basis, t0, ts[s])``'s
    entry (i, j) of that kind, from exact tone integrals over all end times
    at once.  The series starts at short windows by design, so no validity
    window is checked.
    """
    ts = np.asarray(ts, dtype=float)
    if not len(channels):
        return np.zeros((ts.size, 0), dtype=complex)
    k, i, j = (np.array(v) for v in zip(*[(KINDS.index(kind), i, j)
                                          for kind, i, j in channels]))
    w = dc.basis.omegas
    res = np.where(k == 0, w[i] - w[j], w[i] + w[j])
    amps = dc.amps[k, :, i, j].T                        # (T, C)
    detunings = dc.freqs[:, None] - res                 # (T, C)
    grid = _tone_window_integral(detunings[:, None], t0, ts[:, None], dc.tau)
    out = dc.epsilon * np.sum(amps[:, None] * grid, axis=0)
    out[:, (k == 0) & (i == j)] = 1.0
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


def equivalence_reduce(dc: DeltaCoupling, static_basis: ModeBasis) -> DeltaCoupling:
    """Keep only resonant tone content; the result drives the same resonances.

    Any channel component at a frequency other than the channel's resonant
    frequency is expressible as dX/dt - i*w_res*X for a tone X and cannot
    contribute to resonance, so it is dropped.  Diagonal alpha channels are
    dropped entirely (their first-order effect is a pure phase).
    """
    _check_static_basis(dc, static_basis)
    tol = _FREQ_RTOL * (1.0 + np.abs(dc.resonances))
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
                   detuning_window: float) -> ResonanceReport:
    """All channels with tone content within ``detuning_window`` of resonance.

    Rates are epsilon times the matched Fourier amplitudes (growth per unit
    time at exact resonance).  Diagonal alpha channels are excluded; beta
    channels are reported once per unordered pair.
    """
    _check_static_basis(dc, static_basis)
    n = dc.n_modes
    floor = _RATE_FLOOR_REL * np.max(np.abs(dc.amps), initial=0.0)
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

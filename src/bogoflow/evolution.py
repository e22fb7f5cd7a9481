"""Integration of the matrix ODE for the time-dependent transformation.

The full transformation U(t, t0) evolves as dU/dt = [i Omega(t) + K(t)] U
with K assembled from the coupling matrices; Q(t, t0) strips the diagonal
phase accumulated by i Omega + diag(ahat), which removes the fastest
oscillations and is preferred for perturbative and long runs.  Both forms
integrate only the top blocks (alpha, beta); the lower blocks are their
conjugates by construction.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .coupling import CouplingMatrices
from .errors import DimensionMismatch, IdentityDrift, InvalidArgument
from .integrators import solve_dopri


@dataclass(eq=False)
class BogoliubovMatrix:
    """alpha/beta blocks of the 2N x 2N transformation."""

    alpha: np.ndarray
    beta: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=complex)
        self.beta = np.asarray(self.beta, dtype=complex)
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 2 \
                or self.alpha.shape[0] != self.alpha.shape[1]:
            raise DimensionMismatch("alpha and beta must be square and congruent")

    @property
    def n_modes(self) -> int:
        return self.alpha.shape[0]

    def full_matrix(self) -> np.ndarray:
        top = np.hstack([self.alpha, self.beta])
        bot = np.hstack([np.conj(self.beta), np.conj(self.alpha)])
        return np.vstack([top, bot])

    @classmethod
    def identity(cls, n: int) -> "BogoliubovMatrix":
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))


@dataclass(eq=False)
class PhaseAccumulator:
    """Diagonal phase Theta(t) stripped from U."""

    log_phase: np.ndarray      # p_n = i * int w_n + int ahat_nn   (length N)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([np.exp(self.log_phase),
                               np.exp(-self.log_phase)])

    def to_U(self, q: BogoliubovMatrix) -> BogoliubovMatrix:
        p = np.exp(self.log_phase)[:, None]
        return BogoliubovMatrix(p * q.alpha, p * q.beta, dict(q.meta))


def identity_residual(b: BogoliubovMatrix) -> float:
    """Max elementwise residual of the bilinear transformation identities.

    Equivalent to || B^{-1} - J B^dag J ||_max without forming an inverse:
    alpha alpha^dag - beta beta^dag = I, alpha beta^T symmetric, and the
    adjoint-side pair.
    """
    a, bm = b.alpha, b.beta
    eye = np.eye(b.n_modes)
    r = [a @ a.conj().T - bm @ bm.conj().T - eye,
         a @ bm.T - bm @ a.T,
         a.conj().T @ a - bm.T @ bm.conj() - eye,
         a.conj().T @ bm - bm.T @ a.conj()]
    return float(max(np.max(np.abs(m)) for m in r))


def compose(b2: BogoliubovMatrix, b1: BogoliubovMatrix) -> BogoliubovMatrix:
    """Block product respecting the conjugate structure: U(2,0) = U(2,1) U(1,0)."""
    if b2.n_modes != b1.n_modes:
        raise DimensionMismatch(
            f"mode counts differ: {b2.n_modes} vs {b1.n_modes}")
    alpha = b2.alpha @ b1.alpha + b2.beta @ np.conj(b1.beta)
    beta = b2.alpha @ b1.beta + b2.beta @ np.conj(b1.alpha)
    return BogoliubovMatrix(alpha, beta)


def _unpack(sample):
    omegas, coup = sample
    if isinstance(coup, CouplingMatrices):
        return np.asarray(omegas, dtype=float), coup.alpha_hat, coup.beta_hat
    ahat, bhat = coup
    return np.asarray(omegas, dtype=float), ahat, bhat


class LastCall:
    """``fn(t)``, evaluated once per distinct time in a row of calls.

    A DOPRI5 step evaluates its last two stages at the same t + h, and a
    solve's first right-hand side repeats the time the set-up asked for;
    both reuse the value of the call before.  ``calls`` counts the
    evaluations of ``fn``.
    """

    def __init__(self, fn: Callable):
        self.fn = fn
        self.calls = 0
        self._last = (None, None)

    def __call__(self, t):
        last_t, value = self._last
        if last_t is None or last_t != t:
            value = self.fn(t)
            self._last = (t, value)
            self.calls += 1
        return value


def static_driver(omegas) -> Callable:
    """Driver of a static slice: K = 0, constant frequencies."""
    w = np.asarray(omegas, dtype=float)
    n = len(w)
    z = np.zeros((n, n), dtype=complex)
    return lambda t: (w, (z, z))


def _monitor(tol, get_blocks):
    cap = 100.0 * tol

    def hook(t, y):
        res = identity_residual(BogoliubovMatrix(*get_blocks(y)))
        if res > cap:
            raise IdentityDrift(
                f"identity residual {res:.3e} exceeded {cap:.3e} at t={t:.6g}")
    return hook


def evolve_U(driver: Callable, t0: float, tf: float, tol: float = 1e-10,
             t_eval: Optional[Sequence[float]] = None):
    """Integrate dU/dt = [i Omega + K] U with U(t0, t0) = I.

    Returns the final :class:`BogoliubovMatrix` (with the identity residual,
    the step counts and ``driver_calls``, the driver's evaluations, in
    ``meta``); with ``t_eval`` a list of matrices at the sample times is
    returned instead.  The driver runs once per distinct time.
    """
    if tf == t0:
        raise InvalidArgument("tf must differ from t0")
    drive = LastCall(lambda t: _unpack(driver(t)))
    n = len(drive(float(t0))[0])

    def blocks(y):
        return y[:n * n].reshape(n, n), y[n * n:].reshape(n, n)

    def rhs(t, y):
        w, ah, bh = drive(t)
        A, B = blocks(y)
        iw = 1j * w[:, None]
        dA = iw * A + ah @ A + bh @ np.conj(B)
        dB = iw * B + ah @ B + bh @ np.conj(A)
        return np.concatenate([dA.ravel(), dB.ravel()])

    y0 = np.concatenate([np.eye(n, dtype=complex).ravel(),
                         np.zeros(n * n, dtype=complex)])
    hook = _monitor(tol, blocks)
    res = solve_dopri(rhs, t0, tf, y0, rtol=tol, atol=tol,
                      t_eval=t_eval, step_hook=hook)

    def to_matrix(y):
        A, B = blocks(y)
        m = BogoliubovMatrix(A.copy(), B.copy())
        m.meta.update(res.stats(), driver_calls=drive.calls, tol=tol,
                      identity_residual=identity_residual(m))
        return m

    if t_eval is None:
        return to_matrix(res.y[-1])
    return [to_matrix(y) for y in res.y]


def evolve_Q(driver: Callable, t0: float, tf: float, tol: float = 1e-10,
             t_eval: Optional[Sequence[float]] = None):
    """Integrate the phase-stripped form dQ/dt = Theta* (K - A) Theta Q.

    The diagonal log-phase p_n = int [i w_n + ahat_nn] dt is carried as
    extra state so U = Theta Q is recoverable exactly.  Returns
    (BogoliubovMatrix of Q blocks, PhaseAccumulator), or lists of both when
    ``t_eval`` is given; ``meta`` holds what :func:`evolve_U` puts there.
    """
    if tf == t0:
        raise InvalidArgument("tf must differ from t0")
    drive = LastCall(lambda t: _unpack(driver(t)))
    n = len(drive(float(t0))[0])
    nn = n * n

    def blocks(y):
        return y[:nn].reshape(n, n), y[nn:2 * nn].reshape(n, n)

    def rhs(t, y):
        w, ah, bh = drive(t)
        Qa, Qb = blocks(y)
        p = y[2 * nn:]
        adiag = np.diagonal(ah)
        abar = ah - np.diag(adiag)
        m1 = abar * np.exp(p[None, :] - p[:, None])
        m2 = bh * np.exp(-p[:, None] - p[None, :])
        dQa = m1 @ Qa + m2 @ np.conj(Qb)
        dQb = m1 @ Qb + m2 @ np.conj(Qa)
        dp = 1j * w + adiag
        return np.concatenate([dQa.ravel(), dQb.ravel(), dp])

    y0 = np.concatenate([np.eye(n, dtype=complex).ravel(),
                         np.zeros(nn, dtype=complex),
                         np.zeros(n, dtype=complex)])
    hook = _monitor(tol, blocks)
    res = solve_dopri(rhs, t0, tf, y0, rtol=tol, atol=tol,
                      t_eval=t_eval, step_hook=hook)

    def to_pair(y):
        Qa, Qb = blocks(y)
        q = BogoliubovMatrix(Qa.copy(), Qb.copy())
        q.meta.update(res.stats(), driver_calls=drive.calls, tol=tol,
                      identity_residual=identity_residual(q))
        return q, PhaseAccumulator(y[2 * nn:].copy())

    if t_eval is None:
        return to_pair(res.y[-1])
    return [to_pair(y) for y in res.y]

"""Integration of the matrix ODE for the time-dependent transformation.

The full transformation U(t, t0) evolves as dU/dt = [i Omega(t) + K(t)] U
with K assembled from the coupling matrices; Q(t, t0) strips the diagonal
phase accumulated by i Omega + diag(ahat), which removes the fastest
oscillations and is preferred for perturbative and long runs.  Both forms
integrate only the top blocks (alpha, beta); the lower blocks are their
conjugates by construction.

One routine, :func:`_evolve`, integrates both forms; they differ only in
their right-hand side, their initial state (Q carries its N log-phases as
extra state) and the result they return.

The frequencies and couplings change only as fast as the metric does, and
on the general path every evaluation of them is a slice eigensolve.  So
both forms read the driver through a :class:`DriverTable`: the driver is
sampled once, at Chebyshev points on panels covering the span, until the
Chebyshev coefficients fall below the solve's tolerance, and each
right-hand side reads the barycentric interpolant of those samples.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .coupling import CouplingMatrices
from .errors import DimensionMismatch, IdentityDrift, InvalidArgument
from .integrators import solve_dopri
from .quadrature import _standard_chop


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

    ``calls`` counts the evaluations of ``fn``.
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


# Chebyshev-Lobatto node counts of a panel; each set holds the one before
_SIZES = (17, 33, 65, 129, 257)
# (1 - cos(pi j / 256)) / 2: the largest set on [0, 1], start to end
_UNIT = np.sin(np.pi * np.arange(257) / 512) ** 2
# a panel this many halvings narrower than the span is kept unresolved
_MAX_SPLITS = 10


@lru_cache(maxsize=len(_SIZES))
def _coefficient_matrix(n: int) -> np.ndarray:
    """Values at n Chebyshev-Lobatto points -> Chebyshev coefficients."""
    m = n - 1
    jk = np.outer(np.arange(n), np.arange(n)) % (2 * m)
    c = np.cos(np.pi / m * jk) * (2.0 / m)
    c[:, [0, m]] *= 0.5
    c[[0, m]] *= 0.5
    return c


class _Panel:
    """Barycentric interpolant of driver samples at Chebyshev-Lobatto times.

    Column layout of ``values``: the n frequencies, then the entries of
    ahat and bhat (flat indices ``ia``, ``ib``) that are nonzero at some
    node; the others are zero throughout.  A sample is held only as its
    row of ``values``.
    """

    def __init__(self, times, samples):
        self.times = times
        n_nodes = len(times)
        self.weights = np.where(np.arange(n_nodes) % 2, -1.0, 1.0)
        self.weights[[0, -1]] *= 0.5
        self.n = n = len(samples[0][0])
        w, ja, va, jb, vb = zip(*samples)
        self.ia = _union(ja, n * n)
        self.ib = _union(jb, n * n)
        self.split = n + len(self.ia)
        self.values = np.zeros((n_nodes, self.split + len(self.ib)),
                               dtype=complex)
        self.values[:, :n] = w
        for cols, idx, vals, offset in ((self.ia, ja, va, n),
                                        (self.ib, jb, vb, self.split)):
            rows = np.repeat(np.arange(n_nodes), [len(j) for j in idx])
            self.values[rows, offset + np.searchsorted(
                cols, np.concatenate(idx))] = np.concatenate(vals)

    def tails(self, tol, coupling_target):
        """Per block (frequencies, ahat, bhat): whether it is resolved, and
        its tail, the largest of its last n/8 (at least 3) Chebyshev
        coefficients over its target: relative ``tol`` for the frequencies,
        the absolute ``coupling_target`` for ahat and bhat.  A block is
        resolved when its tail is at most 1, or when
        :func:`_standard_chop` finds a plateau of noise above the target."""
        n_nodes = len(self.times)
        coef = _coefficient_matrix(n_nodes) @ self.values.view(float)
        np.abs(coef, out=coef)
        window = max(3, n_nodes // 8)
        out = []
        for lo, hi in ((0, self.n), (self.n, self.split),
                       (self.split, self.values.shape[1])):
            env = coef[:, 2 * lo:2 * hi].max(axis=1, initial=0.0)
            scale = env.max()
            if scale == 0.0:
                out.append((True, 0.0))
                continue
            absolute = tol * scale if lo == 0 else coupling_target
            tail = float(env[-window:].max()) / absolute
            out.append((tail <= 1.0 or _standard_chop(env, absolute / scale)
                        < n_nodes, tail))
        return out

    def __call__(self, t):
        d = t - self.times
        if d.all():
            c = self.weights / d
            v = (c @ self.values.view(float) / c.sum()).view(complex)
        else:
            v = self.values[np.flatnonzero(d == 0.0)[0]]
        n = self.n
        ah = np.zeros((n, n), dtype=complex)
        bh = np.zeros((n, n), dtype=complex)
        if len(self.ia):
            ah.ravel()[self.ia] = v[n:self.split]
        if len(self.ib):
            bh.ravel()[self.ib] = v[self.split:]
        return v[:n].real, ah, bh


class DriverTable:
    """A driver sampled once, on Chebyshev panels over ``t0`` to ``t1``.

    Panels cover the span from ``t0`` on, in either direction.  A panel is
    sampled at 17, 33, 65, 129, then 257 Chebyshev-Lobatto times (each set
    holds the one before, so no time is sampled twice) until each block of
    its Chebyshev coefficients is resolved (:meth:`_Panel.tails`): the
    frequencies to relative ``tol``, ahat and bhat to the absolute
    ``tol / |t1 - t0|``, so that neither coupling block moves the evolved
    transformation by more than about ``tol``.  A panel that stays
    unresolved, or whose tails fall too slowly to resolve at 257 times, is
    halved; the next panel starts at the width of the last one resolved,
    doubled when 17 times resolved it.  A panel ``_MAX_SPLITS`` halvings
    narrower than the span is kept unresolved.  Adjacent panels share
    their end sample, and the first sample is at ``t0``.

    A call at t returns (w, ahat, bhat) from the barycentric interpolant on
    t's panel (Trefethen, *Approximation Theory and Approximation
    Practice*, ch. 5), exact at the sample times; a time outside the span
    takes its nearest end.  The interpolant is a real-weighted sum of the
    samples, so ahat = -ahat^dag and bhat = bhat^T hold between them as
    well as they hold in them, to rounding.
    """

    def __init__(self, driver: Callable, t0: float, t1: float, tol: float):
        self.driver = driver
        self.calls = 0
        self.tail = 0.0
        self.unresolved = 0
        self.symmetry_residual = None
        first = self._sample(t0)
        span = abs(t1 - t0)
        panels = self._build(t0, t1, first, tol, span) if span else \
            [_Panel(np.array([float(t0)]), [first])]
        panels.sort(key=lambda p: p.times[0] + p.times[-1])
        self._panels = panels
        self._bounds = [max(p.times[[0, -1]]) for p in panels[:-1]]
        self._lo, self._hi = min(t0, t1), max(t0, t1)
        self.n = panels[0].n

    def stats(self) -> dict:
        """``driver_calls``, the driver's evaluations; ``table_panels``;
        ``table_tail``, the largest tail of a block on a panel (above 1 on
        a panel kept unresolved, or where the samples carry noise above the
        target); ``table_unresolved``, the number of panels kept unresolved
        at the depth cap, which tells those two apart; and, when the
        driver's :class:`CouplingMatrices` carry it, the largest
        ``symmetry_residual`` over the samples."""
        out = {"driver_calls": self.calls, "table_panels": len(self._panels),
               "table_tail": self.tail, "table_unresolved": self.unresolved}
        if self.symmetry_residual is not None:
            out["symmetry_residual"] = self.symmetry_residual
        return out

    def _sample(self, t):
        omegas, coup = self.driver(t)
        self.calls += 1
        if isinstance(coup, CouplingMatrices) \
                and "symmetry_residual" in coup.meta:
            self.symmetry_residual = max(self.symmetry_residual or 0.0,
                                         coup.meta["symmetry_residual"])
        w, ah, bh = _unpack((omegas, coup))
        return (w, *_nonzero(ah), *_nonzero(bh))

    def _panel(self, start, end, first, tol, coupling_target):
        """Sample [start, end] at growing node counts until it chops: the
        panel, whether it chopped, its tail and its sample at ``end``.

        Each larger set adds the times between the samples kept.  Growth
        stops early when the tails of the unresolved blocks, falling
        geometrically at the rate of the last doubling, would still miss
        their targets at the largest count."""
        samples = [first]
        last = None
        for n_nodes in _SIZES:
            times = start + (end - start) * _UNIT[::256 // (n_nodes - 1)]
            times[-1] = end
            if len(samples) == 1:
                samples += [self._sample(t) for t in times[1:]]
            else:
                grown = [None] * n_nodes
                grown[::2] = samples
                grown[1::2] = [self._sample(t) for t in times[1::2]]
                samples = grown
            panel = _Panel(times, samples)
            checks = panel.tails(tol, coupling_target)
            resolved = all(ok for ok, _ in checks)
            if resolved:
                break
            worst = max(tail for ok, tail in checks if not ok)
            doublings = 2.0 * (_SIZES[-1] - n_nodes) / (n_nodes - 1)
            if last is not None and worst * (worst / last) ** doublings > 1.0:
                break
            last = worst
        return panel, resolved, max(tail for _, tail in checks), samples[-1]

    def _build(self, t0, t1, first, tol, span):
        narrowest = span * 2.0 ** -_MAX_SPLITS
        panels = []
        start, width = t0, t1 - t0
        while start != t1:
            end = (t1 if abs(t1 - start) <= abs(width) * (1.0 + 1e-9)
                   else start + width)
            panel, resolved, tail, last = self._panel(start, end, first,
                                                      tol, tol / span)
            if not resolved and abs(end - start) > narrowest:
                width = 0.5 * (end - start)
                continue
            panels.append(panel)
            self.tail = max(self.tail, tail)
            self.unresolved += not resolved
            if resolved and len(panel.times) == _SIZES[0]:
                width *= 2.0
            start, first = end, last
        return panels

    def __call__(self, t):
        t = min(max(t, self._lo), self._hi)
        return self._panels[bisect_right(self._bounds, t)](t)


def _union(index_sets, size):
    """Sorted union of index arrays below ``size``."""
    # not np.unique: its first call imports numpy.ma, which a first run
    # must not pay for
    mask = np.zeros(size, dtype=bool)
    mask[np.concatenate(index_sets)] = True
    return np.flatnonzero(mask)


def _nonzero(m):
    """Flat indices and values of the nonzero entries of a matrix."""
    flat = np.asarray(m, dtype=complex).ravel()
    idx = np.flatnonzero(flat)
    return idx, flat[idx]


def static_driver(omegas) -> Callable:
    """Driver of a static slice: K = 0, constant frequencies."""
    w = np.asarray(omegas, dtype=float)
    n = len(w)
    z = np.zeros((n, n), dtype=complex)
    return lambda t: (w, (z, z))


def _evolve(driver, t0, tf, tol, t_eval, rhs_of, y0_of, wrap):
    """Integrate one form of the transformation ODE from t0 to tf.

    A form is its right-hand side ``rhs_of(drive, blocks)`` on the driver
    table ``drive`` (``blocks(y)``: a state's alpha and beta views), its
    initial state ``y0_of(n)`` for n modes and its result ``wrap(m, y)``
    from a state ``y`` and its blocks ``m``.
    """
    if tf == t0:
        raise InvalidArgument("tf must differ from t0")
    t1 = tf if t_eval is None else (t_eval[-1] if len(t_eval) else t0)
    start = time.perf_counter()
    drive = DriverTable(driver, float(t0), float(t1), tol)
    table_s = time.perf_counter() - start
    n = drive.n

    def blocks(y):
        return y[:2 * n * n].reshape(2, n, n)

    cap = 100.0 * tol

    def monitor(t, y):
        res = identity_residual(BogoliubovMatrix(*blocks(y)))
        if res > cap:
            raise IdentityDrift(
                f"identity residual {res:.3e} exceeded {cap:.3e} at t={t:.6g}")

    start = time.perf_counter()
    res = solve_dopri(rhs_of(drive, blocks), t0, tf, y0_of(n), rtol=tol,
                      atol=tol, t_eval=t_eval, step_hook=monitor)
    stepper_s = time.perf_counter() - start
    meta = dict(res.stats(), **drive.stats(), tol=tol, table_s=table_s,
                stepper_s=stepper_s)

    # the blocks are views of res.y: each sample is held once
    def result(y):
        m = BogoliubovMatrix(*blocks(y))
        m.meta.update(meta, identity_residual=identity_residual(m))
        return wrap(m, y)

    if t_eval is None:
        return result(res.y[-1])
    return [result(y) for y in res.y]


def evolve_U(driver: Callable, t0: float, tf: float, tol: float = 1e-10,
             t_eval: Optional[Sequence[float]] = None):
    """Integrate dU/dt = [i Omega + K] U with U(t0, t0) = I.

    Returns the final :class:`BogoliubovMatrix` (with the identity residual,
    the step counts and the :meth:`DriverTable.stats` of its driver table
    in ``meta``); with ``t_eval`` a list of matrices at the sample times is
    returned instead.  The driver runs only at the table's sample times.
    ``meta`` also holds ``table_s`` and ``stepper_s``, the wall time of
    building the table (every driver call) and of the stepper.
    """
    def rhs_of(drive, blocks):
        def rhs(t, y):
            w, ah, bh = drive(t)
            A, B = blocks(y)
            iw = 1j * w[:, None]
            dA = iw * A + ah @ A + bh @ np.conj(B)
            dB = iw * B + ah @ B + bh @ np.conj(A)
            return np.concatenate([dA.ravel(), dB.ravel()])
        return rhs

    # alpha = I stacked on beta = 0
    return _evolve(driver, t0, tf, tol, t_eval, rhs_of,
                   lambda n: np.eye(2 * n, n, dtype=complex).ravel(),
                   lambda m, y: m)


def evolve_Q(driver: Callable, t0: float, tf: float, tol: float = 1e-10,
             t_eval: Optional[Sequence[float]] = None):
    """Integrate the phase-stripped form dQ/dt = Theta* (K - A) Theta Q.

    The diagonal log-phase p_n = int [i w_n + ahat_nn] dt is carried as
    extra state so U = Theta Q is recoverable exactly.  Returns
    (BogoliubovMatrix of Q blocks, PhaseAccumulator), or lists of both when
    ``t_eval`` is given; ``meta`` holds what :func:`evolve_U` puts there.
    """
    def rhs_of(drive, blocks):
        def rhs(t, y):
            w, ah, bh = drive(t)
            Qa, Qb = blocks(y)
            p = y[2 * Qa.size:]
            adiag = np.diagonal(ah)
            abar = ah - np.diag(adiag)
            m1 = abar * np.exp(p[None, :] - p[:, None])
            m2 = bh * np.exp(-p[:, None] - p[None, :])
            dQa = m1 @ Qa + m2 @ np.conj(Qb)
            dQb = m1 @ Qb + m2 @ np.conj(Qa)
            dp = 1j * w + adiag
            return np.concatenate([dQa.ravel(), dQb.ravel(), dp])
        return rhs

    # alpha = I stacked on beta = 0 and on a row of zero phases
    return _evolve(driver, t0, tf, tol, t_eval, rhs_of,
                   lambda n: np.eye(2 * n + 1, n, dtype=complex).ravel(),
                   lambda q, y: (q, PhaseAccumulator(y[2 * q.alpha.size:])))

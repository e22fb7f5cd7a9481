"""Adaptive Dormand-Prince 5(4) stepping for complex ODE systems.

The time-ordered evolution operators computed by this package never commute
with themselves at different times, so they are realized by explicit
stepping rather than by exponentiating averaged matrices.  The scenario pair
kernels and the matrix evolutions all step with :func:`solve_dopri`.  Its
steps follow the error controller alone: output samples are read from each
step's quartic Dormand-Prince interpolant, so the sample grid changes
neither the steps nor the final state.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidArgument, StepFailure

# Dormand-Prince 5(4) tableau (FSAL)
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between 5th- and embedded 4th-order weights
DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])
# continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6):
# y(t + x dt) = y + dt * sum_i k_i (DP_P[i] @ [x, x^2, x^3, x^4])
DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_POWERS = np.arange(1, 5)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _initial_step(f, t0, y0, f0, direction, rtol, atol, span):
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / scale) ** 2))
    h0 = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = np.sqrt(np.mean(np.abs((f1 - f0) / scale) ** 2)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


@dataclass
class OdeResult:
    t: np.ndarray
    y: np.ndarray          # shape (len(t), n)
    n_steps: int
    n_rejected: int
    n_rhs: int             # calls of the right-hand side f

    def stats(self) -> dict:
        """Step, rejection and right-hand-side counts of the run."""
        return {"n_steps": self.n_steps, "n_rejected": self.n_rejected,
                "n_rhs": self.n_rhs}


def solve_dopri(f: Callable, t0: float, tf: float, y0: np.ndarray,
                rtol: float, atol: float,
                t_eval: Optional[Sequence[float]] = None,
                step_hook: Optional[Callable] = None) -> OdeResult:
    """Integrate dy/dt = f(t, y) from t0 to tf, sampling at ``t_eval``.

    The error controller alone chooses the steps; only the last one is
    shortened to end on tf.  ``t_eval`` (default ``[tf]``) must run
    monotonically from t0 towards tf, in either direction, and the run ends
    on its last sample, taking no step if none lies past t0.  A sample at t0
    returns y0 and a sample on a step end that step's y; every other sample
    is read from its step's quartic interpolant, so the samples change no
    step.  ``step_hook(t, y)`` runs after every accepted step and may raise
    to abort the run.
    """
    y = np.asarray(y0, dtype=complex).copy()
    if tf == t0:
        raise StepFailure("empty integration interval")
    direction = 1.0 if tf > t0 else -1.0
    ts = np.array([tf] if t_eval is None else t_eval, dtype=float)
    along = direction * (ts - t0)          # distance from t0 towards tf
    if ts.size and not (along[0] >= 0 and along[-1] <= abs(tf - t0)
                        and np.all(np.diff(along) >= 0)):
        raise InvalidArgument("t_eval must run monotonically from t0 to tf")
    out = np.empty((ts.size, y.size), dtype=complex)
    ti = int(np.searchsorted(along, 0.0, side="right"))
    out[:ti] = y
    if ti == ts.size:                      # no sample past t0: no step
        return OdeResult(t=ts, y=out, n_steps=0, n_rejected=0, n_rhs=0)
    tf = ts[-1]                            # the run ends on its last sample
    span = abs(tf - t0)

    t = t0
    k = np.empty((7, y.size), dtype=complex)
    k[0] = f(t, y)
    h = _initial_step(f, t0, y, k[0], direction, rtol, atol, span)
    n_rhs = 2              # k[0] and the trial step of _initial_step
    n_steps = n_rejected = 0

    while True:
        remaining = abs(tf - t)
        last = h >= remaining
        h_step = remaining if last else h
        dt = h_step * direction
        for i in range(1, 7):
            k[i] = f(t + DP_C[i] * dt, y + dt * (DP_A[i] @ k[:i]))
        n_rhs += 6
        y_new = y + dt * (DP_B @ k)
        # stage 7 is evaluated at (t+dt, y_new): FSAL
        err_norm = _error_norm(dt * (DP_E @ k), y, y_new, rtol, atol)

        if err_norm <= 1.0:
            n_steps += 1
            t_new = tf if last else t + dt
            # samples before the step end are interpolated, those on it
            # take y_new
            at = direction * (t_new - t0)
            inner = int(np.searchsorted(along, at, side="left"))
            end = int(np.searchsorted(along, at, side="right"))
            if inner > ti:
                x = (ts[ti:inner] - t) / dt
                # einsum, not matrix products: the pair kernels make no
                # other BLAS matrix product, and the first one of a
                # process adds 256 KiB of resident memory
                out[ti:inner] = y + dt * np.einsum(
                    "sp,ip,in->sn", x[:, None] ** _POWERS, DP_P, k)
            out[inner:end] = y_new
            ti = end
            t, y = t_new, y_new
            k[0] = k[6]
            if step_hook is not None:
                step_hook(t, y)
            if last:
                break
            factor = MAX_FACTOR if err_norm == 0 else min(
                MAX_FACTOR, SAFETY * err_norm ** -0.2)
            h = max(h_step * max(factor, MIN_FACTOR), 1e-300)
        else:
            n_rejected += 1
            factor = max(MIN_FACTOR, SAFETY * err_norm ** -0.2)
            h = h_step * factor
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepFailure(f"step size underflow at t = {t!r}")

    return OdeResult(t=ts, y=out, n_steps=n_steps, n_rejected=n_rejected,
                     n_rhs=n_rhs)

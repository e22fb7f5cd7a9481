"""Adaptive Dormand-Prince 5(4) stepping for complex ODE systems.

The time-ordered evolution operators computed by this package never commute
with themselves at different times, so they are realized by explicit
stepping rather than by exponentiating averaged matrices.  The scenario pair
kernels and the matrix evolutions all step with :func:`solve_dopri`.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import StepFailure

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


def solve_dopri(f: Callable, t0: float, tf: float, y0: np.ndarray,
                rtol: float, atol: float,
                t_eval: Optional[Sequence[float]] = None,
                step_hook: Optional[Callable] = None) -> OdeResult:
    """Integrate dy/dt = f(t, y) from t0 to tf, sampling at ``t_eval``.

    ``t_eval`` must be monotone between t0 and tf (both directions work);
    steps are clamped to land exactly on sample times.  ``step_hook(t, y)``
    runs after every accepted step and may raise to abort the run.
    """
    y = np.asarray(y0, dtype=complex).copy()
    if tf == t0:
        raise StepFailure("empty integration interval")
    direction = 1.0 if tf > t0 else -1.0
    span = abs(tf - t0)
    if t_eval is None:
        t_eval = [tf]
    targets = list(t_eval)
    out_t, out_y = [], []
    if targets and abs(targets[0] - t0) <= 1e-14 * max(1.0, abs(t0)):
        out_t.append(t0)
        out_y.append(y.copy())
        targets = targets[1:]

    t = t0
    k = np.empty((7, y.size), dtype=complex)
    k[0] = f(t, y)
    h = _initial_step(f, t0, y, k[0], direction, rtol, atol, span)
    n_rhs = 2              # k[0] and the trial step of _initial_step
    n_steps = n_rejected = 0
    ti = 0

    while ti < len(targets):
        target = targets[ti]
        remaining = abs(target - t)
        clamped = h >= remaining
        h_step = remaining if clamped else h
        if h_step < 1e-14 * max(1.0, abs(t)):
            # sitting on the target already
            t_new, y_new, err_norm = target, y, 0.0
            f_new = k[0]
        else:
            dt = h_step * direction
            ks = k
            for i in range(1, 7):
                yi = y + dt * (DP_A[i] @ ks[:i])
                ks[i] = f(t + DP_C[i] * dt, yi)
            n_rhs += 6
            y_new = y + dt * (DP_B @ ks)
            # stage 7 is evaluated at (t+dt, y_new): FSAL
            err = dt * (DP_E @ ks)
            err_norm = _error_norm(err, y, y_new, rtol, atol)
            t_new = target if clamped else t + dt
            f_new = ks[6]

        if err_norm <= 1.0:
            n_steps += 1
            t, y = t_new, y_new
            k[0] = f_new
            if step_hook is not None:
                step_hook(t, y)
            if clamped:
                out_t.append(t)
                out_y.append(y.copy())
                ti += 1
            factor = MAX_FACTOR if err_norm == 0 else min(
                MAX_FACTOR, SAFETY * err_norm ** -0.2)
            h = max(h_step * max(factor, MIN_FACTOR), 1e-300)
        else:
            n_rejected += 1
            factor = max(MIN_FACTOR, SAFETY * err_norm ** -0.2)
            h = h_step * factor
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepFailure(f"step size underflow at t = {t!r}")

    return OdeResult(t=np.array(out_t), y=np.array(out_y),
                     n_steps=n_steps, n_rejected=n_rejected, n_rhs=n_rhs)

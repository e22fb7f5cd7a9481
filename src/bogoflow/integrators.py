"""Adaptive Dormand-Prince 5(4) stepping for complex ODE systems.

The time-ordered evolution operators computed by this package never commute
with themselves at different times, so they are realized by explicit
stepping rather than by exponentiating averaged matrices.  The scenario pair
kernels and the matrix evolutions all step with :func:`solve_dopri`.  Its
steps follow the error controller alone: output samples are read from each
step's quartic Dormand-Prince interpolant, so the sample grid changes
neither the steps nor the final state.  A state of P rows is P independent
systems stepped in one loop, with vector operations over the rows: each
row keeps its own step size and acceptance, so the pairs of a scenario
share one solve and each takes the steps it takes alone.
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


def _rms(v):
    """Root-mean-square of each row."""
    return np.sqrt(np.add.reduce(np.abs(v) ** 2, axis=1) / v.shape[1])


# The step-size formulas below go row by row through Python floats, as a
# one-row solve takes them: numpy's vectorised power differs from the C
# library's in the last bit.

def _initial_step(f, t0, y0, f0, direction, rtol, atol, span):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.array([1e-6 * span if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                   for a, b in zip(d0.tolist(), d1.tolist())])
    y1 = y0 + (h0 * direction)[:, None] * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = [max(1e-6 * span, a * 1e-3) if b <= 1e-15 and c <= 1e-15
          else (0.01 / max(b, c)) ** 0.2
          for a, b, c in zip(h0.tolist(), d1.tolist(), d2.tolist())]
    return np.minimum(np.minimum(100 * h0, h1), span)


def _step_factors(err):
    """Step-size factor of each row after a step with error norm err."""
    return np.array([
        (MAX_FACTOR if e == 0 else min(MAX_FACTOR, SAFETY * e ** -0.2))
        if e <= 1.0 else max(MIN_FACTOR, SAFETY * e ** -0.2)
        for e in err.tolist()])


@dataclass
class OdeResult:
    t: np.ndarray
    y: np.ndarray          # shape (len(t), *y0.shape)
    n_steps: int           # counts summed over the rows
    n_rejected: int
    n_rhs: int             # evaluations of f, counted per row
    h_min: Optional[float]  # accepted step sizes, over all rows; None
    h_max: Optional[float]  # when no step was taken

    def stats(self) -> dict:
        """Step, rejection and right-hand-side counts and the step-size range."""
        return {"n_steps": self.n_steps, "n_rejected": self.n_rejected,
                "n_rhs": self.n_rhs, "h_min": self.h_min, "h_max": self.h_max}


def solve_dopri(f: Callable, t0: float, tf: float, y0: np.ndarray,
                rtol: float, atol: float,
                t_eval: Optional[Sequence[float]] = None,
                step_hook: Optional[Callable] = None) -> OdeResult:
    """Integrate dy/dt = f(t, y) from t0 to tf, sampling at ``t_eval``.

    A 2-D ``y0`` of shape (P, n) holds P independent systems, the rows.
    Each row has its own time, step size, acceptance, samples and last
    step, and stops at its end, so it takes the steps it takes alone (step
    sizes to rounding).  ``f`` then receives the (P,) times, ended rows at
    their end, and the (P, n) state.  A 1-D ``y0`` is one row; ``f``
    receives a float time and a 1-D state.

    The error controller alone chooses the steps; only the last one is
    shortened to end on tf.  ``t_eval`` (default ``[tf]``) must run
    monotonically from t0 towards tf, in either direction, and the run ends
    on its last sample, taking no step if none lies past t0.  A sample at t0
    returns y0 and a sample on a step end that step's y; every other sample
    is read from its step's quartic interpolant, so the samples change no
    step.  ``step_hook(t, y)``, called like ``f``, runs after every round
    in which a row accepted a step and may raise to abort the run.  The
    result's ``y`` has shape (len(t), *y0.shape); its counts are sums over
    the rows, and ``h_min``, ``h_max`` span every row's accepted steps.
    """
    y0 = np.asarray(y0, dtype=complex)
    if tf == t0:
        raise StepFailure("empty integration interval")
    direction = 1.0 if tf > t0 else -1.0
    ts = np.array([tf] if t_eval is None else t_eval, dtype=float)
    along = direction * (ts - t0)          # distance from t0 towards tf
    if ts.size and not (along[0] >= 0 and along[-1] <= abs(tf - t0)
                        and np.all(np.diff(along) >= 0)):
        raise InvalidArgument("t_eval must run monotonically from t0 to tf")
    y = y0.reshape(-1, y0.shape[-1]).copy()
    rows, n = y.shape
    out = np.empty((ts.size, rows, n), dtype=complex)
    ti = int(np.searchsorted(along, 0.0, side="right"))
    out[:ti] = y
    if ti == ts.size:                      # no sample past t0: no step
        return OdeResult(t=ts, y=out.reshape(ts.size, *y0.shape), n_steps=0,
                         n_rejected=0, n_rhs=0, h_min=None, h_max=None)
    tf = ts[-1]                            # the run ends on its last sample
    span = abs(tf - t0)
    if y0.ndim == 1:
        f_row, hook_row = f, step_hook
        f = lambda t, y: f_row(float(t[0]), y[0])[None]
        if hook_row is not None:
            step_hook = lambda t, y: hook_row(float(t[0]), y[0])

    t = np.full(rows, float(t0))
    next_sample = np.full(rows, ti)
    running = np.ones(rows, dtype=bool)
    k = np.empty((7, rows, n), dtype=complex)
    stages = k.reshape(7, -1)
    k[0] = f(t, y)
    h = _initial_step(f, t, y, k[0], direction, rtol, atol, span)
    n_rhs = 2 * rows       # k[0] and the trial step of _initial_step
    n_steps = n_rejected = 0
    steps_taken = []       # accepted step sizes

    while np.count_nonzero(running):
        remaining = np.abs(tf - t)         # 0 on the rows that ended
        last = h >= remaining
        h_step = np.minimum(h, remaining)
        dt = h_step * direction
        dt_col = dt[:, None]
        t_stage = t + DP_C[:, None] * dt
        for i in range(1, 7):
            k[i] = f(t_stage[i],
                     y + dt_col * (DP_A[i] @ stages[:i]).reshape(rows, n))
        n_rhs += 6 * int(np.count_nonzero(running))
        y_new = y + dt_col * (DP_B @ stages).reshape(rows, n)
        # stage 7 is evaluated at (t+dt, y_new): FSAL
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(dt_col * (DP_E @ stages).reshape(rows, n) / scale)
        ok = running & (err <= 1.0)
        rejected = running & ~ok
        h = np.where(running, np.maximum(h_step * _step_factors(err), 1e-300),
                     h)
        if np.count_nonzero(rejected):
            n_rejected += int(np.count_nonzero(rejected))
            tiny = rejected & (h < 1e-14 * np.maximum(1.0, np.abs(t)))
            if np.count_nonzero(tiny):
                raise StepFailure(
                    f"step size underflow at t = {float(t[tiny][0])!r}")
        if not np.count_nonzero(ok):
            continue

        n_steps += int(np.count_nonzero(ok))
        steps_taken.append(h_step[ok])
        t_new = np.where(last, tf, t_stage[6])
        # samples before a step end are interpolated, those on it take
        # y_new; one gather serves every accepted row
        at = direction * (t_new - t0)
        end = np.where(ok, np.searchsorted(along, at, side="right"),
                       next_sample)
        count = end - next_sample
        if np.count_nonzero(count):
            r = np.repeat(np.arange(rows), count)
            pos = np.arange(r.size) + np.repeat(
                next_sample - np.cumsum(count) + count, count)
            x = (ts[pos] - t[r]) / dt[r]
            # einsum, not matrix products: the pair kernels make no other
            # BLAS matrix product, and the first one of a process adds
            # 256 KiB of resident memory
            inner = y[r] + dt[r, None] * np.einsum(
                "sp,ip,isn->sn", x[:, None] ** _POWERS, DP_P, k[:, r])
            out[pos, r] = np.where((along[pos] >= at[r])[:, None],
                                   y_new[r], inner)
        next_sample = end
        t = np.where(ok, t_new, t)
        y = np.where(ok[:, None], y_new, y)
        k[0][ok] = k[6][ok]
        running = running & ~(ok & last)
        if step_hook is not None:
            step_hook(t, y)

    steps_taken = np.concatenate(steps_taken)
    return OdeResult(t=ts, y=out.reshape(ts.size, *y0.shape),
                     n_steps=n_steps, n_rejected=n_rejected, n_rhs=n_rhs,
                     h_min=float(steps_taken.min()),
                     h_max=float(steps_taken.max()))

"""Adaptive Dormand-Prince 5(4) stepping for complex ODE systems.

The time-ordered evolution operators computed by this package never commute
with themselves at different times, so they are realized by explicit
stepping rather than by exponentiating averaged matrices.  The scenario pair
kernels and the matrix evolutions all step with :func:`solve_dopri`.  Its
steps follow the error controller alone: output samples are read from each
step's quartic Dormand-Prince interpolant, so the sample grid changes
neither the steps nor the final state.  A state of P rows is P independent
systems stepped in one loop, with vector operations over the rows: each
row keeps its own tolerances, step size, acceptance and counts, and every
operation on a row reads that row alone, so the pairs of a scenario share
one solve and each row's results are bit for bit those of its solve alone.
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
    # the 5th-order weights: the last stage is taken at the step's result
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
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


def _stage_sum(coef, stages):
    """sum_i coef[i] k_i of each row, from ``stages``, the real view of
    the k_i with shape (rows, 7, 2n).

    One matrix-vector product per row: a row's sum then reads that row
    alone, where one product over all rows would round each entry by its
    position in the whole state.
    """
    return (coef @ stages[:, :len(coef)]).view(complex)


def _per_row(tol, rows):
    """A tolerance as a (rows, 1) column: one value, or one value per row."""
    tol = np.asarray(tol, dtype=float)
    if tol.ndim > 1 or (tol.ndim == 1 and tol.size != rows):
        raise InvalidArgument(f"a tolerance needs one value or {rows} values, "
                              f"one per row; got shape {tol.shape}")
    return np.broadcast_to(tol.reshape(-1, 1), (rows, 1))


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
    y: np.ndarray             # shape (len(t), *y0.shape)
    row_steps: np.ndarray     # (P,) accepted steps of each row
    row_rejected: np.ndarray  # (P,) rejected steps of each row
    row_rhs: np.ndarray       # (P,) evaluations of f, counted per row
    row_h_min: np.ndarray     # (P,) accepted step sizes of each row: inf
    row_h_max: np.ndarray     # and -inf on a row that took no step

    def stats(self, rows=slice(None)) -> dict:
        """Step, rejection and right-hand-side counts summed over ``rows``
        (any index of the row axis, by default every row) and the range of
        their accepted step sizes, None when they took no step."""
        steps = int(self.row_steps[rows].sum())
        return {"n_steps": steps,
                "n_rejected": int(self.row_rejected[rows].sum()),
                "n_rhs": int(self.row_rhs[rows].sum()),
                "h_min": float(self.row_h_min[rows].min()) if steps else None,
                "h_max": float(self.row_h_max[rows].max()) if steps else None}

    # the same over every row
    n_steps = property(lambda self: self.stats()["n_steps"])
    n_rejected = property(lambda self: self.stats()["n_rejected"])
    n_rhs = property(lambda self: self.stats()["n_rhs"])
    h_min = property(lambda self: self.stats()["h_min"])
    h_max = property(lambda self: self.stats()["h_max"])


def solve_dopri(f: Callable, t0: float, tf: float, y0: np.ndarray,
                rtol, atol, t_eval: Optional[Sequence[float]] = None,
                step_hook: Optional[Callable] = None) -> OdeResult:
    """Integrate dy/dt = f(t, y) from t0 to tf, sampling at ``t_eval``.

    A 2-D ``y0`` of shape (P, n) holds P independent systems, the rows.
    ``rtol`` and ``atol`` are each one value or one value per row, shape
    (P,).  Each row has its own tolerances, time, step size, acceptance,
    samples and last step, and stops at its end, so it takes the steps it
    takes alone, bit for bit: every operation on a row, the stage sums
    included, reads that row alone.  ``f`` then receives the (P,) times,
    ended rows at their end, and the (P, n) state.  A 1-D ``y0`` is one
    row; ``f`` receives a float time and a 1-D state.

    The error controller alone chooses the steps; only the last one is
    shortened to end on tf.  ``t_eval`` (default ``[tf]``) must run
    monotonically from t0 towards tf, in either direction, and the run ends
    on its last sample, taking no step if none lies past t0.  A sample at t0
    returns y0 and a sample on a step end that step's y; every other sample
    is read from its step's quartic interpolant, so the samples change no
    step.  ``step_hook(t, y)``, called like ``f``, runs after every round
    in which a row accepted a step and may raise to abort the run.  The
    result's ``y`` has shape (len(t), *y0.shape).  It keeps the counts and
    the step-size range of each row; :meth:`OdeResult.stats` sums them
    over any set of rows, and ``n_steps`` ... ``h_max`` over all of them.
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
    rtol, atol = _per_row(rtol, rows), _per_row(atol, rows)
    out = np.empty((ts.size, rows, n), dtype=complex)
    ti = int(np.searchsorted(along, 0.0, side="right"))
    out[:ti] = y
    if ti == ts.size:                      # no sample past t0: no step
        zero = np.zeros(rows, dtype=int)
        return OdeResult(t=ts, y=out.reshape(ts.size, *y0.shape),
                         row_steps=zero, row_rejected=zero, row_rhs=zero,
                         row_h_min=np.full(rows, np.inf),
                         row_h_max=np.full(rows, -np.inf))
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
    stages = k.view(float).transpose(1, 0, 2)
    k[0] = f(t, y)
    h = _initial_step(f, t, y, k[0], direction, rtol, atol, span)
    rounds = []            # the running rows, accepted rows and step sizes

    while np.count_nonzero(running):
        remaining = np.abs(tf - t)         # 0 on the rows that ended
        last = h >= remaining
        h_step = np.minimum(h, remaining)
        dt = h_step * direction
        dt_col = dt[:, None]
        t_stage = t + DP_C[:, None] * dt
        for i in range(1, 7):
            y_new = y + dt_col * _stage_sum(DP_A[i], stages)
            k[i] = f(t_stage[i], y_new)
        # the last stage is evaluated at the step's result (t+dt, y_new):
        # FSAL
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(dt_col * _stage_sum(DP_E, stages) / scale)
        ok = running & (err <= 1.0)
        rounds.append((running, ok, h_step))
        rejected = running & ~ok
        h = np.where(running, np.maximum(h_step * _step_factors(err), 1e-300),
                     h)
        if np.count_nonzero(rejected):
            tiny = rejected & (h < 1e-14 * np.maximum(1.0, np.abs(t)))
            if np.count_nonzero(tiny):
                raise StepFailure(
                    f"step size underflow at t = {float(t[tiny][0])!r}")
        if not np.count_nonzero(ok):
            continue

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
            # one matrix-vector product per sample, as in _stage_sum; no
            # matrix-matrix product, whose first call in a process adds
            # 256 KiB of resident memory
            weights = (x[:, None] ** _POWERS)[:, None] @ DP_P.T
            inner = y[r] + dt[r, None] * (
                weights @ stages[r])[:, 0].view(complex)
            out[pos, r] = np.where((along[pos] >= at[r])[:, None],
                                   y_new[r], inner)
        next_sample = end
        t = np.where(ok, t_new, t)
        y = np.where(ok[:, None], y_new, y)
        k[0][ok] = k[6][ok]
        running = running & ~(ok & last)
        if step_hook is not None:
            step_hook(t, y)

    ran, accepted, h_step = (np.array(v) for v in zip(*rounds))
    attempts = np.count_nonzero(ran, axis=0)
    steps = np.count_nonzero(accepted, axis=0)
    return OdeResult(t=ts, y=out.reshape(ts.size, *y0.shape),
                     row_steps=steps, row_rejected=attempts - steps,
                     row_rhs=2 + 6 * attempts,
                     row_h_min=np.where(accepted, h_step, np.inf).min(axis=0),
                     row_h_max=np.where(accepted, h_step, -np.inf).max(axis=0))

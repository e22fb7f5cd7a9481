"""Scenario ODE kernels: one phase-stripped pair system per mode.

Both scenario families reduce to

    dQa/dx = J(x) b(x) e^{-2i phi} conj(Qb)
    dQb/dx = J(x) b(x) e^{-2i phi} conj(Qa)
    dphi/dx = J(x) w(x)

where x is the integration variable (conformal time for the cosmology
family with Jacobian J = a, coordinate time with J = 1 for the cavity
family), b is the pair coupling rate and w the mode frequency.  The pairs
of one call are the rows of a single
:func:`bogoflow.integrators.solve_dopri` run: the rate formulas take one
parameter row per pair and act on all rows at once, and each row keeps its
own steps.  The scale factor and the wave profile are written once here;
the scenario spacetimes evaluate them through the same functions.
"""

import numpy as np

from .errors import IdentityDrift, InvalidArgument
from .integrators import solve_dopri

FLRW_TANH = 1
GW_MODE = 2

#: the pair-kernel backend named in run records
backend_name = "python"


def _flrw_a2(A, B, rho, eta):
    """Squared scale factor a(eta)^2 = A + B tanh(rho eta) and d(a^2)/deta."""
    th = np.tanh(rho * eta)
    return A + B * th, B * rho * (1.0 - th * th)


def _gw_profile(omega, tau, t):
    """Wave profile s(t) = sin(omega t) exp(-(t/tau)^2) and ds/dt.

    A ``tau`` of None or 0 drops the Gaussian envelope, entry by entry for
    an array of ``tau``.
    """
    if np.count_nonzero(tau):
        # entries without an envelope divide by inf: env 1, denv 0
        tau = np.where(tau, tau, np.inf)
        u = t / tau
        env = np.exp(-u * u)
        denv = -2.0 * t / (tau * tau) * env
    else:
        env, denv = 1.0, 0.0
    s = np.sin(omega * t) * env
    ds = omega * np.cos(omega * t) * env + np.sin(omega * t) * denv
    return s, ds


def _flrw_rates(params, eta):
    A, B, rho, k, m = params
    a2, da2 = _flrw_a2(A, B, rho, eta)
    a = np.sqrt(a2)
    a_eta = da2 / (2.0 * a)
    w = np.sqrt(k * k / a2 + m * m)
    b = -(a_eta / (2.0 * a2)) * (m * m / (w * w))
    return a, w, b


def _gw_rates(params, t):
    kx2, ky2, kz2, msq, eps, omega, tau = params
    s, ds = _gw_profile(omega, tau, t)
    hx = 1.0 + eps * s
    hy = 1.0 - eps * s
    dhx = eps * ds
    dhy = -eps * ds
    w = np.sqrt(kx2 / hx + ky2 / hy + kz2 + msq)
    wdot = -(kx2 * dhx / (hx * hx) + ky2 * dhy / (hy * hy)) / (2.0 * w)
    q = 0.5 * (dhx / hx + dhy / hy)
    b = -0.5 * q - wdot / (2.0 * w)
    return 1.0, w, b


_RATES = {FLRW_TANH: _flrw_rates, GW_MODE: _gw_rates}


def _pair_system(family: int, params):
    """(rhs, y0) of the pair systems, one parameter row per pair.

    The state holds (Qa, Qb, phi) in each row; one pair steps as a 1-D
    state on float parameters, as numpy's scalar arithmetic costs a
    fraction of its one-element array arithmetic.  The complex products
    are array products in both forms: numpy's scalar complex product
    rounds apart from its array one, and a pair's bits must not depend on
    how many pairs share its solve.
    """
    rates = _RATES[family]
    p = np.asarray(params, dtype=float)
    if p.ndim != 2:
        raise InvalidArgument("pair parameters need one row per pair")
    y0 = np.zeros((len(p), 3), dtype=complex)
    y0[:, 0] = 1.0
    columns = tuple(p.T)
    if len(p) == 1:
        y0, columns = y0[0], tuple(p[0].tolist())

    def rhs(x, y):
        jac, w, b = rates(columns, x)
        rot = jac * b * np.exp(-2j * y[..., 2].real)
        out = np.empty_like(y)
        np.multiply(rot[..., None], np.conj(y[..., 1::-1]), out=out[..., :2])
        out[..., 2] = jac * w
        return out
    return rhs, y0


def pair_evolution(family: int, params, x0: float, x_samples,
                   rtol=1e-10, atol=1e-10, ident_cap=0.0):
    """Integrate one pair system per parameter row through the samples.

    The pairs are the rows of one solve, each with its own steps.
    ``rtol``, ``atol`` and ``ident_cap`` are each one value or one value
    per pair.  Returns (qa, qb, phase) arrays of shape (pairs, samples)
    and the solve's :class:`~bogoflow.integrators.OdeResult`, whose
    ``stats(rows)`` sums the ``n_steps``, ``n_rejected`` and ``n_rhs``
    counts over any set of pairs, with their step-size range ``h_min``,
    ``h_max``.  A positive ``ident_cap`` aborts with IdentityDrift when
    | |Qa|^2 - |Qb|^2 - 1 | of its pair exceeds it on an accepted step.
    """
    rhs, y0 = _pair_system(family, params)
    caps = np.broadcast_to(np.asarray(ident_cap, dtype=float), (len(params),))
    caps = np.where(caps > 0, caps, np.inf)

    hook = None
    if np.any(np.isfinite(caps)):
        def hook(x, y):
            x, y = np.atleast_1d(x), np.atleast_2d(y)
            drift = np.abs(np.abs(y[:, 0]) ** 2 - np.abs(y[:, 1]) ** 2 - 1.0)
            over = drift > caps
            if np.count_nonzero(over):
                row = int(np.argmax(np.where(over, drift, -1.0)))
                raise IdentityDrift(f"pair identity drift {drift[row]:.3e} "
                                    f"at x={x[row]:.6g}")

    samples = np.asarray(x_samples, dtype=float)
    res = solve_dopri(rhs, x0, float(samples[-1]), y0, rtol=rtol, atol=atol,
                      t_eval=samples, step_hook=hook)
    qa, qb, phase = res.y.reshape(samples.size, -1, 3).transpose(2, 1, 0)
    return qa, qb, phase.real, res

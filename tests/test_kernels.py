import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bogoflow import kernels
from bogoflow.errors import IdentityDrift, InvalidArgument
from bogoflow.integrators import solve_dopri

FLRW_PARAMS = [2.5, 1.5, 1.0, 2.0 * np.pi / 1000.0, 0.1]
GW_PARAMS = [np.pi ** 2, np.pi ** 2 / 4, np.pi ** 2, 0.0, 1e-4,
             3.0 * np.pi, 0.0]


def scipy_reference(family, params, x0, x1, rtol=1e-12, atol=1e-12):
    """Independent integrator for the pair system (different stepper, scipy)."""
    rates = kernels._RATES[family]

    def rhs(x, y):
        jac, w, b = rates(tuple(params), x)
        qa = y[0] + 1j * y[1]
        qb = y[2] + 1j * y[3]
        rot = jac * b * np.exp(-2j * y[4])
        dqa = rot * np.conj(qb)
        dqb = rot * np.conj(qa)
        return [dqa.real, dqa.imag, dqb.real, dqb.imag, jac * w]

    sol = solve_ivp(rhs, (x0, x1), [1.0, 0.0, 0.0, 0.0, 0.0],
                    method="DOP853", rtol=rtol, atol=atol)
    y = sol.y[:, -1]
    return y[0] + 1j * y[1], y[2] + 1j * y[3], y[4]


@pytest.mark.parametrize("family,params,x0,x1", [
    (kernels.FLRW_TANH, FLRW_PARAMS, -10.0, 10.0),
    (kernels.GW_MODE, GW_PARAMS, 0.0, 40.0),
])
def test_pair_kernel_matches_scipy(family, params, x0, x1):
    samples = np.linspace(x0, x1, 5)
    (qa,), (qb,), (ph,), _ = kernels.pair_evolution(
        family, [params], x0, samples, rtol=1e-11, atol=1e-11)
    qa_ref, qb_ref, ph_ref = scipy_reference(family, params, x0, x1)
    assert abs(qa[-1] - qa_ref) < 2e-8
    assert abs(qb[-1] - qb_ref) < 2e-8
    assert abs(ph[-1] - ph_ref) < 2e-8


def test_pair_identity_conserved():
    samples = np.linspace(-10.0, 10.0, 33)
    (qa,), (qb,), _, _ = kernels.pair_evolution(
        kernels.FLRW_TANH, [FLRW_PARAMS], -10.0, samples, rtol=1e-10,
        atol=1e-10, ident_cap=1e-8)
    drift = np.max(np.abs(np.abs(qa) ** 2 - np.abs(qb) ** 2 - 1.0))
    assert drift < 1e-10


def test_identity_cap_triggers():
    samples = np.linspace(-10.0, 10.0, 9)
    with pytest.raises(IdentityDrift):
        kernels.pair_evolution(kernels.FLRW_TANH, [FLRW_PARAMS], -10.0,
                               samples, rtol=1e-6, atol=1e-6, ident_cap=1e-15)


def test_sampling_grid_is_honored():
    samples = np.linspace(-10.0, 10.0, 101)
    (qa,), (qb,), (ph,), _ = kernels.pair_evolution(
        kernels.FLRW_TANH, [FLRW_PARAMS], -10.0, samples)
    assert len(qa) == len(samples) == len(qb) == len(ph)
    assert qa[0] == 1.0 + 0j and qb[0] == 0.0 + 0j and ph[0] == 0.0


# ---------------------------------------------------------------------------
# pairs batched as the rows of one solve

# k = 0, 2 pi / 1000 and 1: the last row ends rounds before the others
FLRW_ROWS = [[2.5, 1.5, 1.0, k, 0.1] for k in (0.0, 2.0 * np.pi / 1000.0, 1.0)]


def solve_rows(params, samples):
    """One solve of the pair rows, with each row's step and attempt counts.

    The step hook sees every row's time after a round in which a row
    stepped; each stage-1 evaluation sees every row's stage time, which
    stays on the end time for the rows that ended.
    """
    rhs, y0 = kernels._pair_system(kernels.FLRW_TANH, params)
    times, calls = [], []

    def counted(x, y):
        calls.append(np.atleast_1d(x).copy())
        return rhs(x, y)

    res = solve_dopri(counted, samples[0], samples[-1], y0, rtol=1e-10,
                      atol=1e-10, t_eval=samples,
                      step_hook=lambda x, y: times.append(
                          np.atleast_1d(x).copy()))
    steps = [np.unique(col[col != samples[0]]).size
             for col in np.array(times).T]
    # k[0] and the initial trial step, then six stages a round
    attempts = np.count_nonzero(np.array(calls[2::6]) != samples[-1], axis=0)
    return res, steps, attempts


@pytest.mark.parametrize("n_samples", [2, 600])
@pytest.mark.parametrize("x0,x1", [(-10.0, 10.0), (10.0, -10.0)])
def test_batched_rows_take_their_solo_steps(x0, x1, n_samples):
    samples = np.linspace(x0, x1, n_samples)
    batch, steps, attempts = solve_rows(FLRW_ROWS, samples)
    assert len(set(steps)) > 1           # the rows end at different rounds
    for row, params in enumerate(FLRW_ROWS):
        solo, (solo_steps,), (solo_attempts,) = solve_rows([params], samples)
        assert steps[row] == solo_steps == solo.n_steps
        assert attempts[row] == solo_attempts
        assert attempts[row] - steps[row] == solo.n_rejected
        assert 2 + 6 * attempts[row] == solo.n_rhs
        assert np.array_equal(batch.y[:, row], solo.y)
        assert batch.stats([row]) == solo.stats()
    assert batch.n_steps == sum(steps)
    assert batch.n_rhs == 2 * len(FLRW_ROWS) + 6 * int(np.sum(attempts))
    assert batch.n_rejected == int(np.sum(attempts)) - sum(steps)


@pytest.mark.parametrize("family,rows,x0,x1", [
    (kernels.FLRW_TANH, FLRW_ROWS, -10.0, 10.0),
    (kernels.GW_MODE, [GW_PARAMS, [np.pi ** 2, 0.0, 0.0, 0.5, 1e-3,
                                   3.0 * np.pi, 4.0]], -6.0, 6.0),
])
def test_rows_at_mixed_tolerances_are_their_solo_solves(family, rows, x0, x1):
    """Rows at tol and at tol/2 in one solve: each row's samples, counts
    and step-size range are those of its solve alone, bit for bit."""
    samples = np.linspace(x0, x1, 600)
    tols = np.repeat([1e-10, 5e-11], len(rows))
    qa, qb, phase, batch = kernels.pair_evolution(
        family, rows + rows, x0, samples, rtol=tols, atol=tols,
        ident_cap=100.0 * tols)
    for row, (params, tol) in enumerate(zip(rows + rows, tols)):
        (sa,), (sb,), (sp,), solo = kernels.pair_evolution(
            family, [params], x0, samples, rtol=tol, atol=tol,
            ident_cap=100.0 * tol)
        assert np.array_equal(qa[row], sa) and np.array_equal(qb[row], sb)
        assert np.array_equal(phase[row], sp)
        assert batch.stats([row]) == solo.stats()
    # the half tolerance takes more steps
    assert batch.row_steps[len(rows):].sum() > batch.row_steps[:len(rows)].sum()


def test_a_tolerance_per_row_must_match_the_rows():
    rhs, y0 = kernels._pair_system(kernels.FLRW_TANH, FLRW_ROWS)
    with pytest.raises(InvalidArgument, match="one per row"):
        solve_dopri(rhs, -10.0, 10.0, y0, rtol=[1e-10, 1e-10], atol=1e-10)


def test_identity_drift_in_one_row_names_that_rows_x():
    samples = np.linspace(-10.0, 10.0, 9)
    # massless: b = 0 keeps Qa = 1 and Qb = 0 exactly, so no drift
    calm = [2.5, 1.5, 1.0, 1.0, 0.0]
    kwargs = dict(rtol=1e-6, atol=1e-6, ident_cap=1e-15)
    with pytest.raises(IdentityDrift) as solo:
        kernels.pair_evolution(kernels.FLRW_TANH, [FLRW_PARAMS], -10.0,
                               samples, **kwargs)
    with pytest.raises(IdentityDrift) as batch:
        kernels.pair_evolution(kernels.FLRW_TANH, [calm, FLRW_PARAMS], -10.0,
                               samples, **kwargs)
    x_of = lambda e: re.search(r"at x=(\S+)", str(e.value)).group(1)
    assert x_of(batch) == x_of(solo)


def test_batched_fig2_solve_raises_no_warning():
    rows = [[2.5, 1.5, 1.0, 2.0 * np.pi * n / 1000.0, 0.1] for n in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels.pair_evolution(kernels.FLRW_TANH, rows, -10.0,
                               np.linspace(-10.0, 10.0, 600), ident_cap=1e-8)

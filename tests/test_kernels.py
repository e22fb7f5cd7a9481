import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bogoflow import kernels
from bogoflow.errors import IdentityDrift

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
    qa, qb, ph, _ = kernels.pair_evolution(family, params, x0, samples,
                                           rtol=1e-11, atol=1e-11)
    qa_ref, qb_ref, ph_ref = scipy_reference(family, params, x0, x1)
    assert abs(qa[-1] - qa_ref) < 2e-8
    assert abs(qb[-1] - qb_ref) < 2e-8
    assert abs(ph[-1] - ph_ref) < 2e-8


def test_pair_identity_conserved():
    samples = np.linspace(-10.0, 10.0, 33)
    qa, qb, _, _ = kernels.pair_evolution(kernels.FLRW_TANH, FLRW_PARAMS,
                                          -10.0, samples, rtol=1e-10,
                                          atol=1e-10, ident_cap=1e-8)
    drift = np.max(np.abs(np.abs(qa) ** 2 - np.abs(qb) ** 2 - 1.0))
    assert drift < 1e-10


def test_identity_cap_triggers():
    samples = np.linspace(-10.0, 10.0, 9)
    with pytest.raises(IdentityDrift):
        kernels.pair_evolution(kernels.FLRW_TANH, FLRW_PARAMS, -10.0, samples,
                               rtol=1e-6, atol=1e-6, ident_cap=1e-15)


def test_sampling_grid_is_honored():
    samples = np.linspace(-10.0, 10.0, 101)
    qa, qb, ph, _ = kernels.pair_evolution(kernels.FLRW_TANH, FLRW_PARAMS,
                                           -10.0, samples)
    assert len(qa) == len(samples) == len(qb) == len(ph)
    assert qa[0] == 1.0 + 0j and qb[0] == 0.0 + 0j and ph[0] == 0.0

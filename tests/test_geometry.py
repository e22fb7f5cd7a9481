import numpy as np
import pytest

from bogoflow import (BoundarySpec, Domain, SyncSpacetime, diagonal_spacetime,
                      flrw_torus, q_factor, rbar_factor, static_spacetime)
from bogoflow.errors import InvalidArgument, SingularMetric
from bogoflow.spectral import OperatorSpec, instantaneous_basis

X = np.array([0.37])


def test_static_metric_factors_vanish():
    st = static_spacetime(Domain((2.0,), (True,)), metric=[4.0])
    for t in (-1.0, 0.0, 3.7):
        assert abs(q_factor(st, t, X)) <= 1e-12
        assert abs(rbar_factor(st, t, X)) <= 1e-12


def test_flrw_q_is_hubble_rate():
    a = lambda t: 2.0 + 0.3 * np.sin(t)
    adot = lambda t: 0.3 * np.cos(t)
    st = flrw_torus(a, adot, length=1.0, mass=0.1)
    for t in (0.0, 0.7, 2.1):
        expect = adot(t) / a(t)
        assert abs(q_factor(st, t, X) - expect) <= 1e-8 * abs(expect)


def test_flrw_rbar_closed_form():
    # oracle: symbolic differentiation of the definition for h = a(t)^2
    # gives rbar = 2 addot / a; cross-checked against pure finite differences
    a = lambda t: 2.0 + 0.3 * np.sin(t)
    adot = lambda t: 0.3 * np.cos(t)
    addot = lambda t: -0.3 * np.sin(t)
    st = flrw_torus(a, adot, length=1.0, mass=0.1)
    st_fd = flrw_torus(a, None, length=1.0, mass=0.1)
    for t in (0.4, 1.3):
        expect = 2.0 * addot(t) / a(t)
        assert abs(rbar_factor(st, t, X) - expect) <= 1e-6 * abs(expect)
        assert abs(rbar_factor(st_fd, t, X) - expect) <= 1e-5 * abs(expect)


def test_gw_metric_factors_first_order():
    # traceless wave perturbation: q and rbar are O(eps^2)
    eps, omega = 1e-6, 3.0

    def scales(t):
        s = eps * np.sin(omega * t)
        return np.array([1.0 + s, 1.0 - s, 1.0])

    def scales_dt(t):
        ds = eps * omega * np.cos(omega * t)
        return np.array([ds, -ds, 0.0])

    st = diagonal_spacetime(Domain((1.0, 1.0, 1.0), (False,) * 3),
                            scales, scales_dt,
                            boundary=BoundarySpec("dirichlet"))
    x3 = np.array([0.2, 0.3, 0.4])
    for t in (0.0, 0.5):
        assert abs(q_factor(st, t, x3)) <= 100 * eps ** 2
        assert abs(rbar_factor(st, t, x3)) <= 1e4 * eps ** 2 + 1e-9


def test_volume_integral_mode_normalization(long_torus):
    """Modes are normalised to 1/(2 omega) against the slice volume element
    sqrt(det h) dx, here by a 64-point Gauss-Legendre rule on the torus."""
    op = OperatorSpec(boundary=long_torus.boundary)
    basis = instantaneous_basis(op, long_torus, 0.0, 3)
    (lo, hi), = long_torus.domain.bounds
    x, w = np.polynomial.legendre.leggauss(64)
    pts = (lo + 0.5 * (hi - lo) * (x + 1.0))[:, None]
    w = 0.5 * (hi - lo) * w * long_torus.sqrt_det_h(0.0, pts)
    for i, mode in enumerate(basis.modes):
        v = np.sum(w * np.abs(mode.value(pts)) ** 2)
        expect = 1.0 / (2.0 * basis.omegas[i])
        assert abs(v - expect) <= 1e-10 * expect


def test_non_positive_metric_rejected():
    def h(t, pts):
        return np.full((len(pts), 1, 1), -1.0)

    with pytest.raises(SingularMetric):
        SyncSpacetime(domain=Domain((1.0,), (True,)), h=h,
                      dh_dt=lambda t, p: np.zeros((len(p), 1, 1)))


def test_inconsistent_dh_dt_rejected():
    def h(t, pts):
        return np.full((len(pts), 1, 1), 1.0 + 0.5 * t)

    def bad_dh(t, pts):
        return np.full((len(pts), 1, 1), 37.0)

    with pytest.raises(InvalidArgument):
        SyncSpacetime(domain=Domain((1.0,), (True,)), h=h, dh_dt=bad_dh)


def test_boundary_spec_validation():
    with pytest.raises(InvalidArgument):
        BoundarySpec("robin")
    with pytest.raises(InvalidArgument):
        BoundarySpec("dirichlet", robin_gamma=lambda x: 1.0)
    spec = BoundarySpec("robin", robin_gamma=lambda x: 0.0)
    with pytest.raises(InvalidArgument):
        spec.gamma_at(np.array([0.0]))

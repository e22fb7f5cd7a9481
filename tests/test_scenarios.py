import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bogoflow.coupling import DiagonalFamilyDriver
from bogoflow.errors import AsymptoteNotReached, InvalidArgument
from bogoflow.evolution import identity_residual
from bogoflow.kernels import _flrw_a2
from bogoflow.perturbation import window_coefficients
from bogoflow.scenarios import (FlrwConfig, GwCavityConfig,
                                asymptotic_beta_squared, flrw_generic_run,
                                flrw_run, flrw_spacetime,
                                flrw_unconfined_limit, gw_cavity_run,
                                gw_delta_coupling, gw_nonperturbative_pair)
from bogoflow.spectral import OperatorSpec

FIG2 = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=5,
                  eta_span=(-10.0, 10.0), tol=1e-10)


# ---------------------------------------------------------------------------
# cosmology time map


def quad_time(cfg, eta0, eta1):
    """Independent reference for t(eta1) - t(eta0) = int a d(eta)."""
    return quad(cfg.scale_factor_eta, eta0, eta1, epsabs=1e-13,
                epsrel=1e-13)[0]


def test_time_grid_constant_scale_factor():
    cfg = FlrwConfig(A=4.0, B=0.0, rho=1.0, m=0.1, L=10.0,
                     eta_span=(-9.0, 9.0))
    eta = np.linspace(-9.0, 9.0, 20001)
    assert np.max(np.abs(cfg.eta_to_t(eta) - 2.0 * eta)) < 1e-12


def test_run_times_constant_scale_factor():
    cfg = FlrwConfig(A=4.0, B=0.0, rho=1.0, m=0.1, L=10.0,
                     eta_span=(-9.0, 9.0))
    res = flrw_run(cfg, n_samples=50)
    assert np.max(np.abs(res.t - 2.0 * res.eta)) < 1e-12


@pytest.mark.parametrize("span", [(-10.0, 10.0), (1.0, 9.0)])
def test_run_times_match_the_time_grid(span):
    """t at the samples, anchored at t(eta = 0) = 0 when the span holds
    eta = 0 and at the span's start otherwise, against quadrature of a."""
    cfg = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=1,
                     eta_span=span)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymptoteNotReached)
        res = flrw_run(cfg)
    anchor = 0.0 if span[0] < 0.0 < span[1] else span[0]
    ref = np.array([quad_time(cfg, anchor, e) for e in res.eta])
    assert np.max(np.abs(res.t - ref)) < 1e-12


def test_time_grid_derivative_and_asymptotic_slopes():
    eta = np.linspace(FIG2.eta_span[0], FIG2.eta_span[1], 20001)
    t = FIG2.eta_to_t(eta)
    # 4th-order midpoint differentiation of the exact values
    h = eta[1] - eta[0]
    mids = 0.5 * (eta[1:-2] + eta[2:-1])
    dt_deta = (27.0 * (t[2:-1] - t[1:-2]) - (t[3:] - t[:-3])) / (24.0 * h)
    assert np.max(np.abs(dt_deta - FIG2.scale_factor_eta(mids))) < 1e-8
    # slopes approach sqrt(A -+ B) in the far past/future
    left = (t[1] - t[0]) / (eta[1] - eta[0])
    right = (t[-1] - t[-2]) / (eta[-1] - eta[-2])
    assert abs(left - np.sqrt(FIG2.A - FIG2.B)) < 1e-6
    assert abs(right - np.sqrt(FIG2.A + FIG2.B)) < 1e-6
    # anchored at t(eta=0) = 0
    assert abs(FIG2.eta_to_t(0.0)) < 1e-12
    # inverse map round-trips
    probe = np.linspace(t[2], t[-3], 7)
    back = np.array([FIG2.eta_to_t(FIG2.t_to_eta(p)) for p in probe])
    assert np.max(np.abs(back - probe)) < 1e-9


@pytest.mark.parametrize("A,B,rho", [
    (2.5, -1.5, 1.0),        # contracting
    (2.5, 1.5, -0.7),        # rho < 0
    (2.5, 0.0, 1.0),         # static, B = 0
    (2.5, 1.5, 0.0),         # static, rho = 0
    (1.0, 0.99, 1.0),        # a_in = 0.1
])
def test_time_map_against_quadrature(A, B, rho):
    cfg = FlrwConfig(A=A, B=B, rho=rho, m=0.1, L=10.0)
    for eta in np.linspace(-10.0, 10.0, 21):
        assert abs(cfg.eta_to_t(eta) - quad_time(cfg, 0.0, eta)) < 1e-12


def test_time_map_round_trip_beyond_the_span():
    """t in [-16, 30] reaches past t(eta_span) on both sides."""
    assert FIG2.eta_to_t(FIG2.eta_span[0]) > -16.0
    assert FIG2.eta_to_t(FIG2.eta_span[1]) < 30.0
    for t in np.linspace(-16.0, 30.0, 93):
        assert abs(FIG2.eta_to_t(FIG2.t_to_eta(t)) - t) < 1e-13


def test_spacetime_scales_beyond_the_span():
    """h = a^2 and dh/dt = (d(a^2)/deta) / a at eta = +-15, outside the
    eta_span of FIG2."""
    st = flrw_spacetime(FIG2)
    for eta in (-15.0, 15.0):
        t = quad_time(FIG2, 0.0, eta)
        a2, da2 = _flrw_a2(FIG2.A, FIG2.B, FIG2.rho, eta)
        (s,), (ds,) = st.diag_scales(t), st.diag_scales_dt(t)
        assert abs(s - a2) <= 1e-12 * a2
        assert abs(ds - da2 / np.sqrt(a2)) <= 1e-12 * abs(da2 / np.sqrt(a2))


def test_spacetime_inverts_each_time_once(monkeypatch):
    """A driver call on flrw_spacetime reads a^2 and d(a^2)/dt at one t,
    from one Newton inversion t -> eta."""
    st = flrw_spacetime(FIG2)
    driver = DiagonalFamilyDriver(OperatorSpec(boundary=st.boundary), st,
                                  labels=[(-1,), (0,), (1,)])
    inversions = []
    t_to_eta = FlrwConfig.t_to_eta
    monkeypatch.setattr(FlrwConfig, "t_to_eta",
                        lambda cfg, t: inversions.append(t) or t_to_eta(cfg, t))
    for t in (-3.0, 0.0, 2.5):
        inversions.clear()
        driver(t)
        assert inversions == [t]


def test_config_validation():
    with pytest.raises(InvalidArgument):
        FlrwConfig(A=1.0, B=1.5, rho=1.0, m=0.1, L=10.0)
    with pytest.raises(InvalidArgument):
        FlrwConfig(A=2.0, B=1.0, rho=1.0, m=-0.1, L=10.0)
    with pytest.raises(InvalidArgument):
        GwCavityConfig(lengths=(1.0, 2.0), epsilon=1e-5)
    with pytest.raises(InvalidArgument):
        GwCavityConfig(epsilon=0.0)


def test_gw_config_rejects_window_with_gaussian_tau():
    """A Gaussian envelope gives whole-line coefficients, so a window
    would be ignored."""
    with pytest.raises(InvalidArgument, match="window"):
        GwCavityConfig(tau=30.0, window=(0.0, 3.0))


# ---------------------------------------------------------------------------
# cosmology runs


def test_flrw_massless_is_trivial():
    cfg = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.0, L=1000.0, n_max=3,
                     eta_span=(-10.0, 10.0))
    res = flrw_run(cfg)
    assert np.max(np.abs(res.beta)) <= 1e-12
    assert np.max(np.abs(np.abs(res.alpha) - 1.0)) <= 1e-12


def test_flrw_static_is_identity():
    cfg = FlrwConfig(A=2.5, B=0.0, rho=1.0, m=0.1, L=1000.0, n_max=2,
                     eta_span=(-9.0, 9.0))
    res = flrw_run(cfg)
    assert np.max(np.abs(res.beta)) <= 1e-12
    assert np.max(np.abs(np.abs(res.alpha) - 1.0)) <= 1e-12


def test_flrw_fig2_reproduction():
    res = flrw_run(FIG2, include_zero_mode=False)
    rel = np.abs(res.beta2_final - res.oracle_beta2) / res.oracle_beta2
    assert np.max(rel) < 0.01
    # curves monotone non-decreasing at plateau tolerance
    for row in range(len(res.labels)):
        dips = np.diff(res.beta2[row])
        assert dips.min() >= -1e-4 * res.beta2_final[row]
    assert res.meta["pair_identity_residual"] < 1e-8
    assert "not_plateaued" not in res.meta


def test_flrw_identity_holds_pointwise():
    res = flrw_run(FIG2, include_zero_mode=False)
    assert np.max(np.abs(res.alpha2 - 1.0 - res.beta2)) < 100 * FIG2.tol


def test_flrw_short_span_warns():
    cfg = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=1,
                     eta_span=(-3.0, 3.0))
    with pytest.warns(AsymptoteNotReached):
        flrw_run(cfg)


def test_unconfined_limit():
    k1 = 2.0 * np.pi / FIG2.L
    confined = flrw_run(FIG2, include_zero_mode=False)
    free = flrw_unconfined_limit(FIG2, k1)
    row = confined.labels.index(1)
    assert abs(free["beta2_final"] - confined.beta2_final[row]) < 1e-14
    # creation dies off monotonically at large wavenumber
    ks = [0.05, 0.1, 0.2, 0.4]
    vals = [asymptotic_beta_squared(FIG2, k) for k in ks]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    big = flrw_unconfined_limit(FIG2, 1.0)
    assert big["beta2_final"] < 1e-4


def test_flrw_generic_path_cross_validates():
    cfg = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=2,
                     eta_span=(-10.0, 10.0))
    res = flrw_run(cfg, include_zero_mode=True)
    labels, out = flrw_generic_run(cfg, n_pairs=2, eta_window=(-10.0, 10.0))
    _, U = out[-1]
    assert identity_residual(U) < 1e-8
    for row, n in enumerate(res.labels):
        i = labels.index((n,))
        j = labels.index((-n,))
        assert abs(abs(U.beta[j, i]) - abs(res.beta[row, -1])) < 1e-9
        assert abs(abs(U.alpha[i, i]) - abs(res.alpha[row, -1])) < 1e-9
    # alpha strictly diagonal: no mode-mixing in this scenario
    off = U.alpha - np.diag(np.diagonal(U.alpha))
    assert np.max(np.abs(off)) < 1e-12


# ---------------------------------------------------------------------------
# cavity runs


def test_gw_resonant_run_periodic():
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                         n_modes_per_axis=(2, 2, 2))
    res = gw_cavity_run(cfg)
    assert len(res.report) == 1
    e = res.report.entries[0]
    assert (e.kind, e.n, e.m) == ("beta", (1, 1, 1), (1, 1, 1))
    assert abs(abs(e.rate) - cfg.epsilon * np.pi / 8) < 1e-12
    t0, tf = res.meta["window"]
    i = res.basis.labels.index((1, 1, 1))
    got = abs(res.coefficients.beta[i, i])
    # linear growth with bounded wiggle ~ rate/(2 Omega)
    expect = abs(e.rate) * (tf - t0)
    assert abs(got - expect) <= 2 * abs(e.rate) / cfg.wave_frequency()


def test_gw_cubic_cavity_empty_report():
    cfg = GwCavityConfig(lengths=(1.0, 1.0, 1.0), epsilon=1e-5,
                         n_modes_per_axis=(2, 2, 2))
    res = gw_cavity_run(cfg)
    assert len(res.report) == 0


def test_gw_gaussian_envelope_closed_form():
    w0 = GwCavityConfig().mode_omega0((1, 1, 1))
    for omega in (2.0 * w0, 2.2 * w0):
        cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                             omega=omega, tau=30.0 / w0,
                             n_modes_per_axis=(2, 2, 2))
        res = gw_cavity_run(cfg)
        i = res.basis.labels.index((1, 1, 1))
        kx, ky = np.pi, np.pi / 2
        tau = cfg.tau
        closed = cfg.epsilon * np.sqrt(np.pi) * (kx ** 2 - ky ** 2) \
            / (4 * w0) * tau * (np.exp(-(omega - 2 * w0) ** 2 * tau ** 2 / 4)
                                - np.exp(-(omega + 2 * w0) ** 2 * tau ** 2 / 4))
        got = res.coefficients.beta[i, i]
        assert abs(abs(got) - abs(closed)) <= 1e-10 * abs(closed)


def test_gw_neumann_limit_is_trivial():
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                         boundary="neumann", n_modes_per_axis=(2, 2, 2))
    res = gw_cavity_run(cfg)
    assert res.meta["dm_rate_spread"] < 1e-6
    rates = {(e.n, e.m): abs(e.rate) for e in res.report
             if e.kind == "beta" and e.n == e.m}
    assert abs(rates[((1, 1, 1), (1, 1, 1))] - cfg.epsilon * np.pi / 8) \
        < 1e-6 * cfg.epsilon * np.pi / 8 + 1e-11


def test_gw_neumann_cavity_with_strong_low_mode_runs():
    # the (0,3,0) rate moves by its mass shift rate * dm^2 / (2 w^2) between
    # regularization masses; at dm <= 1e-3 that stays below DM_AGREEMENT
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                         boundary="neumann", n_modes_per_axis=(4, 4, 4))
    res = gw_cavity_run(cfg)
    assert res.meta["dm_rate_spread"] < 1e-7
    rates = {e.n: abs(e.rate) / cfg.epsilon for e in res.report
             if e.kind == "beta" and e.n == e.m}
    assert abs(rates[(0, 3, 0)] - 3 * np.pi / 8) < 1e-6
    assert abs(rates[(1, 1, 1)] - np.pi / 8) < 1e-6


def test_gw_neumann_unsettled_limit_raises(monkeypatch):
    import bogoflow.scenarios.gw_cavity as gw_cavity
    monkeypatch.setattr(gw_cavity, "DM_SEQUENCE", (0.3, 0.1))
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                         boundary="neumann", n_modes_per_axis=(2, 2, 2))
    with pytest.raises(InvalidArgument, match="dm -> 0 limit"):
        gw_cavity_run(cfg)


def test_gw_exact_evolution_never_mixes_modes():
    from bogoflow.evolution import evolve_Q
    from bogoflow.scenarios import gw_exact_driver
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-4,
                         n_modes_per_axis=(2, 2, 2))
    labels = [(1, 1, 1), (1, 2, 1), (2, 1, 1)]
    drv = gw_exact_driver(cfg, labels=labels)
    q, acc = evolve_Q(drv, 0.0, 8.0, tol=1e-10)
    u = acc.to_U(q)
    # eigenfunctions are fixed: each mode only pairs with itself
    assert np.max(np.abs(u.alpha - np.diag(np.diagonal(u.alpha)))) < 1e-12
    assert np.max(np.abs(u.beta - np.diag(np.diagonal(u.beta)))) < 1e-12


def test_gw_quadrature_pipeline_matches_closed_driver():
    from bogoflow.coupling import InstantaneousFamily, quadrature_driver
    from bogoflow.evolution import evolve_Q
    from bogoflow.scenarios import gw_exact_driver, gw_spacetime
    from bogoflow.spectral import OperatorSpec
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-3,
                         n_modes_per_axis=(1, 1, 1))
    st = gw_spacetime(cfg)
    fam = InstantaneousFamily(OperatorSpec(boundary=st.boundary), st, 1)
    drv_quad = quadrature_driver(st, fam)
    drv_diag = gw_exact_driver(cfg, labels=[(1, 1, 1)])
    tol = 1e-9
    q1, a1 = evolve_Q(drv_quad, 0.0, 0.8, tol=tol)
    q2, a2 = evolve_Q(drv_diag, 0.0, 0.8, tol=tol)
    assert np.max(np.abs(a1.to_U(q1).alpha - a2.to_U(q2).alpha)) < 20 * tol
    assert np.max(np.abs(a1.to_U(q1).beta - a2.to_U(q2).beta)) < 20 * tol


def test_gw_gaussian_nonperturbative_vs_asymptotic():
    from bogoflow.perturbation import asymptotic_coefficients
    w0 = GwCavityConfig().mode_omega0((1, 1, 1))
    omega = 2.0 * w0
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5, omega=omega,
                         tau=30.0 / w0, n_modes_per_axis=(1, 1, 1), tol=1e-11)
    t5 = 5.0 * cfg.tau
    qa, qb = gw_nonperturbative_pair(cfg, (1, 1, 1), np.array([-t5, t5]))
    dc = gw_delta_coupling(cfg)
    full = asymptotic_coefficients(dc, dc.basis)
    expect = abs(full.beta[0, 0])
    assert abs(abs(qb[-1]) - expect) <= 0.01 * expect


@pytest.mark.parametrize("eps", [1e-5, 1e-4])
def test_gw_perturbative_vs_nonperturbative(eps):
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=eps,
                         n_modes_per_axis=(1, 1, 1), tol=1e-10)
    T = 1000.0
    ts = np.array([0.0, T])
    qa, qb = gw_nonperturbative_pair(cfg, (1, 1, 1), ts)
    dc = gw_delta_coupling(cfg)
    m = window_coefficients(dc, dc.basis, 0.0, T)
    b_np = abs(qb[-1])
    b_p = abs(m.beta[0, 0])
    assert abs(b_np - b_p) <= 0.01 * b_p
    assert abs(abs(qa[-1]) ** 2 - abs(qb[-1]) ** 2 - 1.0) < 1e-8

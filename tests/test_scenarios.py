import numpy as np
import pytest

from bogoflow.errors import AsymptoteNotReached, InvalidArgument
from bogoflow.evolution import identity_residual
from bogoflow.perturbation import window_coefficients
from bogoflow.scenarios import (FlrwConfig, GwCavityConfig,
                                asymptotic_beta_squared, flrw_generic_run,
                                flrw_run, flrw_time_grid,
                                flrw_unconfined_limit, gw_cavity_run,
                                gw_delta_coupling, gw_nonperturbative_pair)

FIG2 = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=5,
                  eta_span=(-10.0, 10.0), tol=1e-10)


# ---------------------------------------------------------------------------
# cosmology time grid


def test_time_grid_constant_scale_factor():
    cfg = FlrwConfig(A=4.0, B=0.0, rho=1.0, m=0.1, L=10.0,
                     eta_span=(-9.0, 9.0))
    grid = flrw_time_grid(cfg)
    assert np.max(np.abs(grid.t - 2.0 * grid.eta)) < 1e-12


def test_time_grid_derivative_and_asymptotic_slopes():
    grid = flrw_time_grid(FIG2)
    # 4th-order midpoint differentiation of the exact grid values
    t, eta = grid.t, grid.eta
    h = eta[1] - eta[0]
    mids = 0.5 * (eta[1:-2] + eta[2:-1])
    dt_deta = (27.0 * (t[2:-1] - t[1:-2]) - (t[3:] - t[:-3])) / (24.0 * h)
    assert np.max(np.abs(dt_deta - FIG2.scale_factor_eta(mids))) < 1e-8
    # slopes approach sqrt(A -+ B) in the far past/future
    left = (grid.t[1] - grid.t[0]) / (grid.eta[1] - grid.eta[0])
    right = (grid.t[-1] - grid.t[-2]) / (grid.eta[-1] - grid.eta[-2])
    assert abs(left - np.sqrt(FIG2.A - FIG2.B)) < 1e-6
    assert abs(right - np.sqrt(FIG2.A + FIG2.B)) < 1e-6
    # anchored at t(eta=0) = 0
    assert abs(grid.eta_to_t(0.0)) < 1e-12
    # inverse map round-trips
    probe = np.linspace(grid.t[2], grid.t[-3], 7)
    assert np.max(np.abs(grid.eta_to_t(grid.t_to_eta(probe)) - probe)) < 1e-9


def test_config_validation():
    with pytest.raises(InvalidArgument):
        FlrwConfig(A=1.0, B=1.5, rho=1.0, m=0.1, L=10.0)
    with pytest.raises(InvalidArgument):
        FlrwConfig(A=2.0, B=1.0, rho=1.0, m=-0.1, L=10.0)
    with pytest.raises(InvalidArgument):
        GwCavityConfig(lengths=(1.0, 2.0), epsilon=1e-5)
    with pytest.raises(InvalidArgument):
        GwCavityConfig(epsilon=0.0)


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

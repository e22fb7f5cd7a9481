import numpy as np
import pytest

from bogoflow.errors import (DimensionMismatch, IdentityDrift,
                             InvalidArgument, StepFailure)
from bogoflow.evolution import (BogoliubovMatrix, compose, evolve_Q, evolve_U,
                                identity_residual, static_driver)
from bogoflow.integrators import solve_dopri
from bogoflow.scenarios import GwCavityConfig, gw_exact_driver


def random_valid_coupling(rng, n):
    """ahat anti-Hermitian, bhat symmetric, as the structure demands."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ahat = 0.5 * (a - a.conj().T)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    bhat = 0.5 * (b + b.T)
    return ahat, bhat


def test_static_evolution_is_pure_phase():
    w = np.array([1.0, 2.0, 3.5])
    U = evolve_U(static_driver(w), 0.0, 2.0, tol=1e-12)
    expect = np.diag(np.exp(1j * w * 2.0))
    assert np.max(np.abs(U.alpha - expect)) < 1e-10
    assert np.max(np.abs(U.beta)) == 0.0
    q, acc = evolve_Q(static_driver(w), 0.0, 2.0, tol=1e-12)
    assert np.max(np.abs(q.alpha - np.eye(3))) == 0.0
    assert np.max(np.abs(q.beta)) == 0.0
    assert np.max(np.abs(np.abs(acc.theta) - 1.0)) < 1e-12


def test_single_step_taylor_consistency(rng):
    n = 3
    w = np.array([1.0, 1.7, 2.4])
    ahat, bhat = random_valid_coupling(rng, n)
    driver = lambda t: (w, (ahat, bhat))
    dt = 1e-5
    U = evolve_U(driver, 0.0, dt, tol=1e-13)
    # dU = (i Omega + K) U in blocks
    dA = 1j * np.diag(w) + ahat
    expectA = np.eye(n) + dt * dA
    expectB = dt * bhat
    assert np.max(np.abs(U.alpha - expectA)) < 5 * dt ** 2 * np.max(np.abs(dA)) ** 2
    assert np.max(np.abs(U.beta - expectB)) < 5 * dt ** 2 * np.max(np.abs(bhat)) ** 2


def test_identity_residual_values(rng):
    eye = BogoliubovMatrix.identity(4)
    assert identity_residual(eye) == 0.0
    delta = 1e-3
    scaled = BogoliubovMatrix(np.sqrt(1 + delta) * np.eye(4),
                              np.zeros((4, 4)))
    assert abs(identity_residual(scaled) - delta) < 1e-12


def test_compose_identity_and_dimension_guard(rng):
    ahat, bhat = random_valid_coupling(rng, 3)
    U = evolve_U(lambda t: (np.array([1.0, 2.0, 3.0]), (ahat * 0.1, bhat * 0.1)),
                 0.0, 0.5, tol=1e-11)
    eye = BogoliubovMatrix.identity(3)
    c = compose(U, eye)
    assert np.max(np.abs(c.alpha - U.alpha)) == 0.0
    with pytest.raises(DimensionMismatch):
        compose(U, BogoliubovMatrix.identity(2))


def test_semigroup_and_reversal():
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-4,
                         n_modes_per_axis=(1, 1, 1))
    drv = gw_exact_driver(cfg)
    tol = 1e-11
    U02 = evolve_U(drv, 0.0, 2.0, tol=tol)
    U01 = evolve_U(drv, 0.0, 1.0, tol=tol)
    U12 = evolve_U(drv, 1.0, 2.0, tol=tol)
    comp = compose(U12, U01)
    assert np.max(np.abs(comp.alpha - U02.alpha)) < 10 * tol
    assert np.max(np.abs(comp.beta - U02.beta)) < 10 * tol
    # reversing the interval yields the inverse transformation; the bound
    # budgets the independent errors of two runs
    U20 = evolve_U(drv, 2.0, 0.0, tol=tol)
    ident = compose(U02, U20)
    assert np.max(np.abs(ident.alpha - np.eye(1))) < 20 * tol
    assert np.max(np.abs(ident.beta)) < 20 * tol


def test_compose_residual_bound(rng):
    ahat, bhat = random_valid_coupling(rng, 3)
    w = np.array([1.0, 2.0, 3.0])
    U1 = evolve_U(lambda t: (w, (0.2 * ahat, 0.2 * bhat)), 0.0, 1.0, tol=1e-9)
    U2 = evolve_U(lambda t: (w, (0.1 * ahat, 0.3 * bhat)), 0.0, 1.0, tol=1e-9)
    r1, r2 = identity_residual(U1), identity_residual(U2)
    r12 = identity_residual(compose(U2, U1))
    norm = max(np.max(np.abs(U1.full_matrix())), np.max(np.abs(U2.full_matrix())))
    c = 8 * norm ** 2
    assert r12 <= c * (r1 + r2) + 1e-14


def test_q_form_matches_u_form():
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-4,
                         n_modes_per_axis=(1, 1, 1))
    drv = gw_exact_driver(cfg)
    tol = 1e-10
    U = evolve_U(drv, 0.0, 2.0, tol=tol)
    q, acc = evolve_Q(drv, 0.0, 2.0, tol=tol)
    Uq = acc.to_U(q)
    assert np.max(np.abs(U.alpha - Uq.alpha)) < 10 * tol
    assert np.max(np.abs(U.beta - Uq.beta)) < 10 * tol
    # phase stripping only: moduli agree block by block
    assert np.max(np.abs(np.abs(q.alpha) - np.abs(Uq.alpha))) < 1e-13
    assert np.max(np.abs(np.abs(q.beta) - np.abs(Uq.beta))) < 1e-13


def test_identity_residual_grows_at_most_linearly():
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-4,
                         n_modes_per_axis=(1, 1, 1))
    drv = gw_exact_driver(cfg)
    tol = 1e-10
    res = [identity_residual(evolve_U(drv, 0.0, T, tol=tol))
           for T in (2.0, 4.0, 8.0)]
    floor = 10 * tol
    assert res[1] <= 2.5 * res[0] + floor
    assert res[2] <= 2.5 * res[1] + floor


def test_identity_drift_aborts_on_invalid_coupling(rng):
    # violating bhat = bhat^T breaks the identity; the monitor must abort
    n = 2
    w = np.array([1.0, 2.0])
    bad_b = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    driver = lambda t: (w, (np.zeros((n, n), dtype=complex), bad_b))
    with pytest.raises(IdentityDrift):
        evolve_U(driver, 0.0, 5.0, tol=1e-12)


def test_step_failure_on_singular_rhs():
    def rhs(t, y):
        return y / (0.5 - t)

    with pytest.raises(StepFailure):
        solve_dopri(rhs, 0.0, 1.0, np.array([1.0 + 0j]), rtol=1e-8, atol=1e-8)


def test_step_failure_in_one_row_of_a_batch():
    poles = np.array([5.0, 0.5])

    def rhs(t, y):
        return y / (poles - t)[:, None]

    with pytest.raises(StepFailure, match=r"t = 0\.49"):
        solve_dopri(rhs, 0.0, 1.0, np.ones((2, 1), dtype=complex),
                    rtol=1e-8, atol=1e-8)


def test_empty_interval_rejected():
    with pytest.raises(InvalidArgument):
        evolve_U(static_driver([1.0]), 1.0, 1.0)


def test_solver_against_scipy_reference():
    from scipy.integrate import solve_ivp

    def m(t):
        return np.array([[0.1j * t, 0.05 * np.sin(t)],
                         [0.05 * np.sin(t), -0.1j * t]])

    def rhs(t, y):
        return m(t) @ y

    y0 = np.array([1.0 + 0j, 0.2 - 0.1j])
    mine = solve_dopri(rhs, 0.0, 4.0, y0, rtol=1e-11, atol=1e-11)
    ref = solve_ivp(rhs, (0.0, 4.0), y0, method="DOP853",
                    rtol=1e-12, atol=1e-13)
    assert np.max(np.abs(mine.y[-1] - ref.y[:, -1])) < 1e-9


def test_solver_counts_rhs_calls():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return 40j * np.tanh(20.0 * (t - 0.5)) * y

    for t_eval in (None, np.linspace(0.0, 1.0, 7)):
        calls.clear()
        res = solve_dopri(rhs, 0.0, 1.0, np.array([1.0 + 0j]), rtol=1e-9,
                          atol=1e-9, t_eval=t_eval)
        assert res.n_rhs == len(calls)
        assert isinstance(res.n_rejected, int) and res.n_rejected >= 0


def test_evolution_calls_driver_once_per_table_node(rng):
    """The driver runs only at the nodes of its table, once at each, and
    first at t0: here one panel of Chebyshev-Lobatto times on [0, 2].  The
    output samples cost no call, and meta carries the stepper's counts and
    the table's, ``driver_calls`` being its node count."""
    w = np.array([1.0, 1.7, 2.4])
    ahat, bhat = random_valid_coupling(rng, 3)
    calls = []

    def driver(t):
        calls.append(t)
        return w, (0.1 * ahat * np.cos(t), 0.1 * bhat * np.sin(t))

    for evolve in (evolve_Q, evolve_U):
        for t_eval in (None, np.linspace(0.0, 2.0, 9)):
            calls.clear()
            out = evolve(driver, 0.0, 2.0, tol=1e-10, t_eval=t_eval)
            last = out if t_eval is None else out[-1]
            meta = (last[0] if evolve is evolve_Q else last).meta
            n = meta["driver_calls"]
            assert calls[0] == 0.0
            assert len(calls) == len(set(calls)) == n
            assert meta["table_panels"] == 1 and n in (17, 33, 65, 129, 257)
            nodes = 1.0 - np.cos(np.pi * np.arange(n) / (n - 1))
            np.testing.assert_allclose(sorted(calls), nodes, rtol=0,
                                       atol=1e-15)
            assert 0.0 <= meta["table_tail"] <= 1.0
            assert "symmetry_residual" not in meta   # no CouplingMatrices
            assert meta["n_steps"] > 0
            assert meta["n_rhs"] == 2 + 6 * (meta["n_steps"]
                                             + meta["n_rejected"])
            assert 0 < meta["h_min"] <= meta["h_max"] <= 2.0


def test_backward_integration():
    def rhs(t, y):
        return -0.3 * y

    res = solve_dopri(rhs, 1.0, 0.0, np.array([2.0 + 0j]),
                      rtol=1e-11, atol=1e-12)
    assert abs(res.y[-1][0] - 2.0 * np.exp(0.3)) < 1e-9


def chirp(t, y):
    """y' = i 40 tanh(20 (t - 1/2)) y: the steps shrink where the frequency
    turns, and the controller rejects some of them."""
    return 40j * np.tanh(20.0 * (t - 0.5)) * y


def chirp_exact(t, t0):
    return np.exp(2j * (np.log(np.cosh(20.0 * (t - 0.5)))
                        - np.log(np.cosh(20.0 * (t0 - 0.5)))))


@pytest.mark.parametrize("t0,tf", [(0.0, 1.0), (1.0, 0.0)])
def test_samples_do_not_change_the_steps(t0, tf):
    y0 = np.array([1.0 + 0j, 0.5j])

    def rhs(t, y):
        return np.array([chirp(t, y[0]), 3j * y[1] + 0.1 * y[0]])

    runs = [solve_dopri(rhs, t0, tf, y0, rtol=1e-9, atol=1e-9, t_eval=t_eval)
            for t_eval in (None, [t0, tf], np.linspace(t0, tf, 7),
                           np.linspace(t0, tf, 600))]
    assert runs[0].n_rejected > 0
    for res in runs[1:]:
        assert (res.n_steps, res.n_rejected, res.n_rhs) \
            == (runs[0].n_steps, runs[0].n_rejected, runs[0].n_rhs)
        assert np.array_equal(res.y[-1], runs[0].y[-1])
    assert runs[-1].n_steps < 600


@pytest.mark.parametrize("t0,tf", [(0.0, 1.0), (1.0, 0.0)])
def test_interpolated_samples_match_closed_forms(t0, tf):
    tol = 1e-9
    ts = np.linspace(t0, tf, 600)
    w = 3.0
    res = solve_dopri(lambda t, y: 1j * w * y, t0, tf, np.array([1.0 + 0j]),
                      rtol=tol, atol=tol, t_eval=ts)
    assert res.n_steps < 100           # several samples inside each step
    assert np.max(np.abs(res.y[:, 0] - np.exp(1j * w * (ts - t0)))) < 5 * tol
    res = solve_dopri(chirp, t0, tf, np.array([1.0 + 0j]), rtol=tol,
                      atol=tol, t_eval=ts)
    assert res.n_rejected > 0
    # the global error at the step ends is about 15 tol here
    assert np.max(np.abs(res.y[:, 0] - chirp_exact(ts, t0))) < 50 * tol
    np.testing.assert_array_equal(res.t, ts)


def test_samples_at_t0_and_on_step_ends_are_exact():
    ends = []
    y0 = np.array([1.0 + 0j])
    solve_dopri(chirp, 0.0, 1.0, y0, rtol=1e-8, atol=1e-8,
                step_hook=lambda t, y: ends.append((t, y.copy())))
    t_mid, y_mid = ends[len(ends) // 2]
    t_eval = [0.0, 0.5 * t_mid, t_mid, 1.0]
    res = solve_dopri(chirp, 0.0, 1.0, y0, rtol=1e-8, atol=1e-8,
                      t_eval=t_eval)
    assert res.y[0][0] == y0[0]
    assert res.y[2][0] == y_mid[0]
    assert res.y[3][0] == ends[-1][1][0]
    assert res.y[1][0] != y0[0]


def test_step_hook_runs_once_per_accepted_step():
    seen = []
    res = solve_dopri(chirp, 0.0, 1.0, np.array([1.0 + 0j]), rtol=1e-7,
                      atol=1e-7, t_eval=np.linspace(0.0, 1.0, 2000),
                      step_hook=lambda t, y: seen.append(t))
    assert len(seen) == res.n_steps < 500
    assert np.all(np.diff(seen) > 0) and seen[-1] == 1.0


@pytest.mark.parametrize("t_eval", [[0.0, 1.5], [-0.5, 1.0], [0.0, 0.6, 0.4]])
def test_samples_outside_the_run_are_rejected(t_eval):
    with pytest.raises(InvalidArgument):
        solve_dopri(chirp, 0.0, 1.0, np.array([1.0 + 0j]), rtol=1e-8,
                    atol=1e-8, t_eval=t_eval)


def test_run_ends_on_the_last_sample():
    y0 = np.array([1.0 + 0j])
    seen = []
    short = solve_dopri(chirp, 0.0, 1.0, y0, rtol=1e-8, atol=1e-8,
                        t_eval=[0.2, 0.6],
                        step_hook=lambda t, y: seen.append(t))
    ref = solve_dopri(chirp, 0.0, 0.6, y0, rtol=1e-8, atol=1e-8,
                      t_eval=[0.2, 0.6])
    assert (short.n_steps, short.n_rejected, short.n_rhs) \
        == (ref.n_steps, ref.n_rejected, ref.n_rhs)
    assert np.array_equal(short.y, ref.y) and seen[-1] == 0.6
    calls = []

    def counted(t, y):
        calls.append(t)
        return chirp(t, y)

    for t_eval in ([], [0.0, 0.0]):
        res = solve_dopri(counted, 0.0, 1.0, y0, rtol=1e-8, atol=1e-8,
                          t_eval=t_eval)
        assert res.y.shape == (len(t_eval), 1) and np.all(res.y == y0)
        assert res.n_steps == res.n_rhs == 0 and not calls
        assert res.h_min is None and res.h_max is None


@pytest.mark.parametrize("evolve", [evolve_Q, evolve_U])
def test_samples_are_held_once(evolve):
    """The matrices returned at the samples are views of the solve's
    samples.  The allocation peak is the samples plus the solve's working
    set, well below the two copies of every sample it held before."""
    import tracemalloc

    n = 32
    w = 1.0 + 0.01 * np.arange(n)
    ahat = np.zeros((n, n), dtype=complex)
    ahat[0, 1], ahat[1, 0] = 0.1, -0.1
    bhat = np.zeros((n, n), dtype=complex)
    bhat[0, 1] = bhat[1, 0] = 0.1

    def driver(t):
        return w, (ahat * np.cos(20.0 * t), bhat * np.sin(20.0 * t))

    t_eval = np.linspace(0.0, 2.0, 101)[1:]
    tracemalloc.start()
    try:
        out = evolve(driver, 0.0, 2.0, tol=1e-9, t_eval=t_eval)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state = 2 * n * n + (n if evolve is evolve_Q else 0)
    samples = t_eval.size * state * 16          # bytes of complex samples
    assert samples < peak < 1.6 * samples
    last = out[-1][0] if evolve is evolve_Q else out[-1]
    final = evolve(driver, 0.0, 2.0, tol=1e-9)
    final = final[0] if evolve is evolve_Q else final
    assert np.array_equal(last.alpha, final.alpha)
    assert np.array_equal(last.beta, final.beta)

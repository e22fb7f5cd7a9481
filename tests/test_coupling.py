import numpy as np
import pytest

from bogoflow import basis_derivatives, coupling_matrices, flrw_torus
from bogoflow.coupling import DiagonalFamilyDriver, InstantaneousFamily
from bogoflow.errors import InvalidArgument, SymmetryViolation
from bogoflow.scenarios import GwCavityConfig, gw_exact_driver

from conftest import make_operator

A, B, RHO, M, L = 2.5, 1.5, 1.0, 0.1, 1000.0


def tanh_torus():
    a = lambda t: np.sqrt(A + B * np.tanh(RHO * t))

    def adot(t):
        sech2 = 1.0 - np.tanh(RHO * t) ** 2
        return B * RHO * sech2 / (2.0 * a(t) ** 2) * a(t)

    return flrw_torus(a, adot, length=L, mass=M), a, adot


def test_static_family_derivatives_and_coupling_vanish(long_torus):
    fam = InstantaneousFamily(make_operator(long_torus), long_torus, 5)
    b = fam(0.0)
    d = basis_derivatives(fam, b, dt=1e-3)
    assert np.max(np.abs(d.domega_dt)) <= 1e-12
    cm = coupling_matrices(b, d)
    assert np.max(np.abs(cm.alpha_hat)) <= 1e-12
    assert np.max(np.abs(cm.beta_hat)) <= 1e-12


def test_flrw_derivative_is_normalization_drift():
    # analytic modes: dPhi/dt = -(q + dw/w)/2 * Phi, so the projection on the
    # mode itself equals that coefficient times 1/(2w)
    st, a, adot = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 5, t_ref=0.3)
    t, dt = 0.3, 1e-4
    basis = fam(t)
    d = basis_derivatives(fam, basis, dt)
    q = adot(t) / a(t)
    for i, lab in enumerate(basis.labels):
        w = basis.omegas[i]
        k = 2 * np.pi * lab[0] / L
        dw = -k ** 2 * adot(t) / (a(t) ** 3 * w)
        coeff = -0.5 * (q + dw / w)
        proj = basis.context.gram([d.dmodes_dt[i]], [basis.modes[i]],
                                  conj=True)[0, 0]
        assert abs(proj - coeff / (2 * w)) <= 1e-8 * max(abs(coeff / (2 * w)), 1e-6)
        assert abs(d.domega_dt[i] - dw) <= 1e-8 * max(abs(dw), 1e-12)


def test_flrw_coupling_matches_closed_form():
    st, a, adot = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 5, t_ref=0.3)
    t = 0.3
    b = fam(t)
    d = basis_derivatives(fam, b, 1e-4)
    cm = coupling_matrices(b, d)
    basis = fam.reference
    assert np.max(np.abs(cm.alpha_hat)) < 1e-10
    expect = -adot(t) * M ** 2 / (2 * a(t) * basis.omegas ** 2)
    for i, lab in enumerate(basis.labels):
        j = basis.labels.index((-lab[0],))
        assert abs(cm.beta_hat[i, j] - expect[i]) <= 1e-10
    off = cm.beta_hat.copy()
    for i, lab in enumerate(basis.labels):
        off[i, basis.labels.index((-lab[0],))] = 0.0
    assert np.max(np.abs(off)) < 1e-10


def test_massless_flrw_coupling_trivial():
    a = lambda t: np.sqrt(A + B * np.tanh(RHO * t))
    st = flrw_torus(a, None, length=L, mass=0.0)
    op = make_operator(st)
    # skip the zero mode: use an explicit label set without 0
    from bogoflow.spectral import separable_basis
    labels = [(-2,), (-1,), (1,), (2,)]

    class Fam:
        def __call__(self, t):
            return separable_basis(op, st, t, labels)

    fam = Fam()
    b = fam(0.3)
    cm = coupling_matrices(b, basis_derivatives(fam, b, 1e-4))
    # entries cancel exactly; what remains is O(dt^2) stencil noise
    assert np.max(np.abs(cm.beta_hat)) < 5e-10
    assert np.max(np.abs(cm.alpha_hat)) < 5e-10


def test_halving_dt_is_second_order():
    st, a, adot = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 3, t_ref=0.3)
    t = 0.3
    b = fam(t)
    ref = coupling_matrices(b, basis_derivatives(fam, b, 1e-5),
                            sym_rtol=1e-4).beta_hat
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        cm = coupling_matrices(b, basis_derivatives(fam, b, dt),
                               sym_rtol=1e-4)
        errs.append(np.max(np.abs(cm.beta_hat - ref)))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_symmetry_violation_detected():
    st, a, adot = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 3, t_ref=0.3)
    # a deliberately inconsistent stencil: derivatives taken at a different time
    bad = basis_derivatives(fam, fam(0.8), 1e-4)
    with pytest.raises(SymmetryViolation):
        coupling_matrices(fam(0.3), bad, sym_rtol=1e-10)


def test_gw_family_frequency_drift():
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-4,
                         n_modes_per_axis=(1, 1, 1))
    drv = gw_exact_driver(cfg)
    omega = cfg.wave_frequency()
    kx, ky = np.pi, np.pi / 2
    w0 = cfg.mode_omega0((1, 1, 1))
    for t in (0.0, 0.21, 1.3):
        w, cm = drv(t)
        # exact beta entry -q/2 - dw/(2w); to first order in eps this is
        # -dw/(2w) with dw = eps*Omega*(ky^2 - kx^2)/(2 w0) cos(Omega t)
        dw = cfg.epsilon * omega * (ky ** 2 - kx ** 2) / (2 * w0) \
            * np.cos(omega * t)
        assert abs(cm.beta_hat[0, 0] - (-dw / (2 * w0))) <= 5 * cfg.epsilon ** 2
        assert abs(w[0] - w0) <= cfg.epsilon


def test_analytic_derivatives_match_stencil():
    st, a, adot = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 5, t_ref=0.3)
    t = 0.3
    b = fam(t)
    exact = basis_derivatives(fam, b)          # analytic path (no dt given)
    assert exact.dt == 0.0
    stencil = basis_derivatives(fam, b, 1e-4)
    assert np.max(np.abs(exact.domega_dt - stencil.domega_dt)) < 1e-8
    g_e = b.context.gram(exact.dmodes_dt, b.modes, conj=True)
    g_s = b.context.gram(stencil.dmodes_dt, b.modes, conj=True)
    assert np.max(np.abs(g_e - g_s)) < 1e-8


def test_diagonal_driver_matches_quadrature_coupling():
    st, a, adot = tanh_torus()
    op = make_operator(st)
    fam = InstantaneousFamily(op, st, 5, t_ref=0.3)
    drv = DiagonalFamilyDriver(op, st, 5, t_ref=0.3)
    t = 0.3
    b = fam(t)
    cm_q = coupling_matrices(b, basis_derivatives(fam, b, 1e-4))
    w, cm_d = drv(t)
    assert np.max(np.abs(cm_d.beta_hat - cm_q.beta_hat)) < 1e-10
    assert np.max(np.abs(w - fam(t).omegas)) < 1e-12


def test_quadrature_driver_plumbing():
    from bogoflow.coupling import quadrature_driver
    st, a, adot = tanh_torus()
    op = make_operator(st)
    fam = InstantaneousFamily(op, st, 3, t_ref=0.0)
    drv_q = quadrature_driver(st, fam)
    drv_d = DiagonalFamilyDriver(op, st, 3, t_ref=0.0)
    for t in (-0.4, 0.0, 0.7):
        w1, cm1 = drv_q(t)
        w2, cm2 = drv_d(t)
        assert np.max(np.abs(w1 - w2)) < 1e-12
        assert np.max(np.abs(cm1.beta_hat - cm2.beta_hat)) < 1e-10
        assert np.max(np.abs(cm1.alpha_hat - cm2.alpha_hat)) < 1e-10


def test_driver_requires_closed_pairs():
    st, a, adot = tanh_torus()
    op = make_operator(st)
    with pytest.raises(InvalidArgument):
        DiagonalFamilyDriver(op, st, 4)  # 4 lowest = {0, +-1, one of +-2}


class CountingFamily:
    """Wraps a family and records every time it is evaluated at."""

    def __init__(self, family):
        self.family = family
        self.times = []
        self.analytic_derivatives = getattr(family, "analytic_derivatives",
                                            None)

    def __call__(self, t):
        self.times.append(t)
        return self.family(t)


def test_driver_solves_each_slice_once():
    from bogoflow.coupling import quadrature_driver
    st, a, adot = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 3)
    t, dt = 0.3, 1e-4
    stencil = CountingFamily(fam)
    quadrature_driver(st, stencil, dt=dt)(t)
    assert sorted(stencil.times) == [t - dt, t, t + dt]
    analytic = CountingFamily(fam)
    quadrature_driver(st, analytic)(t)
    assert analytic.times == [t]


def test_driver_rejects_family_on_another_spacetime():
    from bogoflow.coupling import quadrature_driver
    st, a, adot = tanh_torus()
    other, _, _ = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 3)
    with pytest.raises(InvalidArgument):
        quadrature_driver(other, fam)(0.0)


def test_fd_mixing_evolution_matches_diagonal_driver():
    """The finite-difference mode-mixing path on a spatially uniform ramp
    h_xx = 1 + 0.2 (1 + tanh t)/2 against the closed-form driver of the same
    metric as an analytic family: the diagonal |beta| agree and the FD run
    mixes no modes.  The bounds are perfbench's fd_mixing final check: FD
    eigenvalues at 1024 points are off by at most (k dx)^2/12 = 1.3e-5
    relative, and the ODE tolerance adds an absolute error of a few tol."""
    from bogoflow import BoundarySpec, Domain, SyncSpacetime, diagonal_spacetime
    from bogoflow.coupling import quadrature_driver
    from bogoflow.evolution import evolve_Q

    h = lambda t: 1.0 + 0.1 * (1.0 + np.tanh(t))
    h_dot = lambda t: 0.1 / np.cosh(t) ** 2
    dom, wall = Domain((1.0,), (False,)), BoundarySpec("dirichlet")
    st_fd = SyncSpacetime(
        dom, lambda t, pts: np.full((len(pts), 1, 1), h(t)),
        lambda t, pts: np.full((len(pts), 1, 1), h_dot(t)),
        mass=1.0, boundary=wall)
    st_an = diagonal_spacetime(dom, lambda t: np.array([h(t)]),
                               lambda t: np.array([h_dot(t)]),
                               mass=1.0, boundary=wall)
    op = make_operator(st_fd)
    fam = InstantaneousFamily(op, st_fd, 4, t_ref=-0.25)
    tol = 1e-8
    q_fd, _ = evolve_Q(quadrature_driver(st_fd, fam, dt=3e-5), -0.25, 0.25,
                       tol=tol)
    q_an, _ = evolve_Q(DiagonalFamilyDriver(op, st_an, 4, t_ref=-0.25),
                       -0.25, 0.25, tol=tol)
    got = np.abs(np.diagonal(q_fd.beta))
    ref = np.abs(np.diagonal(q_an.beta))
    assert np.all(np.abs(got - ref) <= 1e-4 * ref + 10 * tol)
    off = np.abs(q_fd.beta - np.diag(np.diagonal(q_fd.beta)))
    assert off.max() < 1e-4 * got.max()

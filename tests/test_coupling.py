from dataclasses import replace

import numpy as np
import pytest

from bogoflow import (BoundarySpec, Domain, SyncSpacetime, basis_derivatives,
                      coupling_matrices, diagonal_spacetime, flrw_torus)
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


def grid_metric(fn):
    """Lift f(t, x) to the (npts, 1, 1) metric array of a 1D slice."""
    return lambda t, pts: fn(t, np.asarray(pts, dtype=float)[:, 0])[:, None, None]


def probe_spacetime(boundary="dirichlet", periodic=False, **kwargs):
    """h_xx = 1 + 0.05 sin(k x) sin(6t), mass 1, on [0, 1]; k = pi on an
    interval, 2 pi on the torus (degenerate +-k pairs)."""
    k = 2.0 * np.pi if periodic else np.pi
    return SyncSpacetime(
        Domain((1.0,), (periodic,)),
        grid_metric(lambda t, x: 1.0 + 0.05 * np.sin(k * x) * np.sin(6 * t)),
        grid_metric(lambda t, x: 0.3 * np.sin(k * x) * np.cos(6 * t)),
        mass=1.0, boundary=BoundarySpec(boundary), **kwargs)


ROBIN = BoundarySpec("robin", robin_gamma=lambda x: 1.5)


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


def test_diagonal_driver_evaluates_scales_once_per_call():
    """On flrw_spacetime each diag_scales call is a Newton inversion
    t -> eta, so a driver call makes one."""
    calls = []

    def scales(t):
        calls.append(t)
        return np.array([1.0 + 0.1 * np.sin(t)])

    st = diagonal_spacetime(Domain((1.0,), (True,)), scales,
                            lambda t: np.array([0.1 * np.cos(t)]), mass=1.0)
    drv = DiagonalFamilyDriver(make_operator(st), st, 5)
    calls.clear()
    for t in (0.0, 0.4, 1.3):
        drv(t)
    assert calls == [0.0, 0.4, 1.3]


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
        self.analytic_derivatives = family.analytic_derivatives

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
    mix_st = probe_spacetime()
    mixing = CountingFamily(InstantaneousFamily(make_operator(mix_st), mix_st, 4))
    quadrature_driver(mix_st, mixing)(t)
    assert mixing.times == [t]


def test_stencil_driver_reads_the_metric_once_per_slice_and_use():
    """One stencil driver call solves three slices.  Each reads h once to
    assemble its pencil and once for the mass weights that all of its
    Grams share; the q weight of the couplings reads it once more."""
    from bogoflow.coupling import quadrature_driver
    base = probe_spacetime()
    times = []

    def h(t, pts):
        times.append(t)
        return base.h(t, pts)

    st = replace(base, h=h)
    fam = InstantaneousFamily(make_operator(st), st, 4)
    t, dt = 0.3, 3e-5
    times.clear()
    quadrature_driver(st, fam, dt=dt)(t)
    assert set(times) == {t - dt, t, t + dt}
    assert len(times) <= 3 * (1 + 1) + 1


def test_family_without_closed_form_needs_dt():
    st, a, adot = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 3)

    class Plain:
        def __call__(self, t):
            return fam(t)

    with pytest.raises(InvalidArgument):
        basis_derivatives(Plain(), fam(0.3))
    assert basis_derivatives(Plain(), fam(0.3), 1e-4).dt == 1e-4


def test_driver_rejects_family_on_another_spacetime():
    from bogoflow.coupling import quadrature_driver
    st, a, adot = tanh_torus()
    other, _, _ = tanh_torus()
    fam = InstantaneousFamily(make_operator(st), st, 3)
    with pytest.raises(InvalidArgument):
        quadrature_driver(other, fam)(0.0)


def test_diagonal_driver_rejects_robin_walls():
    st = diagonal_spacetime(Domain((1.0,), (False,)),
                            lambda t: np.array([1.0 + 0.1 * np.sin(t)]),
                            mass=1.0, boundary=ROBIN)
    with pytest.raises(InvalidArgument):
        DiagonalFamilyDriver(make_operator(st), st, 3)


def test_fd_mixing_evolution_matches_diagonal_driver():
    """The mode-mixing path (Galerkin slices, quadrature driver) on a
    spatially uniform ramp h_xx = 1 + 0.2 (1 + tanh t)/2 against the
    closed-form driver of the same metric as an analytic family: the
    diagonal |beta| agree to the ODE tolerance, and the run mixes no modes
    beyond the stencil's rounding (measured: 2e-12 and 5e-10 of the
    largest |beta|).  perfbench's fd_mixing final check allows 1e-4
    relative, the error of the finite differences it was written for."""
    from bogoflow.coupling import quadrature_driver
    from bogoflow.evolution import evolve_Q

    h = lambda t: 1.0 + 0.1 * (1.0 + np.tanh(t))
    h_dot = lambda t: 0.1 / np.cosh(t) ** 2
    dom, wall = Domain((1.0,), (False,)), BoundarySpec("dirichlet")
    st_mix = SyncSpacetime(
        dom, lambda t, pts: np.full((len(pts), 1, 1), h(t)),
        lambda t, pts: np.full((len(pts), 1, 1), h_dot(t)),
        mass=1.0, boundary=wall)
    st_an = diagonal_spacetime(dom, lambda t: np.array([h(t)]),
                               lambda t: np.array([h_dot(t)]),
                               mass=1.0, boundary=wall)
    op = make_operator(st_mix)
    fam = InstantaneousFamily(op, st_mix, 4, t_ref=-0.25)
    tol = 1e-8
    q_an, _ = evolve_Q(DiagonalFamilyDriver(op, st_an, 4, t_ref=-0.25),
                       -0.25, 0.25, tol=tol)
    ref = np.abs(np.diagonal(q_an.beta))
    for dt in (3e-5, None):             # the stencil and the closed form
        q_mix, _ = evolve_Q(quadrature_driver(st_mix, fam, dt=dt), -0.25, 0.25,
                           tol=tol)
        got = np.abs(np.diagonal(q_mix.beta))
        assert np.all(np.abs(got - ref) <= 10 * tol)
        off = np.abs(q_mix.beta - np.diag(np.diagonal(q_mix.beta)))
        assert off.max() < 1e-8 * got.max()


# ---------------------------------------------------------------------------
# closed-form derivatives of Galerkin families


GALERKIN_CASES = {
    # name: (spacetime factory, modes, times, stencil dt)
    "dirichlet": (probe_spacetime, 4, (0.0, 0.1, 0.257, 0.3, 0.4), 3e-4),
    "neumann": (lambda: probe_spacetime("neumann"), 4, (0.0, 0.3), 3e-4),
    "robin_diagonal": (
        lambda: diagonal_spacetime(
            Domain((1.0,), (False,)),
            lambda t: np.array([1.0 + 0.1 * np.sin(t)]),
            lambda t: np.array([0.1 * np.cos(t)]), mass=1.0, boundary=ROBIN),
        4, (0.0, 0.3), 3e-4),
    "torus": (lambda: probe_spacetime("none", periodic=True), 5, (0.0, 0.3),
              1e-5),
    "curvature": (
        lambda: probe_spacetime(
            coupling=0.5, spatial_curvature=lambda t, pts:
            2.0 + np.sin(3 * t) * np.cos(np.pi * pts[:, 0])),
        4, (0.0, 0.3), 3e-4),
}


@pytest.mark.parametrize("case", sorted(GALERKIN_CASES))
def test_fd_closed_form_matches_stencil(case):
    """ahat and bhat from one eigensolve agree with the explicit-dt stencil
    to 1e-5 of the largest entry (measured: at most 8e-7, the stencil's
    truncation), and their symmetry residual is rounding: below 1e-12 of
    it (measured: 1e-14), where the stencil's is 1e-9 to 1e-6."""
    make_st, n, times, dt = GALERKIN_CASES[case]
    st = make_st()
    fam = InstantaneousFamily(make_operator(st), st, n)
    for t in times:
        b = fam(t)
        exact = basis_derivatives(fam, b)
        assert exact.dt == 0.0
        cm = coupling_matrices(b, exact)
        ref = coupling_matrices(b, basis_derivatives(fam, b, dt), sym_rtol=1.0)
        scale = max(np.max(np.abs(ref.alpha_hat)), np.max(np.abs(ref.beta_hat)))
        assert np.max(np.abs(cm.alpha_hat - ref.alpha_hat)) < 1e-5 * scale
        assert np.max(np.abs(cm.beta_hat - ref.beta_hat)) < 1e-5 * scale
        assert cm.meta["symmetry_residual"] < 1e-12 * scale


def test_fd_operator_rate_is_derivative_of_bands():
    """The pencil's t-derivatives (K', M') are central differences of the
    pencil, with and without Robin walls and a moving curvature term."""
    from bogoflow.spectral import galerkin_pencil
    cases = (GALERKIN_CASES["dirichlet"][0](), GALERKIN_CASES["torus"][0](),
             GALERKIN_CASES["curvature"][0](),
             replace(probe_spacetime("neumann"), boundary=ROBIN))
    for st in cases:
        op = make_operator(st)
        rule = InstantaneousFamily(op, st, 4).reference.modes[0].rule
        t, dt = 0.3, 1e-5
        plus = galerkin_pencil(op, st, t + dt, rule)
        minus = galerkin_pencil(op, st, t - dt, rule)
        rates = galerkin_pencil(op, st, t, rule, rate=True)
        for rate, p, m in zip(rates, plus, minus):
            fd = (p - m) / (2 * dt)
            assert np.max(np.abs(rate - fd)) < 1e-7 * np.max(np.abs(fd))


def test_default_path_probe_evolution():
    """The mode-mixing probe on the default path: one eigensolve per call,
    a Bogoliubov identity kept to rounding, and visible mixing."""
    from bogoflow.coupling import quadrature_driver
    from bogoflow.evolution import evolve_Q, identity_residual
    st = probe_spacetime()
    fam = InstantaneousFamily(make_operator(st), st, 4)
    q, _ = evolve_Q(quadrature_driver(st, fam), 0.0, 0.5, tol=1e-8)
    assert identity_residual(q) <= 1e-6
    assert np.max(np.abs(q.beta - np.diag(np.diagonal(q.beta)))) > 1e-6

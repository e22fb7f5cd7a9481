import numpy as np
import pytest
from dataclasses import replace
from scipy.optimize import brentq

from bogoflow import (BoundarySpec, Domain, SyncSpacetime, align_basis,
                      flrw_torus, instantaneous_basis, orthonormality_residual,
                      regularize_zero_mode, static_spacetime)
from bogoflow.errors import (DegeneracyMismatch, InvalidArgument,
                             NegativeEigenvalue, ZeroMode)
from bogoflow import spectral
from bogoflow.spectral import apply_operator, fd_operator_1d

from conftest import make_operator


def as_fd(st):
    """Hide the diagonal-family tag so the FD solver path is exercised."""
    return replace(st, diag_scales=None, diag_scales_dt=None)


def test_torus_frequency_value(long_torus):
    op = make_operator(long_torus)
    b = instantaneous_basis(op, long_torus, 0.0, 3)
    w1 = b.omegas[b.labels.index((1,))]
    expect = np.sqrt((2 * np.pi / 1000.0) ** 2 + 0.01)
    assert abs(w1 - expect) <= 1e-12
    assert abs(w1 - 0.1002) < 5e-5


def test_box_frequency_value(unit_box):
    op = make_operator(unit_box)
    b = instantaneous_basis(op, unit_box, 0.0, 1)
    assert b.labels[0] == (1, 1, 1)
    assert abs(b.omegas[0] - np.sqrt(3.0) * np.pi) <= 1e-12


def test_fd_matches_analytic_torus(long_torus):
    op = make_operator(long_torus, fd_points=2048)
    b_fd = instantaneous_basis(op, as_fd(long_torus), 0.0, 9)
    b_an = instantaneous_basis(op, long_torus, 0.0, 9)
    rel = np.abs(np.sort(b_fd.omegas ** 2) - np.sort(b_an.omegas ** 2)) \
        / np.sort(b_an.omegas ** 2)
    assert rel.max() < 1e-6


def test_fd_second_order_convergence(long_torus):
    errs = []
    exact = np.sort(instantaneous_basis(make_operator(long_torus),
                                        long_torus, 0.0, 5).omegas ** 2)
    for n in (256, 512, 1024):
        op = make_operator(long_torus, fd_points=n)
        b = instantaneous_basis(op, as_fd(long_torus), 0.0, 5)
        errs.append(np.max(np.abs(np.sort(b.omegas ** 2) - exact) / exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.5 < r1 < 4.5 and 3.5 < r2 < 4.5


def test_orthonormality_residuals(long_torus, unit_box):
    b_t = instantaneous_basis(make_operator(long_torus), long_torus, 0.0, 5)
    assert orthonormality_residual(b_t) < 1e-12
    b_b = instantaneous_basis(make_operator(unit_box), unit_box, 0.0, 6)
    assert orthonormality_residual(b_b) < 1e-12
    op = make_operator(long_torus, fd_points=2048)
    b_fd = instantaneous_basis(op, as_fd(long_torus), 0.0, 7)
    assert orthonormality_residual(b_fd) < 1e-12


def _inhomogeneous_slice(kind):
    """1D slice with h_xx = 1 + 0.3 sin^2(2 pi x) + 0.1 x (1 - x)."""
    def h(t, pts):
        x = np.asarray(pts, dtype=float)[:, 0]
        return (1.0 + 0.3 * np.sin(2 * np.pi * x) ** 2
                + 0.1 * x * (1.0 - x))[:, None, None]

    def h_dot(t, pts):
        return np.zeros((len(pts), 1, 1))

    periodic = kind == "none"
    gamma = (lambda x: 1.5) if kind == "robin" else None
    return SyncSpacetime(Domain((1.0,), (periodic,)), h, h_dot, mass=1.0,
                         boundary=BoundarySpec(kind, robin_gamma=gamma))


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "none"])
def test_fd_gram_is_eigenproblem_inner_product(kind, monkeypatch):
    st = _inhomogeneous_slice(kind)
    op = make_operator(st, fd_points=512)
    basis = instantaneous_basis(op, st, 0.0, 6)
    x, _, mass = fd_operator_1d(op, st, 0.0)
    # Dirichlet modes carry the zero end nodes that the eigenproblem drops
    nodes = slice(1, -1) if kind == "dirichlet" else slice(None)
    V = np.array([m.values[nodes] for m in basis.modes])

    def no_spline(*args, **kwargs):
        raise AssertionError("a Gram of grid modes built a spline")

    monkeypatch.setattr(spectral, "CubicSpline", no_spline)
    for conj in (True, False):
        ref = (V * mass) @ (V.conj() if conj else V).T
        got = basis.gram(conj=conj)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    weighted = basis.gram(weight=lambda pts: 1.0 + pts[:, 0])
    ref = (V * mass * (1.0 + x)) @ V.conj().T
    assert np.max(np.abs(weighted - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert orthonormality_residual(basis) < 1e-12
    al = align_basis(basis, instantaneous_basis(op, st, 0.0, 6))
    assert orthonormality_residual(al) < 1e-12


def test_gram_rejects_mixed_grid_and_separable_modes(long_torus):
    b_an = instantaneous_basis(make_operator(long_torus), long_torus, 0.0, 3)
    b_fd = instantaneous_basis(make_operator(long_torus), as_fd(long_torus),
                               0.0, 3)
    with pytest.raises(InvalidArgument):
        b_fd.context.gram(b_fd.modes, b_an.modes)
    coarse = instantaneous_basis(make_operator(long_torus, fd_points=512),
                                 as_fd(long_torus), 0.0, 3)
    with pytest.raises(InvalidArgument):
        b_fd.context.gram(b_fd.modes, coarse.modes)


def test_callable_weight_gram_of_separable_modes(unit_torus):
    """A callable weight sends separable modes to Gauss-Legendre quadrature;
    a constant one must reproduce the exact scalar-weight Gram."""
    basis = instantaneous_basis(make_operator(unit_torus), unit_torus, 0.0, 5)
    for conj in (True, False):
        exact = basis.gram(conj=conj, weight=0.3)
        quad = basis.gram(conj=conj,
                          weight=lambda pts: np.full(len(pts), 0.3))
        assert np.max(np.abs(quad - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_eigen_equation_residual(unit_box):
    op = make_operator(unit_box)
    b = instantaneous_basis(op, unit_box, 0.0, 4)
    pts = unit_box.domain.sample_points(4)
    for i, mode in enumerate(b.modes):
        img = apply_operator(op, unit_box, 0.0, mode)
        res = np.max(np.abs(img.value(pts) - b.omegas[i] ** 2 * mode.value(pts)))
        assert res < 1e-6 * b.omegas[i] ** 2


def test_massless_torus_raises_zero_mode(unit_torus):
    st = flrw_torus(lambda t: 1.0, lambda t: 0.0, length=1.0, mass=0.0)
    with pytest.raises(ZeroMode):
        instantaneous_basis(make_operator(st), st, 0.0, 3)


def test_mass_regularization_neumann_box():
    st = static_spacetime(Domain((1.0,), (False,)),
                          boundary=BoundarySpec("neumann"))
    op = make_operator(st)
    with pytest.raises(ZeroMode):
        instantaneous_basis(op, st, 0.0, 2)
    dm = 1e-3
    reg = regularize_zero_mode(op, dm)
    b = instantaneous_basis(reg, st, 0.0, 2)
    assert abs(b.omegas[0] - dm) <= 1e-15
    with pytest.raises(InvalidArgument):
        regularize_zero_mode(op, 0.0)


def test_negative_robin_gives_negative_eigenvalue():
    st = static_spacetime(Domain((1.0,), (False,)),
                          boundary=BoundarySpec("robin",
                                                robin_gamma=lambda x: -5.0))
    op = make_operator(st, fd_points=600)
    with pytest.raises(NegativeEigenvalue):
        instantaneous_basis(op, st, 0.0, 2)


def test_robin_fd_against_transcendental_roots():
    # flat interval, u'' + w^2 u = 0 with u'(0) = g u(0), u'(L) = -g u(L):
    # u = cos(w x) + (g/w) sin(w x); roots of the right-end condition are
    # the oracle eigenfrequencies
    g, L = 2.0, 1.0
    st = static_spacetime(Domain((L,), (False,)),
                          boundary=BoundarySpec("robin",
                                                robin_gamma=lambda x: g))

    def right_end(w):
        u = np.cos(w * L) + (g / w) * np.sin(w * L)
        du = -w * np.sin(w * L) + g * np.cos(w * L)
        return du + g * u

    roots = []
    wgrid = np.linspace(0.05, 14.0, 2000)
    vals = [right_end(w) for w in wgrid]
    for a, b, fa, fb in zip(wgrid[:-1], wgrid[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            roots.append(brentq(right_end, a, b))
    op = make_operator(st, fd_points=2000)
    basis = instantaneous_basis(op, st, 0.0, 3)
    for w_fd, w_ex in zip(basis.omegas, roots[:3]):
        assert abs(w_fd - w_ex) <= 5e-5 * w_ex
    # boundary condition holds to discretization order: u'(0) = g u(0)
    dx = L / 2000
    for mode in basis.modes:
        v = mode.values.real
        left = (-1.5 * v[0] + 2 * v[1] - 0.5 * v[2]) / dx
        scale = np.max(np.abs(v)) / dx
        assert abs(left - g * v[0]) <= 100 * dx ** 2 * scale


def test_dirichlet_boundary_exact_and_neumann_to_order():
    st_d = static_spacetime(Domain((1.0,), (False,)),
                            boundary=BoundarySpec("dirichlet"))
    b_d = instantaneous_basis(make_operator(st_d, fd_points=256), as_fd(st_d),
                              0.0, 3)
    for mode in b_d.modes:
        assert mode.values[0] == 0.0 and mode.values[-1] == 0.0

    st_n = static_spacetime(Domain((1.0,), (False,), ), metric=None, mass=0.3,
                            boundary=BoundarySpec("neumann"))
    n_grid = 512
    b_n = instantaneous_basis(make_operator(st_n, fd_points=n_grid),
                              as_fd(st_n), 0.0, 3)
    dx = 1.0 / n_grid
    for mode in b_n.modes:
        v = mode.values.real
        left = (-1.5 * v[0] + 2 * v[1] - 0.5 * v[2]) / dx
        scale = np.max(np.abs(v)) / dx
        assert abs(left) <= 50 * dx ** 2 * scale


def test_operator_self_adjoint_on_random_smooth_pairs(unit_box, rng):
    op = make_operator(unit_box)
    basis = instantaneous_basis(op, unit_box, 0.0, 6)
    ctx = basis.context
    # random smooth boundary-compatible functions = random mode combos
    c1 = rng.normal(size=6) + 1j * rng.normal(size=6)
    c2 = rng.normal(size=6) + 1j * rng.normal(size=6)
    from bogoflow.spectral import combine_separable
    f = combine_separable(("f",), list(zip(c1, basis.modes)))
    g = combine_separable(("g",), list(zip(c2, basis.modes)))
    of = apply_operator(op, unit_box, 0.0, f)
    og = apply_operator(op, unit_box, 0.0, g)
    lhs = ctx.gram([of], [g], conj=True)[0, 0]
    rhs = ctx.gram([f], [og], conj=True)[0, 0]
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_align_identity(long_torus):
    op = make_operator(long_torus)
    b = instantaneous_basis(op, long_torus, 0.0, 5)
    b2 = instantaneous_basis(op, long_torus, 0.0, 5)
    al = align_basis(b, b2)
    assert al.labels == b.labels
    for m1, m2 in zip(b.modes, al.modes):
        pts = long_torus.domain.sample_points(5)
        assert np.max(np.abs(m1.value(pts) - m2.value(pts))) < 1e-12


def test_align_preserves_torus_labels():
    a = lambda t: 1.0 + 0.1 * t
    st = flrw_torus(a, lambda t: 0.1, length=10.0, mass=0.5)
    op = make_operator(st)
    b0 = instantaneous_basis(op, st, 0.0, 5)
    b1 = align_basis(b0, instantaneous_basis(op, st, 0.2, 5))
    assert b1.labels == b0.labels
    # analytic mode shapes are t-independent: overlaps stay positive
    ov = b1.context.gram(b0.modes, b1.modes, conj=True)
    assert np.all(np.real(np.diagonal(ov)) > 0)


def test_align_restores_sign_flip():
    a = lambda t: 1.0 + 0.05 * t
    st = flrw_torus(a, lambda t: 0.05, length=10.0, mass=0.4)
    op = make_operator(st, fd_points=400)
    b0 = instantaneous_basis(op, as_fd(st), 0.0, 5)
    b1 = instantaneous_basis(op, as_fd(st), 0.01, 5)
    flipped = list(b1.modes)
    flipped[2] = flipped[2].scaled(-1.0)
    al = align_basis(b0, replace(b1, modes=tuple(flipped)))
    ov = al.context.gram(b0.modes, al.modes, conj=True)
    assert np.all(np.real(np.diagonal(ov)) > 0)
    assert orthonormality_residual(al) < 1e-12


def test_align_label_mismatch_raises(long_torus):
    op = make_operator(long_torus)
    b3 = instantaneous_basis(op, long_torus, 0.0, 3)
    b5 = instantaneous_basis(op, long_torus, 0.0, 5)
    with pytest.raises(DegeneracyMismatch):
        align_basis(b3, b5)


def test_label_order_stable_across_sweep():
    from bogoflow.coupling import InstantaneousFamily
    a = lambda t: np.sqrt(2.5 + 1.5 * np.tanh(t))
    st = flrw_torus(a, None, length=50.0, mass=0.3)
    fam = InstantaneousFamily(make_operator(st), st, 7)
    prev = fam.reference
    for t in np.linspace(-1.0, 1.0, 9):
        cur = fam(t)
        assert cur.labels == prev.labels
        ov = cur.context.gram(prev.modes, cur.modes, conj=True)
        mags = np.abs(ov)
        for i in range(mags.shape[0]):
            off = np.delete(mags[i], i)
            assert mags[i, i] > 10 * (off.max() if off.size else 0.0)
        prev = cur


def test_requested_too_many_modes(long_torus):
    op = make_operator(long_torus, fd_points=64)
    with pytest.raises(InvalidArgument):
        instantaneous_basis(op, as_fd(long_torus), 0.0, 64)
    with pytest.raises(InvalidArgument):
        instantaneous_basis(op, long_torus, 0.0, 0)

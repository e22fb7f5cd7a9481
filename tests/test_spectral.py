import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from dataclasses import replace
from scipy.optimize import brentq

import bogoflow
from bogoflow import (BoundarySpec, Domain, SyncSpacetime, align_basis,
                      flrw_torus, instantaneous_basis, orthonormality_residual,
                      regularize_zero_mode, static_spacetime)
from bogoflow.coupling import InstantaneousFamily
from bogoflow.errors import (DegeneracyMismatch, InvalidArgument,
                             NegativeEigenvalue, UnresolvedSlice, ZeroMode)
from bogoflow.spectral import (SliceContext, _clusters, _combine,
                               _galerkin_rule, _galerkin_solve, apply_operator,
                               galerkin_pencil)

from conftest import make_operator
from fd_reference import fd_omegas


def as_general(st):
    """Hide the diagonal-family tag so the Galerkin solver path is
    exercised."""
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
    """The finite-difference oracle at 2048 points against the analytic
    torus frequencies."""
    op = make_operator(long_torus)
    w_fd = fd_omegas(op, long_torus, 0.0, 9, 2048)
    b_an = instantaneous_basis(op, long_torus, 0.0, 9)
    rel = np.abs(w_fd ** 2 - np.sort(b_an.omegas ** 2)) \
        / np.sort(b_an.omegas ** 2)
    assert rel.max() < 1e-6


def test_fd_second_order_convergence(long_torus):
    """The finite-difference oracle converges at O(dx^2) on the torus."""
    errs = []
    op = make_operator(long_torus)
    exact = np.sort(instantaneous_basis(op, long_torus, 0.0, 5).omegas ** 2)
    for n in (256, 512, 1024):
        w = fd_omegas(op, long_torus, 0.0, 5, n)
        errs.append(np.max(np.abs(w ** 2 - exact) / exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.5 < r1 < 4.5 and 3.5 < r2 < 4.5


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "torus"])
def test_galerkin_matches_analytic_uniform(kind):
    """On a uniform metric h_xx = 1.7 the Galerkin frequencies are the
    analytic ones to 1e-12 relative in omega^2."""
    periodic = kind == "torus"
    wall = BoundarySpec("none" if periodic else kind)
    st = static_spacetime(Domain((1.3,), (periodic,)), metric=[1.7],
                          mass=1.0, boundary=wall)
    op = make_operator(st)
    exact = instantaneous_basis(op, st, 0.0, 9).omegas ** 2
    got = instantaneous_basis(op, as_general(st), 0.0, 9).omegas ** 2
    assert np.max(np.abs(got - np.sort(exact)) / np.sort(exact)) < 1e-12


def test_fd_oracle_converges_to_galerkin_at_second_order():
    """On the x-dependent slice of the 1D probe metric the finite-difference
    oracle approaches the Galerkin frequencies at O(dx^2)."""
    st = _probe_slice("dirichlet")
    op = make_operator(st)
    galerkin = instantaneous_basis(op, st, 0.3, 5).omegas
    errs = [np.max(np.abs(fd_omegas(op, st, 0.3, 5, n) ** 2 - galerkin ** 2)
                   / galerkin ** 2) for n in (512, 1024, 2048)]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_galerkin_size_resolves_the_probe():
    """At the size a slice of a family picks, omega on the 1D probe metric
    is within 1e-11 of a solve at twice that size, across the probe's
    period."""
    for kind in ("dirichlet", "neumann", "none"):
        st = _probe_slice(kind)
        op = make_operator(st)
        for n in (4, 16, 64):
            fam = InstantaneousFamily(op, st, n)
            for t in (0.0, 0.13, 0.26, 0.4):
                got = fam.solve(t)
                rule = got.modes[0].rule
                fine = _galerkin_rule(rule.kind, rule.length, 2 * rule.size + 1)
                ref = _galerkin_solve(op, st, t, n, fine).omegas
                assert np.max(np.abs(got.omegas / ref - 1.0)) <= 1e-11


def test_family_slices_depend_on_the_slice_alone():
    """A family whose reference slice is flat picks a small size there; a
    slice that needs more picks a larger one, and the family's slices stay
    bit-identical before and after that solve.  Its reference modes lift
    to the larger basis exactly."""
    st = _probe_slice("none", amplitude=0.3)
    op = make_operator(st)
    fam = InstantaneousFamily(op, st, 4)
    assert fam.size == fam.reference.modes[0].rule.size
    before = [fam.solve(t) for t in (0.0, 0.05)]
    basis = fam(0.26)
    assert basis.modes[0].rule.size > fam.size
    for old, t in zip(before, (0.0, 0.05)):
        new = fam.solve(t)
        assert np.array_equal(old.omegas, new.omegas)
        for a, b in zip(old.modes, new.modes):
            assert a.rule is b.rule and np.array_equal(a.coef, b.coef)
    ref = fam.reference.modes[0]
    lifted = ref.lifted(basis.modes[0].rule)
    pts = np.linspace(0.0, 1.0, 7)
    vals, _ = lifted.rule.tables(pts)
    small_vals, _ = ref.rule.tables(pts)
    assert np.max(np.abs(vals @ lifted.coef - small_vals @ ref.coef)) \
        <= 1e-14 * np.max(np.abs(ref.values))
    assert orthonormality_residual(basis) < 1e-12


def test_orthonormality_residuals(long_torus, unit_box):
    b_t = instantaneous_basis(make_operator(long_torus), long_torus, 0.0, 5)
    assert orthonormality_residual(b_t) < 1e-12
    b_b = instantaneous_basis(make_operator(unit_box), unit_box, 0.0, 6)
    assert orthonormality_residual(b_b) < 1e-12
    b_g = instantaneous_basis(make_operator(long_torus), as_general(long_torus),
                              0.0, 7)
    assert orthonormality_residual(b_g) < 1e-12


def _probe_slice(kind, amplitude=0.05):
    """The 1D probe metric h_xx = 1 + a sin(k x) sin(6t), mass 1, on [0, 1];
    k = pi between walls, 2 pi on the torus (``kind`` "none")."""
    k = 2.0 * np.pi if kind == "none" else np.pi

    def h(t, pts):
        x = np.asarray(pts, dtype=float)[:, 0]
        return (1.0 + amplitude * np.sin(k * x) * np.sin(6 * t))[:, None, None]

    def h_dot(t, pts):
        x = np.asarray(pts, dtype=float)[:, 0]
        return (6 * amplitude * np.sin(k * x) * np.cos(6 * t))[:, None, None]

    return SyncSpacetime(Domain((1.0,), (kind == "none",)), h, h_dot,
                         mass=1.0, boundary=BoundarySpec(kind))


def _inhomogeneous_slice(kind):
    """1D slice with h_xx = 1 + 0.3 sin^2(2 pi x) + 0.1 x (1 - x); on the
    torus x (1 - x) has a kink where the torus closes."""
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


def test_kinked_torus_metric_is_solved_and_reported():
    """On the torus x (1 - x) has a kink, so the modes' Fourier coefficients
    fall only algebraically and no basis size chops them.  The solve
    returns the modes on the largest basis, warns, and reports their
    tail; the finite-difference oracle approaches them at O(dx^2)."""
    st = _inhomogeneous_slice("none")
    op = make_operator(st)
    with pytest.warns(UnresolvedSlice):
        basis = instantaneous_basis(op, st, 0.0, 6)
    assert basis.modes[0].rule.size == 513
    assert 1e-10 < basis.tail < 1e-5
    errs = [np.max(np.abs(fd_omegas(op, st, 0.0, 6, n) / basis.omegas - 1.0))
            for n in (1024, 2048)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    resolved = _inhomogeneous_slice("dirichlet")
    assert instantaneous_basis(op, resolved, 0.0, 6).tail < 1e-13


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "none"])
def test_fd_gram_is_eigenproblem_inner_product(kind):
    """Galerkin modes solve their pencil K c = w^2 M c, and their Grams are
    the pencil's inner product c^T M c on the rule's nodes and weights."""
    st = _inhomogeneous_slice(kind)
    op = make_operator(st)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = instantaneous_basis(op, st, 0.0, 6)
        again = instantaneous_basis(op, st, 0.0, 6)
    # the torus' kink leaves its coefficients unresolved
    assert any(issubclass(w.category, UnresolvedSlice) for w in caught) \
        == (kind == "none")
    rule = basis.modes[0].rule
    K, M = galerkin_pencil(op, st, 0.0, rule)
    C = np.array([m.coef for m in basis.modes])
    V = np.array([m.values for m in basis.modes])
    # real coefficients, expanded in real arithmetic
    assert not C.imag.any()
    assert np.array_equal(V, np.ascontiguousarray(C.real) @ rule.phi.T)
    for w, c in zip(basis.omegas, C):
        res = np.abs(K @ c - w ** 2 * M @ c)
        assert np.max(res) <= 1e-12 * np.max(np.abs(K) @ np.abs(c))

    mass = rule.weights * st.sqrt_det_h(0.0, rule.x[:, None])
    for conj in (True, False):
        ref = C @ M @ (C.conj() if conj else C).T
        got = basis.gram(conj=conj)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    weighted = basis.gram(weight=lambda pts: 1.0 + pts[:, 0])
    ref = (V * mass * (1.0 + rule.x)) @ V.conj().T
    assert np.max(np.abs(weighted - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert orthonormality_residual(basis) < 1e-12
    al = align_basis(basis, again)
    assert orthonormality_residual(al) < 1e-12


def test_gram_rejects_mixed_grid_and_separable_modes(long_torus):
    b_an = instantaneous_basis(make_operator(long_torus), long_torus, 0.0, 3)
    b_g = instantaneous_basis(make_operator(long_torus), as_general(long_torus),
                              0.0, 3)
    with pytest.raises(InvalidArgument):
        b_g.context.gram(b_g.modes, b_an.modes)
    # nodal modes of another size lift to the larger basis; of another
    # kind they do not
    rule = b_g.modes[0].rule
    fine = _galerkin_solve(make_operator(long_torus), as_general(long_torus),
                           0.0, 3, _galerkin_rule(rule.kind, rule.length,
                                                  2 * rule.size + 1))
    ctx = b_g.context
    lifted = [m.lifted(fine.modes[0].rule) for m in b_g.modes]
    assert np.array_equal(ctx.gram(b_g.modes, fine.modes),
                          ctx.gram(lifted, fine.modes))
    st_box = static_spacetime(Domain((1000.0,), (False,)), mass=0.1,
                              boundary=BoundarySpec("robin",
                                                    robin_gamma=lambda x: 1.0))
    b_box = instantaneous_basis(make_operator(st_box), st_box, 0.0, 3)
    with pytest.raises(InvalidArgument):
        ctx.gram(b_g.modes, b_box.modes)
    # the weights cached for one rule are not reused on another
    ctx.gram(b_g.modes, b_g.modes)
    fresh = type(ctx)(ctx.spacetime, ctx.t).gram(fine.modes, fine.modes)
    assert np.array_equal(ctx.gram(fine.modes, fine.modes), fresh)


def test_separable_gram_rejects_callable_weight_and_general_metric(unit_torus):
    """Separable modes integrate exactly, on a diagonal metric under a
    constant weight only."""
    basis = instantaneous_basis(make_operator(unit_torus), unit_torus, 0.0, 5)
    general = SliceContext(as_general(unit_torus), 0.0)
    for conj in (True, False):
        with pytest.raises(InvalidArgument):
            basis.gram(conj=conj, weight=lambda pts: np.full(len(pts), 0.3))
        with pytest.raises(InvalidArgument):
            general.gram(basis.modes, basis.modes, conj=conj)


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
    op = make_operator(st)
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
    basis = instantaneous_basis(make_operator(st), st, 0.0, 3)
    for w_g, w_ex in zip(basis.omegas, roots[:3]):
        assert abs(w_g - w_ex) <= 1e-12 * w_ex
    # the natural boundary condition holds to the basis' resolution:
    # u'(0) = g u(0), u'(L) = -g u(L)
    for mode in basis.modes:
        vals, slopes = mode.rule.tables(np.array([0.0, L]))
        u, du = vals @ mode.coef, slopes @ mode.coef
        scale = np.max(np.abs(mode.values)) * basis.omegas[-1]
        assert abs(du[0] - g * u[0]) <= 1e-9 * scale
        assert abs(du[1] + g * u[1]) <= 1e-9 * scale


def _uniform_dirichlet_fd_basis(scale):
    st = static_spacetime(Domain((1.0,), (False,)), metric=[scale], mass=1.0,
                          boundary=BoundarySpec("dirichlet"))
    return instantaneous_basis(make_operator(st), as_general(st), 0.0, 6)


def test_fd_mode_sign_is_not_decided_by_rounding():
    """On a mirror-symmetric slice each odd mode has two opposite-sign
    maxima that agree to rounding.  The sign comes from the first node
    within 1e-6 of the maximum, so a 1e-14 change of the metric keeps it."""
    basis = _uniform_dirichlet_fd_basis(1.0)
    for i, mode in enumerate(basis.modes):
        phi = mode.values.real
        if i % 2:
            assert abs(phi.max() + phi.min()) <= 1e-10 * phi.max()
        mag = np.abs(phi)
        assert phi[np.argmax(mag >= (1.0 - 1e-6) * mag.max())] > 0
    nudged = _uniform_dirichlet_fd_basis(1.0 + 1e-14)
    for a, b in zip(basis.modes, nudged.modes):
        assert np.max(np.abs(a.values - b.values)) \
            <= 1e-8 * np.max(np.abs(a.values))


def test_dirichlet_boundary_exact_and_neumann_to_order():
    """Dirichlet modes vanish at the walls exactly; Neumann modes, whose
    condition is natural, have zero slope there to the basis' resolution."""
    ends = np.array([0.0, 1.0])
    st_d = static_spacetime(Domain((1.0,), (False,)),
                            boundary=BoundarySpec("dirichlet"))
    b_d = instantaneous_basis(make_operator(st_d), as_general(st_d), 0.0, 3)
    for mode in b_d.modes:
        vals, _ = mode.rule.tables(ends)
        assert not np.any(vals @ mode.coef)

    st_n = static_spacetime(Domain((1.0,), (False,), ), metric=None, mass=0.3,
                            boundary=BoundarySpec("neumann"))
    b_n = instantaneous_basis(make_operator(st_n), as_general(st_n), 0.0, 3)
    for mode in b_n.modes:
        _, slopes = mode.rule.tables(ends)
        scale = np.max(np.abs(mode.values)) * b_n.omegas[-1]
        assert np.max(np.abs(slopes @ mode.coef)) <= 1e-9 * scale


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
    op = make_operator(st)
    b0 = instantaneous_basis(op, as_general(st), 0.0, 5)
    b1 = instantaneous_basis(op, as_general(st), 0.01, 5)
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


def ref_align_basis(prev, next_basis):
    """align_basis with Gram-Schmidt on the combined modes, one Gram per
    inner product and norm: the reference for its coefficient form."""
    ctx = next_basis.context
    overlaps = ctx.gram(prev.modes, next_basis.modes, conj=True)
    where = {lab: i for i, lab in enumerate(next_basis.labels)}
    aligned = {}
    for g in _clusters(prev.omegas):
        labels = [prev.labels[i] for i in g]
        idx = [where[lab] for lab in labels]
        next_modes = [next_basis.modes[i] for i in idx]
        omega = float(next_basis.omegas[idx[0]])
        if len(g) == 1:
            z = overlaps[g[0], idx[0]]
            aligned[labels[0]] = next_modes[0].scaled(z / abs(z))
            continue
        gram_next = ctx.gram(next_modes, next_modes, conj=True)
        coefs = np.linalg.solve(gram_next.T, overlaps[np.ix_(g, idx)].T).T
        done = []
        for lab, vec in zip(labels, coefs.astype(complex)):
            cand = _combine(lab, list(zip(vec, next_modes)))
            for d in done:
                ip = ctx.gram([cand], [d], conj=True)[0, 0]
                nrm = ctx.gram([d], [d], conj=True)[0, 0]
                cand = _combine(lab, [(1.0, cand), (-ip / nrm, d)])
            nrm = ctx.gram([cand], [cand], conj=True)[0, 0].real
            done.append(cand.scaled(1.0 / np.sqrt(2.0 * omega * nrm)))
        aligned.update(zip(labels, done))
    return [aligned[lab] for lab in prev.labels]


def rotated_pairs(basis, rng):
    """``basis`` with each degenerate cluster rotated by a random unitary."""
    modes = list(basis.modes)
    for g in _clusters(basis.omegas):
        if len(g) > 1:
            q, _ = np.linalg.qr(rng.normal(size=(len(g), len(g)))
                                + 1j * rng.normal(size=(len(g), len(g))))
            cluster = [basis.modes[i] for i in g]
            for col, i in enumerate(g):
                modes[i] = _combine(basis.labels[i],
                                    list(zip(q[:, col], cluster)))
    return replace(basis, modes=tuple(modes))


@pytest.mark.parametrize("grid", [False, True])
def test_align_matches_per_pair_gram_schmidt(rng, grid):
    """Gram-Schmidt on coefficient vectors in one Gram per cluster agrees
    with the per-pair loop on a 101-mode torus and a 5-mode Galerkin
    torus."""
    a = lambda t: np.sqrt(2.5 + 1.5 * np.tanh(t))
    st = flrw_torus(a, length=1.0, mass=1.0)
    n_modes = 101
    if grid:
        st, n_modes = as_general(st), 5
    op = make_operator(st)
    prev = instantaneous_basis(op, st, 0.3, n_modes)
    fresh = rotated_pairs(instantaneous_basis(op, st, 0.45, n_modes), rng)
    assert sum(len(g) > 1 for g in _clusters(prev.omegas)) == n_modes // 2
    got = align_basis(prev, fresh)
    ref = ref_align_basis(prev, fresh)
    if grid:
        vals = [(m.values, r.values) for m, r in zip(got.modes, ref)]
    else:
        pts = np.linspace(0.0, 1.0, 257)[:, None]
        vals = [(m.value(pts), r.value(pts)) for m, r in zip(got.modes, ref)]
    scale = max(np.max(np.abs(r)) for _, r in vals)
    assert max(np.max(np.abs(v - r)) for v, r in vals) <= 1e-13 * scale


def test_requested_too_many_modes(long_torus):
    op = make_operator(long_torus)
    with pytest.raises(InvalidArgument):
        instantaneous_basis(op, as_general(long_torus), 0.0, 257)
    rule = _galerkin_rule("fourier", 1000.0, 65)
    with pytest.raises(InvalidArgument):
        _galerkin_solve(op, as_general(long_torus), 0.0, 64, rule)
    with pytest.raises(InvalidArgument):
        instantaneous_basis(op, long_torus, 0.0, 0)


def run_python(code, *args):
    """stdout of ``code`` run by a fresh interpreter on this bogoflow."""
    root = os.path.dirname(os.path.dirname(bogoflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


SCIPY_MODULES = ("print(' '.join(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")


def test_import_loads_no_scipy():
    """scipy is imported only where a solve calls it (the Gaussian-envelope
    window), so importing the package, its scenarios and its command line
    loads no scipy module at all."""
    code = "import sys, bogoflow, bogoflow.scenarios, bogoflow.cli\n"
    assert run_python(code + SCIPY_MODULES).strip() == ""


GENERAL_RUN = """
import sys
import numpy as np
from bogoflow import BoundarySpec, Domain, SyncSpacetime
from bogoflow.coupling import InstantaneousFamily, quadrature_driver
from bogoflow.evolution import evolve_Q
from bogoflow.spectral import OperatorSpec

def metric(fn):
    return lambda t, pts: fn(t, np.asarray(pts)[:, 0])[:, None, None]

st = SyncSpacetime(
    Domain((1.0,), (False,)),
    metric(lambda t, x: 1.0 + 0.05 * np.sin(np.pi * x) * np.sin(6 * t)),
    metric(lambda t, x: 0.3 * np.sin(np.pi * x) * np.cos(6 * t)),
    mass=1.0, boundary=BoundarySpec("dirichlet"))
fam = InstantaneousFamily(OperatorSpec(boundary=st.boundary), st, 4)
q, _ = evolve_Q(quadrature_driver(st, fam), 0.0, 0.5, tol=1e-8)
assert q.meta["identity_residual"] < 1e-6
"""


def test_general_path_loads_no_scipy():
    """An x-dependent 1D Dirichlet family evolved through the default
    quadrature driver and evolve_Q runs on numpy alone."""
    assert run_python(GENERAL_RUN + SCIPY_MODULES).strip() == ""


def test_periodic_fd_basis_is_reproducible(unit_torus):
    """A torus slice has degenerate +-k pairs, whose basis within each pair
    the dense eigensolver picks; it keeps no state, so two solves of one
    slice are bit-identical."""
    op, st = make_operator(unit_torus), as_general(unit_torus)
    first = instantaneous_basis(op, st, 0.0, 5)
    second = instantaneous_basis(op, st, 0.0, 5)
    assert np.array_equal(first.omegas, second.omegas)
    for a, b in zip(first.modes, second.modes):
        assert np.array_equal(a.values, b.values)


TORUS_RUN = """
import sys
import numpy as np
from bogoflow import BoundarySpec, Domain, SyncSpacetime, instantaneous_basis
from bogoflow.coupling import InstantaneousFamily, quadrature_driver
from bogoflow.evolution import evolve_Q
from bogoflow.spectral import OperatorSpec

def metric(fn):
    return lambda t, pts: fn(t, np.asarray(pts)[:, 0])[:, None, None]

k = 2.0 * np.pi
st = SyncSpacetime(
    Domain((1.0,), (True,)),
    metric(lambda t, x: 1.0 + 0.05 * np.sin(k * x) * np.sin(6 * t)),
    metric(lambda t, x: 0.3 * np.sin(k * x) * np.cos(6 * t)),
    mass=1.0, boundary=BoundarySpec("none"))
op = OperatorSpec(boundary=st.boundary)
for t in range(int(sys.argv[1])):      # earlier solves in the same process
    instantaneous_basis(op, st, 0.5 + t, 3)
q, _ = evolve_Q(quadrature_driver(st, InstantaneousFamily(op, st, 3)),
                0.0, 0.1, tol=1e-8)
print(q.beta.tobytes().hex())
"""


def test_periodic_fd_evolution_is_reproducible_across_processes():
    """A torus run gives the same Q in two processes, whatever other slices
    each solved before it."""
    outs = [run_python(TORUS_RUN, extra) for extra in (0, 2)]
    assert outs[0] and outs[0] == outs[1]

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np

from bogoflow.coupling import (InstantaneousFamily, basis_derivatives,
                               coupling_matrices)
from bogoflow.errors import WindowViolation
from bogoflow.evolution import (compose, evolve_Q, evolve_U,
                                identity_residual, static_driver)
from bogoflow.perturbation import (DeltaCoupling, delta_coupling_operator_form,
                                   equivalence_reduce, resonance_scan,
                                   window_coefficients)
from bogoflow.scenarios import (FlrwConfig, GwCavityConfig, flrw_generic_run,
                                flrw_run, flrw_spacetime, gw_cavity_run,
                                gw_delta_coupling, gw_exact_driver,
                                gw_nonperturbative_pair, gw_static_basis)
from bogoflow.scenarios.gw_cavity import gw_perturbation
from bogoflow.spectral import (OperatorSpec, instantaneous_basis,
                               orthonormality_residual)

from test_perturbation import apply_basis_change


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


FIG2 = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=5,
                  eta_span=(-10.0, 10.0), tol=1e-10)
GW = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                    n_modes_per_axis=(2, 2, 2), tol=1e-10)


def row_normalization_residual(b):
    rows = np.sum(np.abs(b.alpha) ** 2 - np.abs(b.beta) ** 2, axis=1)
    return float(np.max(np.abs(rows - 1.0)))


def test_criterion_1_flrw_tanh_reproduction():
    with criterion(1, "tanh-cosmology plateau values, monotonicity, runtime"):
        start = time.time()
        res = flrw_run(FIG2, include_zero_mode=False)
        elapsed = time.time() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
        rel = np.abs(res.beta2_final - res.oracle_beta2) / res.oracle_beta2
        assert np.max(rel) < 0.01, f"plateau mismatch {np.max(rel):.3e}"
        for row in range(len(res.labels)):
            dips = float(np.min(np.diff(res.beta2[row])))
            assert dips >= -1e-4 * res.beta2_final[row], \
                f"n={res.labels[row]} dips {dips:.3e}"


def test_criterion_2_gw_resonance_slope():
    with criterion(2, "cavity resonance grows at eps*pi/8 per unit time"):
        dc = gw_delta_coupling(GW)
        basis = dc.basis
        i = basis.labels.index((1, 1, 1))
        omega = GW.wave_frequency()
        spans = np.linspace(100.0, 1000.0, 41) * np.pi / omega
        vals = []
        for T in spans:
            m = window_coefficients(dc, basis, 0.0, T)
            vals.append(abs(m.beta[i, i]))
        slope = np.polyfit(spans, vals, 1)[0]
        expect = GW.epsilon * np.pi / 8.0
        assert abs(slope - expect) <= 0.005 * expect, \
            f"slope {slope:.6e} vs {expect:.6e}"


def test_criterion_3_gw_gaussian_envelope():
    with criterion(3, "Gaussian-envelope asymptotics: closed form and window"):
        w0 = GW.mode_omega0((1, 1, 1))
        omega = 2.0 * w0
        tau = 25.0 / omega * 2 * np.pi          # Omega tau >= 20
        cfg = GwCavityConfig(lengths=GW.lengths, epsilon=1e-5, tau=tau,
                             n_modes_per_axis=(2, 2, 2))
        res = gw_cavity_run(cfg)
        i = res.basis.labels.index((1, 1, 1))
        kx, ky = np.pi / cfg.lengths[0], np.pi / cfg.lengths[1]
        closed = cfg.epsilon * np.sqrt(np.pi) * (kx ** 2 - ky ** 2) / (4 * w0) \
            * tau * (np.exp(-(omega - 2 * w0) ** 2 * tau ** 2 / 4)
                     - np.exp(-(omega + 2 * w0) ** 2 * tau ** 2 / 4))
        got = res.coefficients.beta[i, i]
        assert abs(got - closed) <= 1e-10 * abs(closed), "closed form"
        windowed = window_coefficients(res.dc, res.basis, -5 * tau, 5 * tau,
                                       method="quadrature")
        assert abs(abs(windowed.beta[i, i]) - abs(closed)) <= 0.01 * abs(closed), \
            "numeric window integration"


def test_criterion_4_bogoliubov_identities():
    with criterion(4, "row normalization and coupling symmetries at 1e-8"):
        evolved = []
        # cosmology, generic full-matrix path
        cfg = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=2,
                         eta_span=(-10.0, 10.0), tol=1e-10)
        labels, out = flrw_generic_run(cfg, 2, (-10.0, 10.0))
        evolved.append(out[-1][1])
        # cavity, exact driver: U form over a short span (its identity
        # drift grows with the fastest phase), Q form over a long one
        drv = gw_exact_driver(GW, labels=[(1, 1, 1), (1, 2, 1), (2, 1, 1)])
        u = evolve_U(drv, 0.0, 2.0, tol=1e-10)
        q, acc = evolve_Q(drv, 0.0, 8.0, tol=1e-10)
        evolved += [u, q, acc.to_U(q), compose(u, u)]
        for b in evolved:
            assert row_normalization_residual(b) < 1e-8
            assert identity_residual(b) < 1e-8

        # coupling symmetry residuals, relative to matrix scale; an
        # analytic scale factor keeps the stencil free of interpolation noise
        from bogoflow import flrw_torus
        a = lambda t: np.sqrt(2.5 + 1.5 * np.tanh(t))
        st = flrw_torus(a, None, length=1000.0, mass=0.1)
        op = OperatorSpec(boundary=st.boundary)
        fam = InstantaneousFamily(op, st, 5, t_ref=0.0)
        for t in (-1.0, 0.0, 1.5):
            b = fam(t)
            cm = coupling_matrices(b, basis_derivatives(fam, b, 3e-5))
            scale = max(np.max(np.abs(cm.alpha_hat)),
                        np.max(np.abs(cm.beta_hat)))
            assert np.max(np.abs(cm.alpha_hat + cm.alpha_hat.conj().T)) \
                <= 1e-8 * scale
            assert np.max(np.abs(cm.beta_hat - cm.beta_hat.T)) <= 1e-8 * scale
        for t in (0.0, 0.3):
            w, cm = drv(t)
            scale = max(np.max(np.abs(cm.beta_hat)), 1e-300)
            assert np.max(np.abs(cm.alpha_hat + cm.alpha_hat.conj().T)) \
                <= 1e-8 * scale
            assert np.max(np.abs(cm.beta_hat - cm.beta_hat.T)) <= 1e-8 * scale


def test_criterion_5_trivial_limits():
    with criterion(5, "static, massless and symmetric-cavity limits"):
        # static slice: Q = I exactly, so beta = 0 and |alpha_nn| = 1
        q, acc = evolve_Q(static_driver([1.0, 2.0, 3.0]), 0.0, 5.0, tol=1e-12)
        u = acc.to_U(q)
        assert np.max(np.abs(u.beta)) <= 1e-12
        assert np.max(np.abs(np.abs(np.diagonal(u.alpha)) - 1.0)) <= 1e-12
        # massless cosmology is conformally trivial
        m0 = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.0, L=1000.0, n_max=3,
                        eta_span=(-10.0, 10.0))
        res = flrw_run(m0)
        assert np.max(np.abs(res.beta)) <= 1e-12
        assert np.max(np.abs(np.abs(res.alpha) - 1.0)) <= 1e-12
        # polarization symmetry: cubic cavity reports nothing
        cubic = GwCavityConfig(lengths=(1.0, 1.0, 1.0), epsilon=1e-5,
                               n_modes_per_axis=(2, 2, 2))
        assert len(gw_cavity_run(cubic).report) == 0


def test_criterion_6_cross_path_consistency():
    with criterion(6, "U vs Q, perturbative vs exact, semigroup"):
        tol = 1e-10
        cfg = FlrwConfig(A=2.5, B=1.5, rho=1.0, m=0.1, L=1000.0, n_max=2,
                         eta_span=(-10.0, 10.0), tol=tol)
        st = flrw_spacetime(cfg)
        from bogoflow.coupling import DiagonalFamilyDriver
        op = OperatorSpec(boundary=st.boundary)
        drv = DiagonalFamilyDriver(op, st, labels=[(-2,), (-1,), (0,), (1,), (2,)])
        t0, tf = -16.0, 30.0
        u = evolve_U(drv, t0, tf, tol=tol)
        q, acc = evolve_Q(drv, t0, tf, tol=tol)
        uq = acc.to_U(q)
        assert np.max(np.abs(u.alpha - uq.alpha)) < 10 * tol
        assert np.max(np.abs(u.beta - uq.beta)) < 10 * tol
        # semigroup through an interior time
        u1 = evolve_U(drv, t0, 0.0, tol=tol)
        u2 = evolve_U(drv, 0.0, tf, tol=tol)
        comp = compose(u2, u1)
        assert np.max(np.abs(comp.alpha - u.alpha)) < 10 * tol
        assert np.max(np.abs(comp.beta - u.beta)) < 10 * tol
        # same checks on the cavity over a short span
        gdrv = gw_exact_driver(GW, labels=[(1, 1, 1)])
        gu = evolve_U(gdrv, 0.0, 2.0, tol=tol)
        gq, gacc = evolve_Q(gdrv, 0.0, 2.0, tol=tol)
        guq = gacc.to_U(gq)
        assert np.max(np.abs(gu.alpha - guq.alpha)) < 10 * tol
        assert np.max(np.abs(gu.beta - guq.beta)) < 10 * tol
        # first order vs exact at eps = 1e-5 on the resonant channel
        T = 1000.0
        cfg1 = GwCavityConfig(lengths=GW.lengths, epsilon=1e-5,
                              n_modes_per_axis=(1, 1, 1), tol=1e-10)
        qa, qb = gw_nonperturbative_pair(cfg1, (1, 1, 1), np.array([0.0, T]))
        dc = gw_delta_coupling(cfg1)
        m = window_coefficients(dc, dc.basis, 0.0, T)
        assert abs(abs(qb[-1]) - abs(m.beta[0, 0])) <= 0.01 * abs(m.beta[0, 0])


def test_criterion_7_perturbation_property_suite():
    with criterion(7, "basis-change invariance, detuning, operator form"):
        rng = np.random.default_rng(7)
        cfg = GwCavityConfig(lengths=GW.lengths, epsilon=1e-3,
                             n_modes_per_axis=(2, 2, 2))
        dc = gw_delta_coupling(cfg)
        basis = dc.basis
        changed = apply_basis_change(dc, rng)
        r0 = resonance_scan(dc, basis, cfg.detuning_window)
        r1 = resonance_scan(changed, basis, cfg.detuning_window)
        assert r0.channels() == r1.channels()
        i = basis.labels.index((1, 1, 1))
        span = 400.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WindowViolation)
            m0 = window_coefficients(dc, basis, 0.0, span)
            m1 = window_coefficients(changed, basis, 0.0, span)
        shift = abs(abs(m1.beta[i, i]) - abs(m0.beta[i, i])) / abs(m0.beta[i, i])
        assert shift < 10 * cfg.epsilon, f"rate shift {shift:.3e}"

        # detuning envelope: sinc within 2% for |dw| dt <= 0.2
        w_res = 2.0 * basis.omegas[i]
        span = 200.0 / w_res * 2 * np.pi
        for dw_dt in (0.05, 0.1, 0.2):
            delta = dw_dt / span
            dci = DeltaCoupling(basis=basis, epsilon=1e-5, tones_alpha={},
                                tones_beta={(i, i): ((w_res + delta, 0.25),)})
            m = window_coefficients(dci, basis, 0.0, span, method="quadrature")
            rate = abs(m.beta[i, i]) / (1e-5 * span)
            expect = 0.25 * abs(np.sinc(delta * span / (2 * np.pi)))
            assert abs(rate - expect) <= 0.02 * expect

        # operator form and mode form share every resonant amplitude
        _, _, b2 = gw_static_basis(GW)
        dc_m = equivalence_reduce(gw_delta_coupling(GW), b2)
        dc_o = equivalence_reduce(
            delta_coupling_operator_form(b2, gw_perturbation(GW)), b2)
        rm = resonance_scan(dc_m, b2, GW.detuning_window)
        ro = resonance_scan(dc_o, b2, GW.detuning_window)
        assert rm.channels() == ro.channels() and len(rm) > 0
        for em, eo in zip(rm, ro):
            assert abs(em.rate - eo.rate) <= 1e-8 * abs(em.rate)


def test_criterion_8_spectral_correctness():
    with criterion(8, "Galerkin eigensolver against analytic modes and "
                      "the finite-difference oracle"):
        from dataclasses import replace
        from bogoflow import flrw_torus
        from fd_reference import fd_omegas
        st = flrw_torus(lambda t: 1.0, lambda t: 0.0, length=1000.0, mass=0.1)
        st_g = replace(st, diag_scales=None, diag_scales_dt=None)
        op = OperatorSpec(boundary=st.boundary)
        exact = instantaneous_basis(op, st, 0.0, 9)
        galerkin = instantaneous_basis(op, st_g, 0.0, 9)
        w2 = np.sort(exact.omegas ** 2)
        rel = np.abs(np.sort(galerkin.omegas ** 2) - w2) / w2
        assert np.max(rel) < 1e-12, f"eigenvalue error {np.max(rel):.3e}"
        rel = np.abs(fd_omegas(op, st, 0.0, 9, 2048) ** 2 - w2) / w2
        assert np.max(rel) < 1e-6, f"FD oracle error {np.max(rel):.3e}"
        errs = []
        for n in (256, 512, 1024):
            w = fd_omegas(op, st, 0.0, 5, n)
            errs.append(np.max(np.abs(w ** 2 - w2[:5]) / w2[:5]))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5
        assert orthonormality_residual(galerkin) < 1e-12
        assert orthonormality_residual(exact) < 1e-12

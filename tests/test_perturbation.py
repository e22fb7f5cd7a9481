import warnings

import numpy as np
import pytest

from bogoflow.errors import (InvalidArgument, MissingPerturbedModes,
                             NonDecayingProfile, QuadratureFailure,
                             WindowViolation)
from bogoflow.perturbation import (DeltaCoupling, PerturbationSpec,
                                   PerturbedEigenpairs, asymptotic_coefficients,
                                   delta_coupling_from_modes,
                                   delta_coupling_operator_form,
                                   equivalence_reduce, resonance_scan,
                                   sin_profile, window_coefficients)
from bogoflow.scenarios import GwCavityConfig, gw_delta_coupling, gw_static_basis
from bogoflow.scenarios.gw_cavity import gw_perturbation
from bogoflow.spectral import SeparableMode

CFG = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                     n_modes_per_axis=(2, 2, 2))


def kvec(label, lengths):
    return tuple(np.pi * n / L for n, L in zip(label, lengths))


def expected_beta_diag(basis, lengths):
    out = np.zeros(basis.n_modes, dtype=complex)
    for i, lab in enumerate(basis.labels):
        kx, ky, _ = kvec(lab, lengths)
        out[i] = 1j * (kx ** 2 - ky ** 2) / (2.0 * basis.omegas[i])
    return out


def test_gw_mode_form_has_diagonal_beta_structure():
    dc = gw_delta_coupling(CFG)
    basis = dc.basis
    assert np.max(np.abs(dc.base_alpha)) == 0.0
    off = dc.base_beta - np.diag(np.diagonal(dc.base_beta))
    assert np.max(np.abs(off)) < 1e-14
    expect = expected_beta_diag(basis, CFG.lengths)
    assert np.max(np.abs(np.diagonal(dc.base_beta) - expect)) < 1e-12


def test_zero_perturbation_gives_zero_matrices():
    _, _, basis = gw_static_basis(CFG)
    spec = PerturbationSpec(epsilon=0.0, profile=sin_profile(1.0))
    eig = PerturbedEigenpairs(delta_omega=np.zeros(basis.n_modes))
    dc = delta_coupling_from_modes(basis, eig, spec)
    assert np.max(np.abs(dc.base_alpha)) == 0.0
    assert np.max(np.abs(dc.base_beta)) == 0.0
    b = asymptotic_coefficients(
        DeltaCoupling(basis=basis, epsilon=0.0,
                      base_alpha=dc.base_alpha, base_beta=dc.base_beta,
                      profile=sin_profile(1.0, gaussian_tau=3.0)), basis)
    assert np.max(np.abs(b.alpha - np.eye(basis.n_modes))) == 0.0
    assert np.max(np.abs(b.beta)) == 0.0


def test_cubic_box_symmetric_modes_have_no_diagonal_beta():
    cfg = GwCavityConfig(lengths=(1.0, 1.0, 1.0), epsilon=1e-5,
                         n_modes_per_axis=(2, 2, 2))
    dc = gw_delta_coupling(cfg)
    for i, lab in enumerate(dc.basis.labels):
        if lab[0] == lab[1]:
            assert abs(dc.base_beta[i, i]) < 1e-15


def test_operator_form_reproduces_mode_form_on_resonant_content():
    _, _, basis = gw_static_basis(CFG)
    dc_m = gw_delta_coupling(CFG)
    dc_o = delta_coupling_operator_form(basis, gw_perturbation(CFG))
    # identical beta; alpha differs only by equivalence-class diagonal terms
    assert np.max(np.abs(dc_m.base_beta - dc_o.base_beta)) < 1e-12
    offdiag = dc_o.base_alpha - np.diag(np.diagonal(dc_o.base_alpha))
    assert np.max(np.abs(offdiag)) < 1e-14
    r_m = resonance_scan(equivalence_reduce(dc_m, basis), basis, 1e-6)
    r_o = resonance_scan(equivalence_reduce(dc_o, basis), basis, 1e-6)
    assert r_m.channels() == r_o.channels()
    for e_m, e_o in zip(r_m, r_o):
        assert abs(e_m.rate - e_o.rate) <= 1e-8 * abs(e_m.rate)


def test_cross_polarization_contributes_nothing_resonant():
    # dO ~ d_x d_y has no diagonal matrix elements, so the targeted
    # resonance report is unchanged by adding it
    _, _, basis = gw_static_basis(CFG)

    def cross(mode):
        terms = tuple((c, f.d1(0).d1(1)) for c, f in mode.terms)
        return SeparableMode(mode.label, terms)

    spec = PerturbationSpec(epsilon=CFG.epsilon,
                            profile=sin_profile(CFG.wave_frequency()),
                            delta_operator=cross)
    dc_cross = delta_coupling_operator_form(basis, spec)
    assert np.max(np.abs(np.diagonal(dc_cross.base_alpha))) < 1e-14
    assert np.max(np.abs(np.diagonal(dc_cross.base_beta))) < 1e-14
    report = resonance_scan(dc_cross, basis, CFG.detuning_window)
    assert len(report) == 0


def test_delta_operator_is_linear(rng):
    _, _, basis = gw_static_basis(CFG)
    from bogoflow.spectral import combine_separable
    op = gw_perturbation(CFG).delta_operator
    c1, c2 = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
    m1, m2 = basis.modes[0], basis.modes[3]
    combo = combine_separable(("c",), [(c1, m1), (c2, m2)])
    pts = basis.spacetime.domain.sample_points(3)
    lhs = op(combo).value(pts)
    rhs = c1 * op(m1).value(pts) + c2 * op(m2).value(pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_uniform_potential_shift_is_diagonal():
    _, _, basis = gw_static_basis(CFG)
    c = 0.37

    def shift(mode):
        return SeparableMode(mode.label, tuple((c * tc, f)
                                               for tc, f in mode.terms))

    spec = PerturbationSpec(epsilon=1e-4, profile=sin_profile(1.0),
                            delta_operator=shift)
    dc = delta_coupling_operator_form(basis, spec)
    off_b = dc.base_beta - np.diag(np.diagonal(dc.base_beta))
    assert np.max(np.abs(off_b)) < 1e-14
    off_a = dc.base_alpha - np.diag(np.diagonal(dc.base_alpha))
    assert np.max(np.abs(off_a)) < 1e-14
    assert np.max(np.abs(np.diagonal(dc.base_beta))) > 0


def test_window_resonant_growth_rate():
    dc = gw_delta_coupling(CFG)
    basis = dc.basis
    i = basis.labels.index((1, 1, 1))
    w0 = basis.omegas[i]
    slope = CFG.epsilon * np.pi / 8.0
    omega = CFG.wave_frequency()
    # sampling at multiples of pi/Omega kills the bounded wiggle exactly
    for k in (40, 80, 160):
        T = k * np.pi / omega
        m = window_coefficients(dc, basis, 0.0, T)
        assert abs(abs(m.beta[i, i]) - slope * T) <= 1e-10 * slope * T
        assert m.alpha[i, i] == 1.0


def test_window_quadrature_agrees_with_tones():
    dc = gw_delta_coupling(CFG)
    basis = dc.basis
    T = 30 * np.pi / CFG.wave_frequency()
    m_t = window_coefficients(dc, basis, 0.0, T, method="tones")
    m_q = window_coefficients(dc, basis, 0.0, T, method="quadrature")
    assert np.max(np.abs(m_t.beta - m_q.beta)) < 1e-9 * np.max(np.abs(m_t.beta))


def test_window_method_is_tones_or_quadrature():
    dc = gw_delta_coupling(CFG)
    T = 30 * np.pi / CFG.wave_frequency()
    default = window_coefficients(dc, dc.basis, 0.0, T)
    tones = window_coefficients(dc, dc.basis, 0.0, T, method="tones")
    assert np.array_equal(default.alpha, tones.alpha)
    assert np.array_equal(default.beta, tones.beta)
    for bad in ("auto", "Tones", "gauss"):
        with pytest.raises(InvalidArgument):
            window_coefficients(dc, dc.basis, 0.0, T, method=bad)


def test_detuning_follows_sinc_envelope():
    _, _, basis = gw_static_basis(CFG)
    i = basis.labels.index((1, 1, 1))
    w_res = 2.0 * basis.omegas[i]
    amp = 0.25
    for dw_dt in (0.05, 0.1, 0.2):
        span = 200.0 / w_res * 2 * np.pi
        delta = dw_dt / span
        tones = {(i, i): ((w_res + delta, amp),)}
        dc = DeltaCoupling(basis=basis, epsilon=1e-5, tones_alpha={},
                           tones_beta=tones)
        m = window_coefficients(dc, basis, 0.0, span, method="quadrature")
        rate = abs(m.beta[i, i]) / (1e-5 * span)
        expect = amp * abs(np.sinc(delta * span / (2 * np.pi)))
        assert abs(rate - expect) <= 0.02 * expect


def test_unconverged_quadrature_window_raises(monkeypatch):
    """A tone 1e6 off resonance over a unit window is not resolved by any
    rule up to order 16384, so the quadrature method must raise.  Gauss
    rules of those orders take minutes to build (dense eigensolves), so a
    midpoint rule with the same node count stands in for them."""
    from bogoflow import perturbation

    orders = []

    def midpoint_rule(order, a, b):
        orders.append(order)
        h = (b - a) / order
        return a + h * (np.arange(order) + 0.5), np.full(order, h)

    monkeypatch.setattr(perturbation, "axis_rule", midpoint_rule)
    _, _, basis = gw_static_basis(CFG)
    i = basis.labels.index((1, 1, 1))
    tones = {(i, i): ((2.0 * basis.omegas[i] + 1e6, 1.0),)}
    dc = DeltaCoupling(basis=basis, epsilon=1e-12, tones_alpha={},
                       tones_beta=tones)
    with pytest.raises(QuadratureFailure):
        window_coefficients(dc, basis, 0.0, 1.0, method="quadrature")
    assert max(orders) == 16384


def test_asymptotic_matches_numeric_window():
    omega = CFG.wave_frequency()
    cfg = GwCavityConfig(lengths=CFG.lengths, epsilon=1e-5,
                         tau=25.0 / omega * 2 * np.pi,   # Omega tau >= 20
                         n_modes_per_axis=(1, 1, 1))
    dc = gw_delta_coupling(cfg)
    basis = dc.basis
    full = asymptotic_coefficients(dc, basis)
    t5 = 5.0 * cfg.tau
    windowed = window_coefficients(dc, basis, -t5, t5, method="quadrature")
    i = basis.labels.index((1, 1, 1))
    assert abs(abs(windowed.beta[i, i]) - abs(full.beta[i, i])) \
        <= 0.01 * abs(full.beta[i, i])


@pytest.mark.parametrize("delta,t0,tf,tau", [
    (0.0, -3.0, 7.0, 2.0),
    (1.7, -5.0, 5.0, 3.0),
    (-2.2, 0.0, 9.0, 4.0),
    (40.0, -1.0, 1.0, 3.0),      # delta*tau/2 = 60: overflow territory
    (-35.0, -0.5, 4.0, 2.0),
])
def test_gaussian_window_integral_against_quadrature(delta, t0, tf, tau):
    from bogoflow.perturbation import _tone_window_integral
    from bogoflow.quadrature import axis_rule
    got = _tone_window_integral(delta, t0, tf, tau)
    x, w = axis_rule(600, t0, tf)
    ref = np.sum(w * np.exp(1j * delta * x - (x / tau) ** 2))
    # the quadrature reference itself carries ~1e-13 of oscillatory roundoff
    assert abs(got - ref) <= 1e-11 * max(abs(ref), 1e-6) + 1e-13
    assert np.isfinite(got.real) and np.isfinite(got.imag)


def test_gaussian_windowed_tones_match_quadrature_method():
    omega = CFG.wave_frequency()
    cfg = GwCavityConfig(lengths=CFG.lengths, epsilon=1e-5,
                         tau=20.0 / omega * 2 * np.pi,
                         n_modes_per_axis=(2, 2, 2))
    dc = gw_delta_coupling(cfg)
    t5 = 3.0 * cfg.tau
    m_t = window_coefficients(dc, dc.basis, -t5, t5, method="tones")
    m_q = window_coefficients(dc, dc.basis, -t5, t5, method="quadrature")
    scale = np.max(np.abs(m_t.beta))
    assert np.max(np.abs(m_t.beta - m_q.beta)) < 1e-8 * scale
    assert np.max(np.abs(m_t.alpha - m_q.alpha)) < 1e-8


def test_asymptotic_requires_decay():
    dc = gw_delta_coupling(CFG)
    with pytest.raises(NonDecayingProfile):
        asymptotic_coefficients(dc, dc.basis)


def test_equivalence_reduce_drops_pure_derivative_terms():
    _, _, basis = gw_static_basis(CFG)
    i = basis.labels.index((1, 1, 1))
    w_res = 2.0 * basis.omegas[i]
    omega_t = 0.7 * w_res
    c = 0.3 + 0.1j
    # contribution of dX/dt - i w_res X for the tone X = c e^{i omega_t t}
    tone = (omega_t, 1j * c * (omega_t - w_res))
    dc = DeltaCoupling(basis=basis, epsilon=1e-5, tones_alpha={},
                       tones_beta={(i, i): (tone,)})
    red = equivalence_reduce(dc, basis)
    assert red.channel_tones("beta", i, i) == ()
    # a resonant tone is untouched
    dc2 = DeltaCoupling(basis=basis, epsilon=1e-5, tones_alpha={},
                        tones_beta={(i, i): ((w_res, 0.5 + 0j),)})
    red2 = equivalence_reduce(dc2, basis)
    assert red2.channel_tones("beta", i, i) == ((w_res, 0.5 + 0j),)


def apply_basis_change(dc, rng, rel_scale=1.0):
    """Modified coupling from a random order-eps change of mode basis.

    Adds dX/dt - i w_res X per channel for random tones X, the exact form a
    basis change I + eps T injects.
    """
    basis = dc.basis
    n = basis.n_modes
    scale = float(np.max(np.abs(dc.base_beta))) * rel_scale
    tables = {"alpha": {}, "beta": {}}
    for kind in ("alpha", "beta"):
        for i in range(n):
            for j in range(n):
                tones = list(dc.channel_tones(kind, i, j))
                w_res = dc.resonant_frequency(kind, i, j)
                omega_t = rng.uniform(0.2, 3.0) * (abs(w_res) + 1.0)
                c = scale * (rng.normal() + 1j * rng.normal()) / np.sqrt(2)
                tones.append((omega_t, 1j * c * (omega_t - w_res)))
                tables[kind][(i, j)] = tuple(tones)
    return DeltaCoupling(basis=basis, epsilon=dc.epsilon, profile=dc.profile,
                         tones_alpha=tables["alpha"],
                         tones_beta=tables["beta"])


def test_basis_change_leaves_resonances_invariant(rng):
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-3,
                         n_modes_per_axis=(2, 2, 2))
    dc = gw_delta_coupling(cfg)
    basis = dc.basis
    changed = apply_basis_change(dc, rng)
    # scan rates read exact Fourier amplitudes: strictly invariant
    r0 = resonance_scan(dc, basis, cfg.detuning_window)
    r1 = resonance_scan(changed, basis, cfg.detuning_window)
    assert r0.channels() == r1.channels()
    for e0, e1 in zip(r0, r1):
        assert abs(e0.rate - e1.rate) <= 1e-12 * abs(e0.rate)
    # windowed rates shift by the bounded leakage only: < 10 eps relative
    i = basis.labels.index((1, 1, 1))
    span = 400.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WindowViolation)
        m0 = window_coefficients(dc, basis, 0.0, span)
        m1 = window_coefficients(changed, basis, 0.0, span)
    shift = abs(abs(m1.beta[i, i]) - abs(m0.beta[i, i])) / abs(m0.beta[i, i])
    assert shift < 10 * cfg.epsilon


def test_resonance_scan_reports():
    dc = gw_delta_coupling(CFG)
    report = resonance_scan(dc, dc.basis, CFG.detuning_window)
    assert len(report) == 1
    entry = report.entries[0]
    assert entry.kind == "beta" and entry.n == (1, 1, 1) and entry.m == (1, 1, 1)
    assert abs(abs(entry.rate) - CFG.epsilon * np.pi / 8) < 1e-12

    # no sum/difference within the window -> empty
    cfg_off = GwCavityConfig(lengths=CFG.lengths, epsilon=1e-5,
                             omega=1.2345, n_modes_per_axis=(2, 2, 2))
    dc_off = gw_delta_coupling(cfg_off)
    assert len(resonance_scan(dc_off, dc_off.basis, 1e-6)) == 0


def test_degenerate_alpha_channels():
    # cubic box: (1,1,2), (1,2,1), (2,1,1) share one frequency; a static
    # (zero-frequency) tone resonates between distinct members, while the
    # diagonal alpha channel is excluded by construction
    cfg = GwCavityConfig(lengths=(1.0, 1.0, 1.0), epsilon=1e-5,
                         n_modes_per_axis=(2, 2, 2))
    _, _, basis = gw_static_basis(cfg)
    i = basis.labels.index((1, 1, 2))
    j = basis.labels.index((1, 2, 1))
    tones = {(i, j): ((0.0, 1.0 + 0j),), (i, i): ((0.0, 1.0 + 0j),)}
    dc = DeltaCoupling(basis=basis, epsilon=1e-5, tones_alpha=tones,
                       tones_beta={})
    report = resonance_scan(dc, basis, 1e-9)
    assert report.channels() == {("alpha", (1, 1, 2), (1, 2, 1))}
    assert report.entries[0].resonant_frequency == 0.0


def test_window_violation_warning():
    dc = gw_delta_coupling(CFG)
    with pytest.warns(WindowViolation):
        m = window_coefficients(dc, dc.basis, 0.0, 0.01)
    assert m.meta["window_ok"] is False


def test_window_violation_warning_for_tone_tables():
    # no profile: omega_p comes from the tone frequencies themselves
    _, _, basis = gw_static_basis(CFG)
    dc = DeltaCoupling(basis=basis, epsilon=1e-5, tones_alpha={},
                       tones_beta={(0, 0): ((9.4, 1.0 + 0j),)})
    with pytest.warns(WindowViolation):
        m = window_coefficients(dc, basis, 0.0, 0.01)
    assert m.meta["window_ok"] is False


def test_static_basis_must_be_the_coupling_basis():
    dc = gw_delta_coupling(CFG)
    other = GwCavityConfig(lengths=(1.0, 1.5, 1.0), epsilon=1e-5,
                           n_modes_per_axis=(2, 2, 2))
    _, _, foreign = gw_static_basis(other)
    assert foreign.labels == dc.basis.labels
    _, _, rebuilt = gw_static_basis(CFG)
    assert rebuilt is not dc.basis
    T = 2 * np.pi / CFG.wave_frequency() * 200
    window_coefficients(dc, rebuilt, 0.0, T)
    for call in (lambda b: window_coefficients(dc, b, 0.0, T),
                 lambda b: equivalence_reduce(dc, b),
                 lambda b: resonance_scan(dc, b, CFG.detuning_window)):
        with pytest.raises(InvalidArgument):
            call(foreign)
    gauss = gw_delta_coupling(GwCavityConfig(
        lengths=CFG.lengths, epsilon=1e-5, tau=30.0,
        n_modes_per_axis=(2, 2, 2)))
    asymptotic_coefficients(gauss, rebuilt)
    with pytest.raises(InvalidArgument):
        asymptotic_coefficients(gauss, foreign)


def test_missing_inputs_raise():
    _, _, basis = gw_static_basis(CFG)
    spec = PerturbationSpec(epsilon=1e-5, profile=sin_profile(1.0))
    with pytest.raises(MissingPerturbedModes):
        delta_coupling_from_modes(basis, PerturbedEigenpairs(None), spec)
    with pytest.raises(MissingPerturbedModes):
        delta_coupling_operator_form(basis, spec)
    with pytest.raises(InvalidArgument):
        DeltaCoupling(basis=basis, epsilon=1e-5)

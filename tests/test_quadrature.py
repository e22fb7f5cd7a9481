from dataclasses import replace

import numpy as np
import pytest

from bogoflow import quadrature
from bogoflow.perturbation import window_coefficients
from bogoflow.quadrature import _PANEL_ORDER, panel_rule
from bogoflow.scenarios import GwCavityConfig, gw_delta_coupling


@pytest.mark.parametrize("panels, a, b", [(1, 0.0, 1.0), (3, -1.5, 2.5),
                                          (8, 2.0, -6.0)])
def test_panel_rule_is_exact_to_degree_63_on_each_panel(panels, a, b):
    x, w = panel_rule(panels, a, b)
    assert x.shape == w.shape == (panels * _PANEL_ORDER,)
    assert abs(np.sum(w) - (b - a)) <= 1e-14 * abs(b - a)
    half = 0.5 * (b - a) / panels
    for j in range(panels):
        xs = x[j * _PANEL_ORDER:(j + 1) * _PANEL_ORDER]
        ws = w[j * _PANEL_ORDER:(j + 1) * _PANEL_ORDER]
        u = (xs - (a + (2 * j + 1) * half)) / half      # panel mapped to [-1, 1]
        assert np.all(np.abs(u) < 1.0)
        for d in range(2 * _PANEL_ORDER):
            exact = half * (2.0 / (d + 1) if d % 2 == 0 else 0.0)
            assert abs(np.sum(ws * u ** d) - exact) <= 1e-14 * abs(half)


def criterion_3_coupling():
    """The acceptance criterion-3 coupling: 2x2x2 cavity modes under a
    Gaussian envelope of 25 wave periods, windowed at +-5 tau."""
    cfg = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                         n_modes_per_axis=(2, 2, 2))
    cfg = replace(cfg, tau=25.0 / cfg.wave_frequency() * 2 * np.pi)
    return gw_delta_coupling(cfg), 5.0 * cfg.tau


@pytest.fixture
def rule_orders(monkeypatch):
    """Orders of the Gauss-Legendre rules built from a cleared cache on."""
    build = np.polynomial.legendre.leggauss
    orders = []

    def counted(order):
        orders.append(order)
        return build(order)

    quadrature._leggauss.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    yield orders
    quadrature._leggauss.cache_clear()


def test_numeric_window_builds_no_rule_above_panel_order(rule_orders):
    dc, t5 = criterion_3_coupling()
    window_coefficients(dc, dc.basis, -t5, t5, method="quadrature")
    assert rule_orders == [_PANEL_ORDER]


def test_numeric_window_matches_tone_integrals():
    dc, t5 = criterion_3_coupling()
    m_t = window_coefficients(dc, dc.basis, -t5, t5, method="tones")
    m_q = window_coefficients(dc, dc.basis, -t5, t5, method="quadrature")
    scale = np.max(np.abs(m_t.beta))
    assert scale > 0
    assert np.max(np.abs(m_t.beta - m_q.beta)) <= 1e-12 * scale
    assert np.max(np.abs(m_t.alpha - m_q.alpha)) <= 1e-12


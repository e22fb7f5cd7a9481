"""The growth series in one call against per-time window loops.

``bogoflow run`` on a gw_cavity config writes |coefficient| series of the
resonant channels.  The reference below rebuilds them the slow way, one
``window_coefficients`` call per end time, and the CSV must hold the same
floats bit for bit.
"""

import json

import numpy as np
import pytest
from scipy.special import dawsn, wofz

from bogoflow import cli
from bogoflow.perturbation import (DeltaCoupling, HarmonicProfile, _scaled_erf,
                                   window_coefficients, window_series)
from bogoflow.scenarios import GwCavityConfig, gw_cavity_run, gw_delta_coupling


def loop_series(dc, t0, ts, channels):
    """|coefficient| of each channel, one window per end time."""
    out = np.empty((len(ts), len(channels)))
    for s, tcur in enumerate(ts):
        m = window_coefficients(dc, dc.basis, t0, tcur)
        for c, (kind, i, j) in enumerate(channels):
            out[s, c] = abs((m.alpha if kind == "alpha" else m.beta)[i, j])
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("boundary,modes", [("dirichlet", 3), ("neumann", 4)])
def test_cli_growth_series_equals_per_time_loop(tmp_path, boundary, modes):
    """The perfbench 3x3x3 cavity (one channel), and a Neumann cavity
    through the dm sequence with two channels."""
    block = {"lengths": [1.0, 2.0, 1.0], "epsilon": 1e-5,
             "n_modes_per_axis": [modes] * 3, "tol": 1e-10,
             "boundary": boundary}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "gw_cavity", "gw_cavity": block,
                                "output": {"path": "gw", "format": "csv"},
                                "seed": 3}))
    assert cli.run(path, output_dir=tmp_path) == 0
    table = read_csv(tmp_path / "gw.csv")

    result = gw_cavity_run(GwCavityConfig(
        lengths=(1.0, 2.0, 1.0), epsilon=1e-5, n_modes_per_axis=(modes,) * 3,
        tol=1e-10, boundary=boundary))
    labels = result.basis.labels
    channels = [(e.kind, labels.index(e.n), labels.index(e.m))
                for e in result.report]
    assert len(channels) == (1 if boundary == "dirichlet" else 2)
    t0, tf = result.meta["window"]
    ts = np.linspace(t0, tf, 201)[1:]
    assert np.array_equal(table[:, 0], ts)
    ref = loop_series(result.dc, t0, ts, channels)
    assert table.shape == (200, 1 + len(channels))
    assert np.array_equal(table[:, 1:], ref)


def tone_coupling(tau):
    """Live and dead channels of both kinds, diagonal alpha included."""
    cfg = GwCavityConfig(n_modes_per_axis=(2, 2, 1))
    basis = gw_delta_coupling(cfg).basis
    w = basis.omegas
    tones_a = {(0, 1): ((w[0] - w[1] + 0.3, 0.5 - 0.2j), (4.0, 1.1)),
               (2, 2): ((1.5, 0.7),)}
    tones_b = {(1, 1): ((2 * w[1], 1.0 + 0.5j), (2 * w[1] - 2.0, -0.3)),
               (0, 3): ((w[0] + w[3] + 0.1, 0.25j),)}
    profile = None if tau is None else HarmonicProfile(((0.0, 1.0),), tau)
    return DeltaCoupling(basis=basis, epsilon=1e-4, profile=profile,
                         tones_alpha=tones_a, tones_beta=tones_b)


CHANNELS = [("alpha", 0, 1), ("alpha", 2, 2), ("alpha", 1, 0),
            ("beta", 1, 1), ("beta", 0, 3), ("beta", 2, 3)]


@pytest.mark.parametrize("tau", [None, 1.7])
def test_window_series_equals_window_coefficients(tau):
    """Complex entries, with and without a Gaussian envelope, at end times
    on both sides of t = 0 and at t = 0 itself."""
    dc = tone_coupling(tau)
    assert dc.tau == tau
    t0 = -4.0
    ts = np.concatenate([np.linspace(-3.9, 5.0, 37), [0.0]])
    got = window_series(dc, t0, ts, CHANNELS)
    assert got.shape == (ts.size, len(CHANNELS))
    for s, tcur in enumerate(ts):
        m = window_coefficients(dc, dc.basis, t0, tcur)
        ref = [(m.alpha if k == "alpha" else m.beta)[i, j]
               for k, i, j in CHANNELS]
        assert np.max(np.abs(got[s] - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(got[:, 1] == 1.0)                 # diagonal alpha
    assert np.all(got[:, 2] == 0.0)                 # a dead channel
    assert np.all(got[:, 5] == 0.0)


def test_window_series_without_channels():
    dc = tone_coupling(None)
    assert window_series(dc, 0.0, np.linspace(0.1, 1.0, 4), []).shape == (4, 0)


def ref_scaled_erf(s, a):
    """Scalar exp(-a^2) erf(s - i a), one branch per sign of s and a."""
    if a < 0:
        return np.conj(ref_scaled_erf(s, -a))
    if s < 0:
        return -np.conj(ref_scaled_erf(-s, a))
    if s == 0:
        return -2j * dawsn(a) / np.sqrt(np.pi)
    return np.exp(-a * a) - np.exp(-s * s) * np.exp(2j * a * s) \
        * wofz(a + 1j * s)


def test_scaled_erf_broadcasts_over_end_times():
    """An array of s takes each entry's own sign and zero branch."""
    s = np.array([-3.0, -0.4, 0.0, -0.0, 0.25, 2.0, 6.5])
    a = np.array([-40.0, -1.2, 0.0, 0.7, 30.0])
    grid = _scaled_erf(s[:, None], a)
    assert grid.shape == (s.size, a.size)
    assert np.all(np.isfinite(grid))
    for r, sv in enumerate(s):
        assert np.array_equal(grid[r], _scaled_erf(float(sv), a))
        for c, av in enumerate(a):
            ref = ref_scaled_erf(float(sv), float(av))
            assert abs(grid[r, c] - ref) <= 1e-15 * max(1.0, abs(ref))

"""The tone-array first-order engine against per-channel reference loops.

The reference below walks channels and tones one at a time with scalar
formulas, reading the tone tables the couplings were built from, not the
arrays they are stored in.  Every comparison uses one tolerance fixed in
advance: 1e-13 relative to the largest reference entry.
"""

import numpy as np
import pytest
from scipy.special import dawsn, wofz

from bogoflow.perturbation import (DeltaCoupling, asymptotic_coefficients,
                                   equivalence_reduce, resonance_scan,
                                   sin_profile, window_coefficients)
from bogoflow.scenarios import GwCavityConfig, gw_delta_coupling

RTOL = 1e-13
CFG = GwCavityConfig(lengths=(1.0, 2.0, 1.0), epsilon=1e-5,
                     n_modes_per_axis=(2, 2, 2))


# ---------------------------------------------------------------------------
# scalar per-channel reference


def ref_scaled_erf(s, a):
    if a < 0:
        return np.conj(ref_scaled_erf(s, -a))
    if s < 0:
        return -np.conj(ref_scaled_erf(-s, a))
    if s == 0:
        return -2j * dawsn(a) / np.sqrt(np.pi)
    return np.exp(-a * a) - np.exp(-s * s) * np.exp(2j * a * s) \
        * wofz(a + 1j * s)


def ref_window_integral(delta, t0, tf, tau):
    if tau is None:
        span, mid = tf - t0, 0.5 * (t0 + tf)
        x = 0.5 * delta * span
        sinc = np.sin(x) / x if abs(x) > 1e-8 else 1.0
        return span * np.exp(1j * delta * mid) * sinc
    a = 0.5 * delta * tau
    return 0.5 * np.sqrt(np.pi) * tau * (ref_scaled_erf(tf / tau, a)
                                         - ref_scaled_erf(t0 / tau, a))


def resonance(w, kind, i, j):
    return w[i] - w[j] if kind == "alpha" else w[i] + w[j]


def ref_window(tables, w, eps, tau, t0, tf):
    n = len(w)
    out = {}
    for kind, table in tables.items():
        m = np.zeros((n, n), dtype=complex)
        for (i, j), tones in table.items():
            res = resonance(w, kind, i, j)
            for wt, amp in tones:
                m[i, j] += amp * ref_window_integral(wt - res, t0, tf, tau)
        out[kind] = eps * m
    np.fill_diagonal(out["alpha"], 1.0)
    return out


def ref_asymptotic(tables, w, eps, tau):
    n = len(w)
    out = {}
    for kind, table in tables.items():
        m = np.zeros((n, n), dtype=complex)
        for (i, j), tones in table.items():
            res = resonance(w, kind, i, j)
            for wt, amp in tones:
                m[i, j] += amp * np.sqrt(np.pi) * tau * np.exp(
                    -0.25 * (res - wt) ** 2 * tau ** 2)
        out[kind] = eps * m
    np.fill_diagonal(out["alpha"], 1.0)
    return out


def ref_scan(tables, w, eps, window, floor_rel=1e-10):
    amps = [abs(a) for table in tables.values()
            for tones in table.values() for _, a in tones]
    floor = floor_rel * max(amps) if amps else 0.0
    out = {}
    for kind, table in tables.items():
        for (i, j), tones in table.items():
            if (kind == "alpha" and i == j) or (kind == "beta" and j < i):
                continue
            res = resonance(w, kind, i, j)
            rate = sum(a for wt, a in tones if abs(wt - res) < window)
            if abs(rate) > floor:
                out[(kind, i, j)] = eps * rate
    return out


def ref_reduce(tables, w, freq_rtol=1e-9):
    out = {}
    for kind, table in tables.items():
        for (i, j), tones in table.items():
            if kind == "alpha" and i == j:
                continue
            res = resonance(w, kind, i, j)
            for wt, amp in tones:
                if abs(wt - res) <= freq_rtol * (1.0 + abs(res)):
                    key = (kind, i, j, wt)
                    out[key] = out.get(key, 0.0) + amp
    return out


# ---------------------------------------------------------------------------
# couplings: mode form (base x profile) and random per-channel tone tables


def profile_tables(dc):
    """Per-channel tones of a base-times-profile coupling, as first built."""
    n = dc.n_modes
    return {kind: {(i, j): tuple((wt, c * base[i, j])
                                 for wt, c in dc.profile.tones)
                   for i in range(n) for j in range(n) if base[i, j] != 0}
            for kind, base in (("alpha", dc.base_alpha),
                               ("beta", dc.base_beta))}


def random_tables(basis, rng):
    """Several tones per channel; some resonant, some far detuned, and
    some sharing a frequency within the channel."""
    w = basis.omegas
    n = basis.n_modes
    tables = {"alpha": {}, "beta": {}}
    for kind in tables:
        for i in range(n):
            for j in range(n):
                res = resonance(w, kind, i, j)
                tones = [(res + rng.uniform(-30.0, 30.0),
                          rng.normal() + 1j * rng.normal())
                         for _ in range(3)]
                if (i + j) % 3 == 0:
                    tones.append((res, rng.normal() + 1j * rng.normal()))
                if (i + j) % 2 == 0:
                    tones.append((tones[-1][0], rng.normal() + 1j * rng.normal()))
                tables[kind][(i, j)] = tuple(tones)
    return tables


@pytest.fixture
def couplings(rng):
    out = []
    for tau in (None, 20.0 / CFG.wave_frequency() * 2 * np.pi):
        cfg = GwCavityConfig(lengths=CFG.lengths, epsilon=CFG.epsilon,
                             tau=tau, n_modes_per_axis=(2, 2, 2))
        dc = gw_delta_coupling(cfg)
        out.append((dc, profile_tables(dc)))
    basis = out[0][0].basis
    for tau in (None, 3.0):
        tables = random_tables(basis, rng)
        profile = sin_profile(1.0, tau) if tau is not None else None
        dc = DeltaCoupling(basis=basis, epsilon=1e-4, profile=profile,
                           tones_alpha=tables["alpha"],
                           tones_beta=tables["beta"])
        out.append((dc, tables))
    return out


def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= RTOL * np.max(np.abs(ref))


def test_tone_windows_match_reference(couplings):
    for dc, tables in couplings:
        w = dc.basis.omegas
        spans = [(0.0, 40.0), (-3.0, 7.5)]
        if dc.tau is not None:
            spans.append((-3.0 * dc.tau, 3.0 * dc.tau))
        for t0, tf in spans:
            ref = ref_window(tables, w, dc.epsilon, dc.tau, t0, tf)
            got = window_coefficients(dc, dc.basis, t0, tf, method="tones")
            assert_close(got.alpha, ref["alpha"])
            assert_close(got.beta, ref["beta"])


def test_asymptotic_coefficients_match_reference(couplings):
    for dc, tables in couplings:
        if dc.tau is None:
            continue
        ref = ref_asymptotic(tables, dc.basis.omegas, dc.epsilon, dc.tau)
        got = asymptotic_coefficients(dc, dc.basis)
        assert_close(got.alpha, ref["alpha"])
        assert_close(got.beta, ref["beta"])


def test_scan_rates_match_reference(couplings):
    for dc, tables in couplings:
        labels = dc.basis.labels
        for window in (1e-6, 5.0):
            ref = ref_scan(tables, dc.basis.omegas, dc.epsilon, window)
            report = resonance_scan(dc, dc.basis, window)
            got = {(e.kind, labels.index(e.n), labels.index(e.m)): e.rate
                   for e in report}
            assert set(got) == set(ref)
            assert len(report) == len(ref)
            keys = sorted(ref)
            assert_close(np.array([got[k] for k in keys]),
                         np.array([ref[k] for k in keys]))
            rates = [abs(e.rate) for e in report]
            assert rates == sorted(rates, reverse=True)


def test_equivalence_reduce_matches_reference(couplings):
    for dc, tables in couplings:
        ref = ref_reduce(tables, dc.basis.omegas)
        red = equivalence_reduce(dc, dc.basis)
        n = dc.n_modes
        got = {(kind, i, j, wt): amp
               for kind in ("alpha", "beta")
               for i in range(n) for j in range(n)
               for wt, amp in red.channel_tones(kind, i, j)}
        assert set(got) == set(ref)
        keys = sorted(ref)
        assert_close(np.array([got[k] for k in keys]),
                     np.array([ref[k] for k in keys]))
        assert red.tau == dc.tau

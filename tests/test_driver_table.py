"""The driver tables of evolve_U/evolve_Q against the direct evolution.

``direct`` runs an evolution the way bogoflow ran it before driver tables:
the driver is evaluated at t0 and at every distinct right-hand-side time.
The table samples the driver on Chebyshev panels instead.  Both runs step
with the same DOPRI5 solver at the same tolerance, so they agree to a few
tol.
"""

import time

import numpy as np
import pytest

from bogoflow import BoundarySpec, Domain, SyncSpacetime, evolution, flrw_torus
from bogoflow.coupling import InstantaneousFamily, quadrature_driver
from bogoflow.evolution import (DriverTable, LastCall, evolve_Q, evolve_U,
                                _standard_chop, static_driver)
from bogoflow.spectral import OperatorSpec


class DirectDriver:
    """The per-right-hand-side driver loop that the tables replaced."""

    def __init__(self, driver, t0, t1, tol):
        self.drive = LastCall(lambda t: evolution._unpack(driver(t)))
        self.n = len(self.drive(t0)[0])

    def __call__(self, t):
        return self.drive(t)

    def stats(self):
        return {"driver_calls": self.drive.calls}


@pytest.fixture
def direct(monkeypatch):
    def run(evolve, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(evolution, "DriverTable", DirectDriver)
            return evolve(*args, **kwargs)
    return run


def difference(a, b):
    """Largest difference of two evolve_Q results (Q blocks and phases)
    or two evolve_U results."""
    if isinstance(a, tuple):
        return max(difference(a[0], b[0]),
                   float(np.max(np.abs(a[1].log_phase - b[1].log_phase))))
    return float(max(np.max(np.abs(a.alpha - b.alpha)),
                     np.max(np.abs(a.beta - b.beta))))


def grid_metric(fn):
    return lambda t, pts: fn(t, np.asarray(pts, dtype=float)[:, 0])[
        :, None, None]


def slice_driver(h, h_dot, n_modes, t_ref=0.0, dt=None):
    """quadrature_driver of a Galerkin family on a 1D Dirichlet interval, mass 1."""
    st = SyncSpacetime(Domain((1.0,), (False,)), grid_metric(h),
                       grid_metric(h_dot), mass=1.0,
                       boundary=BoundarySpec("dirichlet"))
    fam = InstantaneousFamily(OperatorSpec(boundary=st.boundary), st,
                              n_modes, t_ref=t_ref)
    return quadrature_driver(st, fam, dt=dt)


def probe_driver(n_modes):
    """The ROADMAP baseline probe: h_xx = 1 + 0.05 sin(pi x) sin(6t)."""
    return slice_driver(
        lambda t, x: 1.0 + 0.05 * np.sin(np.pi * x) * np.sin(6 * t),
        lambda t, x: 0.3 * np.sin(np.pi * x) * np.cos(6 * t), n_modes)


def recorded(driver, calls):
    def drive(t):
        calls.append(t)
        return driver(t)
    return drive


@pytest.mark.parametrize("n_modes, tol", [(4, 1e-8), (4, 1e-10),
                                          (16, 1e-8), (16, 1e-10)])
def test_table_matches_direct_run_on_baseline_probe(direct, n_modes, tol):
    drv = probe_driver(n_modes)
    table = evolve_Q(drv, 0.0, 0.5, tol=tol)
    ref = direct(evolve_Q, drv, 0.0, 0.5, tol=tol)
    assert difference(table, ref) <= 10 * tol
    assert table[0].meta["driver_calls"] <= ref[0].meta["driver_calls"] / 2
    assert table[0].meta["table_tail"] <= 1.0
    assert table[0].meta["symmetry_residual"] < 1e-12


def test_table_matches_direct_run_on_stencil_ramp(direct):
    """perfbench's fd_mixing op: couplings from the dt = 3e-5 stencil of
    Galerkin slices.  The table is one panel of 17 nodes, its floor, and
    every block of it resolves below its target: the slices carry no
    rounding noise that the chop would have to take for a plateau."""
    drv = slice_driver(
        lambda t, x: 1.0 + 0.1 * np.sin(np.pi * x) * (1.0 + np.tanh(t)),
        lambda t, x: 0.1 * np.sin(np.pi * x) / np.cosh(t) ** 2,
        4, t_ref=-0.25, dt=3e-5)
    tol = 1e-8
    table = evolve_Q(drv, -0.25, 0.25, tol=tol)
    ref = direct(evolve_Q, drv, -0.25, 0.25, tol=tol)
    assert difference(table, ref) <= 10 * tol
    meta = table[0].meta
    assert (meta["driver_calls"], meta["table_panels"]) == (17, 1)
    # the direct run makes 32 calls, so the floor of 17 bounds the ratio;
    # half the direct calls, reachable on the 37 of FD slices, is not
    assert meta["driver_calls"] <= 17 / 32 * ref[0].meta["driver_calls"]
    assert meta["table_unresolved"] == 0 and meta["table_tail"] <= 1.0


def test_table_matches_direct_run_on_separable_torus(direct):
    a = lambda t: np.sqrt(2.5 + 1.5 * np.tanh(t))
    st = flrw_torus(a, None, length=1000.0, mass=0.1)
    drv = quadrature_driver(st, InstantaneousFamily(
        OperatorSpec(boundary=st.boundary), st, 5))
    tol = 1e-10
    for evolve in (evolve_Q, evolve_U):
        table = evolve(drv, -2.0, 2.0, tol=tol)
        ref = direct(evolve, drv, -2.0, 2.0, tol=tol)
        assert difference(table, ref) <= 10 * tol


def test_interpolant_keeps_coupling_symmetries_between_nodes(rng):
    """Between the nodes, ahat = -ahat^H and bhat = bhat^T hold as well as
    they hold at the nodes, to rounding."""
    table = DriverTable(probe_driver(4), 0.0, 0.5, 1e-8)
    nodes = table.symmetry_residual
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    exact = DriverTable(lambda t: (np.array([1.0, 2.0, 3.0]),
                                   ((a - a.conj().T) * np.cos(3 * t),
                                    (b + b.T) * np.sin(3 * t))),
                        0.0, 2.0, 1e-10)
    for t in rng.uniform(0.0, 0.5, 10):
        _, ah, bh = table(t)
        scale = max(np.max(np.abs(ah)), np.max(np.abs(bh)))
        assert np.max(np.abs(ah + ah.conj().T)) <= 4 * nodes + 1e-14 * scale
        assert np.max(np.abs(bh - bh.T)) <= 4 * nodes + 1e-14 * scale
        _, ah, bh = exact(4 * t)
        assert np.max(np.abs(ah + ah.conj().T)) <= 1e-15 * np.max(np.abs(ah))
        assert np.max(np.abs(bh - bh.T)) <= 1e-15 * np.max(np.abs(bh))


def test_static_driver_resolves_on_one_17_node_panel():
    for evolve in (evolve_Q, evolve_U):
        out = evolve(static_driver([1.0, 2.0, 3.0]), 0.0, 5.0, tol=1e-12)
        meta = (out[0] if evolve is evolve_Q else out).meta
        assert (meta["driver_calls"], meta["table_panels"]) == (17, 1)


def test_backward_run_and_last_sample_before_tf(direct):
    """A backward run tabulates [tf, t0] from t0 on; with ``t_eval`` the
    table ends on the last sample, however far tf lies beyond it, and is
    the sample at t0 alone when no sample lies past t0."""
    drv = probe_driver(4)
    tol = 1e-8
    calls = []
    back = evolve_Q(recorded(drv, calls), 0.5, 0.0, tol=tol)
    assert calls[0] == 0.5 and (min(calls), max(calls)) == (0.0, 0.5)
    assert difference(back, direct(evolve_Q, drv, 0.5, 0.0, tol=tol)) \
        <= 10 * tol
    calls.clear()
    early = evolve_U(recorded(drv, calls), 0.0, 2.0, tol=tol,
                     t_eval=[0.2, 0.4])
    assert calls[0] == 0.0 and max(calls) == 0.4
    ref = direct(evolve_U, drv, 0.0, 2.0, tol=tol, t_eval=[0.2, 0.4])
    assert max(difference(u, r) for u, r in zip(early, ref)) <= 10 * tol
    calls.clear()
    (u,) = evolve_U(recorded(drv, calls), 0.0, 2.0, tol=tol, t_eval=[0.0])
    assert calls == [0.0] and u.meta["driver_calls"] == 1
    assert np.array_equal(u.alpha, np.eye(4)) and not np.any(u.beta)


def test_unresolved_panel_is_kept_and_reported():
    """A kink never chops: its panel is halved down to the depth cap, kept,
    and reported by a tail above 1 and in ``table_unresolved``; the run
    goes on."""
    zero = np.zeros((2, 2), dtype=complex)
    driver = lambda t: (np.array([1.0 + abs(t - 0.3), 2.0]), (zero, zero))
    q, acc = evolve_Q(driver, 0.0, 1.0, tol=1e-10)
    assert q.meta["table_tail"] > 1.0
    assert q.meta["table_unresolved"] >= 1
    # int_0^1 (1 + |t - 0.3|) dt = 1 + (0.3^2 + 0.7^2) / 2; the stepper
    # itself errs by 1.5e-8 here on the direct driver, the table by 1e-8
    assert abs(acc.log_phase[0] - 1.29j) < 1e-7


def test_meta_times_the_table_and_the_stepper():
    """``table_s`` and ``stepper_s`` are wall times inside the call."""
    for evolve in (evolve_Q, evolve_U):
        start = time.perf_counter()
        out = evolve(probe_driver(4), 0.0, 0.5, tol=1e-8)
        wall = time.perf_counter() - start
        meta = (out[0] if evolve is evolve_Q else out).meta
        assert meta["table_s"] >= 0.0 and meta["stepper_s"] >= 0.0
        assert meta["table_s"] + meta["stepper_s"] <= wall


def test_standard_chop_cases():
    """A series decaying fast chops where it reaches tol; one that levels
    off in a plateau of noise chops at the plateau, also above tol, but
    not far above it; one still decaying slowly at its end does not."""
    k = np.arange(50)
    assert _standard_chop(10.0 ** -k.astype(float), 1e-8) < 12
    halving = 2.0 ** -k.astype(float)
    assert _standard_chop(np.maximum(halving, 1e-9), 1e-7) < 30
    assert _standard_chop(np.maximum(halving, 1e-6), 1e-8) < 25
    assert _standard_chop(np.maximum(halving, 1e-4), 1e-8) == len(k)
    assert _standard_chop(1.0 / (1.0 + k) ** 2, 1e-10) == len(k)

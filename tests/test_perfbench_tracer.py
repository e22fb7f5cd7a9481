"""Smoke test of the benchmark's layer tracer (perfbench/tracer.py).

The tracer wraps bogoflow's public functions by name from outside the
program, so an API change can break ``perfbench/run.py --trace 1`` without
failing any library test.  One traced stencil driver call catches that, and
one traced default-path call on a Galerkin family counts its single
eigensolve.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

LAYER_MODULES = ("bogoflow", "bogoflow.kernels", "bogoflow.integrators",
                 "bogoflow.evolution", "bogoflow.coupling",
                 "bogoflow.spectral", "bogoflow.perturbation",
                 "bogoflow.quadrature", "bogoflow.scenarios",
                 "bogoflow.scenarios.flrw", "bogoflow.scenarios.gw_cavity",
                 "bogoflow.cli")


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_stencil_driver_call():
    for name in LAYER_MODULES:
        importlib.import_module(name)
    from bogoflow import coupling, flrw_torus, spectral
    tracing = load_tracer()

    a = lambda t: np.sqrt(2.5 + 1.5 * np.tanh(t))
    st = flrw_torus(a, None, length=1000.0, mass=0.1)
    fam = coupling.InstantaneousFamily(
        spectral.OperatorSpec(boundary=st.boundary), st, 3)
    originals = (coupling.coupling_matrices, spectral.SliceContext.gram)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        coupling.quadrature_driver(st, fam, dt=1e-4)(0.3)
    finally:
        tracer.uninstall()
    m = tracing.op_metrics(tracer.take())

    assert m["coupling.driver_calls"] == 1
    assert m["coupling.stencil_calls"] == 1
    assert m["spectral.basis_solves"] == 3
    assert m["spectral.align_calls"] == 3
    assert (coupling.coupling_matrices, spectral.SliceContext.gram) == originals


def test_tracer_counts_one_default_path_fd_driver_call():
    for name in LAYER_MODULES:
        importlib.import_module(name)
    from bogoflow import coupling, geometry, spectral
    tracing = load_tracer()

    def metric(fn):
        return lambda t, pts: fn(t, np.asarray(pts)[:, 0])[:, None, None]

    st = geometry.SyncSpacetime(
        geometry.Domain((1.0,), (False,)),
        metric(lambda t, x: 1.0 + 0.05 * np.sin(np.pi * x) * np.sin(6 * t)),
        metric(lambda t, x: 0.3 * np.sin(np.pi * x) * np.cos(6 * t)),
        mass=1.0, boundary=geometry.BoundarySpec("dirichlet"))
    fam = coupling.InstantaneousFamily(
        spectral.OperatorSpec(boundary=st.boundary), st, 4)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        coupling.quadrature_driver(st, fam)(0.3)
    finally:
        tracer.uninstall()
    m = tracing.op_metrics(tracer.take())

    assert m["coupling.driver_calls"] == 1
    assert m["spectral.basis_solves"] == 1
    assert m["spectral.align_calls"] == 1


def test_tracer_times_one_gw_mode_form_coupling():
    """gw_resonance's per-layer coupling metric reads the span named
    after ``delta_coupling_from_modes``; its one Gram is the plain S0."""
    for name in LAYER_MODULES:
        importlib.import_module(name)
    from bogoflow import scenarios
    tracing = load_tracer()

    cfg = scenarios.GwCavityConfig(n_modes_per_axis=(3, 3, 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scenarios.gw_delta_coupling(cfg)
    finally:
        tracer.uninstall()
    m = tracing.op_metrics(tracer.take())

    assert m["perturbation.coupling_s"] > 0
    assert m["spectral.gram_calls"] == 1

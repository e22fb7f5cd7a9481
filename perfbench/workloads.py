"""The four benchmark workloads: their inputs, operations and checks.

Each workload picks one input from a fixed set by its seed, builds it in
``__init__`` (this is the set-up the benchmark times), and offers a round of
operations.  Every operation is an in-process call to a public entry point
of bogoflow.  Its outputs are checked against values computed here, apart
from the program: closed forms, or scipy integrations of the decoupled pair
equations.  Nothing is compared against stored program output.

bogoflow functions are always reached through their module
(``cli.main``, ``evolution.evolve_Q``, ...) at call time, so that the
tracer's wrappers see every call the benchmark makes.
"""

import contextlib
import io
import json
import math
import os
import random
import re

import numpy as np

from bogoflow import cli, coupling, errors, evolution, geometry
from bogoflow import perturbation, scenarios, spectral


class OpFailed(Exception):
    """An operation ended without a result (nonzero CLI exit code)."""


class Op:
    """One operation of a round.  A probe op names in ``fails_with`` the
    exception of the program fault it reproduces."""

    def __init__(self, name, run, check, fails_with=None):
        self.name = name
        self.run = run
        self.check = check
        self.fails_with = fails_with

    @property
    def probe(self):
        return self.fails_with is not None


def _cli_run(config_path, out_dir):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["run", config_path, "--output-dir", out_dir])
    if code != 0:
        raise OpFailed(f"bogoflow run exited with {code}")
    return code


def _read_csv(path):
    """Columns by name.  Header names may hold commas inside parentheses
    (``abs_beta_(1,1,1)_(1,1,1)``), so the header is split around them."""
    with open(path) as fh:
        header = re.findall(r"(?:[^,(]|\([^)]*\))+", fh.readline().strip())
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {len(header)} names, {data.shape[1]} columns")
    return {name: data[:, i] for i, name in enumerate(header)}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def bogoliubov_residual(alpha, beta):
    """Largest violation of alpha alpha^+ - beta beta^+ = 1, alpha beta^T = (alpha beta^T)^T."""
    eye = np.eye(alpha.shape[0])
    r1 = alpha @ alpha.conj().T - beta @ beta.conj().T - eye
    r2 = alpha @ beta.T - beta @ alpha.T
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def pair_beta_reference(h, h_dot, k, mass, t0, t_samples, rtol=1e-12,
                        atol=1e-13):
    """|beta(t)| of one decoupled mode pair on a spatially uniform 1D metric h(t).

    A mode of wavenumber k has frequency w = sqrt(k^2/h + m^2) and, in the
    instantaneous basis, the normalization (2 w sqrt(h))^(-1/2).  Its
    log-derivative b = -(q + w'/w)/2 with q = h'/(2h) couples the pair:

        qa' = b e^{-2i phi} conj(qb),  qb' = b e^{-2i phi} conj(qa),  phi' = w

    from qa = 1, qb = 0 at t0.  Integrated here with scipy's DOP853.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        hv, hd = h(t), h_dot(t)
        w = math.sqrt(k * k / hv + mass * mass)
        w_dot = -k * k * hd / (2.0 * hv * hv * w)
        b = -0.25 * hd / hv - w_dot / (2.0 * w)
        rot = b * complex(math.cos(2.0 * y[4]), -math.sin(2.0 * y[4]))
        dqa = rot * complex(y[2], -y[3])
        dqb = rot * complex(y[0], -y[1])
        return [dqa.real, dqa.imag, dqb.real, dqb.imag, w]

    t_samples = np.asarray(t_samples, dtype=float)
    sol = solve_ivp(rhs, (t0, float(t_samples[-1])), [1.0, 0.0, 0.0, 0.0, 0.0],
                    method="DOP853", t_eval=t_samples, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return np.hypot(sol.y[2], sol.y[3])


class Workload:
    """Base: seed-chosen input, a round of ops, per-op and per-run checks."""

    name = ""
    variants = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.variant = random.Random(seed).choice(self.variants)

    def round(self):
        raise NotImplementedError

    def final_checks(self):
        """Checks made once per run, outside the timed ops."""
        return []


# ---------------------------------------------------------------------------
# flrw_pairs


class FlrwPairs(Workload):
    """``bogoflow run`` of a fig2-family flrw config."""

    name = "flrw_pairs"
    # (A, B, rho, m, L): a(eta)^2 = A + B tanh(rho eta) on a torus of length L
    variants = (
        (2.5, 1.5, 1.0, 0.1, 1000.0),
        (2.0, 1.0, 1.0, 0.1, 1000.0),
        (3.0, 2.0, 1.0, 0.1, 1000.0),
        (2.5, 1.5, 1.0, 0.12, 1000.0),
        (2.5, 1.5, 1.0, 0.1, 800.0),
        (2.2, 1.2, 1.0, 0.1, 1000.0),
        (2.5, 1.5, 1.2, 0.1, 1000.0),
    )
    tol = 1e-10
    n_max = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        A, B, rho, m, L = self.variant
        self.params = dict(A=A, B=B, rho=rho, m=m, L=L)
        cfg = {"scenario": "flrw",
               "flrw": {**self.params, "n_max": self.n_max,
                        "eta_span": [-10.0, 10.0], "tol": self.tol},
               "tolerances": {"oracle_rtol": 0.01},
               "output": {"path": "flrw", "format": "csv"}, "seed": seed}
        self.config = _write_json(os.path.join(workdir, "flrw_cfg.json"), cfg)

    def closed_form_beta2(self, n):
        """Asymptotic |beta|^2 for a(eta)^2 = A + B tanh(rho eta) (Birrell-Davies)."""
        p = self.params
        k = 2.0 * math.pi * n / p["L"]
        w_in = math.sqrt(k * k + p["m"] ** 2 * (p["A"] - p["B"]))
        w_out = math.sqrt(k * k + p["m"] ** 2 * (p["A"] + p["B"]))
        w_minus = 0.5 * (w_out - w_in)
        r = p["rho"]
        return (math.sinh(math.pi * w_minus / r) ** 2
                / (math.sinh(math.pi * w_in / r) * math.sinh(math.pi * w_out / r)))

    def _op(self):
        return _cli_run(self.config, self.workdir)

    def _check(self, _):
        cols = _read_csv(os.path.join(self.workdir, "flrw.csv"))
        problems = []
        for n in range(0, self.n_max + 1):
            beta2 = cols[f"beta2_n{n}"]
            alpha2 = cols[f"alpha2_n{n}"]
            expect = self.closed_form_beta2(n)
            miss = abs(beta2[-1] - expect) / expect
            if miss > 0.01:
                problems.append(f"n={n}: final |beta|^2 {beta2[-1]:.6e} vs "
                                f"closed form {expect:.6e} ({miss:.2e})")
            ident = float(np.max(np.abs(alpha2 - 1.0 - beta2)))
            if ident > 100 * self.tol:
                problems.append(f"n={n}: pair identity residual {ident:.2e}")
        if len(cols["t"]) != 600:
            problems.append(f"{len(cols['t'])} CSV rows, expected 600")
        return problems

    def round(self):
        return [Op("flrw_run", self._op, self._check)]


# ---------------------------------------------------------------------------
# gw_resonance


class GwResonance(Workload):
    """``bogoflow run`` of gw_cavity at 3x3x3, then a numeric Gaussian window."""

    name = "gw_resonance"
    variants = (5e-6, 1e-5, 2e-5, 4e-5)          # wave amplitude epsilon
    lengths = (1.0, 2.0, 1.0)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        eps = self.variant
        self.eps = eps
        cfg = {"scenario": "gw_cavity",
               "gw_cavity": {"lengths": list(self.lengths), "epsilon": eps,
                             "n_modes_per_axis": [3, 3, 3], "tol": 1e-10},
               "output": {"path": "gw", "format": "csv"}, "seed": seed}
        self.config = _write_json(os.path.join(workdir, "gw_cfg.json"), cfg)
        kx, ky, kz = (math.pi / L for L in self.lengths)
        self.kx2, self.ky2 = kx * kx, ky * ky
        self.w0 = math.sqrt(kx * kx + ky * ky + kz * kz)
        # the Gaussian-envelope cavity of acceptance criterion 3
        self.omega = 2.0 * self.w0
        self.tau = 25.0 / self.omega * 2.0 * math.pi
        gauss = scenarios.GwCavityConfig(lengths=self.lengths, epsilon=eps,
                                         tau=self.tau,
                                         n_modes_per_axis=(2, 2, 2))
        self.gauss_dc = scenarios.gw_delta_coupling(gauss)

    def rate(self):
        """Resonant (1,1,1) pair rate eps (kx^2 - ky^2) / (4 w0)."""
        return self.eps * (self.kx2 - self.ky2) / (4.0 * self.w0)

    def gaussian_beta(self):
        """Closed-form whole-line beta_(111)(111) under the Gaussian envelope."""
        w0, om, tau = self.w0, self.omega, self.tau
        return (self.eps * math.sqrt(math.pi) * (self.kx2 - self.ky2)
                / (4.0 * w0) * tau
                * (math.exp(-(om - 2 * w0) ** 2 * tau ** 2 / 4)
                   - math.exp(-(om + 2 * w0) ** 2 * tau ** 2 / 4)))

    def _op(self):
        _cli_run(self.config, self.workdir)
        dc = self.gauss_dc
        return perturbation.window_coefficients(dc, dc.basis, -5 * self.tau,
                                                5 * self.tau,
                                                method="quadrature")

    def _check(self, windowed):
        problems = []
        with open(os.path.join(self.workdir, "gw.json")) as fh:
            record = json.load(fh)
        expect = self.rate()
        entry = [e for e in record["resonances"]
                 if e["kind"] == "beta" and e["n"] == [1, 1, 1]
                 and e["m"] == [1, 1, 1]]
        if len(entry) != 1:
            return ["no (1,1,1) beta resonance reported"]
        got = abs(complex(entry[0]["rate_re"], entry[0]["rate_im"]))
        if abs(got - expect) > 1e-10 * expect:
            problems.append(f"rate {got:.12e} vs {expect:.12e}")
        cols = _read_csv(os.path.join(self.workdir, "gw.csv"))
        series = cols["abs_beta_(1,1,1)_(1,1,1)"]
        slope = float(np.polyfit(cols["t"], series, 1)[0])
        if abs(slope - expect) > 0.005 * expect:
            problems.append(f"growth slope {slope:.6e} vs {expect:.6e}")
        i = self.gauss_dc.basis.labels.index((1, 1, 1))
        got_w = abs(windowed.beta[i, i])
        closed = abs(self.gaussian_beta())
        if abs(got_w - closed) > 0.01 * closed:
            problems.append(f"Gaussian window {got_w:.6e} vs {closed:.6e}")
        return problems

    def round(self):
        return [Op("gw_run_and_window", self._op, self._check)]


# ---------------------------------------------------------------------------
# dense_evolution


class DenseEvolution(Workload):
    """``bogoflow run`` of custom on a 1D torus with 41 modes (dense evolve_Q)."""

    name = "dense_evolution"
    # (amplitude, t0): h_xx = 1 + amplitude sin(2 t) on [t0, t0 + 10]
    variants = tuple((a, t0) for a in (0.1, -0.1, 0.08, -0.08)
                     for t0 in (0.0, math.pi))
    tol = 1e-10
    frequency = 2.0
    mass = 1.0
    length = 1.0
    n_modes = 41
    ref_pairs = (1, 2, 5)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amp, self.t0 = self.variant
        self.tf = self.t0 + 10.0
        cfg = {"scenario": "custom",
               "custom": {"lengths": [self.length], "periodic": [True],
                          "mass": self.mass, "base_scales": [1.0],
                          "amplitudes": [self.amp],
                          "frequency": self.frequency,
                          "n_modes": self.n_modes, "t0": self.t0,
                          "tf": self.tf, "tol": self.tol, "n_samples": 100},
               "output": {"path": "dense", "format": "csv"}, "seed": seed}
        self.config = _write_json(os.path.join(workdir, "dense_cfg.json"), cfg)
        self.series = None

    def _op(self):
        return _cli_run(self.config, self.workdir)

    def _check(self, _):
        problems = []
        with open(os.path.join(self.workdir, "dense.json")) as fh:
            record = json.load(fh)
        res = record["identity_residuals"]["final"]
        if not res <= 100 * self.tol:
            problems.append(f"identity residual {res:.2e}")
        cols = _read_csv(os.path.join(self.workdir, "dense.csv"))
        if len([c for c in cols if c.startswith("alpha2_")]) != self.n_modes:
            problems.append("CSV does not hold every mode")
        self.series = (cols["t"],
                       {n: cols[f"beta_max_({n},)"] for n in self.ref_pairs})
        return problems

    def final_checks(self):
        if self.series is None:
            return ["no successful op to compare"]
        t, got = self.series
        a, f = self.amp, self.frequency
        problems = []
        for n in self.ref_pairs:
            ref = pair_beta_reference(lambda s: 1.0 + a * math.sin(f * s),
                                      lambda s: a * f * math.cos(f * s),
                                      2.0 * math.pi * n / self.length,
                                      self.mass, self.t0, t)
            miss = float(np.max(np.abs(got[n] - ref)))
            # both integrations run at tolerances <= tol; measured: < 1e-9
            if miss > 100 * self.tol:
                problems.append(f"pair n={n}: |beta| differs from the "
                                f"DOP853 reference by {miss:.2e}")
        return problems

    def round(self):
        return [Op("custom_run", self._op, self._check)]


# ---------------------------------------------------------------------------
# fd_mixing


def _dirichlet_1d(h, h_dot, t_check):
    dom = geometry.Domain((1.0,), (False,))
    return geometry.SyncSpacetime(dom, h, h_dot, mass=1.0,
                                  boundary=geometry.BoundarySpec("dirichlet"),
                                  check_times=(t_check,))


def _grid_metric(fn):
    """Lift f(t, x) on the x-grid to the (npts, 1, 1) metric array."""
    return lambda t, pts: fn(t, np.asarray(pts, dtype=float)[:, 0])[:, None, None]


class FdMixing(Workload):
    """Library-level mode-mixing evolution on a finite-difference cavity.

    h_xx = 1 + s 0.2 sin(pi x) (1 + tanh(t - tc))/2 on t in tc + [-0.25, 0.25],
    4 FD modes at the default 1024 points, stencil step 3e-5, tol 1e-8.
    Each round also attempts the probe: ``quadrature_driver`` at its default
    stencil step on h_xx = 1 + 0.05 sin(pi x) sin(6 t), which raises
    SymmetryViolation on its first call.
    """

    name = "fd_mixing"
    variants = tuple((s, tc) for s in (1.0, -1.0) for tc in (0.0, 0.5, 1.0, 2.0))
    tol = 1e-8
    stencil_dt = 3e-5
    n_modes = 4
    ramp = 0.2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        sign, tc = self.variant
        self.sign, self.tc = sign, tc
        self.t0, self.tf = tc - 0.25, tc + 0.25
        amp = sign * self.ramp

        self.st = _dirichlet_1d(
            _grid_metric(lambda t, x: 1.0 + amp * np.sin(np.pi * x)
                         * (1.0 + np.tanh(t - tc)) / 2.0),
            _grid_metric(lambda t, x: amp * np.sin(np.pi * x)
                         / (2.0 * np.cosh(t - tc) ** 2)),
            tc)
        op = spectral.OperatorSpec(boundary=self.st.boundary)
        self.family = coupling.InstantaneousFamily(op, self.st, self.n_modes,
                                                   t_ref=self.t0)

        self.probe_st = _dirichlet_1d(
            _grid_metric(lambda t, x: 1.0 + 0.05 * np.sin(np.pi * x)
                         * np.sin(6.0 * t)),
            _grid_metric(lambda t, x: 0.3 * np.sin(np.pi * x)
                         * np.cos(6.0 * t)),
            0.0)
        self.probe_family = coupling.InstantaneousFamily(
            spectral.OperatorSpec(boundary=self.probe_st.boundary),
            self.probe_st, self.n_modes, t_ref=0.0)

    def _op(self):
        drive = coupling.quadrature_driver(self.st, self.family,
                                           dt=self.stencil_dt)
        q, _ = evolution.evolve_Q(drive, self.t0, self.tf, tol=self.tol)
        return q

    def _check(self, q):
        problems = []
        res = bogoliubov_residual(q.alpha, q.beta)
        if res > 100 * self.tol:
            problems.append(f"Bogoliubov identity residual {res:.2e}")
        off = q.beta - np.diag(np.diagonal(q.beta))
        if not np.max(np.abs(off)) > 1e-6:
            problems.append("no mode mixing in beta")
        return problems

    def _probe(self):
        drive = coupling.quadrature_driver(self.probe_st, self.probe_family)
        q, _ = evolution.evolve_Q(drive, 0.0, 0.5, tol=self.tol)
        return q

    def final_checks(self):
        """The same FD path on a spatially uniform ramp vs the pair equations."""
        tc, amp = self.tc, self.sign * self.ramp

        def h(t):
            return 1.0 + amp * (1.0 + math.tanh(t - tc)) / 2.0

        def h_dot(t):
            return amp / (2.0 * math.cosh(t - tc) ** 2)

        st = _dirichlet_1d(_grid_metric(lambda t, x: np.full_like(x, h(t))),
                           _grid_metric(lambda t, x: np.full_like(x, h_dot(t))),
                           tc)
        fam = coupling.InstantaneousFamily(
            spectral.OperatorSpec(boundary=st.boundary), st, self.n_modes,
            t_ref=self.t0)
        drive = coupling.quadrature_driver(st, fam, dt=self.stencil_dt)
        q, _ = evolution.evolve_Q(drive, self.t0, self.tf, tol=self.tol)
        problems = []
        got = np.abs(np.diagonal(q.beta))
        for i in range(self.n_modes):
            ref = pair_beta_reference(h, h_dot, (i + 1) * math.pi, 1.0,
                                      self.t0, [self.tf])[-1]
            # FD eigenvalues at 1024 points are off by (k dx)^2/12 <= 1.3e-5
            # relative; the ODE tolerance adds an absolute error of a few tol
            if abs(got[i] - ref) > 1e-4 * ref + 10 * self.tol:
                problems.append(f"uniform ramp mode {i}: |beta| {got[i]:.8e} "
                                f"vs pair reference {ref:.8e}")
        off = np.max(np.abs(q.beta - np.diag(np.diagonal(q.beta))))
        if off > 1e-4 * np.max(got):
            problems.append(f"uniform ramp mixes modes: {off:.2e}")
        return problems

    def round(self):
        return [Op("mixing_evolution", self._op, self._check),
                Op("default_stencil_probe", self._probe, self._check,
                   fails_with=errors.SymmetryViolation)]


WORKLOADS = {w.name: w for w in (FlrwPairs, GwResonance, DenseEvolution,
                                 FdMixing)}

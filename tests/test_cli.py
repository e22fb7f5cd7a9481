import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bogoflow
from bogoflow import cli
from bogoflow.errors import StepFailure

FLRW_BLOCK = {"A": 2.5, "B": 1.5, "rho": 1.0, "m": 0.1, "L": 1000.0,
              "n_max": 2, "eta_span": [-10, 10], "tol": 1e-10}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def flrw_config(**extra):
    cfg = {"scenario": "flrw", "flrw": dict(FLRW_BLOCK),
           "output": {"path": "out", "format": "csv"}, "seed": 3}
    cfg.update(extra)
    return cfg


def test_run_writes_csv_and_json(tmp_path):
    path = write_config(tmp_path, flrw_config(
        tolerances={"oracle_rtol": 0.01}))
    assert cli.run(path, output_dir=tmp_path) == 0
    record = json.loads((tmp_path / "out.json").read_text())
    assert record["scenario"] == "flrw"
    assert record["oracle"]["max_rel_mismatch"] < 0.01
    assert record["convergence"]["converged"]
    header = (tmp_path / "out.csv").read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "beta2_n1" in header and "oracle_beta2_n1" in header
    assert "alpha2_n2" in header
    # config hash matches the canonicalized input
    raw = json.loads(path.read_text())
    expect = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert record["config_hash"] == expect


def test_run_is_deterministic(tmp_path):
    path = write_config(tmp_path, flrw_config())
    assert cli.run(path, output_dir=tmp_path / "a") == 0
    assert cli.run(path, output_dir=tmp_path / "b") == 0
    body_a = (tmp_path / "a" / "out.csv").read_bytes()
    body_b = (tmp_path / "b" / "out.csv").read_bytes()
    assert body_a == body_b


def test_run_invalid_config_exits_1(tmp_path, capsys):
    bad = flrw_config()
    bad["flrw"]["A"] = 1.0      # A < |B| breaks a(eta)^2 > 0
    path = write_config(tmp_path, bad)
    assert cli.run(path, output_dir=tmp_path) == 1
    assert "positive" in capsys.readouterr().err


NON_OBJECT_BLOCKS = [{"output": "res"}, {"tolerances": [1]}]


@pytest.mark.parametrize("extra", NON_OBJECT_BLOCKS)
def test_run_non_object_block_exits_1(tmp_path, capsys, extra):
    path = write_config(tmp_path, flrw_config(**extra))
    assert cli.run(path, output_dir=tmp_path) == 1
    assert "error: invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("extra", NON_OBJECT_BLOCKS)
def test_validate_non_object_block_fails(tmp_path, capsys, extra):
    path = write_config(tmp_path, flrw_config(**extra))
    assert cli.validate(path) == 0
    assert "FAIL: config structure" in capsys.readouterr().out


def custom_config(**fields):
    block = {"lengths": [1.0], "periodic": [True], "mass": 1.0,
             "amplitudes": [0.01], "n_modes": 3, "tf": 1.0}
    block.update(fields)
    return {"scenario": "custom", "custom": block,
            "output": {"path": "cust", "format": "csv"}}


BAD_TIMES = [("t0", "abc"), ("tf", "abc"), ("tol", "abc"),
             ("n_samples", "abc"), ("tf", None), ("n_samples", 1)]


@pytest.mark.parametrize("key, value", BAD_TIMES)
def test_run_custom_bad_time_field_exits_1(tmp_path, capsys, key, value):
    path = write_config(tmp_path, custom_config(**{key: value}))
    assert cli.run(path, output_dir=tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: invalid configuration" in err and repr(key) in err


@pytest.mark.parametrize("key, value", BAD_TIMES)
def test_validate_custom_bad_time_field_fails(tmp_path, capsys, key, value):
    path = write_config(tmp_path, custom_config(**{key: value}))
    assert cli.validate(path) == 0
    assert f"FAIL: scenario block invalid: custom {key!r}" \
        in capsys.readouterr().out


# h = base_scales (1 + amplitudes sin(frequency t)) must stay positive: the
# metric reaches zero at t = pi/2 < tf for an amplitude of -1
BAD_METRIC = [("base_scales", [-1.0]), ("base_scales", [0.0]),
              ("amplitudes", [-1.0]), ("amplitudes", [-1.5])]


@pytest.mark.parametrize("key, value", BAD_METRIC)
def test_run_custom_bad_metric_exits_1(tmp_path, capsys, key, value):
    path = write_config(tmp_path, custom_config(tf=2.0, **{key: value}))
    assert cli.run(path, output_dir=tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: invalid configuration" in err and repr(key) in err
    assert not (tmp_path / "cust.csv").exists()


@pytest.mark.parametrize("key, value", BAD_METRIC)
def test_validate_custom_bad_metric_fails(tmp_path, capsys, key, value):
    path = write_config(tmp_path, custom_config(tf=2.0, **{key: value}))
    assert cli.validate(path) == 0
    assert f"FAIL: scenario block invalid: custom {key!r}" \
        in capsys.readouterr().out


NON_NUMERIC = [("n_modes", "abc"), ("mass", "abc"), ("frequency", "x")]


@pytest.mark.parametrize("key, value", NON_NUMERIC)
def test_run_custom_non_numeric_field_exits_1(tmp_path, capsys, key, value):
    path = write_config(tmp_path, custom_config(**{key: value}))
    assert cli.run(path, output_dir=tmp_path) == 1
    assert "error: invalid configuration" in capsys.readouterr().err


ROBIN_CUSTOM = dict(periodic=[False], boundary="robin", robin_gamma=1.0)


def test_run_custom_robin_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, custom_config(**ROBIN_CUSTOM))
    assert cli.run(path, output_dir=tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: invalid configuration" in err and "robin" in err


def test_validate_custom_robin_fails(tmp_path, capsys):
    path = write_config(tmp_path, custom_config(**ROBIN_CUSTOM))
    assert cli.validate(path) == 0
    out = capsys.readouterr().out
    assert "FAIL: scenario block invalid" in out and "robin" in out


UNKNOWN_CUSTOM = [("robin_gamma", 1.0), ("amplitude", [0.01])]


@pytest.mark.parametrize("key, value", UNKNOWN_CUSTOM)
def test_run_custom_unknown_key_exits_1(tmp_path, capsys, key, value):
    path = write_config(tmp_path, custom_config(**{key: value}))
    assert cli.run(path, output_dir=tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: invalid configuration" in err and repr(key) in err
    assert not (tmp_path / "cust.csv").exists()


@pytest.mark.parametrize("key, value", UNKNOWN_CUSTOM)
def test_validate_custom_unknown_key_fails(tmp_path, capsys, key, value):
    path = write_config(tmp_path, custom_config(**{key: value}))
    assert cli.validate(path) == 0
    assert f"FAIL: scenario block invalid: unknown custom key {key!r}" \
        in capsys.readouterr().out


def test_run_two_scenario_blocks_rejected(tmp_path):
    cfg = flrw_config()
    cfg["gw_cavity"] = {"lengths": [1, 2, 1], "epsilon": 1e-5}
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path) == 1


def test_run_oracle_mismatch_exits_3(tmp_path):
    path = write_config(tmp_path, flrw_config(
        tolerances={"oracle_rtol": 1e-12}))
    assert cli.run(path, output_dir=tmp_path) == 3


def test_run_numerical_failure_exits_2(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise StepFailure("forced")

    monkeypatch.setattr(cli, "flrw_run", boom)
    path = write_config(tmp_path, flrw_config())
    assert cli.run(path, output_dir=tmp_path) == 2


def test_gw_cubic_run_empty_resonances(tmp_path):
    cfg = {"scenario": "gw_cavity",
           "gw_cavity": {"lengths": [1.0, 1.0, 1.0], "epsilon": 1e-5,
                         "n_modes_per_axis": [2, 2, 2]},
           "output": {"path": "gw", "format": "json"}, "seed": 1}
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path) == 0
    record = json.loads((tmp_path / "gw.json").read_text())
    assert record["resonances"] == []
    assert record["n_resonant_channels"] == 0


def test_gw_resonant_run_records_channel(tmp_path):
    cfg = {"scenario": "gw_cavity",
           "gw_cavity": {"lengths": [1.0, 2.0, 1.0], "epsilon": 1e-5,
                         "n_modes_per_axis": [1, 1, 1]},
           "output": {"path": "gw", "format": "csv"}, "seed": 1}
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path) == 0
    record = json.loads((tmp_path / "gw.json").read_text())
    assert record["n_resonant_channels"] == 1
    entry = record["resonances"][0]
    assert entry["kind"] == "beta" and entry["n"] == [1, 1, 1]
    assert abs(abs(complex(entry["rate_re"], entry["rate_im"]))
               - 1e-5 * np.pi / 8) < 1e-12
    assert record["convergence"] is None
    header = (tmp_path / "gw.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_custom_scenario_runs(tmp_path):
    cfg = {"scenario": "custom",
           "custom": {"lengths": [1.0], "periodic": [True], "mass": 1.0,
                      "base_scales": [1.0], "amplitudes": [0.01],
                      "frequency": 3.0, "n_modes": 3, "t0": 0.0, "tf": 4.0,
                      "tol": 1e-9},
           "output": {"path": "cust", "format": "csv"}, "seed": 2}
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path) == 0
    record = json.loads((tmp_path / "cust.json").read_text())
    assert record["identity_residuals"]["final"] < 1e-7


def test_custom_record_diagnostics_are_the_solver_counts(tmp_path):
    """The custom record carries evolve_Q's step counts and the size of its
    driver table, none of which depend on the output samples."""
    from bogoflow.evolution import evolve_Q

    path = write_config(tmp_path, custom_config())
    assert cli.run(path, output_dir=tmp_path) == 0
    run = json.loads((tmp_path / "cust.json").read_text())["diagnostics"]["run"]
    block = custom_config()["custom"]
    t0, tf, tol, _ = cli._custom_times(block)
    _, driver = cli._custom_driver(block, block["n_modes"])
    meta = evolve_Q(driver, t0, tf, tol=tol)[0].meta
    assert run == {key: meta[key] for key in run}
    assert set(run) == {"n_steps", "n_rejected", "n_rhs", "h_min", "h_max",
                        "driver_calls", "table_panels"}
    assert run["n_rhs"] == 2 + 6 * (run["n_steps"] + run["n_rejected"])
    assert 0 < run["h_min"] <= run["h_max"] <= tf - t0


FIRST_RUN = """
import json, math, pathlib, sys
from bogoflow import cli, perturbation, scenarios

out = pathlib.Path(sys.argv[1])
w0 = math.pi * math.sqrt(2.25)               # (1,1,1) mode of a 1 x 2 x 1 box
tau = 25.0 / (2.0 * w0) * 2.0 * math.pi
dc = scenarios.gw_delta_coupling(scenarios.GwCavityConfig(
    lengths=(1.0, 2.0, 1.0), epsilon=1e-5, tau=tau,
    n_modes_per_axis=(2, 2, 2)))
configs = {
    "fig2": {"scenario": "flrw",
             "flrw": {"A": 2.5, "B": 1.5, "rho": 1.0, "m": 0.1, "L": 1000.0,
                      "n_max": 5, "eta_span": [-10, 10], "tol": 1e-10},
             "tolerances": {"oracle_rtol": 0.01},
             "output": {"path": "fig2", "format": "csv"}, "seed": 7},
    "gw": {"scenario": "gw_cavity",
           "gw_cavity": {"lengths": [1.0, 2.0, 1.0], "epsilon": 1e-5,
                         "n_modes_per_axis": [3, 3, 3], "tol": 1e-10},
           "output": {"path": "gw", "format": "csv"}, "seed": 1},
    "custom": {"scenario": "custom",
               "custom": {"lengths": [1.0], "periodic": [True], "mass": 1.0,
                          "amplitudes": [0.01], "n_modes": 3, "tf": 1.0},
               "output": {"path": "cust", "format": "csv"}, "seed": 3},
}
for name, cfg in configs.items():
    (out / f"{name}_cfg.json").write_text(json.dumps(cfg))
before = set(sys.modules)
for name in configs:
    assert cli.main(["run", str(out / f"{name}_cfg.json"),
                     "--output-dir", str(out)]) == 0
perturbation.window_coefficients(dc, dc.basis, -5 * tau, 5 * tau,
                                 method="quadrature")
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_first_run_imports_no_module(tmp_path):
    """Every module a fig2 run, a gw_cavity run, a custom run and a
    numeric Gaussian window use is loaded at import, so the first run of
    each pays no import: the modules loaded before it are all it uses."""
    root = os.path.dirname(os.path.dirname(bogoflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", FIRST_RUN, str(tmp_path)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.splitlines()[-1].strip() == ""


def test_custom_torus_mode_count_rounds_up_to_closed_shell(tmp_path):
    """4 modes on a 1D torus are 0, +-1 and one of +-2: the run takes the
    closed count 5 and records both counts."""
    path = write_config(tmp_path, custom_config(n_modes=4))
    assert cli.run(path, output_dir=tmp_path) == 0
    record = json.loads((tmp_path / "cust.json").read_text())
    assert record["n_modes"] == {"requested": 4, "used": 5}
    assert len(record["series_labels"]) == 5
    assert {"(-2,)", "(2,)"} <= set(record["series_labels"])
    header = (tmp_path / "cust.csv").read_text().splitlines()[0]
    assert header.count("alpha2_") == 5


def test_validate_custom_torus_reports_rounding(tmp_path, capsys):
    path = write_config(tmp_path, custom_config(n_modes=4))
    assert cli.validate(path) == 0
    out = capsys.readouterr().out
    assert "PASS: n_modes 4 rounded up to 5" in out
    assert "FAIL" not in out


def test_flrw_record_diagnostics_count_steps_not_samples(tmp_path):
    """The fig2 record's step counts: far fewer than one step per output
    sample, and the same as a run that samples only the two ends."""
    from bogoflow.scenarios import flrw_run

    path = write_config(tmp_path, flrw_config(
        flrw=dict(FLRW_BLOCK, n_max=5),
        output={"path": "fig2", "format": "csv"}))
    assert cli.run(path, output_dir=tmp_path) == 0
    record = json.loads((tmp_path / "fig2.json").read_text())
    diag = record["diagnostics"]
    n_pairs = len(record["series_labels"])
    run = diag["run"]
    assert run["n_steps"] < 600 * n_pairs / 4
    assert run["n_rhs"] == 2 * n_pairs + 6 * (run["n_steps"]
                                              + run["n_rejected"])
    two = flrw_run(cli._flrw_config(json.loads(path.read_text())),
                   n_samples=2).meta
    assert {k: two[k] for k in run} == run
    rerun = diag["convergence_rerun"]
    assert rerun["n_steps"] > run["n_steps"]       # at half the tolerance
    for counts in (run, rerun):                    # inside the eta span
        assert 0 < counts["h_min"] < counts["h_max"] < 20.0


def test_fig2_record_names_the_backend_once(tmp_path):
    path = write_config(tmp_path, flrw_config(
        flrw=dict(FLRW_BLOCK, n_max=5),
        output={"path": "fig2", "format": "csv"}))
    assert cli.run(path, output_dir=tmp_path) == 0
    record = json.loads((tmp_path / "fig2.json").read_text())
    assert record["kernel_backend"] == "python"
    assert "backend" not in record


def test_flrw_run_is_one_solve_with_its_half_tolerance_check(tmp_path,
                                                            monkeypatch):
    """The tol/2 check runs as more rows of the run's one solve; its record
    equals that of separate solves at tol and tol/2, bit for bit."""
    from bogoflow import kernels

    path = write_config(tmp_path, flrw_config(
        flrw=dict(FLRW_BLOCK, n_max=5),
        output={"path": "fig2", "format": "csv"}))
    solves = []
    solve = kernels.solve_dopri
    monkeypatch.setattr(kernels, "solve_dopri",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    assert cli.run(path, output_dir=tmp_path) == 0
    assert len(solves) == 1
    monkeypatch.undo()

    record = json.loads((tmp_path / "fig2.json").read_text())
    scen = cli._flrw_config(json.loads(path.read_text()))
    rows = [[scen.A, scen.B, scen.rho, scen.k_n(int(n)), scen.m]
            for n in record["series_labels"]]
    beta2, counts = [], []
    for tol, n_samples in ((scen.tol, 600), (scen.tol / 2, 2)):
        eta = np.linspace(scen.eta_span[0], scen.eta_span[1], n_samples)
        _, qb, phase, res = kernels.pair_evolution(
            kernels.FLRW_TANH, rows, eta[0], eta, rtol=tol, atol=tol,
            ident_cap=100.0 * tol)
        beta2.append((np.abs(np.exp(1j * phase) * qb) ** 2)[:, -1])
        counts.append(res.stats())
    diff = float(np.max(np.abs(beta2[1] - beta2[0])))
    assert record["convergence"] == {"tol": [scen.tol, scen.tol / 2],
                                     "max_difference": diff,
                                     "converged": diff < 1e-8}
    diag = record["diagnostics"]
    assert [diag["run"], diag["convergence_rerun"]] == counts
    assert diag["stepper_s"] > 0


def reformat_per_cell(line):
    """A CSV line as the per-cell f-string join writes it."""
    return ",".join(f"{float(cell):.17e}" for cell in line.split(","))


@pytest.mark.parametrize("cfg", [
    flrw_config(flrw=dict(FLRW_BLOCK, n_max=5)),
    {"scenario": "gw_cavity",
     "gw_cavity": {"lengths": [1.0, 2.0, 1.0], "epsilon": 1e-5,
                   "n_modes_per_axis": [3, 3, 3]},
     "output": {"path": "out", "format": "csv"}, "seed": 1},
    dict(custom_config(), output={"path": "out", "format": "csv"}),
], ids=["flrw", "gw_cavity", "custom"])
def test_csv_body_is_the_per_cell_format(tmp_path, cfg):
    """Each row written with one format call has the bytes of the
    per-cell f"{x:.17e}" join; %.17e reads back to the same float."""
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path) == 0
    _, *body = (tmp_path / "out.csv").read_bytes().decode().split("\n")
    assert body.pop() == "" and len(body) > 50
    assert len({line.count(",") for line in body}) == 1 and "," in body[0]
    assert body == [reformat_per_cell(line) for line in body]


GW_BLOCK = {"lengths": [1.0, 2.0, 1.0], "epsilon": 1e-5}


def test_run_gw_scalar_modes_per_axis_names_key(tmp_path, capsys):
    cfg = {"scenario": "gw_cavity",
           "gw_cavity": dict(GW_BLOCK, n_modes_per_axis=3),
           "output": {"path": "gw", "format": "csv"}}
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path) == 1
    err = capsys.readouterr().err
    assert "'n_modes_per_axis' must be a list" in err
    assert "not iterable" not in err


def test_validate_gw_scalar_modes_per_axis_names_key(tmp_path, capsys):
    cfg = {"scenario": "gw_cavity",
           "gw_cavity": dict(GW_BLOCK, n_modes_per_axis=3),
           "output": {"path": "gw", "format": "csv"}}
    path = write_config(tmp_path, cfg)
    assert cli.validate(path) == 0
    out = capsys.readouterr().out
    assert "FAIL: scenario block invalid: gw_cavity 'n_modes_per_axis' " \
        "must be a list" in out


def test_run_gw_mode_count_override(tmp_path):
    cfg = {"scenario": "gw_cavity",
           "gw_cavity": dict(GW_BLOCK, n_modes_per_axis=[3, 3, 3]),
           "output": {"path": "gw", "format": "json"}}
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path, n_modes=1) == 0
    record = json.loads((tmp_path / "gw.json").read_text())
    assert record["n_resonant_channels"] == 1


def test_run_gw_tol_override_exits_1(tmp_path, capsys):
    """A gw_cavity run integrates no ODE, so ``--tol`` would change
    nothing; the block's own ``tol`` stays accepted."""
    cfg = {"scenario": "gw_cavity",
           "gw_cavity": dict(GW_BLOCK, n_modes_per_axis=[1, 1, 1], tol=1e-8),
           "output": {"path": "gw", "format": "csv"}}
    path = write_config(tmp_path, cfg)
    assert cli.run(path, output_dir=tmp_path, tol=1e-3) == 1
    assert "error: invalid configuration: --tol" in capsys.readouterr().err
    assert not (tmp_path / "gw.json").exists()
    assert cli.run(path, output_dir=tmp_path) == 0


def test_run_overrides(tmp_path):
    path = write_config(tmp_path, flrw_config())
    assert cli.run(path, output_dir=tmp_path, tol=1e-8, n_modes=3) == 0
    header = (tmp_path / "out.csv").read_text().splitlines()[0].split(",")
    assert "beta2_n3" in header and "beta2_n4" not in header
    convergence = json.loads((tmp_path / "out.json").read_text())["convergence"]
    assert convergence["tol"] == [1e-8, 5e-9]
    assert convergence["converged"]

    # at a loose tolerance the half-tolerance rerun moves |beta|^2 visibly
    assert cli.run(path, output_dir=tmp_path, tol=1e-4) == 0
    convergence = json.loads((tmp_path / "out.json").read_text())["convergence"]
    assert convergence["converged"] is False


def test_validate_reports(tmp_path, capsys):
    path = write_config(tmp_path, flrw_config())
    assert cli.validate(path) == 0
    out = capsys.readouterr().out
    assert "PASS: config structure valid" in out
    assert "positive definite" in out

    massless = flrw_config()
    massless["flrw"]["m"] = 0.0
    path2 = write_config(tmp_path, massless, "m0.json")
    assert cli.validate(path2) == 0
    out = capsys.readouterr().out
    assert "semidefinite" in out and "regularize_zero_mode" in out

    robin = {"scenario": "custom",
             "custom": {"lengths": [1.0], "periodic": [False],
                        "boundary": "robin", "robin_gamma": 0.0},
             "output": {"path": "x", "format": "csv"}}
    path3 = write_config(tmp_path, robin, "robin.json")
    assert cli.validate(path3) == 0
    out = capsys.readouterr().out
    assert "FAIL" in out

    assert cli.validate(tmp_path / "missing.json") == 1


def test_main_entry(tmp_path, capsys):
    path = write_config(tmp_path, flrw_config())
    assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()

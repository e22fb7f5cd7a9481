"""Batch front end: JSON scenario configs in, CSV/JSON results out.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
failure (step underflow or identity drift), 3 oracle mismatch beyond the
configured tolerance.  Runs are deterministic: the same config produces
bit-identical CSV bodies.  The config's ``seed`` is recorded in the JSON
record and seeds nothing.

The JSON record's ``convergence`` entry is an ODE-tolerance check for
``flrw``: the final |beta|^2 of every pair is computed again at half the
tolerance, as more rows of the run's one solve, and must move by less
than 1e-8.  It is null for ``gw_cavity``, whose first-order rates involve
only their own two modes, and for ``custom``.
"""

import argparse
import datetime
import hashlib
import json
import pathlib
import sys

import numpy as np

from . import __version__, kernels
from .errors import (BogoflowError, IdentityDrift, InvalidArgument,
                     StepFailure)
from .evolution import evolve_Q, identity_residual
from .perturbation import window_series
from .scenarios import (FlrwConfig, GwCavityConfig, flrw_run, gw_cavity_run)

_SCENARIOS = ("flrw", "gw_cavity", "custom")
#: the solver counts a record's ``diagnostics`` copies from a run's meta
_SOLVER_COUNTS = ("n_steps", "n_rejected", "n_rhs", "h_min", "h_max")
#: the driver-table counts that a custom record adds to them
_TABLE_COUNTS = ("driver_calls", "table_panels")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def load_config(path):
    with open(path) as fh:
        return json.load(fh)


def parse_config(raw: dict) -> dict:
    """Structural validation; returns a normalized copy."""
    if not isinstance(raw, dict):
        raise InvalidArgument("config must be a JSON object")
    scenario = raw.get("scenario")
    if scenario not in _SCENARIOS:
        raise InvalidArgument(f"scenario must be one of {_SCENARIOS}")
    present = [s for s in _SCENARIOS if s in raw]
    if present != [scenario]:
        raise InvalidArgument(
            "exactly one scenario block matching 'scenario' must be present")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise InvalidArgument("tolerances must be a JSON object")
    for name, val in tolerances.items():
        if not (isinstance(val, (int, float)) and val > 0):
            raise InvalidArgument(f"tolerance {name!r} must be positive")
    out = dict(raw)
    out.setdefault("seed", 0)
    out.setdefault("output", {"path": "bogoflow_result", "format": "csv"})
    if not isinstance(out["output"], dict):
        raise InvalidArgument("output must be a JSON object")
    if out["output"].get("format", "csv") not in ("csv", "json"):
        raise InvalidArgument("output format must be csv or json")
    return out


def _flrw_config(cfg: dict, tol=None, n_modes=None) -> FlrwConfig:
    block = dict(cfg["flrw"])
    if tol is not None:
        block["tol"] = tol
    if n_modes is not None:
        block["n_max"] = n_modes
    block.pop("oracle_rtol", None)
    if "eta_span" in block:
        block["eta_span"] = tuple(block["eta_span"])
    return FlrwConfig(**block)


def _gw_config(cfg: dict, n_modes=None) -> GwCavityConfig:
    block = dict(cfg["gw_cavity"])
    if n_modes is not None:
        block["n_modes_per_axis"] = [n_modes] * 3
    for key in ("lengths", "n_modes_per_axis", "window", "reference_mode"):
        if key in block and block[key] is not None:
            if not isinstance(block[key], list):
                raise InvalidArgument(
                    f"gw_cavity {key!r} must be a list, got {block[key]!r}")
            block[key] = tuple(block[key])
    return GwCavityConfig(**block)


def _custom_times(block: dict):
    """(t0, tf, tol, n_samples) of a ``custom`` block, with their defaults."""
    vals = []
    for key, default in (("t0", 0.0), ("tf", 10.0), ("tol", 1e-10),
                         ("n_samples", 101)):
        v = block.get(key, default)
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not np.isfinite(v):
            raise InvalidArgument(f"custom {key!r} must be a finite number")
        vals.append(v)
    t0, tf, tol, n_samples = vals
    if not tol > 0:
        raise InvalidArgument("custom 'tol' must be positive")
    if n_samples != int(n_samples) or n_samples < 2:
        raise InvalidArgument("custom 'n_samples' must be an integer >= 2")
    return float(t0), float(tf), float(tol), int(n_samples)


#: every key a ``custom`` block may hold: the metric and field, then the run
_CUSTOM_KEYS = ("lengths", "periodic", "base_scales", "amplitudes", "frequency",
                "boundary", "mass", "coupling",
                "n_modes", "t0", "tf", "tol", "n_samples")


def _custom_driver(block: dict, n_modes: int):
    """(spacetime, driver); a torus mode count that splits a conjugate
    pair is rounded up to the closed count, which ``driver.n_modes`` holds."""
    from .coupling import DiagonalFamilyDriver, closed_mode_count
    from .geometry import BoundarySpec, Domain, diagonal_spacetime
    from .spectral import OperatorSpec

    domain = Domain(tuple(block["lengths"]),
                    tuple(bool(p) for p in block["periodic"]))
    base = np.asarray(block.get("base_scales", [1.0] * domain.dim), dtype=float)
    amp = np.asarray(block.get("amplitudes", [0.0] * domain.dim), dtype=float)
    if not np.all(base > 0):
        raise InvalidArgument("custom 'base_scales' must be positive")
    if not np.all(np.abs(amp) < 1):
        raise InvalidArgument("custom 'amplitudes' must lie in (-1, 1), "
                              "or the metric reaches zero")
    freq = float(block.get("frequency", 1.0))
    kind = block.get("boundary", "none" if all(domain.periodic) else "dirichlet")
    if kind == "robin":
        raise InvalidArgument(
            "custom runs use the closed-form diagonal driver, whose fixed "
            "mode shapes exclude robin walls")
    for key in block:
        if key not in _CUSTOM_KEYS:
            raise InvalidArgument(f"unknown custom key {key!r}")
    boundary = BoundarySpec(kind)

    def scales(t):
        return base * (1.0 + amp * np.sin(freq * t))

    def scales_dt(t):
        return base * amp * freq * np.cos(freq * t)

    st = diagonal_spacetime(domain, scales, scales_dt,
                            mass=float(block.get("mass", 0.0)),
                            coupling=float(block.get("coupling", 0.0)),
                            boundary=boundary)
    op = OperatorSpec(boundary=boundary)
    return st, DiagonalFamilyDriver(
        op, st, n_modes=closed_mode_count(op, st, n_modes))


# ---------------------------------------------------------------------------
# runners


def _run_flrw(cfg, tol, n_modes):
    scen = _flrw_config(cfg, tol, n_modes)
    result = flrw_run(scen)
    labels = result.labels
    beta2, alpha2 = result.beta2, result.alpha2
    columns = [("t", result.t)]
    for row, n in enumerate(labels):
        columns.append((f"beta2_n{n}", beta2[row]))
    for row, n in enumerate(labels):
        columns.append((f"alpha2_n{n}", alpha2[row]))
    for row, n in enumerate(labels):
        columns.append((f"oracle_beta2_n{n}",
                        np.full_like(result.t, result.oracle_beta2[row])))

    rel_miss = np.max(np.abs(result.beta2_final - result.oracle_beta2)
                      / np.abs(result.oracle_beta2)) \
        if np.all(result.oracle_beta2 > 0) else None

    record = {
        "series_labels": [str(n) for n in labels],
        "identity_residuals": {
            "pair_max": result.meta["pair_identity_residual"],
        },
        "convergence": result.meta["convergence"],
        "oracle": None if rel_miss is None else {
            "asymptotic_beta2": {str(n): v for n, v in
                                 zip(labels, result.oracle_beta2.tolist())},
            "final_beta2": {str(n): v for n, v in
                            zip(labels, result.beta2_final.tolist())},
            "max_rel_mismatch": float(rel_miss),
        },
        # solver counts summed over the rows of the run and of the
        # half-tolerance check, and each one's step-size range; one solve
        # holds both, in stepper_s seconds
        "diagnostics": {
            "run": {key: result.meta[key] for key in _SOLVER_COUNTS},
            "convergence_rerun": result.meta["convergence_rerun"],
            "stepper_s": result.meta["stepper_s"]},
    }
    return columns, record, (float(rel_miss) if rel_miss is not None else None)


def _run_gw(cfg, tol, n_modes):
    if tol is not None:
        raise InvalidArgument("--tol applies to flrw and custom runs; a "
                              "gw_cavity run integrates no ODE")
    scen = _gw_config(cfg, n_modes)
    result = gw_cavity_run(scen)
    entries = [{
        "kind": e.kind, "n": list(e.n), "m": list(e.m),
        "resonant_frequency": e.resonant_frequency,
        "rate_re": e.rate.real, "rate_im": e.rate.imag,
    } for e in result.report]

    coeffs = result.coefficients
    columns = []
    if coeffs is not None and result.dc.tau is None:
        # growth series of the resonant channels over the window
        t0, tf = result.meta["window"]
        ts = np.linspace(t0, tf, 201)[1:]
        labels = result.basis.labels
        chans = [(e.kind, labels.index(e.n), labels.index(e.m))
                 for e in result.report]
        coef = window_series(result.dc, t0, ts, chans)
        # hypot rounds as the scalar abs of one coefficient does; numpy's
        # vectorised complex abs may differ from it in the last bit
        series = np.hypot(coef.real, coef.imag)
        columns.append(("t", ts))
        for c, (kind, i, j) in enumerate(chans):
            name = f"{kind}_{labels[i]}_{labels[j]}"
            columns.append((f"abs_{name}".replace(" ", ""), series[:, c]))

    record = {
        "resonances": entries,
        "n_resonant_channels": len(entries),
        "identity_residuals": {
            "first_order_matrix": identity_residual(coeffs)
            if coeffs is not None else None,
        },
        "meta": {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in result.meta.items()},
        "convergence": None,
    }

    return columns, record, None


def _run_custom(cfg, tol, n_modes):
    block = cfg["custom"]
    n = n_modes or int(block.get("n_modes", 3))
    t0, tf, block_tol, n_samples = _custom_times(block)
    st, driver = _custom_driver(block, n)
    ts = np.linspace(t0, tf, n_samples)[1:]
    pairs = evolve_Q(driver, t0, tf, tol=tol or block_tol, t_eval=ts)
    columns = [("t", ts)]
    labels = driver.labels
    for i, lab in enumerate(labels):
        columns.append((f"alpha2_{lab}".replace(" ", ""),
                        np.array([abs(q.alpha[i, i]) ** 2 for q, _ in pairs])))
    for i, lab in enumerate(labels):
        col = np.array([float(np.max(np.abs(q.beta[i]))) for q, _ in pairs])
        columns.append((f"beta_max_{lab}".replace(" ", ""), col))
    final_q, _ = pairs[-1]
    record = {
        "series_labels": [str(l) for l in labels],
        "n_modes": {"requested": n, "used": driver.n_modes},
        "identity_residuals": {"final": identity_residual(final_q)},
        "convergence": None,
        "diagnostics": {"run": {key: final_q.meta[key] for key in
                                _SOLVER_COUNTS + _TABLE_COUNTS}},
    }
    return columns, record, None


def run(config_path, output_dir=None, tol=None, n_modes=None) -> int:
    """Execute a scenario config; writes the result files next to it."""
    try:
        raw = load_config(config_path)
        cfg = parse_config(raw)
        runner = {"flrw": _run_flrw, "gw_cavity": _run_gw,
                  "custom": _run_custom}[cfg["scenario"]]
        columns, record, oracle_miss = runner(cfg, tol, n_modes)
    except (InvalidArgument, OSError, json.JSONDecodeError, KeyError,
            TypeError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (StepFailure, IdentityDrift) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except BogoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_spec = cfg["output"]
    stem = pathlib.Path(out_spec.get("path", "bogoflow_result"))
    if output_dir is not None:
        stem = pathlib.Path(output_dir) / stem.name
    stem.parent.mkdir(parents=True, exist_ok=True)

    record = {
        "config_hash": config_hash(raw),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        "scenario": cfg["scenario"],
        "seed": cfg["seed"],
        "kernel_backend": kernels.backend_name,
        **record,
    }

    fmt = out_spec.get("format", "csv")
    if columns and fmt == "csv":
        csv_path = stem.with_suffix(".csv")
        with open(csv_path, "w") as fh:
            fh.write(",".join(name for name, _ in columns) + "\n")
            # "%.17e" formats a float as f"{x:.17e}" does, one row a call
            line = ",".join(["%.17e"] * len(columns)) + "\n"
            values = [np.asarray(col, dtype=float).tolist()
                      for _, col in columns]
            fh.writelines(line % row for row in zip(*values))
        record["series_file"] = csv_path.name
    elif columns:
        record["series"] = {name: [float(v) for v in col]
                            for name, col in columns}

    json_path = stem.with_suffix(".json")
    with open(json_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {json_path}")

    oracle_rtol = cfg.get("tolerances", {}).get("oracle_rtol")
    if oracle_rtol is not None and oracle_miss is not None \
            and oracle_miss > oracle_rtol:
        print(f"error: oracle mismatch {oracle_miss:.3e} exceeds "
              f"{oracle_rtol:.3e}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# validation


def _check(lines, ok, message):
    lines.append(("PASS" if ok else "FAIL", message))
    return ok


def validate(config_path) -> int:
    """Dry-run validation report; exit 0 unless the file itself is unreadable."""
    try:
        raw = load_config(config_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    lines = []
    try:
        cfg = parse_config(raw)
        _check(lines, True, "config structure valid")
    except InvalidArgument as exc:
        _check(lines, False, f"config structure: {exc}")
        _report(lines)
        return 0

    scenario = cfg["scenario"]
    try:
        if scenario == "flrw":
            scen = _flrw_config(cfg)
            _check(lines, True, "scenario parameters valid "
                   f"(a(eta)^2 in [{scen.A - abs(scen.B):.3g}, "
                   f"{scen.A + abs(scen.B):.3g}])")
            if scen.m > 0:
                _check(lines, True,
                       f"operator positive definite at t0 (min omega = {scen.m:g})")
            else:
                _check(lines, False,
                       "operator only positive semidefinite (massless zero "
                       "mode); consider a small mass shift via "
                       "regularize_zero_mode")
            _check(lines, scen.saturated(),
                   "eta_span reaches tanh saturation (|rho eta| >= 8)")
        elif scenario == "gw_cavity":
            scen = _gw_config(cfg)
            _check(lines, True, "scenario parameters valid")
            if scen.boundary == "neumann":
                _check(lines, False,
                       "operator positive semidefinite (Neumann zero mode); "
                       "a mass regularization dm sequence will be applied, "
                       "see regularize_zero_mode")
            else:
                w0 = scen.mode_omega0((1, 1, 1))
                _check(lines, True,
                       f"operator positive definite at t0 (min omega = {w0:.6g})")
            _check(lines, True,
                   f"wave frequency {scen.wave_frequency():.6g}")
        else:
            n = int(cfg["custom"].get("n_modes", 3))
            t0 = _custom_times(cfg["custom"])[0]
            st, driver = _custom_driver(cfg["custom"], n)
            if driver.n_modes != n:
                _check(lines, True, f"n_modes {n} rounded up to "
                       f"{driver.n_modes} to close under conjugation")
            wmin = float(np.min(driver.omegas(t0)))
            _check(lines, wmin > 0,
                   f"operator positive definite at t0 (min omega = {wmin:.6g})"
                   if wmin > 0 else
                   "operator not positive definite at t0; consider "
                   "regularize_zero_mode")
    except (BogoflowError, KeyError, TypeError, ValueError) as exc:
        _check(lines, False, f"scenario block invalid: {exc}")

    _report(lines)
    return 0


def _report(lines):
    for status, message in lines:
        print(f"{status}: {message}")
    n_fail = sum(1 for s, _ in lines if s == "FAIL")
    print(f"{len(lines) - n_fail}/{len(lines)} checks passed")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bogoflow",
        description="Bogoliubov transformations of confined fields on "
                    "evolving geometries")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--tol", type=float, default=None,
                       help="override the ODE tolerance of a flrw or "
                            "custom run")
    p_run.add_argument("--n-modes", type=int, default=None,
                       help="override the scenario mode count")

    p_val = sub.add_parser("validate", help="dry-run validation report")
    p_val.add_argument("config")
    return parser


#: built once, at import, so that a call pays neither for building it nor
#: for the modules argparse loads on first use
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.output_dir, args.tol, args.n_modes)
    return validate(args.config)


if __name__ == "__main__":
    sys.exit(main())

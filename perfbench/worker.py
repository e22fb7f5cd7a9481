"""One benchmark process: set up a workload, then run rounds of its ops.

Started by ``run.py`` in a fresh interpreter, so that set-up (the import of
bogoflow plus building the workload's inputs) and the first op are what a
``bogoflow run`` user pays.  Roles:

* ``setup``: set up and exit;
* ``ops``: set up, run the first round, then later rounds until
  ``--budget`` seconds have passed since the process started (at least one
  later round; no round is started that would end past the budget),
  checking every output; with ``--final 1`` also make the per-run checks.
  With ``--trace 1`` rounds alternate between traced (even) and untraced
  (odd), the first round traced.

An op that raises is counted as failed.  It is also a problem (the run is
not correct) unless it is a probe that raised the exception its workload
names.  ``first_op_s`` is the first non-probe op of the process, and is
left missing if that op failed.

Prints one JSON object on its last stdout line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

#: a process stops starting rounds after this long, whatever --budget says
MAX_LOOP_S = 120.0


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "ops"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--final", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="where a traced run writes its spans")
    return p.parse_args()


def environment():
    import numpy
    import scipy

    import bogoflow
    from bogoflow import kernels
    return {"backend": kernels.backend_name,
            "bogoflow": bogoflow.__version__,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "bogoflow_workers": os.environ.get("BOGOFLOW_WORKERS")}


def main():
    args = parse_args()
    import workloads                       # numpy, scipy and bogoflow
    import bogoflow
    if not os.path.abspath(bogoflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"bogoflow imported from {bogoflow.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s}
    if args.role == "setup":
        print(json.dumps(out))
        return

    tracer = None
    if args.trace:
        from bogoflow import quadrature
        import tracer as tracing
        tracer = tracing.Tracer()

    problems, op_errors = [], set()
    attempted = failed = passed = 0
    first_seen, first_op_s = False, None
    steady, steady_traced, layer_samples = [], [], []
    first_layers, traced_ops = None, []
    rounds, round_s = 0, []
    budget_end = T_START + args.budget
    while True:
        t_round = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.install()
            misses = quadrature._leggauss.cache_info().misses
        for op in wl.round():
            attempted += 1
            gc.collect()          # no collection left over from the last op
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:   # a failed op is counted, not fatal
                failed += 1
                op_errors.add(f"{op.name}: {type(exc).__name__}")
                if not (op.probe and isinstance(exc, op.fails_with)):
                    problems.append(f"{op.name}: raised " + traceback
                                    .format_exception_only(exc)[-1].strip())
                first_seen = first_seen or not op.probe
                if traced:
                    tracer.take()
                continue
            dt = time.perf_counter() - t0
            spans = tracer.take() if traced else None
            try:
                problems += [f"{op.name}: {p}" for p in op.check(result)]
            except Exception as exc:
                problems.append(f"{op.name}: check failed: "
                                + traceback.format_exception_only(exc)[-1]
                                .strip())
            if op.probe:
                continue
            passed += 1
            if not first_seen:
                first_seen, first_op_s = True, dt
                if traced:
                    first_layers = tracing.op_metrics(spans)
                    first_layers["quadrature.rule_builds"] = (
                        quadrature._leggauss.cache_info().misses - misses)
            elif traced:
                steady_traced.append(dt)
                layer_samples.append(tracing.op_metrics(spans))
            else:
                steady.append(dt)
            if traced:
                traced_ops.append({"op": op.name, "seconds": dt,
                                   "spans": tracing.compact(spans)})
        if traced:
            tracer.uninstall()
        now = time.perf_counter()
        rounds += 1
        if rounds == 1:
            loop_start = now
        else:
            round_s.append(now - t_round)
        # start no round that would end past the budget, once there is one
        # later round (a traced and an untraced one if traced), or if no op
        # passes at all
        enough = (rounds >= 2 and (tracer is None or steady_traced)
                  or passed == 0)
        next_end = now + (statistics.median(round_s) if round_s else 0.0)
        if enough and next_end > budget_end or now - loop_start >= MAX_LOOP_S:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.final:
        try:
            problems += wl.final_checks()
        except Exception as exc:
            problems.append("per-run check failed: "
                            + traceback.format_exception_only(exc)[-1].strip())

    out.update(first_op_s=first_op_s, steady_s=steady, attempted=attempted,
               failed=failed, rounds=rounds, problems=problems,
               op_errors=sorted(op_errors), peak_rss_mib=peak_rss,
               env=environment())
    if tracer is not None:
        layers = {}
        for name in tracing.METRICS:
            if name.startswith("quadrature."):
                layers[name] = first_layers.get(name, 0) if first_layers else 0
            elif layer_samples:
                layers[name] = statistics.median(s[name] for s in layer_samples)
        if steady_traced and steady:
            layers["trace.overhead_s"] = (statistics.median(steady_traced)
                                          - statistics.median(steady))
        out["layers"] = layers
        with open(args.spans, "w") as fh:
            json.dump(traced_ops, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Benchmark of bogoflow: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bogoflow is imported from its
``src`` directory.  Workloads: flrw_pairs, gw_resonance, fd_mixing, and
dense_evolution, which BENCHMARK.json leaves out (see perfbench/README.md).

With ``--trace 0`` the end-to-end metrics are measured in fresh
interpreters, one after another (never two at once), within about
``--seconds`` of wall time from the start of the run.  SETUP_ONLY processes
only set up.  Then the workload's OPS_PROCESSES ops processes share the
time left equally: each sets up, runs a first round and runs later rounds
until its share is spent; the last one also makes the per-run checks.  A
workload with a cheap first op gets several processes, for several first
ops spread over the run; one with a costly first op gets fewer, so that
its later ops still cover most of the run.

* ``setup_s``: median over every process of importing bogoflow and building
  the workload's inputs;
* ``first_op_s``: median of the first op of each ops process, with the
  program's lazy caches still empty;
* ``op_s``: median of every later successful op of the ops processes;
* ``peak_rss_mib``: median of the ops processes' peak resident sets.

With ``--trace 1`` a single process runs the ops for ``--seconds`` with the
layer tracer (perfbench/tracer.py) on every other round and reports the
per-layer metrics, including the tracing overhead against its own untraced
rounds.

Outputs of every op are checked; ``correct`` is false if any check fails.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.  A
record with every sample, the exception of every failed op, the kernel
backend, the git revision, nproc and the Python, numpy and scipy versions
goes to .perfbench/runs/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

#: set-up-only processes per untraced run, before the ops processes
SETUP_ONLY = 2
#: ops processes per untraced run.  The machine's speed drifts in phases of
#: seconds to minutes, so each metric's samples are spread over the run,
#: and later ops should cover as much of it as they can: the first op of
#: gw_resonance takes about 7 s with set-up, so it gets one process.
#: dense_evolution is not in BENCHMARK.json (see README) but runs the same.
OPS_PROCESSES = {"flrw_pairs": 8, "gw_resonance": 1, "fd_mixing": 3,
                 "dense_evolution": 6}
#: the whole run must end well inside 180 s
DEADLINE_S = 170.0


def metric_units(root):
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def git_rev(root):
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child(role, args, workdir, deadline, budget=0.0, final=False,
          spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", str(budget), "--trace", str(args.trace),
           "--final", str(int(final)), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    # the program's thread pool gets at most one thread per usable CPU
    env["BOGOFLOW_WORKERS"] = str(len(os.sched_getaffinity(0)))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a process")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=remaining, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(OPS_PROCESSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "bogoflow", "__init__.py")):
        print(f"error: no bogoflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = metric_units(ROOT)

    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            spans = os.path.join(OUT, "runs", f"{tag}.spans.json")
            procs = [child("ops", args, workdir, deadline, args.seconds,
                           True, spans)]
        else:
            procs = [child("setup", args, workdir, deadline)
                     for _ in range(SETUP_ONLY)]
            n = OPS_PROCESSES[args.workload]
            for i in range(n):
                share = (start + args.seconds - time.monotonic()) / (n - i)
                procs.append(child("ops", args, workdir, deadline, share,
                                   i == n - 1))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ran = [c for c in procs if "attempted" in c]
    problems = [q for c in ran for q in c["problems"]]
    attempted = sum(c["attempted"] for c in ran)
    failed = sum(c["failed"] for c in ran)
    steady = [t for c in ran for t in c["steady_s"]]
    first = [c["first_op_s"] for c in ran if c["first_op_s"] is not None]
    for q in problems:
        print(f"check failed: {q}", file=sys.stderr)
    if not steady or not first:
        print(f"error: {args.workload}: no successful "
              f"{'op' if not steady else 'first op'}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = ran[0]["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in procs),
            "first_op_s": statistics.median(first),
            "op_s": statistics.median(steady),
            "peak_rss_mib": statistics.median(c["peak_rss_mib"] for c in ran),
        }
    env = dict(ran[-1]["env"], git_rev=git_rev(ROOT))
    op_errors = sorted({e for c in ran for e in c["op_errors"]})
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "problems": problems,
              "op_errors": op_errors,
              "processes": procs, "result": result}
    with open(os.path.join(OUT, "runs", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"backend={env['backend']} nproc={env['nproc']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"git={env['git_rev'] or 'unknown'} attempted={attempted} "
          f"failed={failed}")
    for e in op_errors:
        print(f"  failed op: {e}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

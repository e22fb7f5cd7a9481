"""Steadiness check: run the benchmark N times with different seeds.

    python3 perfbench/steady.py --workload NAME [--workload NAME ...]
                                [--runs 10]

For every workload, runs ``run.py --trace 0`` once per seed 1..runs for
BENCHMARK.json's run_seconds, one run at a time, and prints each end-to-end
metric's median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median, the bound from BENCHMARK.json and the share of
failed operations.  The bounds in BENCHMARK.json are set from these spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    worst = 0.0
    for workload in args.workload:
        values, shares, correct = {}, set(), True
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        ratios = {f / a for f, a in shares}
        print(f"{workload}: {args.runs} runs, correct={correct}, failed share "
              f"{'/'.join(sorted({f'{f}/{a}' for f, a in shares}))} "
              f"({'exact' if len(ratios) == 1 else 'VARIES'})")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = " OVER BOUND/3" if spread > bound / 3 else ""
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}{flag}")
    print(f"largest spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

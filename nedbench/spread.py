#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread on one workload.

  python3 nedbench/spread.py --workload heavy_kore --runs 10 [--first-seed 1]
                             [--seconds S] [--trace 0|1]

Runs nedbench/run.py once per seed (first-seed, first-seed + 1, ...), then
prints for every metric its median, quartiles and spread: the distance
between the first and the third quartile as a share of the median, with
quartiles from Python's statistics.quantiles(values, n=4). For end-to-end
metrics it also prints the metric's bound from BENCHMARK.json and whether
the spread stays within a third of it, and for every run the share of CPU
time the hypervisor stole from the machine during its window, which tells
a noisy host from a noisy program. The runs' results, the machine line
and the summary are written to .bench_build/spread-<workload>-trace<T>.json.
Exits nonzero if any run fails or reports correct = false.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, machine = [], ""
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write("seed %d failed with code %d\n"
                             % (seed, proc.returncode))
            return 1
        machine = next((l for l in lines if l.startswith("# machine:")), "")
        window = next((l for l in lines if l.startswith("# window:")), "")
        steal = re.search(r"host steal ([0-9.]+)", window)
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.stderr.write("seed %d: correct = false\n" % seed)
            return 1
        runs.append({"seed": seed, "result": result,
                     "host_steal": float(steal.group(1)) if steal else None})
        sys.stderr.write("seed %d done\n" % seed)

    print(machine)
    print("workload=%s runs=%d seconds=%d trace=%d"
          % (args.workload, args.runs, seconds, args.trace))
    print("%-32s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                              "spread", "bound"))
    summary = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else "WIDE"
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1,
                         "q3": q3, "spread": spread, "bound": bound,
                         "values": values}
        print("%-32s %12.5g %12.5g %12.5g %8.4f %6s %s"
              % (name, median, q1, q3, spread,
                 "" if bound is None else bound, verdict))
    print("host steal share per run: %s"
          % " ".join("%.3f" % r["host_steal"] if r["host_steal"] is not None
                     else "?" for r in runs))
    out = os.path.join(ROOT, ".bench_build", "spread-%s-trace%d.json"
                       % (args.workload, args.trace))
    with open(out, "w") as f:
        json.dump({"machine": machine, "workload": args.workload,
                   "seconds": seconds, "runs": runs, "summary": summary},
                  f, indent=1)
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

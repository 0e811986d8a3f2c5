#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload on several seeds
and prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json and
the host-speed probe of every run.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads rewrite chase serve]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    calib = [line for line in lines if line.startswith("# host:")]
    return json.loads(lines[-1]), wall, calib[-1] if calib else ""


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    opts = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in opts.workloads:
        values = {name: [] for name in bounds}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result, wall, calib = run_once(bench["command"], workload, seed, opts.seconds, 0)
            assert result["correct"] and result["failed"] == 0, result
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shown = {n: round(v[-1], 6) for n, v in values.items()}
            print(f"{workload} seed {seed}: wall {wall:.1f}s {shown} {calib}", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            print(f"{workload} {name}: median {statistics.median(vals):.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}", flush=True)


if __name__ == "__main__":
    main()

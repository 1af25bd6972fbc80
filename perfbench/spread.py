#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the workload --runs times through run.py, each with another seed and
BENCHMARK.json's run_seconds, and prints per metric the median, the
quartile spread (Q3 - Q1, as statistics.quantiles(n=4) gives them) as a
share of the median, and that share against the metric's bound.  Raw
results are appended to _build/perfbench-spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
a = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
values = {name: [] for name in bounds}
for i in range(a.runs):
    seed = a.first_seed + i
    t0 = time.monotonic()
    p = subprocess.run(bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                       stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    res = json.loads(p.stdout.strip().splitlines()[-1])
    with open("_build/perfbench-spread.jsonl", "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": seed, "result": res}) + "\n")
    if not res["correct"]:
        print(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed", file=sys.stderr)
    for name in values:
        values[name].append(res["metrics"][name]["value"])
    print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
          + f" wall={wall:.1f}s", file=sys.stderr)

print(f"{a.workload}: {a.runs} runs")
for name, xs in values.items():
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4)
    share = (q[2] - q[0]) / med if med else float("inf")
    print(f"  {name:14s} median {med:12.4f}  spread {share:7.2%}  bound {bounds[name]:.0%}"
          f"  {'ok' if share <= bounds[name] / 3 else 'WIDE'}")

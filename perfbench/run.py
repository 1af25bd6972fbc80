#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call builds perfbench/main.exe
with dune (release profile, shared dune cache off, so nothing is written
outside the checkout); later calls reuse the build.  The workload's
summary and, as the last line, its result object go to stdout; build
output and diagnostics go to stderr.

--selftest corrupts one answer per op in each workload (main.exe
--perturb) and checks that the correctness gate reports it, then checks
that an unperturbed run on a second seed passes.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["q4-answers", "wide-h", "serve-rw", "shard-q4"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def stop_group(pgid):
    """SIGKILL whatever is left of the run's process group and wait until
    it is gone (shard workers are grandchildren, so they cannot be
    waited for directly)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args):
    """Runs main.exe in its own process group; returns (exit code, stdout)."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    stop_group(p.pid)
    return p.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest():
    ok = True
    for w in WORKLOADS:
        code, out = run(["--workload", w, "--seed", "7", "--seconds", "1",
                         "--trace", "0", "--perturb"])
        res = result_of(out)
        tripped = code == 0 and res and not res["correct"] and res["failed"] > 0
        print(f"selftest {w}: perturbed answers {'tripped the gate' if tripped else 'NOT DETECTED'}"
              + (f" ({res['failed']} of {res['attempted']} ops failed)" if res else ""))
        code, out = run(["--workload", w, "--seed", "11", "--seconds", "1", "--trace", "0"])
        res = result_of(out)
        clean = code == 0 and res and res["correct"] and res["failed"] == 0
        print(f"selftest {w}: unperturbed run on a second seed {'passes' if clean else 'FAILS'}")
        ok = ok and tripped and clean
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.selftest:
        sys.exit(selftest())
    code, out = run(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the storage node's benchmark.

    python3 perfbench/run.py --workload put|get|restart|verify|all \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source tree.  It builds perfbench/bench.exe with
dune, runs it, and checks that the result line names exactly the metrics
BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1), with the declared units.  The result line is the last line of
standard output; the exit code is non-zero if the build, the run or that
check fails.  --workload all runs every workload in turn and prints their
human-readable lines only.  Span logs go to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(HERE, "out")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not installed")


def build():
    cmd = dune() + ["build", "--root", ROOT, "./perfbench/bench.exe"]
    # The shared dune cache lives outside the tree; build inside it only.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
             % (missing, extra, units))
    return result


def run(spec, workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with %d" % done.returncode)
    check_result(lines[-1], expected_metrics(spec, args.trace))
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few calls per world (the benchmark's own tests)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]] + ["all"]:
        fail("unknown workload " + args.workload)
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("not a source tree: no dune-project next to perfbench/")

    build()
    os.makedirs(OUT, exist_ok=True)
    if args.workload != "all":
        sys.stdout.write(run(spec, args.workload, args))
        return
    # Every workload in turn, for people: the human lines of each run.
    for w in spec["workloads"]:
        print(run(spec, w["name"], args).rstrip("\n").rsplit("\n", 1)[0])


if __name__ == "__main__":
    main()

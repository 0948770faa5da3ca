#!/usr/bin/env python3
"""Build and run one perfbench workload from a nocplan source checkout.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 38 --trace 0

Run it from the repository root.  It builds the benchmark program (bench.exe) and
the nocplan CLI from source into .bench_build/ (dune, release profile,
no shared cache), runs it, and checks its result line against
BENCHMARK.json: every end-to-end metric with --trace 0, every per-layer
metric with --trace 1 (a layer the workload does not measure reads -1).  The
last stdout line is the JSON result.  --workload all runs every
workload in turn.

Exit status: 0 when every operation passed its oracle, 1 when one did
not, 2 when the checkout is incomplete, the build fails or bench.exe
errs (no result line is printed then).
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
SCRATCH = os.path.join(BUILD_DIR, "perfbench")
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
NOCPLAN = os.path.join(BUILD_DIR, "default", "bin", "nocplan.exe")
# What the build and the workloads need besides perfbench/ itself.
REQUIRED = ["BENCHMARK.json", "dune-project", "lib", "bin/nocplan.ml",
            "test/testplan.json", "perfbench/dune-project"]
RUN_TIMEOUT_S = 170
UNMEASURED = -1.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe", "./bin/nocplan.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if done.returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace, spec):
    cmd = [BENCH, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--nocplan", NOCPLAN, "--scratch", SCRATCH]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: bench.exe exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{workload}: bench.exe exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: no result line")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    got = result["metrics"]
    extra = sorted(set(got) - set(names))
    if extra:
        fail(f"{workload}: metrics missing from BENCHMARK.json: {extra}")
    if not trace and any(n not in got for n in names):
        fail(f"{workload}: end-to-end metrics not measured: "
             f"{[n for n in names if n not in got]}")
    # The result line must carry every per-layer metric, but a workload
    # measures only its own layers (LAYERS.md): the others read
    # UNMEASURED, a value no measurement takes, and are named on stdout.
    unmeasured = [n for n in names if n not in got]
    result["metrics"] = {
        m["name"]: got.get(m["name"], {"value": UNMEASURED, "unit": m["unit"]})
        for m in wanted
    }
    for line in lines[:-1]:
        print(line)
    if unmeasured:
        print(f"{workload}: not measured on this workload, reported as "
              f"{UNMEASURED}: {' '.join(unmeasured)}")
    print(json.dumps(result), flush=True)
    return done.returncode == 0 and result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail(f"not a nocplan checkout (missing {', '.join(missing)}); "
             "run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    if any(w not in workloads for w in chosen):
        fail(f"unknown workload {args.workload}; one of {workloads} or all")
    build()
    os.makedirs(SCRATCH, exist_ok=True)
    ok = True
    for w in chosen:
        ok = run(w, args.seed, args.seconds, args.trace, spec) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

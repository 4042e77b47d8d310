#!/usr/bin/env python3
"""Build and run the benchmark for one workload; print its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ckpt_burst --seed 7 --seconds 16 --trace 0

Builds perfbench/ (a CMake package that compiles the repository's
libraries from the parent directory) into .bench_build/, runs the
dmr_perfbench binary with an output directory under .bench_build/, deletes
that directory afterwards, and prints the binary's table followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list (0 for a layer the workload does not run). Exits non-zero
when the build fails, when an output check fails, or when the binary's
metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_TAG = "PERFBENCH_RESULT "
WORKLOADS = ("ckpt_burst", "insitu_blocks", "sim_kraken")
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    """CARGO_TARGET_DIR when it names a directory inside the checkout."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    target = target.resolve()
    if target != ROOT and ROOT not in target.parents:
        target = ROOT / ".bench_build"
    return target


def build(build_dir):
    """Configures once, then builds the binary; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no repository sources next to {BENCH_DIR.name}/; cannot build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "dmr_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    exe = build_dir / "dmr_perfbench"
    return exe if exe.is_file() else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--corrupt", choices=("file", "data"),
                    help="damage one output byte (tests the output check)")
    ap.add_argument("--print-sim-expectations", action="store_true",
                    help="print sim_kraken's expected results and exit")
    args = ap.parse_args()

    broot = build_root()
    exe = build(broot / "perfbench")
    if exe is None:
        return 3

    out_dir = broot / f"out-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.print_sim_expectations:
        cmd.append("--print-sim-expectations")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"dmr_perfbench did not finish within {BINARY_TIMEOUT_S} s")
        return 5
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if args.print_sim_expectations:
        sys.stdout.write(done.stdout)
        return done.returncode

    result = None
    for line in done.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None:
        log(f"dmr_perfbench exited with {done.returncode} and printed no result")
        return done.returncode or 4

    metrics = {}
    for m in expected_metrics(args.trace):
        got = result["metrics"].get(m["name"])
        if got is None and args.trace:
            # A layer this workload does not run (e.g. des for middleware).
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} [{m['unit']}] missing or with another "
                f"unit: {got}")
            return 4
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the Xenic benchmark.

Run from the root of a Xenic source tree:

    python3 perfbench/run.py --workload retwis --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, default seeds
    python3 perfbench/run.py --selftest       # the benchmark's own tests

The simulator and the benchmark are compiled from source into the build
directory named by $CARGO_TARGET_DIR (default .bench_build) before each run;
after the first build this is an up-to-date check. Build output goes to
stderr, so the last line of stdout is always the run's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["retwis", "tpcc_no", "ycsb_hot", "retwis_drtmh"]


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no simulator sources under {ROOT}/src; run from a Xenic source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", help=f"one of {', '.join(WORKLOADS)}, or all")
    p.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=10, help="measured time per run")
    p.add_argument("--trace", choices=["0", "1"], default="0",
                   help="1: traced run plus layer microbenchmarks, per-layer metrics")
    p.add_argument("--selftest", action="store_true", help="build and run the benchmark's tests")
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.selftest:
        sys.exit(subprocess.call([build(build_dir, "perfbench_test")]))
    binary = build(build_dir, "perfbench")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in workloads:
        cmd = [binary, "--workload", name, "--seconds", str(args.seconds), "--trace", args.trace]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        sys.stdout.flush()
        status = max(status, subprocess.call(cmd))
    sys.exit(status)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the dosc benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim|infer|train|serve \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ together with the dosc
libraries under src/ into $CARGO_TARGET_DIR (default .bench_build); later
calls only bring that build up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, without
a result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim", "infer", "train", "serve")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the build tree
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "dosc_perfbench"],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(out, "dosc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # On timeout the child is killed and reaped before this returns.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"perfbench: cannot run {binary}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

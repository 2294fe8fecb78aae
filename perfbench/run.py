#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run compiles the fgpu library
and takes about a minute on four cores, later runs only check it is current.
Build output goes to stderr, so the last stdout line is the harness's JSON
result. Traced runs also write their spans to the build directory. Exits
non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench")] + sys.argv[1:] + ["--spans-dir", out]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--tiny] [--inject-mismatch]

Configures and builds perfbench/ (the hcq library plus the hcq_perfbench
driver, Release) under .bench_build/perfbench, or under $CARGO_TARGET_DIR
when set, then runs the driver with the same arguments.  Build output goes
to stderr; the driver's report goes to stdout and ends with one JSON line.
The exit code is the driver's: 0 when every correctness check passed.
"""
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hcq_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(repo_root, needed)):
            fail(f"no hcq source tree here ({needed} missing next to perfbench/)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(repo_root, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    try:
        build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")
    driver = os.path.join(build_dir, "hcq_perfbench")
    try:
        result = subprocess.run([driver, *sys.argv[1:]], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s", code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <serve-zipf|edge-retune|paper-grid> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the libraries and the benchmark in
.bench_build/ (Release); later calls rebuild only what changed. Build output
goes to .bench_build/build.log. The benchmark's last line of standard output
is its JSON result; the exit code is the benchmark's own.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(3)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("repository sources (CMakeLists.txt, src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    cmd = [binary] + sys.argv[1:]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())

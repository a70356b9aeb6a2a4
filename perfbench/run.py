#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <roi_replay|roi_batched|program_durable>
                             --seed <n> --seconds <s> --trace <0|1>

The library is compiled from ../src into .bench_build/ (build output goes to
stderr), then e2e_bench runs with every argument passed through. Its report
goes to stdout; the last line is one JSON object with the run's verdict and
metrics. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "e2e_bench")
# A run ends well inside this; a hung run is killed rather than waited on.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no library sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    command = [BINARY] + argv + ["--work-dir",
                                 os.path.join(ROOT, ".bench_build", "work")]
    if "--plan" in argv:
        command = [BINARY] + argv
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

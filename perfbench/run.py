#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test-checks
    python3 perfbench/run.py --workload sizing [--seed <n>]

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repository's src/ tree plus the benchmark
program) in Release mode under $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls rebuild only what changed. Build output goes to
stderr, so the last line on stdout is the program's JSON result.
--test-checks builds and runs the tests showing each workload's output check
rejects known-wrong outputs; the sizing workload prints the observations the
workloads were sized from (see perfbench/README.md).
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = "perfbench"
# A run may take its --seconds plus this margin for set-up, warm-up and the
# traced run's extra timings; runs without --seconds get the margin plus the
# program's default of 10 s.
RUN_MARGIN_S = 140
DEFAULT_SECONDS = 10


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "core", "Transform.h")):
        fail("no program sources under ./src: run from the repository root")
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        fail("no %s/CMakeLists.txt: run from the repository root" % BENCH_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("configuring the build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("building the benchmark failed")


def run_timeout(argv):
    """Seconds the program may run for the arguments argv."""
    seconds = DEFAULT_SECONDS
    if "--seconds" in argv[:-1]:
        try:
            seconds = max(float(argv[argv.index("--seconds") + 1]), 0)
        except ValueError:
            pass  # the program rejects the value itself
    return seconds + RUN_MARGIN_S


def run(command, timeout):
    """Runs command, passing its output through; returns its exit status."""
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out after %g s" % timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if argv == ["--test-checks"]:
        build(build_dir)
        return run([os.path.join(build_dir, "perfbench_check_test"), BENCH_DIR],
                   run_timeout([]))
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    build(build_dir)
    sys.stdout.flush()
    return run([os.path.join(build_dir, "perfbench"), "--bench-dir", BENCH_DIR]
               + argv, run_timeout(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild incrementally. Every argument is passed through to the
benchmark binary, whose last stdout line is the JSON result. Exits nonzero
without printing a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    generator = ["-G", "Ninja"] if subprocess.run(
        ["ninja", "--version"], capture_output=True).returncode == 0 else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = build(build_dir)
    if binary is None:
        return 2
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        # Spans are kept in memory and written here when the run ends.
        args += ["--trace-out", os.path.join(build_dir, "spans.jsonl")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

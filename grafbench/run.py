#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 grafbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds grafbench/ (which
compiles the library from src/) into the directory named by the
CARGO_TARGET_DIR environment variable, default .bench_build, then runs the
benchmark binary with the worker pool pinned to one thread (GRAF_THREADS=1).
Build output goes to stderr; the binary's last stdout line is the result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "grafbench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("grafbench: build failed: " + " ".join(cmd))


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    env = dict(os.environ, GRAF_THREADS="1", GRAFBENCH_OUT=build_dir)
    done = subprocess.run([os.path.join(build_dir, "grafbench")] + sys.argv[1:], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

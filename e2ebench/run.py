#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it with the given arguments.

Run from the repository root:

    python3 e2ebench/run.py --workload relu-k1-tcp --seed 1 --seconds 15 --trace 0

Every argument is passed through to bench_e2e (see e2ebench/README.md).
The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
build output goes to stderr, so bench_e2e's result line stays the last line
of standard output.  Exits nonzero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2ebench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "bench_e2e"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(build_dir, "bench_e2e")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

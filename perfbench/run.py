#!/usr/bin/env python3
"""Builds and runs the hyperfex end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload query|ingest|paper --seed N \
        --seconds S --trace 0|1

The first run in a checkout builds the benchmark package (perfbench/,
outside the root workspace) in release mode, offline and with its committed
lock file, into $CARGO_TARGET_DIR (default: .bench_build at the checkout
root); later runs reuse that build. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. The exit
status is the benchmark's: 0 when every check passed, non-zero otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--locked", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: benchmark build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "hyperfex-perfbench")
    command = [binary, *sys.argv[1:], "--out", os.path.join(HERE, "out")]
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

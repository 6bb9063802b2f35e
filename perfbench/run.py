#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Build output goes to standard error; the benchmark's own
standard output ends with its one-line JSON result. The exit code is the
build's when the build fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        os.path.dirname(HERE), ".bench_build"
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--out-dir", os.path.join(HERE, "out")]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

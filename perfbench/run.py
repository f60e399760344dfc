#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

    python3 perfbench/run.py --workload <real_check|lattice|torus|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo's target directory is
$CARGO_TARGET_DIR (default: .bench_build at the repository root). Build
output goes to standard error; the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's: non-zero when
the build fails or any operation failed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

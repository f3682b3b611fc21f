#!/usr/bin/env python3
"""Builds the release `inconsist` server and the `loadbench` driver from
source, then runs one benchmark workload.

    python3 loadbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`). All arguments are passed to the driver; its last line of
standard output is the JSON result. Exits non-zero when a build fails or
when any answer the server gives is wrong.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo(*args):
    # Cargo's own output goes to stderr, so the driver's last stdout line
    # stays the JSON result.
    return subprocess.run(["cargo", *args], cwd=ROOT, stdout=sys.stderr).returncode


def main():
    env_target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = env_target if os.path.isabs(env_target) else os.path.join(ROOT, env_target)
    os.environ["CARGO_TARGET_DIR"] = target
    if cargo("build", "--release", "--offline", "-p", "inconsist-cli", "--bin", "inconsist") != 0:
        print("loadbench: building the server failed", file=sys.stderr)
        return 1
    if cargo("build", "--release", "--offline", "--manifest-path", "loadbench/Cargo.toml") != 0:
        print("loadbench: building the driver failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    driver = [os.path.join(release, "loadbench"), "--server", os.path.join(release, "inconsist")]
    return subprocess.run(driver + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

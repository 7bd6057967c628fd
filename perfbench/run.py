#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <overload-mix|capacity-search|fleet-churn> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR, or to .bench_build at the repository
root when that is unset. A traced run (--trace 1) also writes its spans
to <target dir>/perfbench-spans/<workload>-seed<n>.json. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for --seconds plus set-up; this bounds a stuck one.
RUN_TIMEOUT_S = 170


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if flag(args, "--trace") == "1" and flag(args, "--spans-out") is None:
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.json"
        args += ["--spans-out", str(target / "perfbench-spans" / name)]
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"), *args],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build jim-serve and the benchmark client from source, then run one workload.

    python3 perfbench/run.py --workload chat|wide|resume --seed N --seconds S --trace 0|1

Run from the root of a checkout. Both binaries are built in release mode
into $CARGO_TARGET_DIR (default `.bench_build`); the client starts the
unmodified `jim-serve` as a child process. Run artifacts (server logs,
per-run JSON records, traced spans) land in `.bench_out/`. The last line
of stdout is the result JSON; the exit code is nonzero on any failure.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
    # Cargo's progress goes to stderr; stdout is reserved for the result.
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["chat", "wide", "resume"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "jim-server", "--bin", "jim-serve")
    build(os.path.join(ROOT, "perfbench", "Cargo.toml"))

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "jim-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "jim-serve"),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

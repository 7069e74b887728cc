#!/usr/bin/env python3
"""Runs one workload of the replay benchmark in its own process.

    python3 perfbench/run.py --workload village_hit --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark package (perfbench/,
release profile, offline) into $CARGO_TARGET_DIR (default .bench_build),
then runs the workload and forwards its output. The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the spans and per-layer JSON are written to
perfbench/out/<workload>-seed<n>/. The line before it holds wall-clock
figures and each check's verdict, for reference.

Exits nonzero, printing no result, when the build or the run fails or a
check rejects the output.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=0x5EED, help="scene seed")
    ap.add_argument("--seconds", type=float, default=8.0, help="wall seconds of timed passes")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=850,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "mltc-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--out", os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")]
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=175)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: {args.workload} exited {run.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: runs the benchmark as two sets of runs and compares them.

    python3 perfbench/steady.py [--workloads village_hit,service_2c] [--runs 10]
                                [--seconds 8]

Run from the repository root. Each set runs every workload --runs times,
each run with another --seed (0, 1, ...), the same seeds in both sets.
For every end-to-end metric of BENCHMARK.json it prints a Markdown table
row: both sets' median [first quartile, third quartile] and spread
(interquartile range as a share of the median, from
statistics.quantiles(n=4)), the change of the second median against the
first in the metric's worse direction, and whether both spreads and that
change stay within the metric's bound. The unscaled on-CPU and the
wall-clock replay rates, which are not metrics, are compared the same way
under the bound of replay_mtaps_s, to show what the scaled timing buys;
they do not decide the verdict. It also checks that the share of failed
operations is identical in the two sets.

A bound should exceed three times the largest spread seen. Exits 1 when
any comparison of a metric fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_RATES = {
    "replay_mtaps_s_cpu": "unscaled on-CPU rate (not a metric)",
    "replay_mtaps_s_wall": "wall-clock rate (not a metric)",
}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed (exit {out.returncode})")
    reference, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in REFERENCE_RATES:
        values[name] = reference["reference"][name]["value"]
    return values, result["attempted"], result["failed"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def cell(s):
    return f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] {s[3]:.3f}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    all_workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(all_workloads))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    rows = list(metrics.values()) + [dict(metrics["replay_mtaps_s"], name=n) for n in REFERENCE_RATES]
    ok = True
    print("| workload | metric | bound | set 1 | set 2 | second worse by | verdict |")
    print("|---|---|---|---|---|---|---|")
    for w in args.workloads.split(","):
        sets = [[run_once(w, seed, args.seconds) for seed in range(args.runs)] for _ in range(2)]
        shares = [sum(r[2] for r in runs) / sum(r[1] for r in runs) for runs in sets]
        if shares[0] != shares[1]:
            ok = False
            print(f"| `{w}` | failed share | | {shares[0]:.6f} | {shares[1]:.6f} | | FAIL |")
        for i, m in enumerate(rows):
            a, b = (summary([r[0][m["name"]] for r in runs]) for runs in sets)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b[0] - a[0]) / a[0]
            good = max(a[3], b[3]) <= m["bound"] and worse <= m["bound"]
            name = REFERENCE_RATES.get(m["name"], f"`{m['name']}`")
            if m["name"] in REFERENCE_RATES:
                bound, verdict = "", ""
            else:
                ok &= good
                bound, verdict = f"{m['bound']:.2f}", "ok" if good else "FAIL"
            print(f"| {f'`{w}`' if i == 0 else ''} | {name} | {bound} | {cell(a)} | {cell(b)}"
                  f" | {100 * worse:+.1f}% | {verdict} |", flush=True)
        print(f"\n`{w}`: failed share {shares[0]:.6f} / {shares[1]:.6f}\n", file=sys.stderr)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

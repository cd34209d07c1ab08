#!/usr/bin/env python3
"""Steadiness check for the DS-GL benchmark.

Runs the benchmark command from BENCHMARK.json repeatedly, one seed
after another and interleaving the workloads within each seed, then
prints for every end-to-end metric its median, the interquartile range
as a share of the median, and the max/min ratio next to the metric's
bound. Use it to set the bounds and to re-check them whenever the
baseline is measured again.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads serve_hot,large_graph]
                                [--out perfbench/out/steady.json]

Run from the root of the repository. Every run lasts the benchmark's
`run_seconds`, the length the bounds were set at. A spread above a
third of its bound is flagged `wide`, above the bound `OVER`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds, trace=0):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf"), max(values) / min(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in workloads:
            res, wall = run_once(spec["command"], w, seed, seconds)
            results[w].append(res)
            walls[w].append(wall)
            fails = f"{res['failed']}/{res['attempted']} failed"
            shown = ", ".join(
                f"{n}={v['value']:.6g}" for n, v in res["metrics"].items())
            print(f"[seed {seed}] {w}: {fails}, {wall:.1f}s wall: {shown}",
                  flush=True)

    report = {}
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, wall {min(walls[w]):.1f}-"
              f"{max(walls[w]):.1f}s, failed shares {sorted(shares)}")
        print(f"  {'metric':<16}{'median':>14}{'IQR/med':>10}{'max/min':>9}"
              f"{'bound':>7}  verdict")
        report[w] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr, ratio = spread(values)
            if iqr > bound:
                verdict = "OVER"
            elif iqr > bound / 3:
                verdict = "wide"
            else:
                verdict = "ok"
            print(f"  {name:<16}{med:>14.6g}{iqr:>10.4f}{ratio:>9.3f}"
                  f"{bound:>7}  {verdict}")
            report[w][name] = {"median": med, "iqr_share": iqr,
                               "max_over_min": ratio, "bound": bound,
                               "values": values}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports, for every
end-to-end metric of every workload, the median, the quartiles and the
spread (quartile distance over median) — the figures STEADINESS.md
records. Run from the repository root:

  python3 perfbench/steadiness.py --seeds 1-10 --json runs.json
  python3 perfbench/steadiness.py --workloads portal_zipf --seeds 1-5

Prints one markdown table per workload. Bounds come from
BENCHMARK.json; a spread at or above a third of its metric's bound is
flagged. The host steal share of each run (from its run record) is
summarized, so a noisy host shows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="write every run's values to this file")
    args = parser.parse_args()

    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(args.seconds),
                                          "--trace", str(args.trace)]
            start = time.monotonic()
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            record = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                  "perfbench-runs", f"{workload}-seed{seed}-untraced.json")
            steal = None
            if args.trace == 0 and os.path.isfile(record):
                with open(record) as f:
                    steal = json.load(f)["layer"].get("host.steal_fraction")
            runs[workload].append({"seed": seed, "exit": done.returncode, "wall_s": wall,
                                   "correct": result.get("correct"), "values": values,
                                   "steal": steal})
            print(f"{workload} seed {seed}: exit {done.returncode} correct "
                  f"{result.get('correct')} wall {wall:.1f}s", file=sys.stderr, flush=True)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(runs, f, indent=1)

    for workload, entries in runs.items():
        steal = [e["steal"] for e in entries if e.get("steal") is not None]
        print(f"\n### {workload}\n\n{len(entries)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"--seconds {args.seconds}, longest run {max(e['wall_s'] for e in entries):.1f} s"
              + (f", host steal per run {min(steal):.3f}..{max(steal):.3f}" if steal else "")
              + "\n")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name in entries[0]["values"]:
            values = [e["values"][name] for e in entries if name in e["values"]]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = " (≥ bound/3)" if bound is not None and spread >= bound / 3 else ""
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f}{flag} | "
                  f"{bound if bound is not None else '-'} |")
    failed = [(w, e["seed"]) for w, es in runs.items() for e in es
              if e["exit"] != 0 or not e["correct"]]
    if failed:
        print(f"\nfailed runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

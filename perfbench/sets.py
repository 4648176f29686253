#!/usr/bin/env python3
"""Runs one set of the benchmark and prints each end-to-end metric's spread.

A set is the command of BENCHMARK.json run once per seed on every workload
(untraced). For each metric it prints the quartiles and median of the runs,
as statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles over the median. Given two earlier sets'
JSON-lines files instead, it prints both and the gap between their medians.

    python3 perfbench/sets.py run --seeds 1-10 --out .bench_build/set-a.jsonl
    python3 perfbench/sets.py compare .bench_build/set-a.jsonl .bench_build/set-b.jsonl

Run from the repository root. Builds go to CARGO_TARGET_DIR (default
.bench_build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    bench = load_benchmark()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a") as out:
        for workload in bench["workloads"]:
            for seed in seeds_of(args.seeds):
                cmd = bench["command"] + [
                    "--workload", workload["name"], "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                start = time.time()
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
                elapsed = time.time() - start
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{workload['name']} seed {seed} failed:\n{proc.stderr}")
                result = json.loads(lines[-1])
                result.update(workload=workload["name"], seed=seed, elapsed=elapsed)
                out.write(json.dumps(result) + "\n")
                out.flush()
                print(f"{workload['name']} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
    summarize([args.out])


def summary(path):
    runs = {}
    with open(path) as f:
        for line in f:
            result = json.loads(line)
            runs.setdefault(result["workload"], []).append(result)
    table = {}
    for workload, results in runs.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            table[(workload, name)] = (q1, median, q3, (q3 - q1) / median)
        shares = {r["failed"] / r["attempted"] for r in results}
        table[(workload, "failed share")] = shares
    return table


def summarize(paths):
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    tables = [summary(p) for p in paths]
    for key in tables[0]:
        workload, name = key
        if name == "failed share":
            print(f"{workload}: failed share {[sorted(t[key]) for t in tables]}")
            continue
        cells = []
        for t in tables:
            q1, median, q3, spread = t[key]
            cells.append(f"q1 {q1:.6g} median {median:.6g} q3 {q3:.6g} spread {spread:.4f}")
        line = f"{workload:13s} {name:17s} " + " | ".join(cells)
        if len(tables) == 2:
            first, second = tables[0][key][1], tables[1][key][1]
            line += f" | median gap {abs(second - first) / first:.4f}"
        print(f"{line} | bound {bounds.get(name)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.mode == "run":
        run(args)
    else:
        summarize(args.sets)


if __name__ == "__main__":
    main()

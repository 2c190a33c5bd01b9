#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs perfbench/run.py once per
seed on every workload of BENCHMARK.json (untraced, one run at a time)
and prints, for every end-to-end metric, the median and the quartile
spread (Q3 - Q1) / median of its values against the metric's bound.

    python3 perfbench/steadiness.py [--seeds 1-10]

Each spread, setup_s included, is marked "ok" below a third of its
bound (the room the bounds in BENCHMARK.json aim to leave for run-to-run
noise), "within bound" below the bound, and "OVER BOUND" otherwise.
Exit status 1 when a run fails or a spread is over its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def verdict(spread, bound):
    if spread < bound / 3:
        return "ok"
    return "within bound" if spread < bound else "OVER BOUND"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs, ok = {}, True
    for w in workloads:
        runs[w] = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and line["correct"]
            values = {k: v["value"] for k, v in line["metrics"].items()}
            runs[w].append(values)
            print(f"{w} seed {seed}: correct={line['correct']} " +
                  " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)
    print()
    for w in workloads:
        for e in spec["end_to_end"]:
            values = [r[e["name"]] for r in runs[w]]
            if len(values) < 2:
                continue
            spread = benchlib.quartile_spread(values)
            v = verdict(spread, e["bound"])
            ok = ok and v != "OVER BOUND"
            print(f"{w:18s} {e['name']:14s} median={benchlib.median(values):<12.5g}"
                  f" spread={spread:.4f} bound={e['bound']} {v}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of fleda: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a fleda source tree. The first run builds the
library and the perfbench binary (perfbench/src) into
.bench_build/perfbench; later runs only re-check the build. The binary
sets each workload up several times, warms it up once, repeats its work
at least twice and for as long as the next repetition still ends within
--seconds, and checks its outputs.
With --trace 0 this script prints the end-to-end metrics of
BENCHMARK.json; with --trace 1, the per-layer metrics (the library
profiler and the bench's spans are on, and repetitions alternate
untraced and traced so the tracing overhead is measured too).

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it identifies the host and the source it measured, so
results from different hosts or sources are never compared.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1
BINARY_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def nproc():
    return len(os.sched_getaffinity(0))


def pinned_env(trace):
    """The environment with every FLEDA_* knob cleared, then the ones
    the library reads pinned: pool size, the profiler on only when
    tracing, and warnings-only logging. The calling thread works in
    every parallel loop next to the pool's workers, so a pool of
    nproc - 1 runs one thread per core, not one more than there are
    cores; at most 3, so larger hosts split the work the same way."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLEDA_")}
    env["FLEDA_THREADS"] = str(max(1, min(3, nproc() - 1)))
    env["FLEDA_PROFILE"] = "1" if trace else "0"
    env["FLEDA_LOG_LEVEL"] = "warn"
    return env


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", str(nproc())], check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            lines = f.read().splitlines()
    except OSError:
        return "unknown", []
    model, flags = "unknown", []
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() == "model name" and model == "unknown":
            model = value.strip()
        if key.strip() == "flags" and not flags:
            flags = value.split()
    isa = ["sse2", "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
           "avx512vl", "avx512_vnni", "amx_tile"]
    return model, [f for f in isa if f in flags]


def source_digest():
    """sha256 over the library sources and build file, so records of
    different code never pass for one another."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in files + [ROOT / "CMakeLists.txt"]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the source tree, or None when the tree is not itself the
    top of a git work tree (an exported checkout)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def host_record(raw):
    model, isa = cpu_model()
    return {"host": {"cpu": model, "nproc": nproc(), "isa": isa,
                     "pool_threads": raw["pool_threads"]},
            "git_commit": git_commit(), "source_digest": source_digest(),
            "workload": raw["workload"], "seed": raw["seed"],
            "trace": raw["trace"]}


def self_test():
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    ok = unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own unit tests and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        print(f"perfbench: {ROOT} holds no fleda source tree", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r} (one of {names})")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(float(seconds)), "--trace", str(args.trace),
             "--work-dir", str(work)],
            env=pinned_env(args.trace), stdout=subprocess.PIPE, text=True,
            timeout=BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: binary exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    line, problems = benchlib.result(raw, spec, benchlib.load_layers())
    for p in problems:
        print("perfbench: FAILED " + p, file=sys.stderr)
    print(json.dumps(host_record(raw)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

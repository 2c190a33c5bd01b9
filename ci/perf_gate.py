#!/usr/bin/env python3
"""Perf-trajectory gate: diff this run's BENCH_*.json against the
previous successful main run's `bench-trajectory` artifact and fail on
a >20% regression in the headline numbers.

Gated metrics (current vs previous):
  - BENCH_sim.json     events_per_sec                  must be >= 0.8x
  - BENCH_sim.json     thousand_clients.round_host_ms  must be <= 1.2x
  - BENCH_sim.json     arms_race.{detector_precision,detector_recall,
                       multi_krum_auc,reputation_auc}  must be >= 0.8x
  - BENCH_sim.json     hundred_k.events_per_sec        must be >= 0.8x
  - BENCH_comm.json    codecs[*].encode_mb_per_s       must be >= 0.8x
  - BENCH_comm.json    codecs[*].decode_mb_per_s       must be >= 0.8x
  - BENCH_kernels.json shapes[*].auto_gflops           must be >= 0.8x

Stdlib only (urllib + zipfile against the GitHub REST API). The gate is
advisory-by-absence: no GITHUB_TOKEN, no previous artifact, or an API
error exits 0 with a skip message, so forks and the first run on a
fresh repo pass trivially. An actual regression exits 1.

Environment: GITHUB_TOKEN, GITHUB_REPOSITORY ("owner/repo"), and
optionally GITHUB_WORKFLOW_REF / PERF_GATE_WORKFLOW (workflow file name,
default ci.yml) and PERF_GATE_BRANCH (default main).
"""

import io
import json
import os
import sys
import urllib.error
import urllib.request
import zipfile

API = "https://api.github.com"
ARTIFACT_NAME = "bench-trajectory"
TOLERANCE = 0.20  # fail beyond +/-20%


def skip(message):
    print(f"perf_gate: SKIP - {message}")
    sys.exit(0)


def api_get(url, token, raw=False):
    request = urllib.request.Request(url)
    request.add_header("Authorization", f"Bearer {token}")
    request.add_header("X-GitHub-Api-Version", "2022-11-28")
    with urllib.request.urlopen(request, timeout=60) as response:
        body = response.read()
    return body if raw else json.loads(body)


def previous_artifact_files(token, repo, workflow, branch):
    """BENCH_*.json contents from the newest successful `branch` run of
    `workflow` that uploaded the trajectory artifact, or None."""
    runs = api_get(
        f"{API}/repos/{repo}/actions/workflows/{workflow}/runs"
        f"?branch={branch}&status=success&per_page=10",
        token,
    )
    for run in runs.get("workflow_runs", []):
        artifacts = api_get(run["artifacts_url"], token)
        for artifact in artifacts.get("artifacts", []):
            if artifact["name"] != ARTIFACT_NAME or artifact["expired"]:
                continue
            blob = api_get(artifact["archive_download_url"], token, raw=True)
            archive = zipfile.ZipFile(io.BytesIO(blob))
            files = {}
            for name in archive.namelist():
                if name.endswith(".json"):
                    files[os.path.basename(name)] = json.loads(
                        archive.read(name)
                    )
            if files:
                print(f"perf_gate: baseline = run {run['id']} "
                      f"({run.get('head_sha', '?')[:12]})")
                return files
    return None


def check(label, current, previous, lower_is_better=False):
    """Returns an error string on regression, None when within band."""
    if previous is None or current is None:
        return None  # metric absent on one side: schema drift, not perf
    if previous <= 0:
        return None
    ratio = current / previous
    direction = "<=" if lower_is_better else ">="
    bound = 1.0 + TOLERANCE if lower_is_better else 1.0 - TOLERANCE
    ok = ratio <= bound if lower_is_better else ratio >= bound
    status = "ok" if ok else "REGRESSION"
    print(f"perf_gate: {label}: {current:.1f} vs {previous:.1f} "
          f"(ratio {ratio:.3f}, need {direction} {bound:.2f}) {status}")
    if not ok:
        return (f"{label} regressed: {current:.1f} vs baseline "
                f"{previous:.1f} (ratio {ratio:.3f})")
    return None


def codec_rows(bench):
    return {row["name"]: row for row in (bench or {}).get("codecs", [])}


def shape_rows(bench):
    return {row["name"]: row for row in (bench or {}).get("shapes", [])}


def main():
    token = os.environ.get("GITHUB_TOKEN", "")
    repo = os.environ.get("GITHUB_REPOSITORY", "")
    workflow = os.environ.get("PERF_GATE_WORKFLOW", "ci.yml")
    branch = os.environ.get("PERF_GATE_BRANCH", "main")
    if not token or not repo:
        skip("GITHUB_TOKEN / GITHUB_REPOSITORY not set")

    try:
        with open("BENCH_sim.json") as f:
            sim_now = json.load(f)
        with open("BENCH_comm.json") as f:
            comm_now = json.load(f)
        with open("BENCH_kernels.json") as f:
            kernels_now = json.load(f)
    except OSError as e:
        print(f"perf_gate: FAIL - current bench output missing: {e}")
        sys.exit(1)

    try:
        baseline = previous_artifact_files(token, repo, workflow, branch)
    except (urllib.error.URLError, json.JSONDecodeError,
            zipfile.BadZipFile, KeyError) as e:
        skip(f"could not fetch previous artifact ({e})")
    if baseline is None:
        skip("no previous successful run with a bench-trajectory artifact")

    sim_prev = baseline.get("BENCH_sim.json", {})
    comm_prev = baseline.get("BENCH_comm.json", {})
    kernels_prev = baseline.get("BENCH_kernels.json", {})

    errors = []
    errors.append(check(
        "sim.events_per_sec",
        sim_now.get("events_per_sec"), sim_prev.get("events_per_sec")))
    errors.append(check(
        "sim.thousand_clients.round_host_ms",
        sim_now.get("thousand_clients", {}).get("round_host_ms"),
        sim_prev.get("thousand_clients", {}).get("round_host_ms"),
        lower_is_better=True))
    # Arms-race quality trajectory: detection and robust-rule AUC are
    # quality numbers, not timings, but a silent slide still reads as a
    # regression. check() skips cleanly when the baseline artifact
    # predates the arms_race block.
    ar_now = sim_now.get("arms_race", {})
    ar_prev = sim_prev.get("arms_race", {})
    for metric in ("detector_precision", "detector_recall",
                   "multi_krum_auc", "reputation_auc"):
        errors.append(check(
            f"sim.arms_race.{metric}",
            ar_now.get(metric), ar_prev.get(metric)))
    # K = 100k streaming-federation throughput (part 7); skips cleanly
    # when the baseline artifact predates the hundred_k block.
    errors.append(check(
        "sim.hundred_k.events_per_sec",
        sim_now.get("hundred_k", {}).get("events_per_sec"),
        sim_prev.get("hundred_k", {}).get("events_per_sec")))
    now_rows, prev_rows = codec_rows(comm_now), codec_rows(comm_prev)
    for name in sorted(set(now_rows) & set(prev_rows)):
        for metric in ("encode_mb_per_s", "decode_mb_per_s"):
            errors.append(check(
                f"comm.{name}.{metric}",
                now_rows[name].get(metric), prev_rows[name].get(metric)))
    now_shapes = shape_rows(kernels_now)
    prev_shapes = shape_rows(kernels_prev)
    for name in sorted(set(now_shapes) & set(prev_shapes)):
        errors.append(check(
            f"kernels.{name}.auto_gflops",
            now_shapes[name].get("auto_gflops"),
            prev_shapes[name].get("auto_gflops")))

    errors = [e for e in errors if e is not None]
    if errors:
        for e in errors:
            print(f"perf_gate: FAIL - {e}")
        sys.exit(1)
    print("perf_gate: all metrics within the 20% band")


if __name__ == "__main__":
    main()

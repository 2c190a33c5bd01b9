"""Arithmetic of the benchmark: reduces one raw perfbench run (the JSON
line the perfbench binary prints) into the metrics BENCHMARK.json names.

Nothing here measures; everything here is pure and tested by
test_benchlib.py. Conventions:

* A repetition is one unit of a workload's work (one paper table, or
  one federated run). Timings are medians over a run's repetitions.
* Spans are the bench's own wall-clock intervals on its main thread.
  A span's self time is its duration minus the time its child spans
  cover. Profiler phases are busy time summed over every thread that
  ran them; dividing by the parallel width (threads that can run pool
  work at once) turns phase time into the wall time it can explain.
* A ratio is reported together with its base as a separate metric, and
  is 0 when its base is 0.
"""

import json
import math
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def median(values):
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of
    statistics.quantiles(values, n=4) (the definition the benchmark's
    steadiness rule uses); 0 when the median is 0."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return 0.0 if mid == 0 else (q3 - q1) / abs(mid)


def ratio(numerator, base):
    """numerator / base, or 0 when nothing was counted in the base."""
    return numerator / base if base else 0.0


# ----------------------------------------------------------------- spans

class SpanTree:
    """Spans of one run, indexed as the perfbench binary wrote them."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s["parent"] >= 0:
                self.children[s["parent"]].append(i)

    def duration_ms(self, i):
        s = self.spans[i]
        return (s["end_ns"] - s["start_ns"]) / 1e6

    def self_ms(self, i):
        """Duration minus the time covered by child spans."""
        return self.duration_ms(i) - sum(self.duration_ms(c)
                                         for c in self.children[i])

    def phase_busy_ms(self, i):
        """Profiler phase time (self time, summed over threads) that ran
        while span i was open and no child span was."""
        own = sum(p["self_ms"] for p in self.spans[i]["phases"].values())
        inner = sum(p["self_ms"] for c in self.children[i]
                    for p in self.spans[c]["phases"].values())
        return max(0.0, own - inner)

    def unattributed_ms(self, i, width):
        """Self time of span i that no named leaf explains. A leaf span
        with no phase activity is itself a named leaf; otherwise only the
        wall-equivalent of its own phase time (busy / width) counts."""
        own = self.self_ms(i)
        busy = self.phase_busy_ms(i)
        if not self.children[i] and busy == 0.0:
            return 0.0
        return max(0.0, own - min(own, busy / width))

    def subtree(self, i):
        out, stack = [], [i]
        while stack:
            j = stack.pop()
            out.append(j)
            stack.extend(self.children[j])
        return out

    def coverage(self, i, width):
        """Share of span i's wall time explained by named leaves."""
        total = self.duration_ms(i)
        if total <= 0:
            return 0.0
        lost = sum(self.unattributed_ms(j, width) for j in self.subtree(i))
        return max(0.0, 1.0 - lost / total)

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s["name"] == name]

    def median_ms(self, name):
        """Median duration of the spans called `name` (None if none)."""
        idx = self.named(name)
        return median(self.duration_ms(i) for i in idx) if idx else None


# --------------------------------------------------------------- metrics

def load_layers():
    with open(HERE / "layers.json") as f:
        return json.load(f)


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return median(values) if values else None


def end_to_end(raw):
    """End-to-end metrics of an untraced run, by name (None where a
    failed repetition left nothing to measure)."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    wire = _median_or_none(r["wire_bytes"] for r in reps)
    return {
        "setup_s": median(raw["setup_s"]),
        "wall_s": _median_or_none(r["wall_s"] for r in reps),
        "samples_per_s": _median_or_none(
            r["counters"]["samples"] / r["wall_s"] for r in reps),
        "peak_rss_mb": raw["peak_rss_mb"],
        "avg_auc": _median_or_none(r["auc"] for r in reps),
        "wire_mb": None if wire is None else wire / 1e6,
        "sim_time_s": _median_or_none(r["sim_time_s"] for r in reps),
    }


def per_layer(raw):
    """Per-layer metrics of a traced run, by name; None where the run
    measured nothing for a metric (a layer the workload does not use)."""
    traced = [r for r in raw["reps"] if r["traced"]]
    untraced = [r for r in raw["reps"] if not r["traced"]]
    tree = SpanTree(raw["spans"])
    width = raw["parallel_width"]

    def phase(name, field):
        return _median_or_none(r["phases"][name][field]
                               for r in traced if name in r["phases"])

    def counter(name):
        return _median_or_none(r["counters"].get(name) for r in traced)

    def span_ms(name):
        return tree.median_ms(name)

    def to_s(ms):
        return None if ms is None else ms / 1e3

    def counted_ratio(num, base):
        n, b = counter(num), counter(base)
        return None if n is None or b is None else ratio(n, b)

    out = {
        "phys.netlist_ms": span_ms("phys.netlist"),
        "phys.place_ms": span_ms("phys.place"),
        "phys.route_ms": span_ms("phys.route"),
        "phys.features_ms": span_ms("phys.features"),
        "data.generate_s": to_s(span_ms("data.generate")),
        "data.samples": counter("data.samples"),
        "tensor.pack_ms": phase("kernel/pack", "total_ms"),
        "tensor.pack_calls": phase("kernel/pack", "count"),
        "nn.forward_ms": phase("train/forward", "self_ms"),
        "nn.backward_ms": phase("train/backward", "self_ms"),
        "nn.optimizer_ms": phase("train/optimizer", "self_ms"),
        "nn.steps": phase("train/optimizer", "count"),
        "models.flnet_fwd_ms": span_ms("models.flnet_fwd"),
        "models.flnet_bwd_ms": span_ms("models.flnet_bwd"),
        "models.pool_wait_ms": phase("pool/acquire", "total_ms"),
        "models.peak_instances": counter("models.peak_instances"),
        "comm.encode_ms": phase("codec/encode", "self_ms"),
        "comm.decode_ms": phase("codec/decode", "self_ms"),
        "comm.messages": counter("comm.messages"),
        "comm.up_bytes": counter("comm.up_bytes"),
        "comm.down_bytes": counter("comm.down_bytes"),
        "comm.raw_bytes": counter("comm.raw_bytes"),
        "fl.aggregate_ms": phase("agg/aggregate", "self_ms"),
        "fl.aggregate_calls": phase("agg/aggregate", "count"),
        "fl.run_self_ms": _median_or_none(
            tree.unattributed_ms(i, width) for i in tree.named("fl.run")),
        "fl.construct_ms": span_ms("fl.construct"),
        "fl.useful_update_ratio": counted_ratio("fl.updates_aggregated",
                                                "fl.deployments"),
        "fl.deployments": counter("fl.deployments"),
        "fl.detector_precision": counted_ratio("fl.detector_hits",
                                               "fl.detector_flags"),
        "fl.detector_flags": counter("fl.detector_flags"),
        "fl.detector_recall": counted_ratio("fl.detector_hits",
                                            "fl.attackers_scored"),
        "fl.attackers_scored": counter("fl.attackers_scored"),
        "sim.events": counter("sim.events"),
        "sim.dispatch_ms": phase("sim/dispatch", "self_ms"),
        "metrics.eval_ms": span_ms("metrics.eval"),
        "mem.rss_setup_mb": raw["rss_setup_mb"],
        "mem.rss_final_mb": raw["reps"][-1]["rss_mb"],
    }
    up, down = counter("comm.up_bytes"), counter("comm.down_bytes")
    raw_bytes = counter("comm.raw_bytes")
    out["comm.compression"] = (None if raw_bytes is None
                               else ratio(raw_bytes, up + down))
    for name in {s["name"] for s in tree.spans}:
        if name.startswith("core.method."):
            out["core.method_s." + name[len("core.method."):]] = to_s(
                span_ms(name))
    wall_traced = _median_or_none(r["wall_s"] for r in traced)
    wall_plain = _median_or_none(r["wall_s"] for r in untraced)
    out["trace.overhead_pct"] = (
        None if wall_traced is None or wall_plain is None
        else 100.0 * (wall_traced - wall_plain) / wall_plain)
    out["trace.coverage"] = _median_or_none(
        tree.coverage(i, width) for i in tree.named("rep"))
    return out


def failures(raw):
    """Every failed output check and error of a run, as strings."""
    out = list(raw["failures"])
    for r in raw["reps"]:
        out.extend(r["failures"])
    return out


def missing_metrics(values, wanted, applies):
    """Names in `wanted` the run should have measured but did not:
    `values` maps name -> number or None, `applies(name)` says whether
    the metric applies to this run's workload."""
    missing = []
    for name in wanted:
        v = values.get(name)
        if applies(name) and (v is None or not math.isfinite(v)):
            missing.append(name)
    return missing


def result(raw, spec, layers):
    """The benchmark's result line for one raw run: `spec` is
    BENCHMARK.json, `layers` is layers.json."""
    traced = bool(raw["trace"])
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    values = per_layer(raw) if traced else end_to_end(raw)
    workload = raw["workload"]

    def applies(name):
        if not traced:
            return True
        return workload in layers["metrics"][name]["workloads"]

    problems = failures(raw)
    for name in missing_metrics(values, [e["name"] for e in entries], applies):
        problems.append("metric not measured: " + name)
    metrics = {}
    for e in entries:
        v = values.get(e["name"])
        if v is None or not math.isfinite(v):
            v = 0.0
        metrics[e["name"]] = {"value": v, "unit": e["unit"]}
    return {
        "correct": not problems,
        "attempted": int(sum(r["attempted"] for r in raw["reps"])),
        "failed": len(problems),
        "metrics": metrics,
    }, problems

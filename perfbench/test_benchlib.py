"""Self-tests of the benchmark's own arithmetic (benchlib.py).

    python3 perfbench/run.py --self-test
"""

import json
import statistics
import unittest
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = benchlib.load_layers()


def span(name, parent, start_ms, end_ms, phases=None):
    return {"name": name, "parent": parent, "start_ns": start_ms * 1e6,
            "end_ns": end_ms * 1e6,
            "phases": {k: {"count": 1, "total_ms": v, "self_ms": v}
                       for k, v in (phases or {}).items()}}


def rep(traced, wall_s=2.0, **counters):
    base = {"samples": 100.0, "fl.updates_aggregated": 30.0,
            "fl.deployments": 40.0, "comm.up_bytes": 10.0,
            "comm.down_bytes": 30.0, "comm.raw_bytes": 80.0,
            "comm.messages": 8.0, "fl.detector_hits": 9.0,
            "fl.detector_flags": 10.0, "fl.attackers_scored": 12.0,
            "models.peak_instances": 5.0, "sim.events": 7.0,
            "data.samples": 11.0}
    base.update(counters)
    return {"traced": traced, "wall_s": wall_s, "auc": 0.7,
            "wire_bytes": 2e6, "sim_time_s": 3.0, "rss_mb": 50.0,
            "fingerprint": "f", "attempted": 10, "failures": [],
            "counters": base,
            "phases": {"train/optimizer": {"count": 4, "total_ms": 1.0,
                                           "self_ms": 1.0}} if traced else {}}


def raw_run(workload, trace, reps, spans=()):
    return {"workload": workload, "seed": 1, "trace": trace,
            "pool_threads": 4, "parallel_width": 4,
            "setup_s": [3.0, 1.0, 2.0], "rss_setup_mb": 20.0,
            "peak_rss_mb": 99.0, "failures": [], "reps": list(reps),
            "spans": list(spans)}


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [1.0, 1.1, 0.9, 1.3, 1.0, 0.95, 1.05, 1.2, 0.8, 1.02]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(benchlib.quartile_spread([5.0] * 10), 0.0)
        self.assertEqual(benchlib.quartile_spread([0.0, 0.0, 0.0]), 0.0)
        with self.assertRaises(ValueError):
            benchlib.quartile_spread([1.0])


class Ratios(unittest.TestCase):
    def test_ratio_with_empty_base_is_zero(self):
        self.assertEqual(benchlib.ratio(3, 4), 0.75)
        self.assertEqual(benchlib.ratio(3, 0), 0.0)

    def test_ratio_metrics_use_their_bases(self):
        m = benchlib.per_layer(raw_run("fleet_1k_robust", 1,
                                       [rep(False), rep(True)]))
        self.assertEqual(m["comm.compression"], 80.0 / (10.0 + 30.0))
        self.assertEqual(m["comm.raw_bytes"], 80.0)
        self.assertEqual(m["fl.useful_update_ratio"], 30.0 / 40.0)
        self.assertEqual(m["fl.deployments"], 40.0)
        self.assertEqual(m["fl.detector_precision"], 9.0 / 10.0)
        self.assertEqual(m["fl.detector_flags"], 10.0)
        self.assertEqual(m["fl.detector_recall"], 9.0 / 12.0)
        self.assertEqual(m["fl.attackers_scored"], 12.0)

    def test_ratio_with_nothing_flagged(self):
        m = benchlib.per_layer(raw_run(
            "fleet_1k_robust", 1,
            [rep(False), rep(True, **{"fl.detector_flags": 0.0,
                                      "fl.detector_hits": 0.0})]))
        self.assertEqual(m["fl.detector_precision"], 0.0)

    def test_samples_per_s_is_per_repetition(self):
        m = benchlib.end_to_end(raw_run(
            "paper_smoke", 0, [rep(False, 2.0), rep(False, 4.0),
                               rep(False, 5.0)]))
        self.assertEqual(m["samples_per_s"], 100.0 / 4.0)
        self.assertEqual(m["wall_s"], 4.0)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["wire_mb"], 2.0)


class Spans(unittest.TestCase):
    # rep [0, 100] ms holds a round loop [10, 70] whose phases ran 160 ms
    # of busy time over 4 threads, and an evaluation leaf [70, 90].
    SPANS = [span("rep", -1, 0, 100),
             span("fl.run", 0, 10, 70, {"train/forward": 100.0,
                                        "agg/aggregate": 60.0}),
             span("metrics.eval", 0, 70, 90)]

    def test_self_time_subtracts_children(self):
        tree = benchlib.SpanTree(self.SPANS)
        self.assertAlmostEqual(tree.self_ms(0), 100 - 60 - 20)
        self.assertAlmostEqual(tree.self_ms(1), 60)
        self.assertAlmostEqual(tree.self_ms(2), 20)

    def test_phase_time_is_split_between_parent_and_children(self):
        spans = [span("outer", -1, 0, 100, {"p": 50.0}),
                 span("inner", 0, 10, 30, {"p": 20.0})]
        tree = benchlib.SpanTree(spans)
        self.assertAlmostEqual(tree.phase_busy_ms(0), 30.0)
        self.assertAlmostEqual(tree.phase_busy_ms(1), 20.0)

    def test_unattributed_and_coverage(self):
        tree = benchlib.SpanTree(self.SPANS)
        # fl.run: 60 ms self, 160 ms busy / 4 threads = 40 ms explained.
        self.assertAlmostEqual(tree.unattributed_ms(1, 4), 20.0)
        # A leaf without phases is a named leaf: fully explained.
        self.assertAlmostEqual(tree.unattributed_ms(2, 4), 0.0)
        # The repetition's own 20 ms of glue is unexplained.
        self.assertAlmostEqual(tree.unattributed_ms(0, 4), 20.0)
        self.assertAlmostEqual(tree.coverage(0, 4), 1.0 - 40.0 / 100.0)
        # Phase time beyond the span's own wall explains all of it.
        self.assertAlmostEqual(tree.unattributed_ms(1, 1), 0.0)

    def test_span_metrics(self):
        raw = raw_run("fleet_1k_robust", 1,
                      [rep(False, 0.1), rep(True, 0.11), rep(False, 0.1),
                       rep(True, 0.13)], self.SPANS)
        m = benchlib.per_layer(raw)
        self.assertAlmostEqual(m["fl.run_self_ms"], 20.0)
        self.assertAlmostEqual(m["metrics.eval_ms"], 20.0)
        self.assertAlmostEqual(m["trace.coverage"], 0.6)
        # Medians of each side: 0.12 traced vs 0.10 untraced.
        self.assertAlmostEqual(m["trace.overhead_pct"], 20.0)


class Emission(unittest.TestCase):
    def test_layers_json_describes_exactly_the_per_layer_metrics(self):
        self.assertEqual([e["name"] for e in SPEC["per_layer"]],
                         list(LAYERS["metrics"]))
        workloads = {w["name"] for w in SPEC["workloads"]}
        for name, entry in LAYERS["metrics"].items():
            self.assertTrue(entry["workloads"], name)
            self.assertLessEqual(set(entry["workloads"]), workloads, name)
            self.assertTrue(entry["moves"] and entry["does_not_move"], name)

    def test_layers_json_defines_every_end_to_end_metric(self):
        for e in SPEC["end_to_end"]:
            self.assertIn(e["name"], LAYERS["end_to_end"])

    def test_every_metric_has_a_derivation(self):
        spans = [span("rep", -1, 0, 10), span("core.method.local", 0, 1, 2)]
        layer = benchlib.per_layer(raw_run("paper_smoke", 1,
                                           [rep(False), rep(True)], spans))
        rows = {"core.method_s." + r for r in
                ("local", "central", "fedprox", "fedprox_lg", "ifca",
                 "fedprox_finetune", "assigned_clustering", "alpha_sync")}
        for e in SPEC["per_layer"]:
            self.assertTrue(e["name"] in layer or e["name"] in rows, e["name"])
        plain = benchlib.end_to_end(raw_run("paper_smoke", 0, [rep(False)]))
        self.assertEqual(set(plain), {e["name"] for e in SPEC["end_to_end"]})

    def test_result_emits_every_metric_and_flags_missing_ones(self):
        spans = [span("rep", -1, 0, 10)]
        raw = raw_run("fleet_1k_robust", 1, [rep(False), rep(True)], spans)
        line, problems = benchlib.result(raw, SPEC, LAYERS)
        self.assertEqual(set(line["metrics"]),
                         {e["name"] for e in SPEC["per_layer"]})
        # No fl.run span: the round-loop self time was not measured.
        self.assertIn("metric not measured: fl.run_self_ms", problems)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], len(problems))
        # Metrics of layers the workload does not use read 0, unflagged.
        self.assertEqual(line["metrics"]["phys.place_ms"]["value"], 0.0)
        self.assertNotIn("metric not measured: phys.place_ms", problems)

    def test_untraced_result(self):
        raw = raw_run("paper_smoke", 0, [rep(False)])
        raw["reps"][0]["failures"] = ["paper_smoke: 7 of 8 rows"]
        line, problems = benchlib.result(raw, SPEC, LAYERS)
        self.assertEqual(set(line["metrics"]),
                         {e["name"] for e in SPEC["end_to_end"]})
        for e in SPEC["end_to_end"]:
            self.assertEqual(line["metrics"][e["name"]]["unit"], e["unit"])
        self.assertEqual(problems, ["paper_smoke: 7 of 8 rows"])
        self.assertEqual((line["attempted"], line["failed"]), (10, 1))


if __name__ == "__main__":
    unittest.main()

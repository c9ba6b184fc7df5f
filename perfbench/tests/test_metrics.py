"""Self-tests for the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.dont_write_bytecode = True

import metrics  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(metrics.percentile(values, 0.0), 1.0)
        self.assertEqual(metrics.percentile(values, 1.0), 4.0)
        self.assertAlmostEqual(metrics.percentile(values, 0.5), 2.5)
        self.assertAlmostEqual(metrics.percentile(values, 1.0 / 3.0), 2.0)

    def test_empty_is_zero(self):
        self.assertEqual(metrics.percentile([], 0.5), 0.0)


class TailTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(metrics.tail_quantile(1000), 0.99)
        self.assertEqual(metrics.tail_quantile(5000), 0.99)
        # 999 samples: p99 would have 9.99 beyond it, so step down.
        self.assertAlmostEqual(metrics.tail_quantile(999), 1.0 - 10.0 / 999)

    def test_at_least_ten_samples_beyond(self):
        for count in (20, 28, 100, 1600):
            q = metrics.tail_quantile(count)
            self.assertGreaterEqual(count * (1.0 - q), 10.0 - 1e-9)

    def test_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(metrics.tail_quantile(19), 1.0)
        self.assertEqual(metrics.tail_quantile(0), 1.0)
        values = [float(v) for v in range(9)]
        self.assertEqual(metrics.tail(values), (8.0, 1.0))

    def test_tail_value(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        value, q = metrics.tail(values)
        self.assertAlmostEqual(q, 0.9)
        self.assertAlmostEqual(value, metrics.percentile(values, 0.9))
        self.assertEqual(sum(v > value for v in values), 10)


class GeomeanTest(unittest.TestCase):
    def test_makespan_ratio_is_a_geometric_mean(self):
        self.assertAlmostEqual(metrics.geomean([2.0, 0.5]), 1.0)
        self.assertAlmostEqual(metrics.geomean([1.0, 4.0, 16.0]), 4.0)
        ratios = [1.1, 0.9, 1.3]
        self.assertAlmostEqual(
            metrics.geomean(ratios),
            math.exp(sum(map(math.log, ratios)) / 3))

    def test_empty_is_zero(self):
        self.assertEqual(metrics.geomean([]), 0.0)


class FailedShareTest(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(metrics.failed_share(0, 4000), 0.0)
        self.assertEqual(metrics.failed_share(1, 4), 0.25)

    def test_nothing_attempted_counts_as_all_failed(self):
        self.assertEqual(metrics.failed_share(0, 0), 1.0)


class ThroughputTest(unittest.TestCase):
    def test_total_jobs_over_total_time(self):
        # Two passes of 10 jobs: 1 s and 4 s -> 20 jobs in 5 s.
        self.assertAlmostEqual(metrics.throughput([10.0, 2.5]), 4.0)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [("a", 0.0, 5.0, -1, "")]
        self.assertEqual(metrics.self_times(spans), [5.0])

    def test_children_are_subtracted(self):
        spans = [("root", 0.0, 10.0, -1, ""),
                 ("x", 1.0, 3.0, 0, ""),
                 ("y", 5.0, 9.0, 0, "")]
        self.assertEqual(metrics.self_times(spans), [4.0, 2.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [("root", 0.0, 10.0, -1, ""),
                 ("x", 1.0, 6.0, 0, ""),
                 ("y", 4.0, 8.0, 0, "")]
        self.assertEqual(metrics.self_times(spans)[0], 3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("root", 2.0, 6.0, -1, ""),
                 ("x", 0.0, 3.0, 0, ""),
                 ("y", 5.0, 9.0, 0, "")]
        self.assertEqual(metrics.self_times(spans)[0], 2.0)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [("root", 0.0, 10.0, -1, ""),
                 ("child", 0.0, 6.0, 0, ""),
                 ("grandchild", 0.0, 4.0, 1, "")]
        self.assertEqual(metrics.self_times(spans), [4.0, 2.0, 4.0])


def raw_report(**overrides):
    raw = {"setup_s": [0.3, 0.1, 0.2], "latency_ms": [1.0, 2.0, 3.0],
           "jobs_per_s": [10.0], "makespan_ratio": [1.0, 1.0],
           "attempted": 3, "failed": 0, "peak_rss_kb": 2048,
           "counters": {}, "samples": {}, "spans": [], "notes": [],
           "failures": []}
    raw.update(overrides)
    return raw


class ReportTest(unittest.TestCase):
    def test_end_to_end(self):
        values = metrics.end_to_end(raw_report())
        self.assertEqual(set(values), set(metrics.END_TO_END))
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["jobs_per_s"], 10.0)
        self.assertAlmostEqual(values["makespan_ratio"], 1.0)
        self.assertAlmostEqual(values["peak_rss_mb"], 2.0)

    def test_latency(self):
        values = metrics.latency(raw_report())
        self.assertEqual(set(values), set(metrics.LATENCY))
        self.assertAlmostEqual(values["latency_p50_ms"], 2.0)
        # Three samples: the tail is the maximum.
        self.assertAlmostEqual(values["latency_p99_ms"], 3.0)

    def test_per_layer_from_spans_and_counters(self):
        spans = [["core.gsa.run", 0.0, 500.0, -1, "0/9"],
                 ["core.gsa.run", 0.0, 1500.0, -1, "1/9"],
                 ["sched.list_run.hlf", 0.0, 2.0, -1, "0/2"],
                 ["sweep", 0.0, 100.0, -1, "rep"],
                 ["sweep.summarize", 10.0, 12.0, 3, "rep"],
                 ["graph_hash.canonicalize", 0.0, 7.0, -1, "fj528"]]
        counters = {"core.gsa.proposals": 1000.0, "core.gsa.accepts": 50.0,
                    "sweep.threads": 4.0, "plan_cache.hits": 1.0,
                    "plan_cache.misses": 3.0}
        samples = {"sweep.run_ms": [1000.0], "trace.untraced_ms": [100.0],
                   "trace.traced_ms": [110.0]}
        values = metrics.per_layer(
            raw_report(spans=spans, counters=counters, samples=samples))
        self.assertEqual(set(values), set(metrics.PER_LAYER))
        self.assertAlmostEqual(values["core.gsa.run_ms.p50"], 1000.0)
        self.assertAlmostEqual(values["core.gsa.proposals_per_s"], 500.0)
        self.assertAlmostEqual(values["core.gsa.accept_ratio"], 0.05)
        self.assertAlmostEqual(values["sweep.parallel_efficiency"],
                               2002.0 / 4000.0)
        self.assertAlmostEqual(values["sweep.summarize_ms"], 2.0)
        self.assertAlmostEqual(values["graph_hash.canonicalize_ms.fj528"], 7.0)
        self.assertAlmostEqual(values["plan_cache.hit_ratio"], 0.25)
        self.assertAlmostEqual(values["trace.overhead_share"], 0.1)
        self.assertEqual(values["api.parse_ms.p50"], 0.0)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json and metrics.py must name the same metrics."""

    def test_metric_tables_agree(self):
        path = os.path.join(HERE, "..", "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as handle:
            bench = json.load(handle)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own arithmetic and of its metric list.

    python3 -m unittest discover -s odybench/tests
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import statistics  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import report  # noqa: E402
from stats import covered, percentile, quartile_spread, self_times  # noqa: E402


def span(id, parent, start, end, name="x", trace=0, **attrs):
    return {"trace": trace, "id": id, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end, "attrs": attrs}


class PercentileTest(unittest.TestCase):
    def test_ranks_of_one_to_five(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(percentile(xs, 0), 1)
        self.assertEqual(percentile(xs, 25), 2)
        self.assertEqual(percentile(xs, 50), 3)
        self.assertEqual(percentile(xs, 100), 5)
        self.assertAlmostEqual(percentile(xs, 99), 4.96)

    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(percentile([10, 20], 50), 15)
        self.assertAlmostEqual(percentile([0, 10, 20, 30], 90), 27)

    def test_single_sample_and_empty(self):
        self.assertEqual(percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_p50_is_the_median(self):
        xs = [0.3, 9.1, 2.2, 4.4, 1.0, 7.7]
        self.assertAlmostEqual(percentile(xs, 50), statistics.median(xs))

    def test_quartile_spread_matches_statistics_quantiles(self):
        xs = [1.0, 1.1, 0.9, 1.2, 1.05, 0.95, 1.0, 1.3, 0.8, 1.02]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(quartile_spread(xs), (q3 - q1) / statistics.median(xs))
        self.assertEqual(quartile_spread([2.0] * 5), 0)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(covered([], 0, 100), 0)
        self.assertEqual(covered([(10, 30), (20, 50)], 0, 100), 40)
        self.assertEqual(covered([(60, 70), (10, 20)], 0, 100), 20)
        self.assertEqual(covered([(90, 120), (-5, 5)], 0, 100), 15)
        self.assertEqual(covered([(10, 20), (12, 18)], 0, 100), 10)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([span(0, -1, 5, 17)]), {0: 12})

    def test_only_direct_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 1, 20, 50), span(3, 0, 70, 80)]
        self.assertEqual(self_times(spans), {0: 40, 1: 20, 2: 30, 3: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60)]
        self.assertEqual(self_times(spans)[0], 50)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 130)]
        self.assertEqual(self_times(spans), {0: 90, 1: 40})


class MetricListTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_benchmark_json_names_the_reported_metrics(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], report.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]}, report.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]],
                         [(name, unit) for name, unit, _, _ in report.PER_LAYER])

    def test_readme_maps_every_per_layer_metric(self):
        readme = (BENCH / "README.md").read_text()
        for name, _, _, _ in report.PER_LAYER:
            self.assertIn("`%s`" % name, readme)

    def test_per_iteration_reads_spans(self):
        spans = [
            span(0, -1, 0, 1000, "batch"),
            span(1, 0, 0, 600, "spark.pass", stages=2, tasks=5, shuffle_write_mb=3.0, executor_run_s=1,
                 executor_cpu_s=1, gc_s=0, deser_s=0, result_mb=1),
            span(2, 0, 600, 700, "cluster.merge"),
            span(3, 0, 700, 900, "cluster.schedule"),
            span(4, 3, 700, 750, "cluster.plan"),
            span(5, 3, 750, 850, "cluster.steal_sim"),
            span(6, -1, 1000, 1200, "index.build", series=4),
            span(7, -1, 1200, 1500, "index.exact", ops=100),
        ]
        (row,) = report.per_iteration(spans)
        self.assertEqual(row["spark.passes"], 1)
        self.assertEqual(row["spark.tasks"], 5)
        self.assertAlmostEqual(row["cluster.merge_ms"], 1e-4)
        self.assertAlmostEqual(row["cluster.self_s"], (100 + 50 + 50 + 100) / 1e9)
        self.assertAlmostEqual(row["index.build_ns_per_series"], 50)
        self.assertAlmostEqual(row["index.exact_ns_per_op"], 3)
        self.assertAlmostEqual(row["stages_s"], 900 / 1e9)


if __name__ == "__main__":
    unittest.main()

"""Tests of tools/perf_ab.py's summary math: quartiles, per-pair wins by
metric direction, the IQR rule, the paper-cost equality check, and the
parsing of one benchmark run.

Run: python3 -m unittest discover -s tools/tests
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import perf_ab  # noqa: E402


def side(passes=8, failed=0, **metrics):
    return {"passes": passes, "failed": failed, "metrics": metrics}


def pair(base, head):
    return {"base": base, "head": head}


class QuartilesTest(unittest.TestCase):
    def test_single_value(self):
        self.assertEqual(perf_ab.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_matches_exclusive_quantiles(self):
        # statistics.quantiles(n=4), method 'exclusive', on 1..10.
        self.assertEqual(perf_ab.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))


class WinsTest(unittest.TestCase):
    def test_direction_and_ties(self):
        pairs = [pair(side(q=10.0), side(q=12.0)),
                 pair(side(q=10.0), side(q=9.0)),
                 pair(side(q=10.0), side(q=10.0))]
        self.assertEqual(perf_ab.wins(pairs, "q", "higher"), (1, 3))
        self.assertEqual(perf_ab.wins(pairs, "q", "lower"), (1, 3))

    def test_sim_cost_drift_is_a_tie(self):
        sim = perf_ab.SIM_COST
        pairs = [pair(side(**{sim: 743.3190000000002}),
                      side(**{sim: 743.3190000000001})),
                 pair(side(**{sim: 743.319}), side(**{sim: 743.318}))]
        self.assertEqual(perf_ab.wins(pairs, sim, "lower"), (1, 2))
        # Other metrics keep comparing raw values.
        pairs = [pair(side(q=743.3190000000001), side(q=743.3190000000002))]
        self.assertEqual(perf_ab.wins(pairs, "q", "higher"), (1, 1))

    def test_missing_metric_is_not_counted(self):
        pairs = [pair(side(q=1.0), side()), pair(side(q=1.0), side(q=2.0))]
        self.assertEqual(perf_ab.wins(pairs, "q", "higher"), (1, 1))


class SummarizeTest(unittest.TestCase):
    def test_rows(self):
        pairs = [pair(side(qps=b), side(qps=h))
                 for b, h in zip([10, 11, 12, 13, 14], [14, 15, 16, 17, 18])]
        (row,) = perf_ab.summarize(pairs, {"qps": "higher"})
        self.assertEqual(row["base"]["median"], 12)
        self.assertEqual(row["base"]["q1"], 10.5)
        self.assertEqual(row["base"]["q3"], 13.5)
        self.assertEqual(row["base"]["iqr"], 3.0)
        self.assertAlmostEqual(row["change"], 4 / 12)
        self.assertTrue(row["beyond_base_iqr"])
        self.assertEqual(row["wins"], (5, 5))

    def test_inside_base_iqr(self):
        pairs = [pair(side(x=b), side(x=b + 1)) for b in (10, 12, 14, 16)]
        (row,) = perf_ab.summarize(pairs, {"x": "lower"})
        self.assertFalse(row["beyond_base_iqr"])
        self.assertEqual(row["wins"], (0, 4))

    def test_metric_without_direction_has_no_wins(self):
        (row,) = perf_ab.summarize([pair(side(x=1.0), side(x=2.0))], {})
        self.assertIsNone(row["wins"])


class PaperCostTest(unittest.TestCase):
    COSTS = {"sim_s_per_query": 2.5, "detector_calls_per_query": 7.0,
             "nn_frames_per_query": 900.0, "store_mb": 8.4}

    def test_every_pair_whatever_its_pass_counts(self):
        # Count metrics must match exactly even when the sides ran
        # different numbers of passes; the second pair's store differs.
        pairs = [pair(side(8, **self.COSTS), side(8, **self.COSTS)),
                 pair(side(8, **self.COSTS), side(9, **self.COSTS)),
                 pair(side(8, **self.COSTS),
                      side(9, **dict(self.COSTS, store_mb=9.0)))]
        self.assertEqual(perf_ab.paper_cost_check(pairs),
                         (2, 3, [(2, "store_mb", 8.4, 9.0)]))

    def test_sim_seconds_within_tolerance_is_not_exact(self):
        # A last-bit drift (a mean over another pass count) agrees, but is
        # not counted as an exact match.
        head = dict(self.COSTS, sim_s_per_query=2.5000000000000004)
        pairs = [pair(side(8, **self.COSTS), side(9, **head))]
        self.assertEqual(perf_ab.paper_cost_check(pairs), (1, 0, []))

    def test_sim_seconds_beyond_tolerance_is_reported(self):
        # 1e-10 relative, about what one NN frame more per pass moves
        # serve-mix's simulated seconds by, is beyond the 1e-11 tolerance.
        head = dict(self.COSTS, sim_s_per_query=2.5 * (1 + 1e-10))
        pairs = [pair(side(8, **self.COSTS), side(8, **head))]
        equal, exact, bad = perf_ab.paper_cost_check(pairs)
        self.assertEqual((equal, exact), (0, 0))
        self.assertEqual(bad, [(0, "sim_s_per_query", 2.5, 2.5 * (1 + 1e-10))])

    def test_count_metric_mismatch_is_reported(self):
        head = dict(self.COSTS, detector_calls_per_query=7.04)
        pairs = [pair(side(8, **self.COSTS), side(8, **head))]
        equal, exact, bad = perf_ab.paper_cost_check(pairs)
        self.assertEqual((equal, exact), (0, 1))
        self.assertEqual(bad, [(0, "detector_calls_per_query", 7.0, 7.04)])


class ParseRunTest(unittest.TestCase):
    def test_result_line_and_passes(self):
        result = {"correct": True, "attempted": 200, "failed": 0,
                  "metrics": {"queries_per_s": {"value": 20.5, "unit": "1/s"}}}
        stdout = "# workload=cold-ingest seed=1\n# passes=8 setups=8\n" \
                 "queries_per_s 20.5\n" + json.dumps(result) + "\n"
        run = perf_ab.parse_run(stdout)
        self.assertEqual(run["passes"], 8)
        self.assertEqual(run["metrics"], {"queries_per_s": 20.5})
        self.assertEqual((run["correct"], run["attempted"], run["failed"]),
                         (True, 200, 0))


class DirectionsTest(unittest.TestCase):
    def test_reads_both_metric_groups(self):
        with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
            better = perf_ab.directions(json.load(f))
        self.assertEqual(better["queries_per_s"], "higher")
        self.assertEqual(better["core.sweep_ms"], "lower")


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own logic: percentile rule, self time, output
checks, and metric printing.

Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import report  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def query(qid, pass_=0, status="ok", out="o1", cost="c1", lat=1.0, **extra):
    q = {"id": qid, "pass": pass_, "status": status, "lat_ms": lat}
    if status == "ok":
        q.update({"out": out, "cost": cost, "sim_s": 2.0, "det": 3, "nn": 40})
    q.update(extra)
    return q


def raw_run(latencies, passes=2, traced=False):
    per_pass = len(latencies) // passes
    return {
        "workload": "restart-replay", "threads": 4, "simd": "avx512",
        "peak_rss_kb": 2048, "store_bytes": 3 << 20,
        "setups": [0.3, 0.1, 0.2],
        "passes": [{"traced": traced and (i == 0 or i % 2 == 0),
                    "queries": per_pass, "wall_s": 0.5, "cpu_s": 1.0}
                   for i in range(passes)],
        "queries": [query("q%d" % (i % per_pass), i // per_pass, lat=lat)
                    for i, lat in enumerate(latencies)],
        "counters": {}, "spans": [], "labels": {},
        "serve": {"submitted": 0, "batches": 0, "groups": 0, "coalesced": 0},
    }


class PercentileRuleTest(unittest.TestCase):

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(report.nearest_rank(values, 0.5), 50)
        self.assertEqual(report.nearest_rank(values, 0.95), 95)
        self.assertEqual(report.nearest_rank([7.0], 0.95), 7.0)

    def test_p95_needs_ten_samples_beyond(self):
        self.assertEqual(report.samples_beyond(200, 0.95), 10)
        self.assertTrue(report.tail_supported(200))
        self.assertFalse(report.tail_supported(199))
        self.assertFalse(report.tail_supported(25))
        self.assertFalse(report.tail_supported(0))

    def test_p95_without_enough_samples_is_flagged(self):
        metrics = {m.name: m for m in report.end_to_end(
            raw_run([float(i) for i in range(100)]))}
        self.assertIn("p95", metrics["latency_ms_p95"].note)
        self.assertEqual(metrics["latency_ms_p95"].samples, 100)
        metrics = {m.name: m for m in report.end_to_end(
            raw_run([float(i) for i in range(200)]))}
        self.assertEqual(metrics["latency_ms_p95"].note, "")
        self.assertEqual(metrics["latency_ms_p95"].value, 189.0)
        self.assertEqual(metrics["latency_ms_p50"].value, 99.0)


class SelfTimeTest(unittest.TestCase):

    def test_union_length(self):
        self.assertEqual(report.union_length([]), 0)
        self.assertEqual(report.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(report.union_length([(0, 10), (2, 3)]), 10)

    def test_nested_children(self):
        spans = [("query", -1, 0, 100), ("train", 0, 10, 40),
                 ("sweep", 1, 20, 30), ("verify", 0, 50, 60)]
        self.assertEqual(report.self_times(spans), [60, 20, 10, 10])

    def test_overlapping_parallel_children_are_not_double_counted(self):
        # Two groups of one admission window run concurrently.
        spans = [("advance", -1, 0, 100), ("execute:a", 0, 10, 70),
                 ("execute:b", 0, 30, 90)]
        self.assertEqual(report.self_times(spans)[0], 20)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("submit", -1, 0, 10), ("parse", 0, 5, 30)]
        self.assertEqual(report.self_times(spans)[0], 5)


class ScrubViolationTest(unittest.TestCase):
    COUNTS = [0, 2, 2, 0, 0, 0, 3, 0, 0, 0, 0, 2]

    def violation(self, frames, min_count=2, limit=3, gap=4):
        return report.scrub_violation(self.COUNTS, min_count, limit, gap,
                                      frames)

    def test_valid_answers(self):
        self.assertIsNone(self.violation([1, 6, 11]))
        # Fewer than LIMIT is valid when every other match is within GAP.
        self.assertIsNone(self.violation([1, 11], limit=3, gap=6))
        self.assertIsNone(self.violation([6], min_count=3))

    def test_frame_missing_the_predicate(self):
        self.assertIn("misses the predicate", self.violation([1, 5]))

    def test_frames_closer_than_gap(self):
        self.assertIn("closer than GAP", self.violation([1, 2, 6]))

    def test_limit_not_reached_while_a_match_is_admissible(self):
        self.assertIn("LIMIT not reached", self.violation([1, 6]))

    def test_more_than_limit(self):
        self.assertIn("more than LIMIT", self.violation([1, 6, 11], limit=2))

    def test_frame_out_of_range(self):
        self.assertIn("out of range", self.violation([40]))


class FailedFracTest(unittest.TestCase):

    def test_clean_run_has_no_failures(self):
        attempted, failures = report.check_queries(
            "cold-ingest", [query("q0", 0), query("q0", 1)])
        self.assertEqual((attempted, failures), (2, []))

    def test_injected_digest_mismatch_counts(self):
        queries = [query("q0", 0), query("q1", 0),
                   query("q0", 1), query("q1", 1, out="tampered")]
        attempted, failures = report.check_queries("cold-ingest", queries)
        self.assertEqual(attempted, 4)
        self.assertEqual([(f[0], f[1]) for f in failures], [("q1", 1)])

    def test_injected_refusal_counts(self):
        refs = {"serve": {"q0": {"status": "ok", "out": "o1", "cost": "c1"}}}
        queries = [query("q0"), query("q0", status="refused",
                                      error="queue full"), query("q0")]
        attempted, failures = report.check_queries("serve-mix", queries, refs)
        self.assertEqual(attempted, 3)
        self.assertEqual(len(failures), 1)
        self.assertIn("refused", failures[0][2])

    def test_serve_response_must_match_serial_execute(self):
        refs = {"serve": {"q0": {"status": "ok", "out": "o1", "cost": "c1"}}}
        _, failures = report.check_queries(
            "serve-mix", [query("q0", cost="c2")], refs)
        self.assertEqual(len(failures), 1)

    def test_replay_is_held_to_the_fixture_and_its_cold_output(self):
        ok = {"status": "ok", "out": "o1", "cost": "c1",
              "cold_status": "ok", "cold_out": "o1"}
        drifted = dict(ok, cold_out="o0")
        refs = {"suite": {"q0": ok, "q1": drifted}}
        _, failures = report.check_queries(
            "restart-replay", [query("q0"), query("q1"), query("q0", cost="x")],
            refs)
        self.assertEqual([f[0] for f in failures], ["q1", "q0"])

    def test_invalid_limit_gap_answer_and_error_count(self):
        checks = {"q0": ("scrub", "s/car", 1, 2, 10),
                  "q2": ("scrub", "s/car", 1, 2, 10)}
        labels = {"s/car": [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]}
        queries = [query("q0", frames=[1, 2]),  # closer than GAP
                   query("q1", status="error", error="boom"),
                   query("q2", frames=[1, 12]),
                   query("q0", pass_=1)]  # same digest, same wrong answer
        _, failures = report.check_queries("cold-ingest", queries, None,
                                           checks, labels)
        self.assertEqual([(f[0], f[1]) for f in failures],
                         [("q0", 0), ("q1", 0), ("q0", 1)])
        self.assertIn("closer than GAP", failures[0][2])

    def test_load_checks(self):
        text = ("perfbench-suite\t1\n"
                "query\tq0\tscrub\ttaipei\tSELECT ...\n"
                "check\tq0\tscrub\tcar\t3\t5\t150\n"
                "query\tq1\tfcount\trialto\tSELECT ...\n"
                "check\tq1\tfcount\tboat\t0.1\n")
        self.assertEqual(report.load_checks(text), {
            "q0": ("scrub", "taipei/car", 3, 5, 150),
            "q1": ("fcount", "rialto/boat", 0.1)})

    def test_load_refs(self):
        refs = report.load_refs(
            "perfbench-ref\t1\nsuite\tq0\tok\ta\tb\tok\ta\nserve\tq1\tok\tc\td\n")
        self.assertEqual(refs["suite"]["q0"]["cold_out"], "a")
        self.assertEqual(refs["serve"]["q1"]["cost"], "d")


class PrintingTest(unittest.TestCase):

    def assert_lines_name_unit_samples(self, metrics, expected):
        self.assertEqual([(m.name, m.unit) for m in metrics], list(expected))
        for m, line in zip(metrics, report.table(metrics)):
            fields = line.split()
            self.assertEqual(fields[0], m.name)
            self.assertEqual(fields[2], m.unit)
            self.assertEqual(fields[3], "samples=%d" % m.samples)

    def test_end_to_end_lines(self):
        metrics = report.end_to_end(raw_run([1.0] * 200))
        self.assert_lines_name_unit_samples(metrics, report.END_TO_END)

    def test_per_layer_lines(self):
        raw = raw_run([1.0] * 40, passes=4, traced=True)
        raw["spans"] = [["setup", -1, 0, 10], ["add_stream", 0, 1, 3],
                        ["execute", -1, 20, 30], ["train", 2, 21, 25]]
        raw["counters"] = {"seam.artifact_get.calls": 10,
                           "seam.artifact_get.hits": 4}
        raw["labels"] = {"s/car": [0, 1, 2, 1]}
        for q in raw["queries"]:  # q0 is within 0.1 of the exact 1.0
            q["scalar"] = 1.05 if q["id"] == "q0" else 1.5
        checks = {"q0": ("fcount", "s/car", 0.1),
                  "q1": ("fcount", "s/car", 0.1)}
        metrics = report.per_layer(raw, checks)
        self.assert_lines_name_unit_samples(metrics, report.PER_LAYER)
        by_name = {m.name: m.value for m in metrics}
        self.assertAlmostEqual(by_name["storage.hit_frac"], 0.4)
        self.assertAlmostEqual(by_name["video.register_ms"], 2e-6)
        # q0 and q1 each run once per pass, four passes.
        self.assertAlmostEqual(by_name["stats.agg_within_error_frac"], 0.5)

    def test_shards_count_inline_ones_too(self):
        raw = raw_run([1.0] * 40, passes=4, traced=True)
        raw["counters"] = {"exec.shards_total": 40,
                           "exec.shards{where=inline}": 20,
                           "exec.shards{where=caller}": 10,
                           "exec.shards{where=worker}": 10}
        metrics = {m.name: m for m in report.per_layer(raw, {})}
        # Two traced passes of ten queries each.
        self.assertAlmostEqual(metrics["exec.shards_total"].value, 2.0)
        self.assertAlmostEqual(metrics["exec.worker_shard_frac"].value, 0.25)
        self.assertEqual(metrics["exec.worker_shard_frac"].samples, 40)

    def test_result_line(self):
        metrics = report.end_to_end(raw_run([2.0] * 200))
        line = json.loads(report.result_line(True, 200, 0, metrics))
        self.assertEqual(list(line), ["correct", "attempted", "failed",
                                      "metrics"])
        for name, unit in report.END_TO_END:
            self.assertEqual(set(line["metrics"][name]), {"value", "unit"})
            self.assertEqual(line["metrics"][name]["unit"], unit)

    @unittest.skipUnless(os.path.isfile(BENCHMARK_JSON), "no BENCHMARK.json")
    def test_benchmark_json_lists_what_runs_print(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(report.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(report.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(report.BENCHMARKED))
        # A workload left out for steadiness is still named in a why.
        for name in report.WORKLOADS:
            self.assertIn(name, json.dumps(spec["workloads"]))


if __name__ == "__main__":
    unittest.main()

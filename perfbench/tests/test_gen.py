"""Tests of the seeded workload generator.

Run: python3 -m unittest discover -s perfbench/tests
"""

import collections
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402


def records(text, tag):
    return [line.split("\t")[1:] for line in text.splitlines()
            if line.split("\t")[0] == tag]


class GeneratorTest(unittest.TestCase):

    def test_same_seed_gives_identical_bytes(self):
        for seed in (0, 1, 7, 123456):
            self.assertEqual(gen.generate(seed), gen.generate(seed))

    def test_different_seeds_give_different_workloads(self):
        outputs = {gen.generate(seed) for seed in range(1, 11)}
        self.assertEqual(len(outputs), 10)

    def test_suite_shape(self):
        text = gen.generate(3)
        queries = {r[0]: r for r in records(text, "query")}
        suite = [r[0] for r in records(text, "suite")]
        self.assertEqual(len(suite), 25)
        kinds = collections.Counter(queries[q][1] for q in suite)
        self.assertEqual(kinds, {"fcount": 6, "scrub": 6, "select": 6,
                                 "distinct": 6, "content": 1})
        streams = collections.Counter(queries[q][2] for q in suite)
        self.assertEqual(streams["taipei"], 5)
        self.assertEqual(len(streams), 6)

    def test_parameters_are_a_permutation_of_fixed_multisets(self):
        for seed in range(1, 6):
            text = gen.generate(seed)
            checks = records(text, "check")
            suite = {r[0] for r in records(text, "suite")}
            errors = sorted(c[3] for c in checks
                            if c[1] == "fcount" and c[0] in suite)
            limits = sorted(int(c[4]) for c in checks
                            if c[1] == "scrub" and c[0] in suite)
            self.assertEqual(errors, sorted(gen.ERRORS))
            self.assertEqual(limits, sorted(gen.LIMITS))

    def test_schedule_admits_every_tenant_once_per_tick(self):
        ticks = collections.defaultdict(list)
        for tick, client, _ in records(gen.generate(5), "tick"):
            ticks[int(tick)].append(client)
        self.assertEqual(sorted(ticks), list(range(gen.TICKS)))
        for clients in ticks.values():
            self.assertEqual(sorted(clients),
                             sorted("tenant%d" % t for t in range(gen.TENANTS)))

    def test_seeds_schedule_the_same_mix(self):
        # Seeds change what is asked when, not how much a pass shares: each
        # kind is asked as often, and the twins ask about one stream in as
        # many ticks, under every seed.
        half = gen.TENANTS // 2
        mixes = set()
        for seed in range(1, 11):
            text = gen.generate(seed)
            queries = {r[0]: r for r in records(text, "query")}
            asks = collections.defaultdict(dict)
            for tick, client, qid in records(text, "tick"):
                asks[tick][client] = queries[qid]
            one_stream = sum(
                a["tenant%d" % t][2] == a["tenant%d" % (t + half)][2]
                for a in asks.values() for t in range(half))
            kinds = collections.Counter(
                q[1] for a in asks.values() for q in a.values())
            mixes.add((one_stream, tuple(sorted(kinds.items()))))
        self.assertEqual(len(mixes), 1)

    def test_serve_scrubbing_reuses_the_suite_threshold(self):
        # A different HAVING count would need a scrubbing NN the fixture
        # never trained.
        text = gen.generate(9)
        queries = {r[0]: r for r in records(text, "query")}
        checks = {r[0]: r for r in records(text, "check") if r[1] == "scrub"}
        suite_n = {queries[q][2]: checks[q][3]
                   for q in (r[0] for r in records(text, "suite"))
                   if q in checks}
        for _, _, qid in records(text, "tick"):
            if qid in checks:
                self.assertEqual(checks[qid][3], suite_n[queries[qid][2]])

    def test_summary(self):
        self.assertEqual(gen.summary(gen.generate(1)), {
            "streams": 6, "days": "1500/1500/4500", "suite_queries": 25,
            "serve_queries": gen.TENANTS * gen.TICKS,
            "distinct_queries": len(records(gen.generate(1), "query"))})


if __name__ == "__main__":
    unittest.main()

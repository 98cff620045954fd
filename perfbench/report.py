"""Turns one driver observation file into checked, named metrics.

Everything here is a pure function of its inputs so tests/test_report.py
can exercise it without building the driver.
"""

import collections
import json
import math
import statistics

MIB = float(1 << 20)

# Every workload run.py and perfbench_driver accept.
WORKLOADS = ("cold-ingest", "restart-replay", "serve-mix")
# The workloads BENCHMARK.json lists, in its order, and --steady runs.
# restart-replay is left out: on a shared 4-vCPU host its queries_per_s
# spread by a quarter of its median across ten seeded runs, as wide as the
# bound, and serve-mix also exercises the store read path it measures.
BENCHMARKED = ("cold-ingest", "serve-mix")

# (name, unit) of every end-to-end metric, printed by untraced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_s_per_query", "sim_s"),
    ("detector_calls_per_query", "count"),
    ("nn_frames_per_query", "count"),
    ("store_mb", "MB"),
)

# Report-span names grouped into the per-layer stage metrics (self time).
STAGE_SPANS = (
    ("core.optimize_ms", ("optimize",)),
    ("core.train_ms", ("train", "train:label-filter")),
    ("core.sweep_ms", ("sweep", "test-sweep")),
    ("core.bootstrap_ms", ("holdout-bootstrap",)),
    ("core.estimate_ms", ("estimate:",)),
    ("core.verify_ms", ("verify", "scan", "cascade")),
    ("core.calibrate_ms", ("calibrate", "calibrate:content", "holdout-masks")),
    ("core.track_ms", ("track",)),
    ("core.execute_self_ms", ("execute:",)),
    ("frameql.prepare_ms", ("parse", "analyze")),
)

# (name, unit) of every per-layer metric, printed by traced runs.
PER_LAYER = (
    ("video.register_ms", "ms"),
    ("detect.label_build_ms", "ms"),
    ("detect.calls", "count"),
    ("detect.ms", "ms"),
    ("storage.open_ms", "ms"),
    ("storage.gets", "count"),
    ("storage.get_ms", "ms"),
    ("storage.hit_frac", "fraction"),
    ("storage.puts", "count"),
    ("storage.put_ms", "ms"),
    ("storage.flush_ms", "ms"),
    ("storage.sketch_build_ms", "ms"),
    ("storage.payload_mb", "MB"),
    ("storage.sketch_refuted_frac", "fraction"),
) + tuple((name, "ms") for name, _ in STAGE_SPANS) + (
    ("core.unattributed_ms", "ms"),
    ("nn.inference_frames", "count"),
    ("nn.computed_frac", "fraction"),
    ("nn.train_batches", "count"),
    ("exec.shards_total", "count"),
    ("exec.worker_shard_frac", "fraction"),
    ("exec.cpu_ms_per_query", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.window_ms", "ms"),
    ("serve.window_queries", "count"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.coalesced_frac", "fraction"),
    ("serve.shared_nn_frac", "fraction"),
    ("stats.agg_within_error_frac", "fraction"),
    ("obs.trace_overhead_frac", "fraction"),
)

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def nearest_rank(values, q):
    """The nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered)))
    return ordered[k - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile's rank."""
    return n - max(1, math.ceil(q * n))


def tail_supported(n, q=0.95):
    """True when a sample of n has at least TAIL_SAMPLES beyond its q-quantile."""
    return n > 0 and samples_beyond(n, q) >= TAIL_SAMPLES


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its children cover (clipped to the span), so overlapping
    children running in parallel are counted once.

    `spans` is a list of (name, parent, start, end) or longer tuples.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[1]
        if 0 <= parent < len(spans):
            children[parent].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = union_length(
            (max(start, spans[c][2]), min(end, spans[c][3]))
            for c in children[i])
        out.append(max(0, end - start) - covered)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_refs(text):
    """Parses the fixture's reference file into {'suite': {...}, 'serve': {...}}."""
    refs = {"suite": {}, "serve": {}}
    for line in text.splitlines()[1:]:
        f = line.split("\t")
        if f[0] == "suite":
            refs["suite"][f[1]] = {"status": f[2], "out": f[3], "cost": f[4],
                                   "cold_status": f[5], "cold_out": f[6]}
        elif f[0] == "serve":
            refs["serve"][f[1]] = {"status": f[2], "out": f[3], "cost": f[4]}
    return refs


def load_checks(suite_text):
    """The output checks of a generated workload file, by query id:
    ("scrub", "stream/class", min_count, limit, gap) or
    ("fcount", "stream/class", error)."""
    rows = [line.split("\t") for line in suite_text.splitlines()]
    stream = {r[1]: r[3] for r in rows if r[0] == "query"}
    checks = {}
    for r in rows:
        if r[0] != "check":
            continue
        key = "%s/%s" % (stream[r[1]], r[3])
        if r[2] == "scrub":
            checks[r[1]] = ("scrub", key, int(r[4]), int(r[5]), int(r[6]))
        elif r[2] == "fcount":
            checks[r[1]] = ("fcount", key, float(r[4]))
    return checks


def scrub_violation(counts, min_count, limit, gap, frames):
    """Why `frames` is not a valid answer to HAVING count >= min_count
    LIMIT limit GAP gap over the labeled per-frame `counts`, or None.

    Valid means: at most LIMIT frames, each meeting the predicate, any two
    at least GAP apart, and fewer than LIMIT only when no other matching
    frame is GAP away from all of them (nothing admissible was left)."""
    sep = max(gap, 1)
    if len(frames) > limit:
        return "more than LIMIT frames"
    ordered = sorted(frames)
    for i, f in enumerate(ordered):
        if not 0 <= f < len(counts):
            return "frame %d out of range" % f
        if counts[f] < min_count:
            return "frame %d misses the predicate" % f
        if i and f - ordered[i - 1] < sep:
            return "frames %d and %d closer than GAP" % (ordered[i - 1], f)
    if len(ordered) < limit:
        for f, count in enumerate(counts):
            if count >= min_count and all(abs(f - g) >= sep for g in ordered):
                return "LIMIT not reached but frame %d matches" % f
    return None


def check_queries(workload, queries, refs=None, checks=None, labels=None):
    """Checks every recorded query execution.

    Returns (attempted, failures) where failures is a list of
    (query id, pass, reason). A query fails if it errored or was refused,
    if its LIMIT/GAP answer is invalid on the labeled test day (`checks`
    and `labels`, judged on the execution that kept its frames), or if its
    output or simulated cost differs from the reference its workload is
    held to:
      cold-ingest     the same query in the run's first pass (every pass
                      is a cold start, so all must agree);
      restart-replay  the fixture's replay of the suite, whose outputs must
                      in turn equal the fixture's cold outputs;
      serve-mix       the fixture's serial Execute of the same query.
    """
    invalid = {}
    for q in queries:
        check = (checks or {}).get(q["id"])
        if "frames" in q and check and check[0] == "scrub":
            _, key, min_count, limit, gap = check
            invalid[q["id"]] = scrub_violation(labels[key], min_count, limit,
                                               gap, q["frames"])
    failures = []
    first = {}
    for q in queries:
        qid, status = q["id"], q["status"]
        reason = None
        if status != "ok":
            reason = "%s: %s" % (status, q.get("error", ""))
        elif invalid.get(qid):
            reason = invalid[qid]
        elif workload == "cold-ingest":
            digest = (q["out"], q["cost"])
            if first.setdefault(qid, digest) != digest:
                reason = "output differs from the first cold pass"
        elif workload == "restart-replay":
            ref = (refs or {}).get("suite", {}).get(qid)
            if ref is None:
                reason = "no fixture reference"
            elif ref["status"] != "ok" or ref["cold_status"] != "ok":
                reason = "fixture reference failed"
            elif ref["out"] != ref["cold_out"]:
                reason = "fixture replay output differs from its cold output"
            elif (q["out"], q["cost"]) != (ref["out"], ref["cost"]):
                reason = "output differs from the fixture's"
        elif workload == "serve-mix":
            ref = (refs or {}).get("serve", {}).get(qid)
            if ref is None or ref["status"] != "ok":
                reason = "no serial reference"
            elif (q["out"], q["cost"]) != (ref["out"], ref["cost"]):
                reason = "response differs from serial Execute"
        if reason is not None:
            failures.append((qid, q["pass"], reason))
    return len(queries), failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# One printed metric; `note` flags a percentile the sample cannot support.
Metric = collections.namedtuple("Metric", "name value unit samples note",
                                defaults=("",))


def _passes(raw, traced):
    return [i for i, p in enumerate(raw["passes"]) if p["traced"] == traced]


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, as a list of Metric."""
    passes = raw["passes"]
    queries = raw["queries"]
    latencies = [q["lat_ms"] for q in queries if q["status"] == "ok"]
    ok = [q for q in queries if q["status"] == "ok"]
    rates = [p["queries"] / p["wall_s"] for p in passes if p["wall_s"] > 0]
    n = len(latencies)
    p95_note = "" if tail_supported(n) else (
        "fewer than %d samples beyond p95" % TAIL_SAMPLES)

    def mean(key):
        return sum(q[key] for q in ok) / len(ok) if ok else 0.0

    values = {
        "setup_s": (statistics.median(raw["setups"]), len(raw["setups"]), ""),
        "queries_per_s": (statistics.median(rates) if rates else 0.0,
                          len(rates), ""),
        "latency_ms_p50": (nearest_rank(latencies, 0.5) if n else 0.0, n, ""),
        "latency_ms_p95": (nearest_rank(latencies, 0.95) if n else 0.0, n,
                           p95_note),
        "peak_rss_mb": (raw["peak_rss_kb"] * 1024 / MIB, 1, ""),
        "sim_s_per_query": (mean("sim_s"), len(ok), ""),
        "detector_calls_per_query": (mean("det"), len(ok), ""),
        "nn_frames_per_query": (mean("nn"), len(ok), ""),
        "store_mb": (raw["store_bytes"] / MIB, 1, ""),
    }
    return [Metric(name, values[name][0], unit, values[name][1],
                   values[name][2]) for name, unit in END_TO_END]


def per_layer(raw, checks):
    """The per-layer metrics of a traced run, as a list of Metric.
    `checks` (load_checks) names the FCOUNT queries and their ERROR."""
    spans = [tuple(s) for s in raw["spans"]]
    selfs = self_times(spans)
    counters = raw["counters"]
    traced = _passes(raw, True)
    untraced = _passes(raw, False)
    traced_set = set(traced)
    tq = [q for q in raw["queries"] if q["pass"] in traced_set]
    nq = max(1, len(tq))

    def c(name):
        return counters.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_query(total):
        return total / nq

    def durations(name):
        return [(s[3] - s[2]) / 1e6 for s in spans if s[0] == name]

    def mean_or_zero(values):
        return sum(values) / len(values) if values else 0.0

    def per_setup(name):
        """Median over set-ups of the summed duration of `name` children."""
        setups = [i for i, s in enumerate(spans) if s[0] == "setup"]
        if not setups:
            return 0.0, 0
        sums = []
        for i in setups:
            sums.append(sum((s[3] - s[2]) / 1e6 for s in spans
                            if s[1] == i and s[0] == name))
        return statistics.median(sums), len(sums)

    def stage_self_ms(prefixes):
        total = 0
        for span, own in zip(spans, selfs):
            name = span[0]
            if any(name == p or (p.endswith(":") and name.startswith(p))
                   for p in prefixes):
                total += own
        return total / 1e6

    values = {}
    for key, name in (("video.register_ms", "add_stream"),
                      ("detect.label_build_ms", "label_build"),
                      ("storage.open_ms", "store_open")):
        values[key] = per_setup(name)

    gets, puts = c("seam.artifact_get.calls"), c("seam.artifact_put.calls")
    values["detect.calls"] = (per_query(c("seam.detect.calls")), nq)
    values["detect.ms"] = (per_query(c("seam.detect.ns") / 1e6), nq)
    values["storage.gets"] = (per_query(gets), nq)
    values["storage.get_ms"] = (per_query(c("seam.artifact_get.ns") / 1e6), nq)
    values["storage.hit_frac"] = (ratio(c("seam.artifact_get.hits"), gets),
                                  int(gets))
    values["storage.puts"] = (per_query(puts), nq)
    values["storage.put_ms"] = (per_query(c("seam.artifact_put.ns") / 1e6), nq)
    flushes, sketches = durations("flush"), durations("sketch_build")
    values["storage.flush_ms"] = (mean_or_zero(flushes), len(flushes))
    values["storage.sketch_build_ms"] = (mean_or_zero(sketches), len(sketches))
    values["storage.payload_mb"] = (
        per_query(c("store.payload_bytes.sum") / MIB), nq)
    consulted = c("sketch.blocks_consulted")
    values["storage.sketch_refuted_frac"] = (
        ratio(c("sketch.blocks_refuted"), consulted), int(consulted))

    for key, prefixes in STAGE_SPANS:
        values[key] = (per_query(stage_self_ms(prefixes)), nq)
    # Wall time of the driver's calls into the engine that no report span
    # covers.
    values["core.unattributed_ms"] = (
        per_query(stage_self_ms(("execute", "submit", "advance"))), nq)

    inference = sum(v for k, v in counters.items()
                    if k.startswith("nn.inference_frames{"))
    charged_nn = sum(q.get("nn", 0) for q in tq)
    values["nn.inference_frames"] = (per_query(inference), nq)
    values["nn.computed_frac"] = (ratio(inference, charged_nn), int(charged_nn))
    values["nn.train_batches"] = (per_query(c("nn.train_batches")), nq)
    # Every shard the pool ran, wherever it ran (inline, caller or worker).
    shards = c("exec.shards_total")
    values["exec.shards_total"] = (per_query(shards), nq)
    values["exec.worker_shard_frac"] = (
        ratio(c("exec.shards{where=worker}"), shards), int(shards))
    cpu_s = sum(raw["passes"][i]["cpu_s"] for i in traced)
    values["exec.cpu_ms_per_query"] = (per_query(cpu_s * 1e3), nq)

    submits, windows = durations("submit"), durations("advance")
    waits = [q["lat_ms"] - q["exec_wall_ms"] for q in tq
             if "exec_wall_ms" in q]
    serve = raw["serve"]
    shared = sum(q.get("shared_nn", 0) for q in tq)
    values["serve.submit_ms"] = (mean_or_zero(submits), len(submits))
    values["serve.window_ms"] = (mean_or_zero(windows), len(windows))
    values["serve.window_queries"] = (ratio(len(submits), len(windows)),
                                      len(windows))
    values["serve.wait_ms_p50"] = (nearest_rank(waits, 0.5) if waits else 0.0,
                                   len(waits))
    values["serve.coalesced_frac"] = (
        ratio(serve["coalesced"], serve["submitted"]), serve["submitted"])
    values["serve.shared_nn_frac"] = (ratio(shared, charged_nn),
                                      int(charged_nn))

    exact = {key: sum(c) / len(c) for key, c in raw["labels"].items() if c}
    aggs = [(q["scalar"], checks[q["id"]]) for q in raw["queries"]
            if q["status"] == "ok" and checks.get(q["id"], ("",))[0] == "fcount"]
    within = sum(1 for scalar, (_, key, error) in aggs
                 if abs(scalar - exact[key]) <= error)
    values["stats.agg_within_error_frac"] = (ratio(within, len(aggs)),
                                             len(aggs))

    # Pass 0 carries the warm-up; compare the later traced passes with the
    # untraced passes interleaved between them.
    later = [raw["passes"][i]["wall_s"] for i in traced if i > 0]
    plain = [raw["passes"][i]["wall_s"] for i in untraced]
    overhead = (statistics.median(later) / statistics.median(plain) - 1.0
                if later and plain else 0.0)
    values["obs.trace_overhead_frac"] = (overhead, len(later) + len(plain))

    return [Metric(name, values[name][0], unit, values[name][1])
            for name, unit in PER_LAYER]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def table(metrics):
    """One line per metric: name, value, unit and sample count."""
    lines = []
    for m in metrics:
        line = "%-30s %16.6f %-9s samples=%d" % (m.name, m.value, m.unit,
                                                 m.samples)
        if m.note:
            line += "  (%s)" % m.note
        lines.append(line)
    return lines


def result_line(correct, attempted, failed, metrics):
    """The last line of a run: one JSON object the harness reads."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m.name: {"value": m.value, "unit": m.unit}
                    for m in metrics},
    }, sort_keys=False)

#!/usr/bin/env python3
"""Same-box A/B of the repo benchmark: a base revision against this tree.

  python3 tools/perf_ab.py --base REV --workload W [--workload W2]
      --pairs N --seconds S [--seed0 K] [--trace 0|1] [--metric NAME]
      [--scratch DIR] [--json PATH]

Exports REV with `git archive` into a scratch directory (the repository's
own .git is left untouched, so an interrupted run leaves no worktree
registration behind) and runs perfbench/run.py in both trees, each with
its own CARGO_TARGET_DIR under the scratch directory. Each side first
runs a zero-length pass per workload, which builds its perfbench_driver
and any fixture outside the measured runs. Pair i then uses seed K + i on both
sides and alternates which side goes first. The summary gives each side's
median, quartiles and IQR per metric, the per-pair wins for --metric, and
whether the paper-cost metrics (simulated seconds, detector calls, NN
frames, store size) agree in the zero-length runs and in every pair, see
paper_cost_check, and how many pairs ran query counts on opposite sides
of a power of two, see straddled_power. Metric directions come from
BENCHMARK.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Paper-cost metrics that perfbench/report.py computes as exact integer
# sums divided by exact integer counts, or reads once per run, so they do
# not depend on how many passes a side ran.
COUNT_COSTS = ("detector_calls_per_query", "nn_frames_per_query", "store_mb")
# A mean of float simulated seconds: its last bits move with the pass count
# and with the order a run sums its queries in (about 3e-15 relative). One
# NN frame more per pass moves it by about 5e-10 on serve-mix.
SIM_COST = "sim_s_per_query"
SIM_REL_TOL = 1e-11
SIDES = ("base", "head")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Summary math (covered by tools/tests/test_perf_ab.py)
# ---------------------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them, the rule
    perfbench/report.py uses."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def directions(benchmark):
    """{metric: 'higher' | 'lower'} from a parsed BENCHMARK.json."""
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in benchmark.get(group, []):
            out[m["name"]] = m["better"]
    return out


def sim_costs_agree(b, h):
    """Whether two SIM_COST values differ by no more than its drift."""
    return abs(h - b) <= SIM_REL_TOL * max(abs(b), abs(h))


def wins(pairs, metric, better):
    """(head wins, pairs with the metric on both sides). A tie is no win,
    and SIM_COST values that agree within its drift tie."""
    won = total = 0
    for p in pairs:
        b = p["base"]["metrics"].get(metric)
        h = p["head"]["metrics"].get(metric)
        if b is None or h is None:
            continue
        total += 1
        if metric == SIM_COST and sim_costs_agree(b, h):
            continue
        if (h > b) if better == "higher" else (h < b):
            won += 1
    return won, total


def summarize(pairs, better):
    """One row per metric present on both sides: each side's quartiles and
    IQR, the relative change of the medians, the head's pair wins, and
    whether the medians differ by more than the base's IQR."""
    names = []
    for p in pairs:
        for name in p["base"]["metrics"]:
            if name in p["head"]["metrics"] and name not in names:
                names.append(name)
    rows = []
    for name in names:
        row = {"metric": name, "better": better.get(name)}
        for side in SIDES:
            vals = [p[side]["metrics"][name] for p in pairs
                    if name in p[side]["metrics"]]
            q1, med, q3 = quartiles(vals)
            row[side] = {"q1": q1, "median": med, "q3": q3, "iqr": q3 - q1}
        base_med = row["base"]["median"]
        head_med = row["head"]["median"]
        row["change"] = (head_med - base_med) / base_med if base_med else 0.0
        row["beyond_base_iqr"] = abs(head_med - base_med) > row["base"]["iqr"]
        row["wins"] = wins(pairs, name, row["better"]) if row["better"] else None
        rows.append(row)
    return rows


def paper_cost_check(pairs):
    """Compares the paper-cost metrics in every pair, whatever pass counts
    its sides ran: the COUNT_COSTS exactly, and SIM_COST within a relative
    SIM_REL_TOL. Returns (agreeing pairs, pairs whose SIM_COST matched
    exactly, mismatches), with mismatches as (pair index, metric, base
    value, head value)."""
    equal = exact = 0
    mismatches = []
    for i, p in enumerate(pairs):
        base, head = p["base"]["metrics"], p["head"]["metrics"]
        bad = [(i, m, base.get(m), head.get(m)) for m in COUNT_COSTS
               if base.get(m) != head.get(m)]
        b, h = base.get(SIM_COST), head.get(SIM_COST)
        if b == h:
            exact += 1
        elif b is None or h is None or not sim_costs_agree(b, h):
            bad.append((i, SIM_COST, b, h))
        mismatches += bad
        equal += not bad
    return equal, exact, mismatches


def doubling_capacity(n):
    """Capacity of a vector grown by one push_back at a time to n
    elements, doubling from 1 (libstdc++'s growth)."""
    return 1 << (n - 1).bit_length() if n > 0 else 0


def straddled_power(a, b):
    """The largest power of two p with min(a, b) <= p < max(a, b), or None.

    perfbench's driver keeps a record per attempted query in one doubling
    vector, so two runs' record capacities differ exactly when their
    counts lie on opposite sides of such a p. A pair like that can move
    peak_rss_mb by the vector's size with no change in the library."""
    lo, hi = sorted((a, b))
    if lo < 1 or doubling_capacity(lo) == doubling_capacity(hi):
        return None
    return doubling_capacity(hi) // 2


def record_straddles(pairs):
    """(pairs whose sides' `attempted` counts straddle a power of two,
    the sorted distinct powers)."""
    powers = [straddled_power(p["base"]["attempted"], p["head"]["attempted"])
              for p in pairs]
    powers = [q for q in powers if q is not None]
    return len(powers), sorted(set(powers))


def parse_run(stdout):
    """The result of one perfbench/run.py invocation: its JSON result line
    plus the pass count from its '# passes=' comment."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    passes = None
    for line in lines:
        m = re.match(r"# passes=(\d+)", line)
        if m:
            passes = int(m.group(1))
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "passes": passes,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def export_base(rev, scratch):
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    tree = os.path.join(scratch, "src-" + sha[:12])
    if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait():
            raise SystemExit("git archive %s failed" % rev)
    return sha, tree


def run_side(tree, build_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, env=env, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd[1:]),
                                                  done.returncode,
                                                  done.stderr[-3000:]))
    return parse_run(done.stdout)


def fmt(v):
    return "%.6g" % v


def print_summary(workload, pairs, better, metric, zero):
    print("== %s: %d pairs" % (workload, len(pairs)))
    print("  %-26s %-42s %-42s %8s %s" % ("metric", "base median [q1, q3] iqr",
                                         "head median [q1, q3] iqr", "change",
                                         "head wins"))
    for row in summarize(pairs, better):
        cells = []
        for side in SIDES:
            s = row[side]
            cells.append("%s [%s, %s] %s" % (fmt(s["median"]), fmt(s["q1"]),
                                             fmt(s["q3"]), fmt(s["iqr"])))
        won = row["wins"]
        print("  %-26s %-42s %-42s %+7.2f%% %s%s" % (
            row["metric"], cells[0], cells[1], 100 * row["change"],
            "%d/%d" % won if won else "-",
            " (beyond base IQR)" if row["beyond_base_iqr"] else ""))
    won, total = wins(pairs, metric, better.get(metric, "higher"))
    print("  %s: head won %d/%d pairs" % (metric, won, total))
    equal, exact, bad = paper_cost_check([zero])
    print("  paper costs in the zero-length runs (passes %s / %s): %s" % (
        zero["base"]["passes"], zero["head"]["passes"],
        ("equal" if exact else "equal within tolerance") if equal
        else "DIFFER"))
    for _, name, b, h in bad:
        print("    %s: base %r head %r" % (name, b, h))
    equal, exact, bad = paper_cost_check(pairs)
    unequal_passes = sum(p["base"]["passes"] != p["head"]["passes"]
                         for p in pairs)
    print("  paper costs agree in %d/%d pairs, %s exactly in %d "
          "(%d pairs ran unequal pass counts)" % (
              equal, len(pairs), SIM_COST, exact, unequal_passes))
    for i, name, b, h in bad:
        print("    pair %d %s: base %r head %r" % (i, name, b, h))
    straddling, powers = record_straddles(pairs)
    print("  pairs whose sides' record counts straddle a power of two: "
          "%d/%d%s" % (straddling, len(pairs),
                       " (at %s; their peak_rss_mb moves with the driver's "
                       "record vector, not the library)" %
                       ", ".join(str(q) for q in powers) if powers else ""))
    runs = [p[s] for p in pairs for s in SIDES] + [zero[s] for s in SIDES]
    print("  failed queries: %d; runs with an output check failing: %d" % (
        sum(r["failed"] for r in runs), sum(not r["correct"] for r in runs)))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--metric", help="metric whose per-pair wins are "
                   "reported (default: queries_per_s, or "
                   "exec.cpu_ms_per_query with --trace 1)")
    p.add_argument("--scratch", help="directory for the exported base tree "
                   "and both build trees (reused across invocations)")
    p.add_argument("--json", help="write every run's parsed result here")
    args = p.parse_args()
    if not args.metric:
        args.metric = "exec.cpu_ms_per_query" if args.trace else "queries_per_s"

    scratch = os.path.abspath(args.scratch or tempfile.mkdtemp(prefix="perf_ab-"))
    os.makedirs(scratch, exist_ok=True)
    sha, base_tree = export_base(args.base, scratch)
    trees = {"base": base_tree, "head": ROOT}
    builds = {"base": os.path.join(scratch, "build-" + sha[:12]),
              "head": os.path.join(scratch, "build-head")}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = directions(json.load(f))

    zero = {w: {"seed": args.seed0} for w in args.workload}
    for side in SIDES:
        for w in args.workload:
            log("warm-up %s %s (build + zero-length pass)" % (side, w))
            zero[w][side] = run_side(trees[side], builds[side], w, args.seed0,
                                     0, args.trace)

    results = {w: [] for w in args.workload}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in args.workload:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], builds[side], w, seed,
                                      args.seconds, args.trace)
            results[w].append(pair)
            log("pair %d seed %d %s: %s %s=%s / %s=%s" % (
                i, seed, w, args.metric, "base",
                fmt(pair["base"]["metrics"].get(args.metric, float("nan"))),
                "head",
                fmt(pair["head"]["metrics"].get(args.metric, float("nan")))))
            if args.json:
                with open(args.json, "w") as f:
                    json.dump({"base": args.base, "base_sha": sha,
                               "seconds": args.seconds, "trace": args.trace,
                               "zero_length": zero, "results": results}, f,
                              indent=1)
    print("base %s (%s) vs head %s; %d pairs, seeds %d-%d, %gs, trace %d" % (
        args.base, sha[:12], ROOT, args.pairs, args.seed0,
        args.seed0 + args.pairs - 1, args.seconds, args.trace))
    for w in args.workload:
        print_summary(w, results[w], better, args.metric, zero[w])
    return 0


if __name__ == "__main__":
    sys.exit(main())

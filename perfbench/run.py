#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steady --seeds 1-5 [--sets 2] [--seconds S]

Run it from the root of a source checkout. It builds perfbench_driver (and
the library under it) into .bench_build/ (or $CARGO_TARGET_DIR), writes the
seed's workload with gen.py, builds the restart-replay / serve-mix fixture
in its own process when the seed has none for this build, runs the
workload, checks every output, and prints one line per metric (name,
value, unit, sample count) followed by a JSON result line. --trace 0 prints
the end-to-end metrics; --trace 1 the per-layer ones. --steady interleaves
untraced runs of the workloads BENCHMARK.json lists over the seeds and
prints each metric's median, quartiles and spread.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import report  # noqa: E402

ROOT = os.path.dirname(HERE)
# Every run must end within this many seconds of starting (the first
# build excepted).
DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h"))):
        raise BenchError("no BlazeIt source tree at %s: run from the root "
                         "of a checkout" % ROOT)
    cmake_dir = os.path.join(build_root(), "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    logfile = os.path.join(build_root(), "build.log")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench_driver",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(logfile) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed (%s):\n%s" % (" ".join(cmd), tail))
    return os.path.join(cmake_dir, "perfbench_driver")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def sync_tree(path):
    """Writes a directory's files through to disk, so the kernel's
    writeback of what the benchmark just copied does not land inside the
    measured phase."""
    for dirpath, _, names in os.walk(path):
        for name in names:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_child(cmd, deadline):
    """Runs a child process to completion or kills it at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before %s" % cmd[1])
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in time" % " ".join(cmd[:3]))
    if done.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (" ".join(cmd[:3]),
                                                 done.returncode,
                                                 done.stderr[-2000:]))


def fixture(driver, suite_text, deadline):
    """The store and references cold-ingest leaves for this suite, built
    once per build of the driver and reused by later runs of that build."""
    root = os.path.join(build_root(), "fixtures")
    build_id = file_digest(driver)
    os.makedirs(root, exist_ok=True)
    for entry in os.listdir(root):  # never reuse another build's fixtures
        if entry != build_id:
            shutil.rmtree(os.path.join(root, entry), ignore_errors=True)
    key = hashlib.sha256(suite_text.encode()).hexdigest()[:16]
    final = os.path.join(root, build_id, key)
    if os.path.isfile(os.path.join(final, "ref.txt")):
        os.utime(final)
        return final
    tmp = "%s.tmp-%d" % (final, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    with open(os.path.join(tmp, "suite.txt"), "w") as f:
        f.write(suite_text)
    started = time.monotonic()
    try:
        run_child([driver, "fixture", "--suite", os.path.join(tmp, "suite.txt"),
                   "--store", os.path.join(tmp, "store"),
                   "--out", os.path.join(tmp, "ref.txt")], deadline)
    except BenchError:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    sync_tree(tmp)
    try:
        os.rename(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # another run got there first
    log("fixture built in %.1f s" % (time.monotonic() - started))
    kept = sorted((os.path.getmtime(os.path.join(root, build_id, d)), d)
                  for d in os.listdir(os.path.join(root, build_id)))
    for _, stale in kept[:-40]:
        shutil.rmtree(os.path.join(root, build_id, stale), ignore_errors=True)
    return final


def steal_jiffies():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(args):
    started = time.monotonic()
    deadline = started + DEADLINE_S
    driver = build_driver()
    # A first build may take minutes; the run itself still gets its time.
    deadline = max(deadline, time.monotonic() + 150)
    suite_text = gen.generate(args.seed)
    work = os.path.join(build_root(), "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        suite_path = os.path.join(work, "suite.txt")
        with open(suite_path, "w") as f:
            f.write(suite_text)
        cmd = [driver, "run", "--workload", args.workload,
               "--suite", suite_path, "--work", work,
               "--out", os.path.join(work, "raw.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        refs = None
        if args.workload != "cold-ingest":
            fx = fixture(driver, suite_text, deadline)
            shutil.copytree(os.path.join(fx, "store"), os.path.join(work, "store"))
            sync_tree(os.path.join(work, "store"))
            cmd += ["--store", os.path.join(work, "store")]
            with open(os.path.join(fx, "ref.txt")) as f:
                refs = report.load_refs(f.read())
        steal0 = steal_jiffies()
        run_child(cmd, deadline)
        steal = steal_jiffies() - steal0
        with open(os.path.join(work, "raw.json")) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = report.load_checks(suite_text)
    attempted, failures = report.check_queries(
        args.workload, raw["queries"], refs, checks, raw["labels"])
    metrics = (report.per_layer(raw, checks) if args.trace
               else report.end_to_end(raw))
    sizes = gen.summary(suite_text)
    print("# workload=%s seed=%d trace=%d seconds=%s" % (
        args.workload, args.seed, args.trace, args.seconds))
    print("# host nproc=%d cpu=%r simd=%s pool=%d steal_jiffies=%d" % (
        os.cpu_count(), cpu_model(), raw["simd"], raw["threads"], steal))
    print("# input streams=%d days=%s suite_queries=%d serve_queries=%d "
          "store_mb=%.2f" % (sizes["streams"], sizes["days"],
                             sizes["suite_queries"], sizes["serve_queries"],
                             raw["store_bytes"] / report.MIB))
    print("# passes=%d setups=%d" % (len(raw["passes"]), len(raw["setups"])))
    if args.workload == "serve-mix":
        print("# serve submitted=%(submitted)d windows=%(batches)d "
              "groups=%(groups)d coalesced=%(coalesced)d" % raw["serve"])
    failed_frac = report.Metric("failed_frac", len(failures) / max(1, attempted),
                                "fraction", attempted)
    for line in report.table(metrics + [failed_frac]):
        print(line)
    for qid, pass_, reason in failures[:20]:
        print("# FAILED %s pass %d: %s" % (qid, pass_, reason))
    print(report.result_line(not failures, attempted, len(failures), metrics))
    return 0


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def steady(args):
    """Interleaves untraced runs across workloads and seeds; prints each
    metric's median, quartiles, and spreads per workload and set."""
    build_driver()
    seeds = parse_seeds(args.seeds)
    values = {}  # (set, workload, metric) -> [values]
    for s in range(args.sets):
        for seed in seeds:
            for w in report.BENCHMARKED:
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    raise BenchError("%s seed %d failed" % (w, seed))
                result = json.loads(lines[-1])
                log("set %d seed %d %-14s correct=%s failed=%d/%d %s" % (
                    s, seed, w, result["correct"], result["failed"],
                    result["attempted"], " ".join(
                        "%s=%.6g" % (k, m["value"])
                        for k, m in result["metrics"].items())))
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
    for w in report.BENCHMARKED:
        print("== %s (seeds %s)" % (w, args.seeds))
        for name, unit in report.END_TO_END:
            medians = []
            for s in range(args.sets):
                v = values[(s, w, name)]
                q1, med, q3 = report.quartiles(v)
                medians.append(med)
                rel = (lambda x: x / med if med else 0.0)
                print("  set %d %-26s median=%-12.6g q1=%-12.6g q3=%-12.6g "
                      "iqr/med=%.4f range/med=%.4f %s" % (
                          s, name, med, q1, q3, rel(q3 - q1),
                          rel(max(v) - min(v)), unit))
            for s in range(1, len(medians)):
                change = (medians[s] - medians[0]) / medians[0] if medians[0] else 0
                print("  set %d %-26s median change vs set 0: %+.4f" % (
                    s, name, change))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=report.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    try:
        if args.steady:
            return steady(args)
        if not args.workload:
            p.error("--workload is required")
        return run_once(args)
    except BenchError as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Tier-1 verify: configure + build (warnings as errors), the fast lane
# first for quick feedback, then the slow suites twice — once against a
# cold persistent detection store and once against the warm store the cold
# pass just wrote. The warm pass checks that stored artifacts replay
# (store_invariance_test additionally asserts, in-process, that query
# outputs and simulated costs are bit-identical cold vs warm); the storecli
# reuse check below counts that a warm rerun does no NN work. Usage:
# ci/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Project lint first: pure-python, runs in under a second, and catches
# the concurrency-contract violations (raw mutexes, unannotated *Locked
# methods, bare asserts, wall-clock in deterministic paths) that the
# compiler only diagnoses under clang. Gating.
echo "==> lint (ci/lint.py)"
python3 ci/lint.py

echo "==> configure (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S .

echo "==> build (-j${JOBS})"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "==> ctest: fast lane (-L fast)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L fast -j "${JOBS}"

# The release preset (-O3) is what benchmarks build; some GCC diagnostics
# (e.g. -Wrestrict through inlined std::string concatenation) fire only
# at that optimization level, so build the library under it with the
# same warnings-as-errors policy. Gating.
echo "==> release preset: library build (-O3)"
cmake --preset release > /dev/null
cmake --build --preset release -j "${JOBS}" --target blazeit > /dev/null

# The repo benchmark builds its own driver against the library's public
# headers (ArtifactCache, StreamData, serve::BatchQueryStats, ...), so a
# header edit can break it without failing any suite above. Run its unit
# tests, then build the driver and run one zero-length cold-ingest pass,
# whose outputs the benchmark checks bit for bit against its own first
# pass. Gating.
echo "==> perfbench: unit tests + cold-ingest smoke"
python3 -m unittest discover -s perfbench/tests
# tools/perf_ab.py's summary math (medians, IQRs, pair wins, paper-cost
# equality) decides perf claims; its unit tests gate too.
python3 -m unittest discover -s tools/tests
PERFBENCH_LAST="$(CARGO_TARGET_DIR="${BUILD_DIR}-perfbench" \
  python3 perfbench/run.py --workload cold-ingest --seed 1 --seconds 0 \
    --trace 0 | tail -n 1)"
python3 -c 'import json, sys
d = json.loads(sys.argv[1])
assert d["correct"] is True and d["failed"] == 0, d
print("perfbench smoke valid:", d["attempted"], "queries, 0 failed")' \
  "${PERFBENCH_LAST}"

STORE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/blazeit-store.XXXXXX")"
SMOKE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/blazeit-smoke.XXXXXX")"
REUSE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/blazeit-reuse.XXXXXX")"
trap 'rm -rf "${STORE_DIR}" "${SMOKE_DIR}" "${REUSE_DIR}"' EXIT

# Lane wall-clock comes from ctest's own "Total Test time (real)" line:
# portable (no GNU date +%N) and measures only the tests themselves.
lane_seconds() {
  awk '/Total Test time \(real\)/ { print $(NF-1) }' "$1"
}

echo "==> ctest: slow suites, cold store (-L slow)"
BLAZEIT_DETECTION_STORE="${STORE_DIR}" \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L slow -j "${JOBS}" \
  | tee "${STORE_DIR}/cold.log"
COLD_SECS="$(lane_seconds "${STORE_DIR}/cold.log")"

echo "==> ctest: slow suites, warm store (-L slow)"
BLAZEIT_DETECTION_STORE="${STORE_DIR}" \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L slow -j "${JOBS}" \
  | tee "${STORE_DIR}/warm.log"
WARM_SECS="$(lane_seconds "${STORE_DIR}/warm.log")"

# Sketch-index round trip against the store the slow lane just wrote:
# rebuild segment sketches for every detections namespace, then verify
# them the way the engine loads them. Gating — `sketch verify` failing
# means the sketch codec or the staleness bookkeeping broke.
STORECLI="${BUILD_DIR}/tools/storecli"
if [[ -x "${STORECLI}" ]]; then
  echo "==> storecli: sketch rebuild + verify on the warm store"
  "${STORECLI}" sketch rebuild "${STORE_DIR}"
  "${STORECLI}" sketch ls "${STORE_DIR}"
  "${STORECLI}" sketch verify "${STORE_DIR}"
  "${STORECLI}" verify "${STORE_DIR}"

  # Compact and repair the warm store, then verify it again: compaction
  # must leave no shadowed duplicate, repair must find nothing to drop in
  # a store this build wrote, and sketches and CRCs must still verify.
  # The query and serve smokes below then read a compacted store. Gating.
  echo "==> storecli: compact + repair + re-verify on the warm store"
  "${STORECLI}" compact "${STORE_DIR}"
  STATS_OUT="$("${STORECLI}" stats "${STORE_DIR}")"
  grep -qF ', 0 shadowed duplicates)' <<< "${STATS_OUT}" \
    || { echo "==> FAIL: compact left shadowed duplicates: ${STATS_OUT}" >&2; exit 1; }
  REPAIR_OUT="$("${STORECLI}" repair "${STORE_DIR}")"
  echo "${REPAIR_OUT}"
  grep -qF ', 0 malformed records dropped' <<< "${REPAIR_OUT}" \
    || { echo "==> FAIL: repair dropped records: ${REPAIR_OUT}" >&2; exit 1; }
  "${STORECLI}" sketch verify "${STORE_DIR}"
  "${STORECLI}" verify "${STORE_DIR}"

  # Store read-through smoke: building the same 50 frames twice into a
  # fresh store must compute them once, then read every one back through
  # the store-backed CachedDetector. Gating.
  echo "==> storecli: build read-through smoke"
  BUILD_OUT="$("${STORECLI}" build "${SMOKE_DIR}" taipei test 50)"
  grep -qF '(50 computed, 0 already stored)' <<< "${BUILD_OUT}" \
    || { echo "==> FAIL: cold build: ${BUILD_OUT}" >&2; exit 1; }
  BUILD_OUT="$("${STORECLI}" build "${SMOKE_DIR}" taipei test 50)"
  grep -qF '(0 computed, 50 already stored)' <<< "${BUILD_OUT}" \
    || { echo "==> FAIL: warm build: ${BUILD_OUT}" >&2; exit 1; }

  # Store reuse, counted rather than timed: the same aggregate run twice
  # against a fresh store must train, infer and miss on the first run and
  # replay everything on the second — no training batch, no computed NN
  # frame, no persistent-tier miss, and the trained weights read back.
  # Gating.
  echo "==> storecli: warm rerun reuses the store (work counts)"
  for RUN in 1 2; do
    "${STORECLI}" query "${REUSE_DIR}" taipei \
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%" \
      --small-nn --train 1500 --held 1500 --test 4500 \
      --metrics "${REUSE_DIR}/m${RUN}.json" > /dev/null
  done
  python3 - "${REUSE_DIR}/m1.json" "${REUSE_DIR}/m2.json" <<'EOF'
import json, sys
def counters(path):
    return {e["name"]: e.get("value", e.get("count", 0))
            for e in json.load(open(path))["metrics"]}
cold, warm = counters(sys.argv[1]), counters(sys.argv[2])
def inference(m):
    return {k: v for k, v in m.items() if k.startswith("nn.inference_frames{")}
miss = "cache.misses{tier=persistent}"
hit = "cache.hits{tier=persistent}"
assert cold.get("nn.train_batches", 0) > 0, "first run trained nothing"
assert sum(inference(cold).values()) > 0, "first run inferred nothing"
assert cold.get(miss, 0) > 0, "first run missed nothing"
assert warm.get("nn.train_batches", 0) == 0, warm.get("nn.train_batches")
assert all(v == 0 for v in inference(warm).values()), inference(warm)
assert warm.get(miss, 0) == 0, warm.get(miss)
assert warm.get("nn.weights_cache_hits", 0) >= 1, warm.get("nn.weights_cache_hits")
print("store reuse valid: cold run %d train batches, %d inference frames, "
      "%d persistent misses; warm run 0 / 0 / 0, %d weights hit(s), "
      "%d persistent hits" % (cold["nn.train_batches"],
                              sum(inference(cold).values()), cold[miss],
                              warm["nn.weights_cache_hits"], warm.get(hit, 0)))
EOF

  # Malformed numbers are usage errors (exit 2), not namespace 0.
  echo "==> storecli: malformed namespace is a usage error"
  DROP_RC=0
  "${STORECLI}" sketch drop "${SMOKE_DIR}" zz 2> /dev/null || DROP_RC=$?
  [[ "${DROP_RC}" == "2" ]] \
    || { echo "==> FAIL: sketch drop zz exited ${DROP_RC}, want 2" >&2; exit 1; }

  echo "==> storecli: stats smoke on the warm store"
  "${STORECLI}" stats "${STORE_DIR}"
  ARTIFACT_DIR="${BUILD_DIR}/artifacts"
  mkdir -p "${ARTIFACT_DIR}"
  "${STORECLI}" stats "${STORE_DIR}" --json \
    > "${ARTIFACT_DIR}/store_stats.json"
  # The store dir is a string in that JSON: a dir whose name holds a quote
  # and a backslash must still come out as valid JSON naming it. Gating.
  ODD_DIR="${SMOKE_DIR}/st\"ore\\x"
  "${STORECLI}" build "${ODD_DIR}" taipei test 10 > /dev/null
  "${STORECLI}" stats "${ODD_DIR}" --json > "${ARTIFACT_DIR}/odd_stats.json"
  python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
assert d["dir"] == sys.argv[2], (d["dir"], sys.argv[2])
print("stats --json escapes the store dir:", d["dir"])' \
    "${ARTIFACT_DIR}/odd_stats.json" "${ODD_DIR}"

  # Observability artifacts: run one aggregate against the store the slow
  # lane just warmed (same stream/day-lengths/NN config as the test
  # suites, so the query replays stored artifacts) and archive its
  # ExecutionReport, Chrome trace, and the process metrics snapshot under
  # the build dir. The python check both validates the JSON and fails the
  # build if the query path broke.
  echo "==> storecli: query report + trace + metrics artifacts"
  "${STORECLI}" query "${STORE_DIR}" taipei \
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%" \
    --small-nn --train 6000 --held 6000 --test 12000 --json \
    --trace "${ARTIFACT_DIR}/query_trace.json" \
    --metrics "${ARTIFACT_DIR}/metrics_snapshot.json" \
    > "${ARTIFACT_DIR}/query_report.json"
  python3 -c 'import json, sys
for p in sys.argv[1:]:
    json.load(open(p))
print("artifacts valid:", ", ".join(sys.argv[1:]))' \
    "${ARTIFACT_DIR}/store_stats.json" \
    "${ARTIFACT_DIR}/query_report.json" \
    "${ARTIFACT_DIR}/query_trace.json" \
    "${ARTIFACT_DIR}/metrics_snapshot.json"
  # The report's plan is the one the aggregation executor ran: its label,
  # and the Algorithm 1 branch its description names must match the
  # estimate span in its trace. Gating.
  python3 - "${ARTIFACT_DIR}/query_report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["plan"] == "specialized-aggregation", report["plan"]
desc = report["plan_description"]
branches = [b for b in ("query-rewrite", "control-variates") if b in desc]
assert len(branches) == 1, desc
spans = {e["name"] for e in report["trace"]["traceEvents"]}
assert "estimate:" + branches[0] in spans, (branches[0], sorted(spans))
print("report plan valid:", report["plan"], "->", branches[0])
EOF

  # A write that fails (here: a full device) must fail the command rather
  # than leave a truncated artifact behind an exit 0. Gating.
  echo "==> storecli: --metrics write failure exits nonzero"
  if "${STORECLI}" query "${STORE_DIR}" taipei \
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%" \
      --small-nn --train 6000 --held 6000 --test 12000 \
      --metrics /dev/full > /dev/null 2>&1; then
    echo "==> FAIL: query --metrics /dev/full exited 0" >&2
    exit 1
  fi

  # Serving-layer replay smoke: a three-client workload through the
  # multi-tenant admission queue (same warm store and NN config), with
  # the per-query reports and Prometheus metrics dump archived. The
  # python check validates the JSON, that every response succeeded, and
  # that the window coalesced the two same-plan clients cross-client.
  echo "==> storecli: serve replay smoke"
  cat > "${ARTIFACT_DIR}/serve_workload.txt" <<'EOF'
alice SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%
bob SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.05 AT CONFIDENCE 95%
carol SELECT timestamp FROM taipei WHERE class = 'bus' AND timestamp >= 30
EOF
  "${STORECLI}" serve "${STORE_DIR}" "${ARTIFACT_DIR}/serve_workload.txt" \
    --small-nn --train 6000 --held 6000 --test 12000 \
    --prom "${ARTIFACT_DIR}/serve_metrics.prom" \
    > "${ARTIFACT_DIR}/serve_report.json"
  python3 - "${ARTIFACT_DIR}/serve_report.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert len(d["responses"]) == 3, d["responses"]
assert all(r["ok"] for r in d["responses"]), d["responses"]
assert all("report" in r for r in d["responses"]), d["responses"]
assert d["stats"]["cross_client_groups"] >= 1, d["stats"]
assert d["rejected"] == [], d["rejected"]
print("serve replay valid: 3 responses,",
      d["stats"]["cross_client_groups"], "cross-client group(s)")
EOF
  grep -q '^# TYPE blazeit_serve_submitted counter$' \
    "${ARTIFACT_DIR}/serve_metrics.prom"

  # Debug-endpoint smoke: rerun the same serve workload with the HTTP
  # debug server up (--listen 0 picks an ephemeral port, written to the
  # port file; --linger-ms keeps the process alive after the replay so we
  # can scrape it). Gating — /healthz must be 200, /metrics must be a
  # Prometheus exposition, and /tracez must carry the replayed queries in
  # the flight recorder.
  echo "==> storecli: debug endpoint smoke (/healthz /metrics /tracez)"
  PORT_FILE="${ARTIFACT_DIR}/debug_port.txt"
  rm -f "${PORT_FILE}"
  "${STORECLI}" serve "${STORE_DIR}" "${ARTIFACT_DIR}/serve_workload.txt" \
    --small-nn --train 6000 --held 6000 --test 12000 \
    --listen 0 --port-file "${PORT_FILE}" --linger-ms 30000 \
    > "${ARTIFACT_DIR}/serve_report_debug.json" &
  SERVE_PID=$!
  for _ in $(seq 1 300); do
    [[ -s "${PORT_FILE}" ]] && break
    kill -0 "${SERVE_PID}" 2>/dev/null \
      || { echo "==> FAIL: serve exited before publishing its port" >&2; exit 1; }
    sleep 0.1
  done
  [[ -s "${PORT_FILE}" ]] \
    || { echo "==> FAIL: debug server port file never appeared" >&2; kill "${SERVE_PID}"; exit 1; }
  DEBUG_PORT="$(cat "${PORT_FILE}")"
  DEBUG_URL="http://127.0.0.1:${DEBUG_PORT}"
  HEALTH_CODE="$(curl -s -o "${ARTIFACT_DIR}/healthz.json" \
    -w '%{http_code}' "${DEBUG_URL}/healthz")"
  [[ "${HEALTH_CODE}" == "200" ]] \
    || { echo "==> FAIL: /healthz returned ${HEALTH_CODE}" >&2; kill "${SERVE_PID}"; exit 1; }
  curl -s "${DEBUG_URL}/metrics" > "${ARTIFACT_DIR}/debug_metrics.prom"
  grep -q '^# TYPE blazeit_' "${ARTIFACT_DIR}/debug_metrics.prom" \
    || { echo "==> FAIL: /metrics is not a Prometheus exposition" >&2; kill "${SERVE_PID}"; exit 1; }
  curl -s "${DEBUG_URL}/tracez" > "${ARTIFACT_DIR}/tracez.json"
  curl -s "${DEBUG_URL}/statusz" > "${ARTIFACT_DIR}/statusz.json"
  python3 - "${ARTIFACT_DIR}/tracez.json" "${ARTIFACT_DIR}/statusz.json" <<'EOF'
import json, sys
tracez = json.load(open(sys.argv[1]))
assert len(tracez["recent"]) >= 1, tracez
assert all(r["correlation_id"] > 0 for r in tracez["recent"]), tracez
statusz = json.load(open(sys.argv[2]))
sections = {s["section"] for s in statusz["sections"]}
assert {"engine", "storage", "serve"} <= sections, sections
print("debug endpoints valid:", len(tracez["recent"]), "trace(s),",
      len(sections), "statusz section(s)")
EOF
  kill "${SERVE_PID}" 2>/dev/null || true
  wait "${SERVE_PID}" 2>/dev/null || true
else
  echo "==> storecli not built; skipping sketch round trip"
fi

# Both lane times are printed for the record only. Store reuse is gated by
# the storecli work-count check above (a warm rerun trains, infers and
# misses nothing); a wall-clock warm/cold ratio no longer separates a
# working store from a broken one, because the warm lane is bounded by work
# the store does not memoize and the cold lane keeps getting cheaper.
echo "==> slow lane: cold ${COLD_SECS}s, warm ${WARM_SECS}s"

# Gating AddressSanitizer + UndefinedBehaviorSanitizer lane: rebuild the
# library and every fast suite with both sanitizers and run the fast
# lane. Heap misuse and UB found here fail the build. The sanitizer
# builds also force BLAZEIT_MUTEX_DEBUG on, so the mutex owner-tracking
# assertions stay armed.
echo "==> asan+ubsan lane (gating): fast suites"
ASAN_BUILD="${BUILD_DIR}-asan"
cmake -B "${ASAN_BUILD}" -S . -DBLAZEIT_ASAN=ON -DBLAZEIT_UBSAN=ON \
  -DBLAZEIT_BUILD_BENCHES=OFF -DBLAZEIT_BUILD_EXAMPLES=OFF \
  -DBLAZEIT_BUILD_TOOLS=OFF > /dev/null
cmake --build "${ASAN_BUILD}" -j "${JOBS}" > /dev/null
ctest --test-dir "${ASAN_BUILD}" --output-on-failure -L fast -j "${JOBS}"
echo "==> asan+ubsan lane clean"

# Gating ThreadSanitizer lane: rebuild every fast suite (exec runtime,
# storage locking, serving, obs, net) with -fsanitize=thread and run
# them, plus the slow suite that drives the admission queue's group loop —
# the only concurrent batching code: admission_determinism_test
# (shared-plan groups running concurrently against one SharedSweepCache,
# and eight client threads calling Submit concurrently), which ctest runs
# as batch_determinism_test and serve_determinism_test. Races found here
# fail the build.
echo "==> tsan lane (gating): fast suites + admission determinism suite"
TSAN_BUILD="${BUILD_DIR}-tsan"
cmake -B "${TSAN_BUILD}" -S . -DBLAZEIT_TSAN=ON \
  -DBLAZEIT_BUILD_BENCHES=OFF -DBLAZEIT_BUILD_EXAMPLES=OFF \
  -DBLAZEIT_BUILD_TOOLS=OFF > /dev/null
cmake --build "${TSAN_BUILD}" -j "${JOBS}" > /dev/null
ctest --test-dir "${TSAN_BUILD}" --output-on-failure -L fast -j "${JOBS}"
ctest --test-dir "${TSAN_BUILD}" --output-on-failure \
  -R '^(batch_determinism_test|serve_determinism_test)$' -j "${JOBS}"
echo "==> tsan lane clean"

# Opportunistic clang lanes. This tree annotates every mutex-bearing
# subsystem with Clang Thread Safety Analysis attributes
# (src/util/thread_annotations.h); they only become compiler-checked
# contracts under clang, so when a clang++ is installed, compile the
# library with -Wthread-safety -Werror. Same spirit for clang-tidy
# (non-gating): the curated .clang-tidy runs over the library sources
# using the exported compile_commands.json. Neither tool is guaranteed
# on CI machines; both lanes print a skip note when absent.
if command -v clang++ > /dev/null 2>&1; then
  echo "==> clang -Wthread-safety lane (gating): library compile"
  TSA_BUILD="${BUILD_DIR}-wthread-safety"
  cmake -B "${TSA_BUILD}" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DBLAZEIT_BUILD_TESTS=OFF -DBLAZEIT_BUILD_BENCHES=OFF \
    -DBLAZEIT_BUILD_EXAMPLES=OFF -DBLAZEIT_BUILD_TOOLS=OFF \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" > /dev/null
  cmake --build "${TSA_BUILD}" -j "${JOBS}" --target blazeit > /dev/null
  echo "==> clang -Wthread-safety lane clean"
else
  echo "==> clang++ not installed; skipping -Wthread-safety lane"
fi
if command -v clang-tidy > /dev/null 2>&1; then
  echo "==> clang-tidy report (non-gating)"
  find src -name '*.cc' -print0 \
    | xargs -0 clang-tidy -p "${BUILD_DIR}" --quiet \
    || echo "==> clang-tidy reported findings (non-gating)"
else
  echo "==> clang-tidy not installed; skipping tidy report"
fi

# Non-gating coverage report, last: a --coverage build of its own runs
# every suite and lists the library functions that never executed.
ci/coverage.sh "${BUILD_DIR}-coverage" \
  || echo "==> coverage report failed (non-gating)"

echo "==> OK"

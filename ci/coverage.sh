#!/usr/bin/env bash
# Coverage report (non-gating): builds the library, the test suites and
# storecli with --coverage into a build dir of its own, runs the whole
# ctest suite, and lists every library function (defined under src/) that
# never executed. Counts come from gcov's JSON format and are summed over
# every object that compiled the function, so an inline header function
# run only from a test still counts as run. The build is unoptimized: at
# -O2 the early inliner folds small callees into their callers before the
# counters go in, and a function run only through such a call reads as
# never run. Usage:
#   ci/coverage.sh [build-dir]     (default: build-coverage)
# Exits 0 whatever the report finds; only a broken build or a missing gcov
# fails it.
set -euo pipefail

cd "$(dirname "$0")/.."
COV_BUILD="${1:-build-coverage}"
JOBS="$(nproc 2>/dev/null || echo 4)"

command -v gcov > /dev/null 2>&1 \
  || { echo "==> coverage: gcov not installed; skipping"; exit 0; }

echo "==> coverage: configure + build (${COV_BUILD}, -j${JOBS})"
cmake -B "${COV_BUILD}" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
  -DBLAZEIT_BUILD_BENCHES=OFF -DBLAZEIT_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "${COV_BUILD}" -j "${JOBS}" > /dev/null

# Counts accumulate across runs in the .gcda files; start from zero.
find "${COV_BUILD}" -name '*.gcda' -delete
echo "==> coverage: ctest (all suites)"
ctest --test-dir "${COV_BUILD}" -j "${JOBS}" > "${COV_BUILD}/coverage-ctest.log" \
  || echo "==> coverage: some suites failed under coverage (see ${COV_BUILD}/coverage-ctest.log)"
tail -n 3 "${COV_BUILD}/coverage-ctest.log"

python3 - "${COV_BUILD}" "$(pwd)/src/" <<'EOF'
import collections, json, os, subprocess, sys

build, src = sys.argv[1], sys.argv[2]
gcdas = collections.defaultdict(list)
for dirpath, _, files in os.walk(build):
    for f in files:
        if f.endswith(".gcda"):
            gcdas[dirpath].append(f)

# Source position -> executions, summed over every object and over every
# template instantiation at that position; a function counts as run when
# any instantiation of it ran.
counts = collections.Counter()
names = {}
decoder = json.JSONDecoder()
for dirpath, files in sorted(gcdas.items()):
    out = subprocess.run(["gcov", "--json-format", "--stdout"] + sorted(files),
                         cwd=dirpath, capture_output=True, text=True).stdout
    pos = 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            break
        doc, pos = decoder.raw_decode(out, pos)
        for entry in doc.get("files", []):
            path = os.path.normpath(os.path.join(doc.get("current_working_directory", dirpath),
                                                 entry["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, os.path.dirname(src.rstrip("/")))
            for fn in entry.get("functions", []):
                key = (rel, fn["start_line"], fn["start_column"])
                counts[key] += fn["execution_count"]
                name = fn.get("demangled_name", fn["name"])
                names[key] = min(names.get(key, name), name, key=len)

never = sorted(k for k, v in counts.items() if v == 0)
print("==> coverage: %d library functions, %d never run" % (len(counts), len(never)))
for key in never:
    print("  %s:%d  %s" % (key[0], key[1], names[key]))
EOF

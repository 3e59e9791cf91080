#!/usr/bin/env bash
# Record the live-dataset append benchmarks into BENCH_append.json: on
# the crime-like scenario grown to 10x the paper size, one more slice
# arrives — catalog append + incremental pool refresh + session
# rebase, versus re-interning the grown dataset, rebuilding the pool
# from scratch and re-assimilating the history into a fresh session.
# The headline number is the reopen/rebase ratio (how much the version
# chain buys per append step); the pool component benches isolate the
# incremental refresh's share.
# Usage: scripts/bench_append.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_append.json}"

# Dedicated Release build dir (same rationale as bench_baseline.sh).
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j --target bench_append

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

./build-bench/bench/bench_append --benchmark_format=json >"$tmp"

python3 - "$tmp" "$out" <<'EOF'
import json, sys
raw, out = sys.argv[1:3]
with open(raw) as f:
    doc = json.load(f)

# Refuse to record numbers measured through a debug-built timing path.
build_type = doc["context"]["library_build_type"]
if build_type != "release":
    sys.exit(f"refusing to record: library_build_type={build_type!r} "
             f"(expected 'release')")

by_name = {b["name"]: b for b in doc["benchmarks"]}

def seconds(name):
    b = by_name[name]
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[b["time_unit"]]
    return b["real_time"] * unit

def ratio(slow, fast):
    return round(seconds(slow) / seconds(fast), 3)

summary = {
    # The headline number: catalog append + pool refresh + session
    # rebase vs full re-intern + scratch pool + fresh session + replay,
    # both landing on the identical 10x-grown crime dataset.
    "crime10x_reopen_over_rebase":
        ratio("BM_CrimeFullReopen", "BM_CrimeAppendRebase"),
    "crime10x_rebase_ms":
        round(seconds("BM_CrimeAppendRebase") * 1e3, 3),
    "crime10x_reopen_ms":
        round(seconds("BM_CrimeFullReopen") * 1e3, 3),
    # Component: the incremental pool refresh vs a scratch build on the
    # grown table (bounded below by the conditions whose quantiles the
    # append moved — those rebuild over all rows either way).
    "crime10x_pool_scratch_over_incremental":
        ratio("BM_CrimePoolBuildScratch", "BM_CrimePoolRefreshIncremental"),
    # Component, other end of the spectrum: the synthetic scenario's
    # label-based alphabet never moves under appends, so every condition
    # extends in place over the appended suffix only.
    "synth10x_pool_scratch_over_incremental":
        ratio("BM_SynthPoolBuildScratch", "BM_SynthPoolRefreshIncremental"),
}

snapshot = {
    "context": doc["context"],
    "summary": summary,
    "bench_append": doc["benchmarks"],
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
print(json.dumps(summary, indent=2))
EOF

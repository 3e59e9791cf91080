#!/usr/bin/env bash
# Record a comparison snapshot of the micro benchmarks (model, search
# machinery), the end-to-end miner benchmark bench_miner_e2e, the session
# refit benchmark and the SIMD scoring-kernel micro-bench bench_kernels.
# Nothing in the repository is recorded with it; run it on a parent and a
# change to compare them.
#
# The snapshot records the kernel ISA in effect: run with
# SISD_KERNELS=scalar for a scalar baseline, unset for runtime dispatch.
# Usage: scripts/bench_baseline.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_baseline.json}"

# Dedicated build dir so stale cached options in a developer's build/
# (e.g. SISD_SANITIZE) can't contaminate the recorded numbers.
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j \
  --target bench_micro_model bench_micro_search bench_miner_e2e \
           bench_session_refit bench_kernels

tmp_model=$(mktemp)
tmp_search=$(mktemp)
tmp_e2e=$(mktemp)
tmp_refit=$(mktemp)
tmp_kernels=$(mktemp)
trap 'rm -f "$tmp_model" "$tmp_search" "$tmp_e2e" "$tmp_refit" "$tmp_kernels"' EXIT

./build-bench/bench/bench_micro_model --benchmark_format=json >"$tmp_model"
./build-bench/bench/bench_micro_search --benchmark_format=json >"$tmp_search"
./build-bench/bench/bench_miner_e2e --benchmark_format=json >"$tmp_e2e"
./build-bench/bench/bench_session_refit --benchmark_format=json >"$tmp_refit"
./build-bench/bench/bench_kernels --benchmark_format=json >"$tmp_kernels"

python3 - "$tmp_model" "$tmp_search" "$tmp_e2e" "$tmp_refit" "$tmp_kernels" \
  "$out" <<'EOF'
import json, sys
model, search, e2e, refit, kernels, out = sys.argv[1:7]
def load_checked(path):
    with open(path) as f:
        doc = json.load(f)
    # Refuse to record numbers measured through a debug-built timing path:
    # that is exactly the bug that tainted the pre-harness BENCH files.
    build_type = doc["context"]["library_build_type"]
    if build_type != "release":
        sys.exit(f"refusing to record: library_build_type={build_type!r} "
                 f"(expected 'release') in {path}")
    return doc
m = load_checked(model)
s = load_checked(search)
e = load_checked(e2e)
r = load_checked(refit)
k = load_checked(kernels)
snapshot = {
    "context": m["context"],
    "bench_micro_model": m["benchmarks"],
    "bench_micro_search": s["benchmarks"],
    "bench_miner_e2e": e["benchmarks"],
    # Per-dy spread assimilation + warm vs from-scratch refit.
    "bench_session_refit": r["benchmarks"],
    # Scoring-kernel micro benches under the ISA this run dispatched to
    # (the controlled scalar-vs-AVX2 comparison lives in BENCH_simd.json
    # via scripts/bench_kernels.sh).
    "bench_kernels": k["benchmarks"],
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF

#!/usr/bin/env bash
# Sanitizer smoke run: build with ASan+UBSan (SISD_SANITIZE) and run
# the fast unit-labelled tests plus the CSV fuzzer (client CSV is hostile
# input). Benches are skipped to keep the build short; the other
# integration/fuzz suites are covered by the full tier-1 run.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build-asan -S . \
  -DSISD_SANITIZE=address,undefined \
  -DSISD_BUILD_BENCH=OFF
cmake --build build-asan -j
cd build-asan
ctest --output-on-failure -L unit -j "$(nproc)"
ctest --output-on-failure -R '^csv_fuzz_test$'

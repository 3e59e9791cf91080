#!/usr/bin/env bash
# ThreadSanitizer variant of the concurrency tests: builds with
# SISD_SANITIZE=thread and runs the suites that exercise the batch
# evaluation engine's worker pool (batch_evaluator_test's parallel scoring,
# thread_invariance_test's multi-threaded mining, beam_search_test), the
# concurrent session service (serve_hammer_test's interleaved
# mine/save/evict/close storm, serve_loop_test's stream transport), and
# the shared dataset catalog (catalog_hammer_test's concurrent
# open/dataset_drop/mine storm over one catalog entry), the epoll
# event-loop transport (event_loop_hammer_test's pipelined clients racing
# the worker pool, backpressure rejection and connection teardown;
# event_loop_test's transport contract), the parallel
# branch-and-bound (optimal_search_test's multi-thread wave expansion with
# the shared atomic incumbent), the greedy subgroup-list miner
# (list_miner_test's engine-vs-reference differential across thread
# counts; mine_list_serve_test's byte-identity across transports and
# worker counts), the baseline measures scored by the worker pool
# (quality_measures_test's parallel MeasureEvaluator beams), plus the
# kernel suites
# (kernel_dispatch_test flips the process-wide ISA slot while the engine's
# workers score through it; kernel_parity_test covers the read-once
# environment resolution), and the column-parallel condition-pool builds
# (pool_incremental_test refreshes pools on a shared pool while a beam
# search scores on it). A final stress pass repeats the three hammer
# suites until one fails (at most 20 runs each), so an interleaving that
# breaks them once in a while cannot pass by luck.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build-tsan -S . \
  -DSISD_SANITIZE=thread \
  -DSISD_BUILD_BENCH=OFF \
  -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j \
  --target batch_evaluator_test thread_invariance_test beam_search_test \
           optimal_search_test list_miner_test serve_hammer_test \
           serve_loop_test mine_list_serve_test catalog_hammer_test \
           event_loop_test event_loop_hammer_test quality_measures_test \
           kernel_parity_test kernel_dispatch_test pool_incremental_test
cd build-tsan
ctest --output-on-failure \
  -R 'batch_evaluator_test|thread_invariance_test|beam_search_test|optimal_search_test|list_miner_test|serve_hammer_test|serve_loop_test|mine_list_serve_test|catalog_hammer_test|event_loop_test|event_loop_hammer_test|quality_measures_test|kernel_parity_test|kernel_dispatch_test|pool_incremental_test'
ctest --output-on-failure --repeat until-fail:20 \
  -R 'serve_hammer_test|event_loop_hammer_test|catalog_hammer_test'

#!/usr/bin/env python3
"""Record one benchmark snapshot from the in-repo harness benches.

Usage: scripts/bench_record.py RECORD [OUT]

  RECORD    default OUT          what it records
  baseline  BENCH_baseline.json  micro model + search, bench_miner_e2e,
                                 bench_session_refit and bench_kernels
                                 (a comparison snapshot, never committed:
                                 run it on a parent and a change)
  simd      BENCH_simd.json      per-kernel scalar vs AVX2 speedups and
                                 the dy=1 candidate-evaluation headline
  list      BENCH_list.json      fused list engine vs the naive
                                 reference, plus greedy-list vs
                                 iterative-miner quality

The benches are built in a dedicated Release build dir (build-bench), so
stale cached options in a developer's build/ (e.g. SISD_SANITIZE) cannot
contaminate the numbers. A harness document whose context does not say
library_build_type == "release" is refused: a debug-built timing path is
exactly the bug that tainted the pre-harness BENCH files. The list
quality document is an exact search output, not a timing, and comes
from the same checked binary.

The kernel ISA in effect is recorded: run with SISD_KERNELS=scalar for a
scalar baseline, unset for runtime dispatch. The simd record measures
both ISAs in one process (the AVX2 variants register only on AVX2
hosts), so it needs the machine otherwise idle, not an override.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = "build-bench"
HARNESS_JSON = "--benchmark_format=json"


def load_checked(text, source):
    """Parses a harness JSON document, refusing a non-release one."""
    doc = json.loads(text)
    build_type = doc.get("context", {}).get("library_build_type")
    if build_type != "release":
        sys.exit(f"refusing to record: library_build_type={build_type!r} "
                 f"(expected 'release') in {source}")
    return doc


def seconds(runs, name):
    """Real time per iteration of benchmark `name`, in seconds."""
    b = runs[name]
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[b["time_unit"]]
    return b["real_time"] * unit


def ratio(runs, slow, fast, optional=False):
    """slow / fast wall-clock, rounded; None for an absent optional leg."""
    if optional and (slow not in runs or fast not in runs):
        return None  # AVX2 legs register only on AVX2 hosts
    return round(seconds(runs, slow) / seconds(runs, fast), 3)


def by_name(doc):
    return {b["name"]: b for b in doc["benchmarks"]}


def summarize_simd(docs):
    runs = by_name(docs["bench_kernels"])
    kernel_speedups = {}
    for base in ("BM_CountAnd2", "BM_CountAnd3", "BM_AndInto",
                 "BM_MaskedSumAnd", "BM_MaskedMomentsAnd", "BM_TileSlotSums",
                 "BM_TileBucketCounts"):
        for n in (2000, 100000):
            r = ratio(runs, f"{base}<ScalarTable>/{n}",
                      f"{base}<Avx2Table>/{n}", optional=True)
            if r is not None:
                kernel_speedups[f"{base}/{n}"] = r
    return {
        # Per-kernel AVX2-over-scalar speedup (direct table calls,
        # density-0.5 random masks; real candidate masks are sparser and
        # skip more).
        "kernel_speedup_avx2_over_scalar": kernel_speedups,
        # The headline: full ScoreChunk candidate evaluation at dy=1
        # through the production dispatch path, scalar vs AVX2.
        "candidate_eval_dy1_speedup":
            ratio(runs, "BM_CandidateEvalDy1_scalar",
                  "BM_CandidateEvalDy1_avx2", optional=True),
    }


def summarize_list(docs):
    runs = by_name(docs["bench_list"])
    return {
        # Engine vs the naive materializing reference (identical output
        # by the differential test; this records what the fused path
        # buys).
        "synthetic_engine_speedup_vs_naive":
            ratio(runs, "BM_Synth_ListNaive", "BM_Synth_ListEngine_1thread"),
        "crime_engine_speedup_vs_naive":
            ratio(runs, "BM_Crime_ListNaive", "BM_Crime_ListEngine_1thread"),
        "crime_allthreads_speedup_vs_naive":
            ratio(runs, "BM_Crime_ListNaive",
                  "BM_Crime_ListEngine_allthreads"),
        "crime_list_seconds_1thread":
            round(seconds(runs, "BM_Crime_ListEngine_1thread"), 6),
        # Greedy list vs iterative-patterns-as-list, same MDL gain
        # currency (exact search outputs, not timings).
        "quality": docs["quality"],
    }


# RECORD -> (default OUT, [(doc key, bench binary, flag)], summary fn).
# Each harness run's benchmarks land under its key, in table order, after
# "context" (the first harness run's) and "summary" (when there is one).
RECORDS = {
    "baseline": ("BENCH_baseline.json", [
        ("bench_micro_model", "bench_micro_model", HARNESS_JSON),
        ("bench_micro_search", "bench_micro_search", HARNESS_JSON),
        ("bench_miner_e2e", "bench_miner_e2e", HARNESS_JSON),
        # Per-dy spread assimilation + warm vs from-scratch refit.
        ("bench_session_refit", "bench_session_refit", HARNESS_JSON),
        # Kernel micro benches under the ISA this run dispatched to (the
        # controlled scalar-vs-AVX2 comparison is the simd record).
        ("bench_kernels", "bench_kernels", HARNESS_JSON),
    ], None),
    "simd": ("BENCH_simd.json", [
        ("bench_kernels", "bench_kernels", HARNESS_JSON),
    ], summarize_simd),
    "list": ("BENCH_list.json", [
        ("bench_list", "bench_list", HARNESS_JSON),
        ("quality", "bench_list", "--quality-json"),
    ], summarize_list),
}


def assemble(runs, docs, summarize):
    """The snapshot written to OUT, from the parsed run outputs."""
    harness = [key for key, _, flag in runs if flag == HARNESS_JSON]
    snapshot = {"context": docs[harness[0]]["context"]}
    if summarize is not None:
        snapshot["summary"] = summarize(docs)
    for key in harness:
        snapshot[key] = docs[key]["benchmarks"]
    return snapshot


def main(argv):
    if len(argv) not in (2, 3) or argv[1] not in RECORDS:
        sys.exit(f"usage: {argv[0]} {{{','.join(RECORDS)}}} [OUT]")
    default_out, runs, summarize = RECORDS[argv[1]]
    # Relative to the repo root, like the default (an absolute OUT wins).
    out = ROOT / (argv[2] if len(argv) == 3 else default_out)

    subprocess.run(["cmake", "-B", BUILD_DIR, "-S", ".",
                    "-DCMAKE_BUILD_TYPE=Release", "-DSISD_SANITIZE=",
                    "-DSISD_BUILD_TESTS=OFF", "-DSISD_BUILD_EXAMPLES=OFF"],
                   cwd=ROOT, check=True)
    targets = sorted({bench for _, bench, _ in runs})
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "--target",
                    *targets], cwd=ROOT, check=True)

    docs = {}
    for key, bench, flag in runs:
        exe = f"./{BUILD_DIR}/bench/{bench}"
        text = subprocess.run([exe, flag], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True).stdout
        docs[key] = (load_checked(text, f"{bench} {flag}")
                     if flag == HARNESS_JSON else json.loads(text))

    snapshot = assemble(runs, docs, summarize)
    with open(out, "w") as f:
        json.dump(snapshot, f, indent=2)
        f.write("\n")
    print(f"wrote {out}")
    if "summary" in snapshot:
        print(json.dumps(snapshot["summary"], indent=2))


if __name__ == "__main__":
    main(sys.argv)

// Scoring-kernel benchmarks (bench/harness): scalar vs AVX2 throughput of
// the src/kernels primitives, plus the headline candidate-evaluation
// benchmark — SiLocationEvaluator::ScoreChunk over a realistic crime-shaped
// CandidateBatch at dy=1, the loop the SIMD layer was built for.
//
// Per-kernel benches call the ISA tables directly (no dispatch overhead);
// the candidate-eval benches switch the process-wide dispatch slot with
// kernels::SetActiveIsaForTesting so the full production path is measured.
// AVX2 variants register only when the host supports AVX2, so the binary
// runs (scalar-only) anywhere.
//
// `scripts/bench_record.py simd` records both ISAs into BENCH_simd.json
// with computed speedup summaries.

#include "harness/microbench.hpp"

#include <vector>

#include "datagen/crime.hpp"
#include "kernels/kernels.hpp"
#include "model/background_model.hpp"
#include "random/rng.hpp"
#include "search/batch_evaluator.hpp"
#include "search/condition_pool.hpp"
#include "search/si_evaluator.hpp"

namespace {

using namespace sisd;

const kernels::KernelTable& ScalarTable() { return kernels::ScalarKernels(); }
const kernels::KernelTable& Avx2Table() { return *kernels::Avx2KernelsOrNull(); }

/// Registers AVX2 variants only on AVX2 hosts; chaining on the returned
/// dummy is a no-op, so registration sites stay one-liners either way.
sisd::bench::Benchmark* RegisterIfAvx2(const char* name,
                                       sisd::bench::Function fn) {
  static sisd::bench::Benchmark dummy("disabled", nullptr);
  if (!kernels::CpuSupportsAvx2()) return &dummy;
  return sisd::bench::RegisterBenchmark(name, fn);
}

/// Random bitset blocks (density ~0.5) plus matching Gaussian values.
struct KernelInputs {
  explicit KernelInputs(size_t n) : values(n) {
    random::Rng rng(7);
    const size_t num_blocks = (n + 63) / 64;
    a.resize(num_blocks, 0);
    b.resize(num_blocks, 0);
    c.resize(num_blocks, 0);
    out.resize(num_blocks, 0);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) a[i >> 6] |= uint64_t{1} << (i & 63);
      if (rng.Bernoulli(0.5)) b[i >> 6] |= uint64_t{1} << (i & 63);
      if (rng.Bernoulli(0.5)) c[i >> 6] |= uint64_t{1} << (i & 63);
      values[i] = rng.Gaussian();
    }
  }
  std::vector<uint64_t> a, b, c, out;
  std::vector<double> values;
};

template <const kernels::KernelTable& (*Table)()>
void BM_CountAnd2(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelInputs in(n);
  const kernels::KernelTable& table = Table();
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(
        table.count_and2(in.a.data(), in.b.data(), in.a.size()));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(n));
}
SISD_BENCHMARK(BM_CountAnd2<ScalarTable>)->Arg(2000)->Arg(100000);

template <const kernels::KernelTable& (*Table)()>
void BM_CountAnd3(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelInputs in(n);
  const kernels::KernelTable& table = Table();
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(table.count_and3(in.a.data(), in.b.data(),
                                                in.c.data(), in.a.size()));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(n));
}
SISD_BENCHMARK(BM_CountAnd3<ScalarTable>)->Arg(2000)->Arg(100000);

template <const kernels::KernelTable& (*Table)()>
void BM_AndInto(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  KernelInputs in(n);
  const kernels::KernelTable& table = Table();
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(table.and_into(in.a.data(), in.b.data(),
                                              in.out.data(), in.a.size()));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(n));
}
SISD_BENCHMARK(BM_AndInto<ScalarTable>)->Arg(2000)->Arg(100000);

template <const kernels::KernelTable& (*Table)()>
void BM_MaskedSumAnd(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelInputs in(n);
  const kernels::KernelTable& table = Table();
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(table.masked_sum_and(
        in.values.data(), in.a.data(), in.b.data(), in.a.size()));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(n));
}
SISD_BENCHMARK(BM_MaskedSumAnd<ScalarTable>)->Arg(2000)->Arg(100000);

template <const kernels::KernelTable& (*Table)()>
void BM_MaskedMomentsAnd(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const KernelInputs in(n);
  const kernels::KernelTable& table = Table();
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(table.masked_moments_and(
        in.values.data(), in.a.data(), in.b.data(), in.a.size()));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(n));
}
SISD_BENCHMARK(BM_MaskedMomentsAnd<ScalarTable>)->Arg(2000)->Arg(100000);

/// A density-0.5 parent over `n` rows, bucketed for the parent-major tile
/// kernels, plus one random 32-condition tile: `rows` holds the parent's
/// rows by contract slot (`slot_begin`) and again by one of `kBuckets`
/// round-robin buckets (`bucket_rows`, `bucket_begin`).
struct TileInputs {
  static constexpr size_t kBuckets = 20;

  explicit TileInputs(size_t n) : neg_values(n), tile(n) {
    random::Rng rng(7);
    std::vector<uint32_t> parent;
    for (size_t r = 0; r < n; ++r) {
      neg_values[r] = -rng.Gaussian();
      tile[r] = uint32_t(rng.UniformInt(0, 0xFFFFFFFF));
      if (rng.Bernoulli(0.5)) parent.push_back(uint32_t(r));
    }
    Bucket(parent, kernels::kContractSlots, &rows, slot_begin);
    bucket_begin.resize(kBuckets + 1);
    Bucket(parent, kBuckets, &bucket_rows, bucket_begin.data());
  }

  /// Stable bucketing of `parent` by `r % buckets` into `*out`, with
  /// `buckets + 1` offsets in `begin`.
  static void Bucket(const std::vector<uint32_t>& parent, size_t buckets,
                     std::vector<uint32_t>* out, uint32_t* begin) {
    out->clear();
    begin[0] = 0;
    for (size_t b = 0; b < buckets; ++b) {
      for (uint32_t r : parent) {
        if (r % buckets == b) out->push_back(r);
      }
      begin[b + 1] = uint32_t(out->size());
    }
  }

  std::vector<double> neg_values;
  std::vector<uint32_t> tile;
  std::vector<uint32_t> rows;
  uint32_t slot_begin[kernels::kContractSlots + 1] = {};
  std::vector<uint32_t> bucket_rows;
  std::vector<uint32_t> bucket_begin;
};

template <const kernels::KernelTable& (*Table)()>
void BM_TileSlotSums(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const TileInputs in(n);
  const kernels::KernelTable& table = Table();
  double sums[kernels::kTileWidth];
  for (auto _ : state) {
    table.tile_slot_sums(in.neg_values.data(), in.tile.data(), in.rows.data(),
                         in.slot_begin, sums);
    sisd::bench::DoNotOptimize(sums);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(in.rows.size()));
}
SISD_BENCHMARK(BM_TileSlotSums<ScalarTable>)->Arg(2000)->Arg(100000);

template <const kernels::KernelTable& (*Table)()>
void BM_TileBucketCounts(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const TileInputs in(n);
  const kernels::KernelTable& table = Table();
  std::vector<uint32_t> counts(TileInputs::kBuckets * kernels::kTileWidth);
  for (auto _ : state) {
    table.tile_bucket_counts(in.tile.data(), in.bucket_rows.data(),
                             in.bucket_begin.data(), TileInputs::kBuckets,
                             counts.data());
    sisd::bench::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          int64_t(in.bucket_rows.size()));
}
SISD_BENCHMARK(BM_TileBucketCounts<ScalarTable>)->Arg(2000)->Arg(100000);

// AVX2 twins (runtime-conditional registration).
[[maybe_unused]] auto* reg_count2_avx2 =
    RegisterIfAvx2("BM_CountAnd2<Avx2Table>", BM_CountAnd2<Avx2Table>)
        ->Arg(2000)->Arg(100000);
[[maybe_unused]] auto* reg_count3_avx2 =
    RegisterIfAvx2("BM_CountAnd3<Avx2Table>", BM_CountAnd3<Avx2Table>)
        ->Arg(2000)->Arg(100000);
[[maybe_unused]] auto* reg_and_into_avx2 =
    RegisterIfAvx2("BM_AndInto<Avx2Table>", BM_AndInto<Avx2Table>)
        ->Arg(2000)->Arg(100000);
[[maybe_unused]] auto* reg_masked_sum_avx2 =
    RegisterIfAvx2("BM_MaskedSumAnd<Avx2Table>", BM_MaskedSumAnd<Avx2Table>)
        ->Arg(2000)->Arg(100000);
[[maybe_unused]] auto* reg_moments_avx2 =
    RegisterIfAvx2("BM_MaskedMomentsAnd<Avx2Table>",
                   BM_MaskedMomentsAnd<Avx2Table>)
        ->Arg(2000)->Arg(100000);
[[maybe_unused]] auto* reg_tile_sums_avx2 =
    RegisterIfAvx2("BM_TileSlotSums<Avx2Table>", BM_TileSlotSums<Avx2Table>)
        ->Arg(2000)->Arg(100000);
[[maybe_unused]] auto* reg_tile_counts_avx2 =
    RegisterIfAvx2("BM_TileBucketCounts<Avx2Table>",
                   BM_TileBucketCounts<Avx2Table>)
        ->Arg(2000)->Arg(100000);

/// Crime-shaped candidate-evaluation fixture: a depth-2 style batch (beam
/// parents x pool conditions, coverage-filtered, counts precomputed) scored
/// through SiLocationEvaluator::ScoreChunk — the production hot path.
struct CandidateEvalFixture {
  CandidateEvalFixture()
      : data(datagen::MakeCrimeLike()),
        model([&] {
          Result<model::BackgroundModel> created =
              model::BackgroundModel::CreateFromData(data.dataset.targets);
          created.status().CheckOK();
          return std::move(created).MoveValue();
        }()),
        pool(search::ConditionPool::Build(data.dataset.descriptions, 4)) {
    constexpr size_t kBeamWidth = 20;
    constexpr uint32_t kMinCoverage = 20;
    batch.pool = &pool;
    batch.depth = 2;
    const size_t num_parents = std::min(kBeamWidth, pool.size());
    for (size_t p = 0; p < num_parents; ++p) {
      batch.parents.push_back(&pool.extension(uint32_t(p)));
    }
    for (uint32_t p = 0; p < batch.parents.size(); ++p) {
      const pattern::Extension& parent = *batch.parents[p];
      for (uint32_t c = 0; c < pool.size(); ++c) {
        const uint32_t count = uint32_t(
            pattern::Extension::IntersectionCount(parent, pool.extension(c)));
        if (count >= kMinCoverage) batch.items.push_back({p, c, count});
      }
    }
    // As in a search, the dy = 1 evaluator scores parent-major over the
    // pool's row-major view.
    rows.Assign(pool, data.dataset.targets.rows());
    batch.rows = &rows;
    scores.resize(batch.items.size());
  }

  datagen::CrimeData data;
  model::BackgroundModel model;
  search::ConditionPool pool;
  search::ConditionRows rows;
  search::CandidateBatch batch;
  std::vector<double> scores;
};

void CandidateEvalDy1(sisd::bench::State& state, kernels::Isa isa) {
  const kernels::Isa previous = kernels::ActiveIsa();
  kernels::SetActiveIsaForTesting(isa);
  CandidateEvalFixture fixture;
  const si::DescriptionLengthParams dl;
  search::SiLocationEvaluator evaluator(fixture.model, fixture.data.dataset.targets,
                                        dl);
  for (auto _ : state) {
    evaluator.ScoreChunk(fixture.batch, 0, fixture.batch.size(), 0,
                         fixture.scores.data());
    sisd::bench::DoNotOptimize(fixture.scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          int64_t(fixture.batch.size()));
  kernels::SetActiveIsaForTesting(previous);
}

void BM_CandidateEvalDy1_scalar(sisd::bench::State& state) {
  CandidateEvalDy1(state, kernels::Isa::kScalar);
}
SISD_BENCHMARK(BM_CandidateEvalDy1_scalar);

void BM_CandidateEvalDy1_avx2(sisd::bench::State& state) {
  CandidateEvalDy1(state, kernels::Isa::kAvx2);
}
[[maybe_unused]] auto* reg_candidate_eval_avx2 =
    RegisterIfAvx2("BM_CandidateEvalDy1_avx2", BM_CandidateEvalDy1_avx2);

}  // namespace

SISD_BENCHMARK_MAIN();

// Differential tests of the src/kernels ISA tables: on AVX2 hosts, every
// AVX2 kernel must return results BIT-identical to its scalar counterpart —
// not approximately equal — across sizes 0–257 (every tail shape around
// block boundaries), mask densities from empty to full, and adversarial
// values (signed zeros, denormals, huge/tiny magnitudes). The integer
// kernels are additionally checked against naive references, and the
// floating-point lane contract is pinned down by requiring
// MaskedMomentsAnd's sum to equal MaskedSumAnd bitwise.
//
// The parent-major tile kernels (tile_slot_sums, tile_bucket_counts) are
// checked against the per-candidate kernels they replace: every tile sum
// must be memcmp-equal to masked_sum_and over (parent, condition), and
// every per-bucket count equal to count_and3 over (bucket, parent,
// condition), under both tables.
//
// Tests auto-skip the AVX2 legs on hosts without AVX2, so the suite passes
// (scalar self-consistency only) anywhere. The whole file is ASan/UBSan
// clean: inputs are sized exactly, so out-of-bounds kernel reads would trip
// the sanitizers.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.hpp"
#include "random/rng.hpp"

namespace sisd::kernels {
namespace {

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// One differential input: two tail-masked bitsets over `n` rows plus a
/// value array of exactly `n` doubles (exact sizing makes any kernel read
/// past the universe an ASan-visible bug).
struct Input {
  explicit Input(size_t universe) : n(universe), values(universe) {
    const size_t num_blocks = (universe + 63) / 64;
    a.assign(num_blocks, 0);
    b.assign(num_blocks, 0);
  }

  void SetBitA(size_t i) { a[i >> 6] |= uint64_t{1} << (i & 63); }
  void SetBitB(size_t i) { b[i >> 6] |= uint64_t{1} << (i & 63); }

  static Input Random(size_t n, double density_a, double density_b,
                      uint64_t seed) {
    Input in(n);
    random::Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(density_a)) in.SetBitA(i);
      if (rng.Bernoulli(density_b)) in.SetBitB(i);
      in.values[i] = rng.Gaussian();
    }
    return in;
  }

  size_t n;
  std::vector<uint64_t> a, b;
  std::vector<double> values;
};

/// Compares every kernel of the AVX2 table against the scalar table on one
/// input; all floating-point comparisons are bitwise.
void ExpectTablesAgree(const Input& in) {
  const KernelTable& scalar = ScalarKernels();
  const KernelTable* avx2 = Avx2KernelsOrNull();
  ASSERT_NE(avx2, nullptr);
  const size_t num_blocks = in.a.size();

  EXPECT_EQ(scalar.count_and2(in.a.data(), in.b.data(), num_blocks),
            avx2->count_and2(in.a.data(), in.b.data(), num_blocks));
  EXPECT_EQ(scalar.count_and3(in.a.data(), in.b.data(), in.a.data(),
                              num_blocks),
            avx2->count_and3(in.a.data(), in.b.data(), in.a.data(),
                             num_blocks));

  std::vector<uint64_t> out_scalar(num_blocks, ~uint64_t{0});
  std::vector<uint64_t> out_avx2(num_blocks, 0);
  EXPECT_EQ(
      scalar.and_into(in.a.data(), in.b.data(), out_scalar.data(), num_blocks),
      avx2->and_into(in.a.data(), in.b.data(), out_avx2.data(), num_blocks));
  EXPECT_EQ(out_scalar, out_avx2);
  EXPECT_EQ(
      scalar.or_into(in.a.data(), in.b.data(), out_scalar.data(), num_blocks),
      avx2->or_into(in.a.data(), in.b.data(), out_avx2.data(), num_blocks));
  EXPECT_EQ(out_scalar, out_avx2);

  const double sum_scalar =
      scalar.masked_sum(in.values.data(), in.a.data(), num_blocks);
  const double sum_avx2 =
      avx2->masked_sum(in.values.data(), in.a.data(), num_blocks);
  EXPECT_EQ(Bits(sum_scalar), Bits(sum_avx2))
      << "masked_sum diverged: " << sum_scalar << " vs " << sum_avx2;

  const double sum_and_scalar = scalar.masked_sum_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  const double sum_and_avx2 = avx2->masked_sum_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  EXPECT_EQ(Bits(sum_and_scalar), Bits(sum_and_avx2))
      << "masked_sum_and diverged: " << sum_and_scalar << " vs "
      << sum_and_avx2;

  const MaskedMoments moments_scalar = scalar.masked_moments_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  const MaskedMoments moments_avx2 = avx2->masked_moments_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  EXPECT_EQ(moments_scalar.count, moments_avx2.count);
  EXPECT_EQ(Bits(moments_scalar.sum), Bits(moments_avx2.sum));
  EXPECT_EQ(Bits(moments_scalar.sum_squares), Bits(moments_avx2.sum_squares));

  // The lane contract makes the fused moments pass produce the exact same
  // sum as the plain masked sum — ScoreChunk's fast path relies on it.
  EXPECT_EQ(Bits(moments_scalar.sum), Bits(sum_and_scalar));
  EXPECT_EQ(Bits(moments_avx2.sum), Bits(sum_and_avx2));
}

/// Naive references for the integer kernels.
size_t NaiveCountAnd2(const Input& in) {
  size_t count = 0;
  for (size_t i = 0; i < in.a.size(); ++i) {
    count += size_t(std::popcount(in.a[i] & in.b[i]));
  }
  return count;
}

double NaiveMaskedSumAnd(const Input& in) {
  double sum = 0.0;
  for (size_t i = 0; i < in.n; ++i) {
    const uint64_t bit = uint64_t{1} << (i & 63);
    if ((in.a[i >> 6] & in.b[i >> 6] & bit) != 0) sum += in.values[i];
  }
  return sum;
}

bool HaveAvx2() { return CpuSupportsAvx2(); }

TEST(KernelParityTest, ScalarCountsMatchNaiveReferences) {
  for (size_t n = 0; n <= 257; ++n) {
    const Input in = Input::Random(n, 0.4, 0.6, 1000 + n);
    const KernelTable& scalar = ScalarKernels();
    EXPECT_EQ(scalar.count_and2(in.a.data(), in.b.data(), in.a.size()),
              NaiveCountAnd2(in))
        << "n=" << n;
    const MaskedMoments moments = scalar.masked_moments_and(
        in.values.data(), in.a.data(), in.b.data(), in.a.size());
    EXPECT_EQ(moments.count, NaiveCountAnd2(in)) << "n=" << n;
    // The lane-contract sum is a reassociation of the naive left-to-right
    // sum; equality is approximate here (bit-exactness is only promised
    // *between implementations of the same contract*).
    EXPECT_NEAR(moments.sum, NaiveMaskedSumAnd(in),
                1e-9 * (1.0 + std::abs(moments.sum)))
        << "n=" << n;
  }
}

TEST(KernelParityTest, TablesAgreeOnEverySizeThroughTwoBlocksAndBeyond) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  for (size_t n = 0; n <= 257; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectTablesAgree(Input::Random(n, 0.5, 0.5, n));
  }
}

TEST(KernelParityTest, TablesAgreeAcrossMaskDensities) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  for (const double density : {0.0, 0.02, 0.25, 0.75, 0.98, 1.0}) {
    for (const size_t n : {64u, 129u, 2000u, 100003u}) {
      SCOPED_TRACE("density=" + std::to_string(density) +
                   " n=" + std::to_string(n));
      ExpectTablesAgree(Input::Random(n, density, 0.7, size_t(density * 97)));
    }
  }
}

TEST(KernelParityTest, TablesAgreeOnEmptyAndFullMasks) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  for (const size_t n : {0u, 1u, 63u, 64u, 65u, 191u, 256u, 1000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Input empty = Input::Random(n, 0.0, 0.0, n);
    ExpectTablesAgree(empty);

    Input full(n);
    random::Rng rng(33 + n);
    for (size_t i = 0; i < n; ++i) {
      full.SetBitA(i);
      full.SetBitB(i);
      full.values[i] = rng.Gaussian();
    }
    ExpectTablesAgree(full);
  }
}

TEST(KernelParityTest, TablesAgreeOnSignedZerosAndDenormals) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {+0.0,          -0.0,        kDenorm,
                             -kDenorm,      513 * kDenorm, -97 * kDenorm,
                             1e308,         -1e308,      1e-308,
                             -1e-308,       1.0,         -1.0};
  for (const size_t n : {7u, 64u, 130u, 257u}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      Input in = Input::Random(n, 0.6, 0.6, 700 + seed);
      random::Rng rng(7000 + seed);
      for (size_t i = 0; i < n; ++i) {
        in.values[i] = specials[size_t(rng.UniformInt(
            0, int64_t(std::size(specials)) - 1))];
      }
      ExpectTablesAgree(in);
    }
  }
}

/// A parent-major tile input: a parent bitset, a pool of condition
/// bitsets, a model-group label per row, and the tile words (tile `t`'s
/// word of row `r` at `tile_bits[t * n + r]`) and bucketings the tile
/// kernels read — all built naively here, independent
/// of the engine's transpose and bucketing code.
struct TileInput {
  TileInput(size_t universe, size_t pool_size, size_t num_groups)
      : n(universe),
        num_blocks((universe + 63) / 64),
        num_tiles((pool_size + 31) / 32),
        values(universe),
        parent(num_blocks, 0),
        conditions(pool_size, std::vector<uint64_t>(num_blocks, 0)),
        group_of_row(universe, 0),
        groups(num_groups, std::vector<uint64_t>(num_blocks, 0)) {}

  static void Set(std::vector<uint64_t>& bits, size_t i) {
    bits[i >> 6] |= uint64_t{1} << (i & 63);
  }
  static bool Test(const std::vector<uint64_t>& bits, size_t i) {
    return (bits[i >> 6] >> (i & 63)) & 1u;
  }

  static TileInput Random(size_t n, size_t pool_size, size_t num_groups,
                          double parent_density, uint64_t seed) {
    TileInput in(n, pool_size, num_groups);
    random::Rng rng(seed);
    for (size_t r = 0; r < n; ++r) {
      in.values[r] = rng.Gaussian();
      if (rng.Bernoulli(parent_density)) Set(in.parent, r);
      in.group_of_row[r] = uint32_t(
          rng.UniformInt(0, int64_t(num_groups) - 1));
    }
    for (std::vector<uint64_t>& cond : in.conditions) {
      const double density = rng.Uniform(0.0, 1.0);
      for (size_t r = 0; r < n; ++r) {
        if (rng.Bernoulli(density)) Set(cond, r);
      }
    }
    in.Finish();
    return in;
  }

  /// Derives the tile view, the pre-negated values and both bucketings.
  void Finish() {
    neg_values.resize(n);
    for (size_t r = 0; r < n; ++r) neg_values[r] = -values[r];
    tile_bits.assign(num_tiles * n, 0);
    for (size_t c = 0; c < conditions.size(); ++c) {
      for (size_t r = 0; r < n; ++r) {
        if (Test(conditions[c], r)) {
          tile_bits[(c / 32) * n + r] |= uint32_t{1} << (c % 32);
        }
      }
    }
    for (std::vector<uint64_t>& g : groups) g.assign(num_blocks, 0);
    for (size_t r = 0; r < n; ++r) Set(groups[group_of_row[r]], r);
    slot_rows.clear();
    slot_begin.assign(kContractSlots + 1, 0);
    for (size_t s = 0; s < kContractSlots; ++s) {
      for (size_t r = s; r < n; r += kContractSlots) {
        if (Test(parent, r)) slot_rows.push_back(uint32_t(r));
      }
      slot_begin[s + 1] = uint32_t(slot_rows.size());
    }
    group_rows.clear();
    group_begin.assign(groups.size() + 1, 0);
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t r = 0; r < n; ++r) {
        if (Test(parent, r) && group_of_row[r] == g) {
          group_rows.push_back(uint32_t(r));
        }
      }
      group_begin[g + 1] = uint32_t(group_rows.size());
    }
  }

  size_t n, num_blocks, num_tiles;
  std::vector<double> values, neg_values;
  std::vector<uint64_t> parent;
  std::vector<std::vector<uint64_t>> conditions;
  std::vector<uint32_t> group_of_row;
  std::vector<std::vector<uint64_t>> groups;
  std::vector<uint32_t> tile_bits, slot_rows, slot_begin, group_rows,
      group_begin;
};

/// Runs both tile kernels of `table` on every tile of `in` and compares
/// each sum (bitwise) and count with the per-candidate kernels of the
/// scalar table.
void ExpectTileKernelsMatchPerCandidate(const KernelTable& table,
                                        const TileInput& in) {
  SCOPED_TRACE(std::string("table=") + table.name);
  const KernelTable& scalar = ScalarKernels();
  const std::vector<uint64_t> empty(in.num_blocks, 0);
  const size_t num_groups = in.groups.size();
  std::vector<uint32_t> counts(num_groups * kTileWidth);
  for (size_t t = 0; t < in.num_tiles; ++t) {
    const uint32_t* tile = in.tile_bits.data() + t * in.n;
    double sums[kTileWidth];
    table.tile_slot_sums(in.neg_values.data(), tile, in.slot_rows.data(),
                         in.slot_begin.data(), sums);
    table.tile_bucket_counts(tile, in.group_rows.data(),
                             in.group_begin.data(), num_groups,
                             counts.data());
    for (size_t c = 0; c < kTileWidth; ++c) {
      const size_t id = t * kTileWidth + c;
      // Ids past the pool are all-zero columns: sum +0.0, count 0.
      const uint64_t* cond =
          id < in.conditions.size() ? in.conditions[id].data() : empty.data();
      const double expected = scalar.masked_sum_and(
          in.values.data(), in.parent.data(), cond, in.num_blocks);
      EXPECT_EQ(Bits(sums[c]), Bits(expected))
          << "condition " << id << ": " << sums[c] << " vs " << expected;
      for (size_t g = 0; g < num_groups; ++g) {
        EXPECT_EQ(counts[g * kTileWidth + c],
                  scalar.count_and3(in.groups[g].data(), in.parent.data(),
                                    cond, in.num_blocks))
            << "condition " << id << " group " << g;
      }
    }
  }
}

/// Both tables (the AVX2 one where the host has it) on one input.
void ExpectTileKernelsAgree(const TileInput& in) {
  ExpectTileKernelsMatchPerCandidate(ScalarKernels(), in);
  if (HaveAvx2()) ExpectTileKernelsMatchPerCandidate(*Avx2KernelsOrNull(), in);
}

TEST(KernelParityTest, TileKernelsMatchPerCandidateOnRandomParents) {
  uint64_t seed = 0;
  for (const size_t n : {1u, 63u, 64u, 65u, 200u, 1000u, 1994u}) {
    for (const size_t pool : {1u, 31u, 32u, 33u, 64u, 70u, 100u}) {
      for (const double density : {0.1, 0.5, 0.9}) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " pool=" + std::to_string(pool) +
                     " density=" + std::to_string(density));
        ExpectTileKernelsAgree(
            TileInput::Random(n, pool, 1 + seed % 5, density, 500 + seed));
        ++seed;
      }
    }
  }
}

TEST(KernelParityTest, TileKernelsMatchPerCandidateOnEmptyAndFullParents) {
  for (const size_t n : {1u, 65u, 130u, 1000u}) {
    for (const double density : {0.0, 1.0}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " density=" + std::to_string(density));
      ExpectTileKernelsAgree(TileInput::Random(n, 45, 3, density, 77 + n));
    }
  }
}

TEST(KernelParityTest, TileKernelsMatchPerCandidateOnSignedZerosAndDenormals) {
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {+0.0,     -0.0,          kDenorm, -kDenorm,
                             513 * kDenorm, -97 * kDenorm, 1e308,   -1e308,
                             1e-308,   -1e-308,       1.0,     -1.0};
  for (const size_t n : {7u, 64u, 130u, 257u}) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      TileInput in = TileInput::Random(n, 40, 2, 0.7, 900 + seed);
      random::Rng rng(9000 + seed);
      for (size_t r = 0; r < n; ++r) {
        in.values[r] = specials[size_t(
            rng.UniformInt(0, int64_t(std::size(specials)) - 1))];
      }
      in.Finish();
      ExpectTileKernelsAgree(in);
    }
  }
}

TEST(KernelParityTest, TileCountsHoldMoreThanSixteenBitsPerGroup) {
  // One group holds 70,000 parent rows: a 16-bit counter would wrap.
  constexpr size_t kRows = 70000;
  TileInput in(kRows, 3, 2);
  random::Rng rng(4242);
  for (size_t r = 0; r < kRows; ++r) {
    in.values[r] = rng.Gaussian();
    TileInput::Set(in.parent, r);
    in.group_of_row[r] = r < 100 ? 1 : 0;
    TileInput::Set(in.conditions[0], r);  // every row
    if (r % 3 != 0) TileInput::Set(in.conditions[1], r);
  }
  in.Finish();
  ASSERT_GT(in.group_begin[1] - in.group_begin[0], 65535u);
  ExpectTileKernelsAgree(in);
}

TEST(KernelParityTest, DispatchedWrappersFollowTheActiveTable) {
  const Input in = Input::Random(200, 0.5, 0.5, 99);
  const Isa original = ActiveIsa();
  SetActiveIsaForTesting(Isa::kScalar);
  EXPECT_EQ(Active().name, std::string("scalar"));
  const double scalar_sum = MaskedSumAnd(in.values.data(), in.a.data(),
                                         in.b.data(), in.a.size());
  EXPECT_EQ(Bits(scalar_sum),
            Bits(ScalarKernels().masked_sum_and(in.values.data(), in.a.data(),
                                                in.b.data(), in.a.size())));
  if (HaveAvx2()) {
    SetActiveIsaForTesting(Isa::kAvx2);
    EXPECT_EQ(Active().name, std::string("avx2"));
    EXPECT_EQ(CountAnd2(in.a.data(), in.b.data(), in.a.size()),
              Avx2KernelsOrNull()->count_and2(in.a.data(), in.b.data(),
                                              in.a.size()));
  }
  SetActiveIsaForTesting(original);
}

}  // namespace
}  // namespace sisd::kernels

/// \file kernels_scalar.cpp
/// \brief Portable reference implementation of the kernel family.
///
/// The floating-point kernels mirror the AVX2 lane structure *literally*
/// (see the lane contract in kernels.hpp): four 4-lane accumulators fed
/// round-robin by 4-bit mask nibbles, each lane accumulated in the
/// subtraction form `acc - ((-v) & lanemask)` so masked-off lanes are a
/// bitwise no-op, and a fixed pairwise reduction. The mask bits enter as
/// integer AND masks on the value's bit pattern, not as branches: candidate
/// masks change every call in the batch engine, and per-group branches on
/// them mispredict badly. This file is compiled with -ffp-contract=off so
/// the sum-of-squares multiply+subtract cannot be fused into an FMA here
/// while staying separate operations in the AVX2 unit (or vice versa).

#include <bit>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hpp"

namespace sisd::kernels {
namespace {

inline size_t Popcount64(uint64_t x) {
  return static_cast<size_t>(std::popcount(x));
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

size_t ScalarCountAnd2(const uint64_t* a, const uint64_t* b,
                       size_t num_blocks) {
  size_t count = 0;
  for (size_t i = 0; i < num_blocks; ++i) count += Popcount64(a[i] & b[i]);
  return count;
}

size_t ScalarCountAnd3(const uint64_t* a, const uint64_t* b,
                       const uint64_t* c, size_t num_blocks) {
  size_t count = 0;
  for (size_t i = 0; i < num_blocks; ++i) {
    count += Popcount64(a[i] & b[i] & c[i]);
  }
  return count;
}

size_t ScalarAndInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                     size_t num_blocks) {
  size_t count = 0;
  for (size_t i = 0; i < num_blocks; ++i) {
    const uint64_t block = a[i] & b[i];
    out[i] = block;
    count += Popcount64(block);
  }
  return count;
}

size_t ScalarOrInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                    size_t num_blocks) {
  size_t count = 0;
  for (size_t i = 0; i < num_blocks; ++i) {
    const uint64_t block = a[i] | b[i];
    out[i] = block;
    count += Popcount64(block);
  }
  return count;
}

/// Final reduction of the lane contract: lane-wise (a0+a1)+(a2+a3), then
/// (s0+s2)+(s1+s3). `acc[(g & 3) * 4 + lane]` holds accumulator g&3, lane j.
inline double ReduceLanes(const double acc[16]) {
  double s[4];
  for (int j = 0; j < 4; ++j) {
    s[j] = (acc[j] + acc[4 + j]) + (acc[8 + j] + acc[12 + j]);
  }
  return (s[0] + s[2]) + (s[1] + s[3]);
}

/// Branchlessly adds one full-width 64-row block into the 16 contract
/// lanes: every value is read and AND-masked down to +0.0 when its bit is
/// clear, so there is no data-dependent control flow. Only safe for blocks
/// whose 64 values are all in bounds (every block but the last).
inline void AccumulateSumBlockFull(const double* v, uint64_t m,
                                   double acc[16]) {
  for (size_t g = 0; g < 16; ++g) {
    double* lane = acc + ((g & 3) << 2);
    const double* vg = v + (g << 2);
    const uint64_t nib = (m >> (4 * g)) & 0xFull;
    for (size_t j = 0; j < 4; ++j) {
      const uint64_t keep = uint64_t{0} - ((nib >> j) & 1u);
      const double nx =
          std::bit_cast<double>((std::bit_cast<uint64_t>(vg[j]) ^ kSignBit) &
                                keep);
      lane[j] = lane[j] - nx;
    }
  }
}

/// Tail-block variant: lanes whose bit is clear are never read (the final
/// block may cover rows past the end of `values`). Skipping them is exact —
/// a masked lane is the bitwise identity under the subtraction form.
inline void AccumulateSumBlockTail(const double* v, uint64_t m,
                                   double acc[16]) {
  for (size_t g = 0; g < 16; ++g) {
    const unsigned nib = static_cast<unsigned>((m >> (4 * g)) & 0xFull);
    if (nib == 0) continue;
    double* lane = acc + ((g & 3) << 2);
    const double* vg = v + (g << 2);
    for (size_t j = 0; j < 4; ++j) {
      if (nib & (1u << j)) lane[j] = lane[j] - (-vg[j]);
    }
  }
}

double ScalarMaskedSum(const double* values, const uint64_t* mask,
                       size_t num_blocks) {
  double acc[16] = {0.0};
  if (num_blocks == 0) return 0.0;
  for (size_t i = 0; i + 1 < num_blocks; ++i) {
    const uint64_t m = mask[i];
    if (m == 0) continue;
    AccumulateSumBlockFull(values + (i << 6), m, acc);
  }
  AccumulateSumBlockTail(values + ((num_blocks - 1) << 6),
                         mask[num_blocks - 1], acc);
  return ReduceLanes(acc);
}

double ScalarMaskedSumAnd(const double* values, const uint64_t* a,
                          const uint64_t* b, size_t num_blocks) {
  double acc[16] = {0.0};
  if (num_blocks == 0) return 0.0;
  for (size_t i = 0; i + 1 < num_blocks; ++i) {
    const uint64_t m = a[i] & b[i];
    if (m == 0) continue;
    AccumulateSumBlockFull(values + (i << 6), m, acc);
  }
  AccumulateSumBlockTail(values + ((num_blocks - 1) << 6),
                         a[num_blocks - 1] & b[num_blocks - 1], acc);
  return ReduceLanes(acc);
}

/// Branchless full-width moments block (see AccumulateSumBlockFull): the
/// squares side subtracts `nx * x` = -(v*v), which is +0.0 — an exact
/// no-op — for masked lanes.
inline void AccumulateMomentsBlockFull(const double* v, uint64_t m,
                                       double acc_sum[16],
                                       double acc_sq[16]) {
  for (size_t g = 0; g < 16; ++g) {
    double* lane_sum = acc_sum + ((g & 3) << 2);
    double* lane_sq = acc_sq + ((g & 3) << 2);
    const double* vg = v + (g << 2);
    const uint64_t nib = (m >> (4 * g)) & 0xFull;
    for (size_t j = 0; j < 4; ++j) {
      const uint64_t keep = uint64_t{0} - ((nib >> j) & 1u);
      const uint64_t bits = std::bit_cast<uint64_t>(vg[j]);
      const double x = std::bit_cast<double>(bits & keep);
      const double nx = std::bit_cast<double>((bits ^ kSignBit) & keep);
      lane_sum[j] = lane_sum[j] - nx;
      lane_sq[j] = lane_sq[j] - nx * x;
    }
  }
}

inline void AccumulateMomentsBlockTail(const double* v, uint64_t m,
                                       double acc_sum[16],
                                       double acc_sq[16]) {
  for (size_t g = 0; g < 16; ++g) {
    const unsigned nib = static_cast<unsigned>((m >> (4 * g)) & 0xFull);
    if (nib == 0) continue;
    double* lane_sum = acc_sum + ((g & 3) << 2);
    double* lane_sq = acc_sq + ((g & 3) << 2);
    const double* vg = v + (g << 2);
    for (size_t j = 0; j < 4; ++j) {
      if (nib & (1u << j)) {
        const double x = vg[j];
        const double nx = -x;
        lane_sum[j] = lane_sum[j] - nx;
        lane_sq[j] = lane_sq[j] - nx * x;
      }
    }
  }
}

MaskedMoments ScalarMaskedMomentsAnd(const double* values, const uint64_t* a,
                                     const uint64_t* b, size_t num_blocks) {
  double acc_sum[16] = {0.0};
  double acc_sq[16] = {0.0};
  MaskedMoments out;
  if (num_blocks == 0) return out;
  for (size_t i = 0; i + 1 < num_blocks; ++i) {
    const uint64_t m = a[i] & b[i];
    if (m == 0) continue;
    out.count += Popcount64(m);
    AccumulateMomentsBlockFull(values + (i << 6), m, acc_sum, acc_sq);
  }
  const uint64_t tail = a[num_blocks - 1] & b[num_blocks - 1];
  out.count += Popcount64(tail);
  AccumulateMomentsBlockTail(values + ((num_blocks - 1) << 6), tail, acc_sum,
                             acc_sq);
  out.sum = ReduceLanes(acc_sum);
  out.sum_squares = ReduceLanes(acc_sq);
  return out;
}

/// Runs each contract slot's chain for the 32 conditions of one tile, then
/// the contract reduction per condition. `partial[s][c]` is slot `s`'s
/// accumulator for condition `c` — the `acc[s]` of `ReduceLanes`.
void ScalarTileSlotSums(const double* neg_values, const uint32_t* tile_bits,
                        const uint32_t* rows, const uint32_t* slot_begin,
                        double* sums) {
  double partial[kContractSlots][kTileWidth] = {};
  for (size_t s = 0; s < kContractSlots; ++s) {
    double* acc = partial[s];
    for (uint32_t k = slot_begin[s]; k < slot_begin[s + 1]; ++k) {
      const size_t r = rows[k];
      const uint32_t bits = tile_bits[r];
      const uint64_t nv = std::bit_cast<uint64_t>(neg_values[r]);
      for (size_t c = 0; c < kTileWidth; ++c) {
        const uint64_t keep = uint64_t{0} - ((bits >> c) & 1u);
        acc[c] = acc[c] - std::bit_cast<double>(nv & keep);
      }
    }
  }
  for (size_t c = 0; c < kTileWidth; ++c) {
    double lanes[kContractSlots];
    for (size_t s = 0; s < kContractSlots; ++s) lanes[s] = partial[s][c];
    sums[c] = ReduceLanes(lanes);
  }
}

void ScalarTileBucketCounts(const uint32_t* tile_bits, const uint32_t* rows,
                            const uint32_t* begin, size_t num_buckets,
                            uint32_t* counts) {
  for (size_t b = 0; b < num_buckets; ++b) {
    uint32_t* out = counts + b * kTileWidth;
    for (size_t c = 0; c < kTileWidth; ++c) out[c] = 0;
    for (uint32_t k = begin[b]; k < begin[b + 1]; ++k) {
      const uint32_t bits = tile_bits[rows[k]];
      for (size_t c = 0; c < kTileWidth; ++c) out[c] += (bits >> c) & 1u;
    }
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static constexpr KernelTable table = {
      "scalar",           ScalarCountAnd2,    ScalarCountAnd3,
      ScalarAndInto,      ScalarOrInto,       ScalarMaskedSum,
      ScalarMaskedSumAnd, ScalarMaskedMomentsAnd,
      ScalarTileSlotSums, ScalarTileBucketCounts,
  };
  return table;
}

}  // namespace sisd::kernels

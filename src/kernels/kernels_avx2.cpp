/// \file kernels_avx2.cpp
/// \brief AVX2 implementation of the kernel family (x86-64 only).
///
/// Compiled with -mavx2 (this translation unit only) and -ffp-contract=off;
/// dispatch guarantees these functions never execute on hardware without
/// AVX2. The floating-point kernels implement the lane contract documented
/// in kernels.hpp: 4-double vector accumulators fed round-robin by mask
/// nibbles, each group accumulated in the subtraction form
/// `acc - ((-v) & lanemask)` so masked lanes are a bitwise no-op. The body
/// is branchless in the mask data — full-width loads AND-masked per lane —
/// except for the final block, which may be partial and is read with
/// vmaskmovpd (never touches rows whose bit is clear).
///
/// Popcounts use the classic vpshufb nibble-LUT reduction (4 blocks = 256
/// bits per step) with vpsadbw accumulating byte counts into 64-bit lanes —
/// exact integer arithmetic, no parity concerns.

#include "kernels/kernels.hpp"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

namespace sisd::kernels {
namespace {

inline size_t Popcount64(uint64_t x) {
  return static_cast<size_t>(std::popcount(x));
}

/// Lane-mask lookup: entry `nib` has lane j = all-ones iff bit j of nib.
alignas(32) constexpr int64_t kNibbleLaneMask[16][4] = {
    {0, 0, 0, 0},    {-1, 0, 0, 0},   {0, -1, 0, 0},   {-1, -1, 0, 0},
    {0, 0, -1, 0},   {-1, 0, -1, 0},  {0, -1, -1, 0},  {-1, -1, -1, 0},
    {0, 0, 0, -1},   {-1, 0, 0, -1},  {0, -1, 0, -1},  {-1, -1, 0, -1},
    {0, 0, -1, -1},  {-1, 0, -1, -1}, {0, -1, -1, -1}, {-1, -1, -1, -1},
};

inline __m256i LaneMask(unsigned nib) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kNibbleLaneMask[nib]));
}

inline __m256d LaneMaskPd(unsigned nib) {
  return _mm256_castsi256_pd(LaneMask(nib));
}

/// Lane-contract reduction: (a0+a1)+(a2+a3) lane-wise, then (s0+s2)+(s1+s3).
inline double ReduceLanes(__m256d a0, __m256d a1, __m256d a2, __m256d a3) {
  const __m256d s =
      _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
  const __m128d lo = _mm256_castpd256_pd128(s);
  const __m128d hi = _mm256_extractf128_pd(s, 1);
  const __m128d t = _mm_add_pd(lo, hi);  // (s0+s2, s1+s3)
  return _mm_cvtsd_f64(_mm_add_sd(t, _mm_unpackhi_pd(t, t)));
}

/// Per-byte popcount of a 256-bit vector, reduced into 4 uint64 lanes.
inline __m256i PopcountBytes(__m256i x) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(x, 4), low_mask);
  const __m256i cnt =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline size_t ReduceCount(__m256i acc) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

inline __m256i Load256(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

size_t Avx2CountAnd2(const uint64_t* a, const uint64_t* b,
                     size_t num_blocks) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= num_blocks; i += 4) {
    const __m256i x = _mm256_and_si256(Load256(a + i), Load256(b + i));
    acc = _mm256_add_epi64(acc, PopcountBytes(x));
  }
  size_t count = ReduceCount(acc);
  for (; i < num_blocks; ++i) count += Popcount64(a[i] & b[i]);
  return count;
}

size_t Avx2CountAnd3(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                     size_t num_blocks) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= num_blocks; i += 4) {
    const __m256i x = _mm256_and_si256(
        _mm256_and_si256(Load256(a + i), Load256(b + i)), Load256(c + i));
    acc = _mm256_add_epi64(acc, PopcountBytes(x));
  }
  size_t count = ReduceCount(acc);
  for (; i < num_blocks; ++i) count += Popcount64(a[i] & b[i] & c[i]);
  return count;
}

size_t Avx2AndInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                   size_t num_blocks) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= num_blocks; i += 4) {
    const __m256i x = _mm256_and_si256(Load256(a + i), Load256(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
    acc = _mm256_add_epi64(acc, PopcountBytes(x));
  }
  size_t count = ReduceCount(acc);
  for (; i < num_blocks; ++i) {
    const uint64_t block = a[i] & b[i];
    out[i] = block;
    count += Popcount64(block);
  }
  return count;
}

size_t Avx2OrInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                  size_t num_blocks) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= num_blocks; i += 4) {
    const __m256i x = _mm256_or_si256(Load256(a + i), Load256(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
    acc = _mm256_add_epi64(acc, PopcountBytes(x));
  }
  size_t count = ReduceCount(acc);
  for (; i < num_blocks; ++i) {
    const uint64_t block = a[i] | b[i];
    out[i] = block;
    count += Popcount64(block);
  }
  return count;
}

const __m256d kSignBit = _mm256_set1_pd(-0.0);

/// Branchlessly accumulates one full-width block: every group is a plain
/// 32-byte load whose sign-flipped value is ANDed down to +0.0 in masked
/// lanes, then subtracted (a no-op for those lanes). Only safe when the
/// block's 64 values are all in bounds (every block but the last).
inline void AccumulateSumBlockFull(const double* v, uint64_t m,
                                   __m256d acc[4]) {
  for (size_t g = 0; g < 16; ++g) {
    const unsigned nib = static_cast<unsigned>((m >> (4 * g)) & 0xFull);
    const __m256d x = _mm256_loadu_pd(v + (g << 2));
    const __m256d nx =
        _mm256_and_pd(_mm256_xor_pd(x, kSignBit), LaneMaskPd(nib));
    acc[g & 3] = _mm256_sub_pd(acc[g & 3], nx);
  }
}

/// Tail-block variant: vmaskmovpd never reads lanes whose bit is clear, so
/// a partial final block is safe at full register width. The masked-lane
/// zero fill feeds the same subtraction form, so results match the
/// full-width path bit-for-bit.
inline void AccumulateSumBlockTail(const double* v, uint64_t m,
                                   __m256d acc[4]) {
  for (size_t g = 0; g < 16; ++g) {
    const unsigned nib = static_cast<unsigned>((m >> (4 * g)) & 0xFull);
    if (nib == 0) continue;
    const __m256d x = _mm256_maskload_pd(v + (g << 2), LaneMask(nib));
    const __m256d nx =
        _mm256_and_pd(_mm256_xor_pd(x, kSignBit), LaneMaskPd(nib));
    acc[g & 3] = _mm256_sub_pd(acc[g & 3], nx);
  }
}

double Avx2MaskedSum(const double* values, const uint64_t* mask,
                     size_t num_blocks) {
  __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
  if (num_blocks == 0) return 0.0;
  for (size_t i = 0; i + 1 < num_blocks; ++i) {
    const uint64_t m = mask[i];
    if (m == 0) continue;
    AccumulateSumBlockFull(values + (i << 6), m, acc);
  }
  AccumulateSumBlockTail(values + ((num_blocks - 1) << 6),
                         mask[num_blocks - 1], acc);
  return ReduceLanes(acc[0], acc[1], acc[2], acc[3]);
}

double Avx2MaskedSumAnd(const double* values, const uint64_t* a,
                        const uint64_t* b, size_t num_blocks) {
  __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
  if (num_blocks == 0) return 0.0;
  for (size_t i = 0; i + 1 < num_blocks; ++i) {
    const uint64_t m = a[i] & b[i];
    if (m == 0) continue;
    AccumulateSumBlockFull(values + (i << 6), m, acc);
  }
  AccumulateSumBlockTail(values + ((num_blocks - 1) << 6),
                         a[num_blocks - 1] & b[num_blocks - 1], acc);
  return ReduceLanes(acc[0], acc[1], acc[2], acc[3]);
}

inline void AccumulateMomentsBlockFull(const double* v, uint64_t m,
                                       __m256d sum[4], __m256d sq[4]) {
  for (size_t g = 0; g < 16; ++g) {
    const unsigned nib = static_cast<unsigned>((m >> (4 * g)) & 0xFull);
    const __m256d lm = LaneMaskPd(nib);
    const __m256d raw = _mm256_loadu_pd(v + (g << 2));
    const __m256d x = _mm256_and_pd(raw, lm);
    const __m256d nx = _mm256_and_pd(_mm256_xor_pd(raw, kSignBit), lm);
    sum[g & 3] = _mm256_sub_pd(sum[g & 3], nx);
    sq[g & 3] = _mm256_sub_pd(sq[g & 3], _mm256_mul_pd(nx, x));
  }
}

inline void AccumulateMomentsBlockTail(const double* v, uint64_t m,
                                       __m256d sum[4], __m256d sq[4]) {
  for (size_t g = 0; g < 16; ++g) {
    const unsigned nib = static_cast<unsigned>((m >> (4 * g)) & 0xFull);
    if (nib == 0) continue;
    const __m256d lm = LaneMaskPd(nib);
    const __m256d x = _mm256_maskload_pd(v + (g << 2), LaneMask(nib));
    const __m256d nx = _mm256_and_pd(_mm256_xor_pd(x, kSignBit), lm);
    sum[g & 3] = _mm256_sub_pd(sum[g & 3], nx);
    sq[g & 3] = _mm256_sub_pd(sq[g & 3], _mm256_mul_pd(nx, x));
  }
}

MaskedMoments Avx2MaskedMomentsAnd(const double* values, const uint64_t* a,
                                   const uint64_t* b, size_t num_blocks) {
  __m256d sum[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
  __m256d sq[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                   _mm256_setzero_pd(), _mm256_setzero_pd()};
  MaskedMoments out;
  if (num_blocks == 0) return out;
  for (size_t i = 0; i + 1 < num_blocks; ++i) {
    const uint64_t m = a[i] & b[i];
    if (m == 0) continue;
    out.count += Popcount64(m);
    AccumulateMomentsBlockFull(values + (i << 6), m, sum, sq);
  }
  const uint64_t tail = a[num_blocks - 1] & b[num_blocks - 1];
  out.count += Popcount64(tail);
  AccumulateMomentsBlockTail(values + ((num_blocks - 1) << 6), tail, sum, sq);
  out.sum = ReduceLanes(sum[0], sum[1], sum[2], sum[3]);
  out.sum_squares = ReduceLanes(sq[0], sq[1], sq[2], sq[3]);
  return out;
}

/// One contract slot's chain for a 32-condition tile, held in eight
/// registers (conditions 4q..4q+3 in `acc[q]`): per row, the broadcast
/// pre-negated value is blended against +0.0 by the row's tile bits and
/// subtracted — the scalar kernel's operations, four conditions per
/// instruction. The partials are then reduced four conditions at a time
/// with the contract's fixed pairing.
void Avx2TileSlotSums(const double* neg_values, const uint32_t* tile_bits,
                      const uint32_t* rows, const uint32_t* slot_begin,
                      double* sums) {
  alignas(32) double partial[kContractSlots][kTileWidth];
  // Lane j of `to_sign[q]` shifts tile bit 4q + j into the sign bit, which
  // is all vblendvpd reads: the blend yields `nv` or +0.0, exactly the
  // AND-masked lane of the contract.
  __m256i to_sign[8];
  for (int q = 0; q < 8; ++q) {
    to_sign[q] = _mm256_setr_epi64x(63 - 4 * q, 62 - 4 * q, 61 - 4 * q,
                                    60 - 4 * q);
  }
  const __m256d zero = _mm256_setzero_pd();
  for (size_t s = 0; s < kContractSlots; ++s) {
    __m256d acc[8];
    for (__m256d& a : acc) a = _mm256_setzero_pd();
    for (uint32_t k = slot_begin[s]; k < slot_begin[s + 1]; ++k) {
      const size_t r = rows[k];
      const __m256i bits = _mm256_set1_epi64x(int64_t(tile_bits[r]));
      const __m256d nv = _mm256_broadcast_sd(neg_values + r);
      for (size_t q = 0; q < 8; ++q) {
        const __m256d sign =
            _mm256_castsi256_pd(_mm256_sllv_epi64(bits, to_sign[q]));
        acc[q] = _mm256_sub_pd(acc[q], _mm256_blendv_pd(zero, nv, sign));
      }
    }
    for (size_t q = 0; q < 8; ++q) {
      _mm256_store_pd(partial[s] + 4 * q, acc[q]);
    }
  }
  for (size_t q = 0; q < 8; ++q) {
    const auto p = [&](size_t slot) {
      return _mm256_load_pd(partial[slot] + 4 * q);
    };
    __m256d lane[4];
    for (size_t j = 0; j < 4; ++j) {
      lane[j] = _mm256_add_pd(_mm256_add_pd(p(j), p(4 + j)),
                              _mm256_add_pd(p(8 + j), p(12 + j)));
    }
    _mm256_storeu_pd(sums + 4 * q,
                     _mm256_add_pd(_mm256_add_pd(lane[0], lane[2]),
                                   _mm256_add_pd(lane[1], lane[3])));
  }
}

/// Per-bucket tile counts in four 8 x uint32 registers: each row's bits
/// are broadcast, tested against one selector bit per lane, and the
/// all-ones compare result (-1) is subtracted.
void Avx2TileBucketCounts(const uint32_t* tile_bits, const uint32_t* rows,
                          const uint32_t* begin, size_t num_buckets,
                          uint32_t* counts) {
  __m256i select[4];
  for (int q = 0; q < 4; ++q) {
    const int base = 8 * q;
    select[q] = _mm256_setr_epi32(
        int(1u << base), int(1u << (base + 1)), int(1u << (base + 2)),
        int(1u << (base + 3)), int(1u << (base + 4)), int(1u << (base + 5)),
        int(1u << (base + 6)), int(1u << (base + 7)));
  }
  for (size_t b = 0; b < num_buckets; ++b) {
    __m256i acc[4];
    for (__m256i& a : acc) a = _mm256_setzero_si256();
    for (uint32_t k = begin[b]; k < begin[b + 1]; ++k) {
      const __m256i bits =
          _mm256_set1_epi32(int(tile_bits[rows[k]]));
      for (int q = 0; q < 4; ++q) {
        const __m256i hit = _mm256_cmpeq_epi32(
            _mm256_and_si256(bits, select[q]), select[q]);
        acc[q] = _mm256_sub_epi32(acc[q], hit);
      }
    }
    for (int q = 0; q < 4; ++q) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(counts + b * kTileWidth + 8 * q),
          acc[q]);
    }
  }
}

}  // namespace

const KernelTable* Avx2KernelsOrNull() {
  static constexpr KernelTable table = {
      "avx2",           Avx2CountAnd2,    Avx2CountAnd3,
      Avx2AndInto,      Avx2OrInto,       Avx2MaskedSum,
      Avx2MaskedSumAnd, Avx2MaskedMomentsAnd,
      Avx2TileSlotSums, Avx2TileBucketCounts,
  };
  return &table;
}

}  // namespace sisd::kernels

#else  // !(__AVX2__ && __x86_64__)

namespace sisd::kernels {

const KernelTable* Avx2KernelsOrNull() { return nullptr; }

}  // namespace sisd::kernels

#endif

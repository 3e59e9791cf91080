#include "search/batch_evaluator.hpp"

#include <algorithm>

namespace sisd::search {

namespace {

/// In-place transpose of a 64 x 64 bit matrix: afterwards bit `i` of
/// `m[j]` is what bit `j` of `m[i]` was. Six rounds, each swapping the
/// off-diagonal `w x w` sub-blocks of every `2w x 2w` block.
void Transpose64(uint64_t m[64]) {
  uint64_t mask = 0x00000000FFFFFFFFull;
  for (size_t w = 32; w != 0; w >>= 1, mask ^= mask << w) {
    for (size_t k = 0; k < 64; k = ((k | w) + 1) & ~w) {
      const uint64_t t = ((m[k] >> w) ^ m[k | w]) & mask;
      m[k | w] ^= t;
      m[k] ^= t << w;
    }
  }
}

}  // namespace

void ConditionRows::Assign(const ConditionPool& pool, size_t num_rows) {
  SISD_CHECK(pool.size() == 0 ||
             pool.extension(0).universe_size() == num_rows);
  num_rows_ = num_rows;
  num_tiles_ = (pool.size() + 31) / 32;
  bits_.resize(num_rows * num_tiles_);
  const size_t row_blocks = (num_rows + 63) / 64;
  uint64_t block[64] = {};
  // One 64-condition x 64-row block at a time: gather the conditions'
  // words of the row block, transpose, and split each row's word into its
  // two tiles (the second only when the pool has that tile).
  for (size_t first = 0; first < pool.size(); first += 64) {
    const size_t conditions = std::min<size_t>(64, pool.size() - first);
    const size_t t = first / 32;
    uint32_t* low = bits_.data() + t * num_rows;
    uint32_t* high = t + 1 < num_tiles_ ? low + num_rows : nullptr;
    for (size_t rb = 0; rb < row_blocks; ++rb) {
      for (size_t i = 0; i < 64; ++i) {
        block[i] = i < conditions ? pool.extension(first + i).blocks()[rb]
                                  : 0;
      }
      Transpose64(block);
      const size_t base = rb * 64;
      const size_t rows = std::min<size_t>(64, num_rows - base);
      for (size_t j = 0; j < rows; ++j) {
        low[base + j] = uint32_t(block[j]);
        if (high != nullptr) high[base + j] = uint32_t(block[j] >> 32);
      }
    }
  }
}

}  // namespace sisd::search

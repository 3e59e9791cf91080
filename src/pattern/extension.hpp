/// \file extension.hpp
/// \brief Subgroup extensions as packed bitsets.
///
/// A subgroup's *extension* is the index set of rows whose description
/// attributes satisfy the intention (paper §II-A). Beam search intersects
/// many thousands of candidate extensions per level, so extensions are
/// 64-bit-block bitsets with hardware popcount.

#ifndef SISD_PATTERN_EXTENSION_HPP_
#define SISD_PATTERN_EXTENSION_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"

namespace sisd::pattern {

/// \brief Fixed-universe bitset over row indices `[0, n)`.
class Extension {
 public:
  /// Creates an extension over `n` rows, empty or full.
  explicit Extension(size_t n, bool full = false);

  /// Creates an extension from explicit row indices.
  static Extension FromRows(size_t n, const std::vector<size_t>& rows);

  /// Universe size (number of rows in the data).
  size_t universe_size() const { return n_; }

  /// Number of rows in the extension (cached popcount).
  size_t count() const { return count_; }

  /// True iff the extension is empty.
  bool empty() const { return count_ == 0; }

  /// Membership test.
  bool Contains(size_t i) const {
    SISD_DCHECK(i < n_);
    return (blocks_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Adds row `i`.
  void Insert(size_t i);

  /// Adds every row `first + k` whose `values[k]` satisfies `pred`, keeping
  /// the rows already present. Each 64-row block is built without branches
  /// and OR-ed in, and the count is refreshed once per call.
  template <typename T, typename Pred>
  void InsertWhere(size_t first, std::span<const T> values, Pred pred) {
    SISD_CHECK(first + values.size() <= n_);
    for (size_t k = 0; k < values.size();) {
      const size_t row = first + k;
      const size_t shift = row & 63;
      const size_t take = std::min(64 - shift, values.size() - k);
      uint64_t block = 0;
      for (size_t b = 0; b < take; ++b) {
        block |= uint64_t{pred(values[k + b])} << (shift + b);
      }
      blocks_[row >> 6] |= block;
      k += take;
    }
    RecountAndMaskTail();
  }

  /// Removes row `i`.
  void Erase(size_t i);

  /// In-place intersection with `other` (same universe).
  void IntersectWith(const Extension& other);

  /// In-place union with `other` (same universe).
  void UnionWith(const Extension& other);

  /// In-place complement.
  void Complement();

  /// Returns the intersection of two extensions.
  static Extension Intersect(const Extension& a, const Extension& b);

  /// Writes the intersection of `a` and `b` into `*out`, reusing `out`'s
  /// block storage when its universe already matches (no allocation then).
  /// Returns the intersection count.
  static size_t IntersectInto(const Extension& a, const Extension& b,
                              Extension* out);

  /// Size of the intersection without materializing it.
  static size_t IntersectionCount(const Extension& a, const Extension& b);

  /// Size of the three-way intersection `a & b & c` without materializing
  /// anything (fused masked popcount; the batch evaluation engine uses this
  /// for per-group candidate counts).
  static size_t IntersectionCountAnd(const Extension& a, const Extension& b,
                                     const Extension& c);

  /// True iff the two extensions share no row.
  static bool Disjoint(const Extension& a, const Extension& b) {
    return IntersectionCount(a, b) == 0;
  }

  /// Returns a copy of this extension over a universe grown to `new_n`
  /// rows (`new_n >= universe_size()`); the new rows are not members.
  /// Dataset versioning extends memoized condition extensions this way so
  /// only the appended rows need evaluating.
  Extension ExtendedTo(size_t new_n) const;

  /// Row indices in ascending order.
  std::vector<size_t> ToRows() const;

  /// Calls `fn(row)` for every member row in ascending order, straight off
  /// the blocks (no allocation, same visit order as `ToRows`).
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t b = 0; b < blocks_.size(); ++b) {
      uint64_t block = blocks_[b];
      while (block != 0) {
        fn((b << 6) + static_cast<size_t>(std::countr_zero(block)));
        block &= block - 1;
      }
    }
  }

  /// Calls `fn(row)` for every row of `a & b` in ascending order without
  /// materializing the intersection (fused kernel for masked accumulation).
  template <typename Fn>
  static void ForEachRowAnd(const Extension& a, const Extension& b, Fn&& fn) {
    SISD_CHECK(a.n_ == b.n_);
    for (size_t i = 0; i < a.blocks_.size(); ++i) {
      uint64_t block = a.blocks_[i] & b.blocks_[i];
      while (block != 0) {
        fn((i << 6) + static_cast<size_t>(std::countr_zero(block)));
        block &= block - 1;
      }
    }
  }

  /// Raw blocks (read-only; 64 rows per block, row 0 = bit 0 of block 0).
  const std::vector<uint64_t>& blocks() const { return blocks_; }

  bool operator==(const Extension& other) const {
    return n_ == other.n_ && blocks_ == other.blocks_;
  }

  /// Debug-mode invariant check: bits past `n_` in the last block must be
  /// zero. The SIMD kernels (popcounts, masked sums) rely on masked tails
  /// for correctness, so every mutator re-asserts this before returning.
  void DebugCheckTailMasked() const {
    SISD_DCHECK(blocks_.empty() || (n_ & 63) == 0 ||
                (blocks_.back() & ~((uint64_t{1} << (n_ & 63)) - 1)) == 0);
  }

 private:
  /// Zeroes the tail bits of the last block (no-op when `n_` is a multiple
  /// of 64). Cheap enough to apply defensively after block-wise mutations.
  void MaskTail();

  void RecountAndMaskTail();

  size_t n_ = 0;
  size_t count_ = 0;
  std::vector<uint64_t> blocks_;
};

}  // namespace sisd::pattern

#endif  // SISD_PATTERN_EXTENSION_HPP_

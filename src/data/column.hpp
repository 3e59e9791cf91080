/// \file column.hpp
/// \brief Typed data columns for description attributes.
///
/// The paper's method handles "categorical, ordinal, and numerical
/// description attributes" (§I). We store them as:
///  - Numeric / Ordinal: doubles (ordinal keeps ordered semantics so the
///    search layer emits `<=` / `>=` conditions, e.g. the water-quality
///    bioindicator levels 0/1/3/5);
///  - Categorical / Binary: small integer codes plus a label table (the
///    search layer emits equality conditions).
///
/// Storage is segmented: a column is a sequence of immutable chunks, each
/// held by `shared_ptr`. Appending rows (`WithAppendedNumeric` /
/// `WithAppendedCodes`) produces a new column that shares every existing
/// chunk with its parent and adds one chunk for the tail, so dataset
/// versions in the catalog cost O(new rows), not O(n) copies. Columns
/// built by the factories have exactly one segment.

#ifndef SISD_DATA_COLUMN_HPP_
#define SISD_DATA_COLUMN_HPP_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace sisd::data {

/// \brief Semantic type of a description attribute.
enum class AttributeKind {
  kNumeric,      ///< real-valued; interval conditions
  kOrdinal,      ///< ordered discrete; interval conditions
  kCategorical,  ///< unordered discrete; equality conditions
  kBinary,       ///< two-level categorical; equality conditions
};

/// \brief Human-readable name of an attribute kind.
const char* AttributeKindToString(AttributeKind kind);

/// \brief True for kinds on which interval (`<=`/`>=`) conditions make sense.
bool IsOrderable(AttributeKind kind);

/// \brief One named, typed column of `n` values.
///
/// Numeric/ordinal columns store doubles; categorical/binary columns store
/// integer codes into a label table. Construct via the named factories.
class Column {
 public:
  /// Numeric column from raw values.
  static Column Numeric(std::string name, std::vector<double> values);

  /// Ordinal column (ordered discrete values stored as doubles).
  static Column Ordinal(std::string name, std::vector<double> values);

  /// Categorical column from codes and a label table.
  /// Every code must index into `labels`.
  static Column Categorical(std::string name, std::vector<int32_t> codes,
                            std::vector<std::string> labels);

  /// Categorical column from string values (labels assigned in order of
  /// first appearance).
  static Column CategoricalFromStrings(std::string name,
                                       const std::vector<std::string>& values);

  /// Binary column from bool values; labels default to "0"/"1".
  static Column Binary(std::string name, const std::vector<bool>& values,
                       std::string label_false = "0",
                       std::string label_true = "1");

  /// A column sharing every chunk of this one plus one new chunk holding
  /// `tail` (numeric/ordinal columns only). An empty tail shares storage
  /// without adding a chunk.
  Column WithAppendedNumeric(std::vector<double> tail) const;

  /// A column sharing every chunk of this one plus one new chunk holding
  /// `tail` (categorical/binary columns only). `new_labels` extends the
  /// label table; tail codes index into labels() + new_labels. Existing
  /// chunks stay valid because old codes index a prefix of the new table.
  Column WithAppendedCodes(std::vector<int32_t> tail,
                           std::vector<std::string> new_labels = {}) const;

  /// Attribute name.
  const std::string& name() const { return name_; }

  /// Attribute kind.
  AttributeKind kind() const { return kind_; }

  /// Number of rows.
  size_t size() const { return size_; }

  /// Numeric value at row `i` (numeric/ordinal columns only).
  double NumericValue(size_t i) const {
    SISD_DCHECK(IsOrderable(kind_));
    SISD_DCHECK(i < size_);
    const Segment& seg = SegmentContaining(i);
    return (*seg.numeric)[i - seg.begin];
  }

  /// Code at row `i` (categorical/binary columns only).
  int32_t Code(size_t i) const {
    SISD_DCHECK(!IsOrderable(kind_));
    SISD_DCHECK(i < size_);
    const Segment& seg = SegmentContaining(i);
    return (*seg.codes)[i - seg.begin];
  }

  /// Number of distinct levels (categorical/binary columns only).
  size_t NumLevels() const {
    SISD_DCHECK(!IsOrderable(kind_));
    return labels_.size();
  }

  /// Label of `code` (categorical/binary columns only).
  const std::string& Label(int32_t code) const {
    SISD_DCHECK(!IsOrderable(kind_));
    SISD_DCHECK(code >= 0 && static_cast<size_t>(code) < labels_.size());
    return labels_[static_cast<size_t>(code)];
  }

  /// All numeric values, flattened into one contiguous vector
  /// (numeric/ordinal columns only). O(n) copy when multi-segment.
  std::vector<double> numeric_values() const;

  /// All codes, flattened into one contiguous vector (categorical/binary
  /// columns only). O(n) copy when multi-segment.
  std::vector<int32_t> codes() const;

  /// Label table (categorical/binary columns only).
  const std::vector<std::string>& labels() const {
    SISD_DCHECK(!IsOrderable(kind_));
    return labels_;
  }

  /// Visits rows [from, n) one storage chunk at a time as
  /// fn(first_row, values), where `values[k]` is row `first_row + k`
  /// (numeric/ordinal columns only).
  template <typename Fn>
  void ForEachNumericRun(size_t from, Fn&& fn) const {
    SISD_DCHECK(IsOrderable(kind_));
    for (const Segment& seg : segments_) {
      VisitRun(*seg.numeric, seg.begin, from, fn);
    }
  }

  /// Visits rows [from, n) one storage chunk at a time as
  /// fn(first_row, codes) (categorical/binary columns only).
  template <typename Fn>
  void ForEachCodeRun(size_t from, Fn&& fn) const {
    SISD_DCHECK(!IsOrderable(kind_));
    for (const Segment& seg : segments_) {
      VisitRun(*seg.codes, seg.begin, from, fn);
    }
  }

  /// Visits rows [from, n) in order as fn(row, value), chunk-sequential
  /// (numeric/ordinal columns only).
  template <typename Fn>
  void ForEachNumeric(size_t from, Fn&& fn) const {
    ForEachNumericRun(from, [&](size_t first, std::span<const double> run) {
      for (size_t k = 0; k < run.size(); ++k) fn(first + k, run[k]);
    });
  }

  /// Visits rows [from, n) in order as fn(row, code), chunk-sequential
  /// (categorical/binary columns only).
  template <typename Fn>
  void ForEachCode(size_t from, Fn&& fn) const {
    ForEachCodeRun(from, [&](size_t first, std::span<const int32_t> run) {
      for (size_t k = 0; k < run.size(); ++k) fn(first + k, run[k]);
    });
  }

  /// Number of storage chunks (1 for factory-built columns).
  size_t NumSegments() const { return segments_.size(); }

  /// Identity of the backing storage of segment `s` — equal pointers mean
  /// shared (not copied) storage. For prefix-sharing tests.
  const void* SegmentIdentity(size_t s) const {
    SISD_DCHECK(s < segments_.size());
    return IsOrderable(kind_)
               ? static_cast<const void*>(segments_[s].numeric.get())
               : static_cast<const void*>(segments_[s].codes.get());
  }

  /// Renders the value at row `i` as a string regardless of kind.
  std::string ValueToString(size_t i) const;

 private:
  /// One immutable storage chunk covering rows [begin, begin + size).
  struct Segment {
    size_t begin = 0;
    std::shared_ptr<const std::vector<double>> numeric;  // numeric / ordinal
    std::shared_ptr<const std::vector<int32_t>> codes;   // categorical / binary
  };

  Column(std::string name, AttributeKind kind)
      : name_(std::move(name)), kind_(kind) {}

  /// Calls fn(first_row, values) for the part of one chunk at or past row
  /// `from` (nothing when the chunk ends at or before it).
  template <typename T, typename Fn>
  static void VisitRun(const std::vector<T>& values, size_t begin,
                       size_t from, Fn& fn) {
    const size_t first = std::max(from, begin);
    if (first >= begin + values.size()) return;
    fn(first, std::span<const T>(values).subspan(first - begin));
  }

  const Segment& SegmentContaining(size_t i) const {
    if (segments_.size() == 1) return segments_.front();
    // Last segment whose begin is <= i.
    auto it = std::upper_bound(
        segments_.begin(), segments_.end(), i,
        [](size_t row, const Segment& seg) { return row < seg.begin; });
    SISD_DCHECK(it != segments_.begin());
    return *(it - 1);
  }

  std::string name_;
  AttributeKind kind_;
  size_t size_ = 0;
  std::vector<Segment> segments_;
  std::vector<std::string> labels_;  // categorical / binary
};

}  // namespace sisd::data

#endif  // SISD_DATA_COLUMN_HPP_

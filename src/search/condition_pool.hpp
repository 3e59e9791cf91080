/// \file condition_pool.hpp
/// \brief The refinement alphabet of the beam search: all single-attribute
/// conditions considered, with precomputed row bitmasks.
///
/// Following the paper's Cortana settings (§III): numeric (and ordinal)
/// attributes contribute `<=` and `>=` conditions at `num_splits` quantile
/// split points (default 4: the 1/5..4/5 percentiles); categorical and
/// binary attributes contribute one equality condition per level. The full
/// description language of §II-A also has set exclusion (`!=`); opting in
/// via `include_exclusions` adds one exclusion per level for categorical
/// attributes with at least three levels (for binary attributes `!= v`
/// already equals `== !v`).
///
/// For dataset versions that append rows, `BuildIncremental` derives the
/// child pool from the parent's: conditions whose split threshold (or
/// level) survives in the child's alphabet extend the parent bitset in
/// place and evaluate only the appended rows; thresholds that moved (the
/// child's quantiles shifted) rebuild from scratch. Both paths run the
/// same candidate enumeration and filters, so the result is bit-identical
/// to `Build` on the grown table.
///
/// Both builds run in two phases. Phase 1 enumerates each column's
/// candidates and computes (or extends) their extensions into a
/// per-column slot; given a `workers` pool it runs one column per chunk
/// in parallel. Phase 2 walks the slots serially in column order and
/// applies the vacuous filter and the first-wins extension dedup, so the
/// pool is the same sequence whatever the worker count. A build must never
/// be started from inside a `ThreadPool::ParallelChunks` job on the same
/// pool: the nested job would wait on the submission lock its own outer
/// job holds, and deadlock.

#ifndef SISD_SEARCH_CONDITION_POOL_HPP_
#define SISD_SEARCH_CONDITION_POOL_HPP_

#include <vector>

#include "data/table.hpp"
#include "pattern/condition.hpp"
#include "pattern/extension.hpp"

namespace sisd::search {

class ThreadPool;

/// \brief How an incremental pool refresh was served, per condition.
struct IncrementalPoolStats {
  size_t reused = 0;   ///< extensions extended in place from the parent
  size_t rebuilt = 0;  ///< extensions evaluated from scratch
};

/// \brief Precomputed candidate conditions + their extensions.
class ConditionPool {
 public:
  /// Builds the pool for `table` with `num_splits` quantile split points per
  /// numeric attribute; `include_exclusions` opts in to `!=` conditions for
  /// categorical attributes with three or more levels (default: the paper's
  /// Cortana alphabet, no exclusions). Conditions that match no row or all
  /// rows are kept out of the pool (they cannot change any extension), and
  /// conditions whose extensions are bit-identical to an earlier
  /// condition's are dropped (quantile ties on low-cardinality numeric
  /// columns would otherwise add duplicate candidates scored at every beam
  /// level; the first condition with a given extension wins).
  /// With `workers` non-null, phase 1 runs on that pool (see the file
  /// comment); the result is identical either way.
  static ConditionPool Build(const data::DataTable& table, int num_splits = 4,
                             bool include_exclusions = false,
                             ThreadPool* workers = nullptr);

  /// Builds the pool for `table` reusing `parent`, the pool previously
  /// built (with the same `num_splits`/`include_exclusions`) over the
  /// first `parent_rows` rows of `table` — i.e. `table` is a row-append
  /// version of the parent's table. Bit-identical to `Build(table, ...)`;
  /// `stats` (optional) reports how many conditions were served by
  /// extending parent bitsets vs rebuilt because their threshold moved.
  static ConditionPool BuildIncremental(const data::DataTable& table,
                                        const ConditionPool& parent,
                                        size_t parent_rows,
                                        int num_splits = 4,
                                        bool include_exclusions = false,
                                        IncrementalPoolStats* stats = nullptr,
                                        ThreadPool* workers = nullptr);

  /// Number of conditions in the pool.
  size_t size() const { return conditions_.size(); }

  /// Condition by pool index.
  const pattern::Condition& condition(size_t idx) const {
    SISD_DCHECK(idx < conditions_.size());
    return conditions_[idx];
  }

  /// Precomputed extension (matching rows) of condition `idx`.
  const pattern::Extension& extension(size_t idx) const {
    SISD_DCHECK(idx < extensions_.size());
    return extensions_[idx];
  }

 private:
  /// The one build behind both entry points: scratch when `parent` is
  /// null, otherwise derived from `parent` over `parent_rows` rows.
  static ConditionPool Assemble(const data::DataTable& table,
                                const ConditionPool* parent,
                                size_t parent_rows, int num_splits,
                                bool include_exclusions,
                                IncrementalPoolStats* stats,
                                ThreadPool* workers);

  std::vector<pattern::Condition> conditions_;
  std::vector<pattern::Extension> extensions_;
};

}  // namespace sisd::search

#endif  // SISD_SEARCH_CONDITION_POOL_HPP_

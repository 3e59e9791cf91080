/// \file artifact_cache.hpp
/// \brief Memoized derived search structures, keyed by dataset fingerprint.
///
/// The refinement alphabet of the beam search (`search::ConditionPool`) is
/// a pure function of (dataset, num_splits, include_exclusions) — the
/// Cortana-style setup the paper adopts in §III — so N sessions over one
/// dataset never need more than one copy. The cache hands out
/// `shared_ptr<const ConditionPool>`: sessions hold the pool immutably and
/// by reference, and a pool lives as long as any session (or the cache)
/// still points at it.
///
/// Thread-safe. A cache miss builds the pool *outside* the cache lock
/// (builds can take tens of milliseconds on wide datasets and must not
/// stall unrelated lookups); when two threads race on the same key the
/// first inserted pool wins and the duplicate is discarded — both callers
/// observe the same pointer, preserving the one-instance guarantee.

#ifndef SISD_CATALOG_ARTIFACT_CACHE_HPP_
#define SISD_CATALOG_ARTIFACT_CACHE_HPP_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "data/table.hpp"
#include "search/condition_pool.hpp"

namespace sisd::catalog {

/// \brief Per-fingerprint cache of condition pools (one entry per distinct
/// (fingerprint, num_splits, include_exclusions) triple).
class ArtifactCache {
 public:
  ArtifactCache() = default;

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Returns the memoized pool for the key, building it from
  /// `descriptions` on first use. `descriptions` must be the description
  /// table of the dataset `fingerprint` identifies — the cache trusts the
  /// caller on this (the catalog, which owns both, is the only caller).
  /// A miss builds on `workers` when non-null (same pool either way).
  std::shared_ptr<const search::ConditionPool> PoolFor(
      uint64_t fingerprint, const data::DataTable& descriptions,
      int num_splits, bool include_exclusions,
      search::ThreadPool* workers = nullptr);

  /// Number of cached pools for one dataset (the `pools` stat).
  size_t PoolCountFor(uint64_t fingerprint) const;

  /// Total cached pools across all datasets.
  size_t size() const;

  /// Drops every pool of `fingerprint` (on dataset drop). Sessions still
  /// holding the shared_ptr keep their pool alive; the cache just forgets.
  void DropPoolsFor(uint64_t fingerprint);

  /// Derives `child_fingerprint` pools incrementally from every cached
  /// pool of `parent_fingerprint` (bitsets extend in place for thresholds
  /// that didn't move; moved thresholds rebuild — bit-identical to a
  /// scratch build either way). `child_descriptions` must be the
  /// row-append child of the parent's table and `parent_rows` the
  /// parent's row count. A later `PoolFor` on the child then hits the
  /// cache instead of building from scratch. Returns the number of pools
  /// refreshed (keys the child already had are skipped). Refreshes count
  /// in `refreshes()`/`conditions_*()`, not in `hits()`/`builds()`.
  /// Each refresh builds on `workers` when non-null.
  size_t RefreshPoolsFor(uint64_t parent_fingerprint,
                         uint64_t child_fingerprint,
                         const data::DataTable& child_descriptions,
                         size_t parent_rows,
                         search::ThreadPool* workers = nullptr);

  /// Lookups answered from the cache / lookups that built a pool (the
  /// serve layer's `metrics` verb reports the hit rate).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }

  /// Incremental pool refreshes performed on dataset appends, and how
  /// many per-condition extensions they served by extending parent
  /// bitsets in place vs rebuilding (the incremental-vs-scratch gauges of
  /// the `metrics` verb).
  uint64_t refreshes() const {
    return refreshes_.load(std::memory_order_relaxed);
  }
  uint64_t conditions_reused() const {
    return conditions_reused_.load(std::memory_order_relaxed);
  }
  uint64_t conditions_rebuilt() const {
    return conditions_rebuilt_.load(std::memory_order_relaxed);
  }

 private:
  using Key = std::tuple<uint64_t, int, bool>;

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const search::ConditionPool>> pools_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> refreshes_{0};
  std::atomic<uint64_t> conditions_reused_{0};
  std::atomic<uint64_t> conditions_rebuilt_{0};
};

}  // namespace sisd::catalog

#endif  // SISD_CATALOG_ARTIFACT_CACHE_HPP_

/// \file batch_evaluator.hpp
/// \brief The batch evaluation protocol between the beam search and the
/// quality scorers.
///
/// The beam search scores every candidate through this protocol: it
/// generates one `CandidateBatch` per beam level (parent x pool-condition
/// refinements, already deduplicated and coverage-filtered) and hands
/// contiguous chunks of it to a `BatchEvaluator`. Candidates are *virtual*:
/// an item is a (parent extension, pool condition) pair plus the precomputed
/// intersection count, so evaluators can compute subgroup statistics with
/// fused masked kernels (see `pattern::Extension::IntersectionCountAnd`,
/// `pattern::MaskedSubgroupMeanInto`) without ever materializing the
/// intersection bitset. Only candidates that actually enter the beam or the
/// result list get materialized.

#ifndef SISD_SEARCH_BATCH_EVALUATOR_HPP_
#define SISD_SEARCH_BATCH_EVALUATOR_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "pattern/extension.hpp"
#include "search/condition_pool.hpp"

namespace sisd::search {

/// \brief One beam level's candidate set, in deterministic generation order
/// (parents in beam order, pool conditions in ascending id order).
struct CandidateBatch {
  /// A virtual candidate: refine `parents[parent]` with pool condition
  /// `condition`; `count` is the precomputed size of the intersection.
  struct Item {
    uint32_t parent = 0;
    uint32_t condition = 0;
    uint32_t count = 0;
  };

  const ConditionPool* pool = nullptr;
  /// Parent extensions (beam entries of the previous level; one full
  /// extension at depth 1).
  std::vector<const pattern::Extension*> parents;
  /// Conditions per candidate at this level (= beam depth).
  size_t depth = 1;
  std::vector<Item> items;
  /// Flat id arena: the sorted pool-condition ids of candidate `i` are
  /// `ids[i * depth, (i + 1) * depth)` (read them via `candidate_ids`).
  std::vector<uint32_t> ids;

  size_t size() const { return items.size(); }

  std::span<const uint32_t> candidate_ids(size_t i) const {
    return {ids.data() + i * depth, depth};
  }

  const pattern::Extension& parent_extension(const Item& item) const {
    return *parents[item.parent];
  }
  const pattern::Extension& condition_extension(const Item& item) const {
    return pool->extension(item.condition);
  }
};

/// \brief Scores chunks of a candidate batch. Implementations own whatever
/// per-worker scratch they need. `ScoreChunk` runs concurrently from
/// several threads (with distinct `worker` ids), and a candidate's score
/// must be a pure function of the candidate, so the search output does not
/// depend on the thread count.
class BatchEvaluator {
 public:
  virtual ~BatchEvaluator() = default;

  /// Called once per search, before any scoring, with the number of worker
  /// slots that will be used. Allocate per-worker scratch here.
  virtual void Prepare(size_t num_workers) { (void)num_workers; }

  /// Scores candidates `[begin, end)` of `batch` into `scores[begin..end)`.
  /// A score of -infinity rejects the candidate (it enters neither the beam
  /// nor the result list). `worker` is the slot id (< the `Prepare` count).
  virtual void ScoreChunk(const CandidateBatch& batch, size_t begin,
                          size_t end, size_t worker, double* scores) = 0;
};

}  // namespace sisd::search

#endif  // SISD_SEARCH_BATCH_EVALUATOR_HPP_

/// \file si_evaluator.hpp
/// \brief Batch evaluator scoring candidates by location-pattern SI
/// (Eq. 14) — the hot path of the paper's iterative mining loop.
///
/// Holds one `si::EvaluationContext` per worker thread, so parallel scoring
/// is allocation-free and never contends: the model snapshot is shared
/// read-only (its per-group Cholesky caches are warmed up front), while
/// scratch buffers, including the multi-group marginal factor, are per
/// worker.
/// Scores are pure functions of the candidate, so the search output is
/// bit-identical for any thread count.
///
/// At dy = 1 the evaluator scores parent-major: each run of same-parent
/// candidates in a chunk buckets the parent's rows once (by lane-contract
/// slot, and by model group when there are several), then sweeps them
/// once per 32-condition tile of the pool's row-major view
/// (`CandidateBatch::rows`), yielding every refinement's target sum and
/// per-group counts at a cost linear in the parent's rows rather than in
/// `n` per candidate. The sums are bit-identical to the per-candidate
/// masked-sum kernel (see "Parent-major tile sweeps" in kernels.hpp), so
/// the scores are too. At dy = 1 the view is required; dy > 1 scores one
/// candidate at a time.

#ifndef SISD_SEARCH_SI_EVALUATOR_HPP_
#define SISD_SEARCH_SI_EVALUATOR_HPP_

#include <atomic>
#include <cstdint>
#include <vector>

#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "model/background_model.hpp"
#include "search/batch_evaluator.hpp"
#include "si/evaluation_context.hpp"
#include "si/interestingness.hpp"

namespace sisd::search {

/// \brief Location-SI batch evaluator over a fixed model snapshot.
class SiLocationEvaluator final : public BatchEvaluator {
 public:
  /// Binds to `model` and target matrix `targets` (both kept by reference;
  /// neither may change while the evaluator is in use).
  SiLocationEvaluator(const model::BackgroundModel& model,
                      const linalg::Matrix& targets,
                      si::DescriptionLengthParams dl);

  void Prepare(size_t num_workers) override;

  /// True at dy = 1, where scoring is parent-major over the view.
  bool UsesConditionRows() const override { return targets_->cols() == 1; }

  void ScoreChunk(const CandidateBatch& batch, size_t begin, size_t end,
                  size_t worker, double* scores) override;

  /// Full (IC, DL, SI) of one materialized subgroup through worker 0's
  /// context — the miner uses this to rescore the final top-k without
  /// building a fresh context.
  si::LocationScore ScoreSubgroup(const pattern::Extension& extension,
                                  const linalg::Vector& empirical_mean,
                                  size_t num_conditions);

  /// Candidates scored through `ScoreChunk` so far (diagnostics; lets tests
  /// assert that top-k rescoring does not re-enter the batch path).
  size_t num_batch_scored() const {
    return num_batch_scored_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-worker scratch of the parent-major path, sized up front so
  /// scoring never allocates.
  struct ParentScratch {
    std::vector<uint32_t> slot_rows;   ///< parent rows by contract slot
    uint32_t slot_begin[kernels::kContractSlots + 1] = {};
    std::vector<uint32_t> group_rows;   ///< parent rows by model group
    std::vector<uint32_t> group_begin;  ///< groups + 1 offsets
    std::vector<uint32_t> group_counts;  ///< groups x kTileWidth
    double sums[kernels::kTileWidth] = {};
  };

  ParentScratch MakeParentScratch() const;

  /// Buckets `parent`'s rows by contract slot, and by model group when the
  /// model has several, into `scratch`.
  void BucketParentRows(const pattern::Extension& parent,
                        ParentScratch* scratch) const;

  /// Scores candidates `[begin, end)`, which share one parent, from one
  /// parent-major pass per tile.
  void ScoreParentRun(const CandidateBatch& batch, size_t begin, size_t end,
                      size_t worker, double* scores);

  const model::BackgroundModel* model_;
  const linalg::Matrix* targets_;
  si::DescriptionLengthParams dl_;
  /// `-y` at dy = 1 (empty otherwise): the tile kernels' `neg_values`.
  std::vector<double> neg_targets_;
  std::vector<si::EvaluationContext> contexts_;  ///< one per worker
  std::vector<ParentScratch> scratch_;  ///< one per worker (dy = 1 only)
  std::atomic<size_t> num_batch_scored_{0};
};

}  // namespace sisd::search

#endif  // SISD_SEARCH_SI_EVALUATOR_HPP_

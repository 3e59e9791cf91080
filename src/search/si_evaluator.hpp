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

#ifndef SISD_SEARCH_SI_EVALUATOR_HPP_
#define SISD_SEARCH_SI_EVALUATOR_HPP_

#include <atomic>
#include <vector>

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
  const model::BackgroundModel* model_;
  const linalg::Matrix* targets_;
  si::DescriptionLengthParams dl_;
  std::vector<si::EvaluationContext> contexts_;  ///< one per worker
  std::atomic<size_t> num_batch_scored_{0};
};

}  // namespace sisd::search

#endif  // SISD_SEARCH_SI_EVALUATOR_HPP_

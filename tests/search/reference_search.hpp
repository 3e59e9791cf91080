/// \file reference_search.hpp
/// \brief Test-only references the search engines are checked against:
/// a materializing `BatchEvaluator` over a plain quality function (single
/// worker unless the function is pure) and a naive depth-first enumerator
/// of the description language. Each is the slowest honest way to compute
/// its answer: no fused kernels, no scratch reuse, no pruning, no budget.

#ifndef SISD_TESTS_SEARCH_REFERENCE_SEARCH_HPP_
#define SISD_TESTS_SEARCH_REFERENCE_SEARCH_HPP_

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "data/table.hpp"
#include "linalg/matrix.hpp"
#include "model/background_model.hpp"
#include "pattern/condition.hpp"
#include "pattern/extension.hpp"
#include "pattern/patterns.hpp"
#include "search/batch_evaluator.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "si/interestingness.hpp"

namespace sisd::search::reference {

/// Quality of one materialized candidate; -inf rejects it.
using Quality = std::function<double(const pattern::Intention&,
                                     const pattern::Extension&)>;

/// Location-pattern SI through the free functions (empirical mean, then
/// `si::ScoreLocation`). Keeps references to `model` and `y`.
inline Quality SiQuality(const model::BackgroundModel& model,
                         const linalg::Matrix& y,
                         const si::DescriptionLengthParams& dl) {
  return [&model, &y, dl](const pattern::Intention& intention,
                          const pattern::Extension& extension) {
    const linalg::Vector mean = pattern::SubgroupMean(y, extension);
    return si::ScoreLocation(model, extension, mean, intention.size(), dl)
        .si;
  };
}

/// Materializes every candidate's extension and intention and scores it
/// through `quality`. Runs on at most `max_workers` workers: one unless the
/// caller vouches that `quality` is pure (thread-safe, a function of its
/// arguments only), so an impure `quality` need not be thread-safe.
class ReferenceEvaluator final : public BatchEvaluator {
 public:
  explicit ReferenceEvaluator(Quality quality, size_t max_workers = 1)
      : quality_(std::move(quality)), max_workers_(max_workers) {}

  void Prepare(size_t num_workers) override {
    SISD_CHECK(num_workers <= max_workers_);
  }

  void ScoreChunk(const CandidateBatch& batch, size_t begin, size_t end,
                  size_t /*worker*/, double* scores) override {
    for (size_t i = begin; i < end; ++i) {
      const CandidateBatch::Item& item = batch.items[i];
      const pattern::Extension extension = pattern::Extension::Intersect(
          batch.parent_extension(item), batch.condition_extension(item));
      std::vector<pattern::Condition> conditions;
      for (uint32_t id : batch.candidate_ids(i)) {
        conditions.push_back(batch.pool->condition(id));
      }
      scores[i] =
          quality_(pattern::Intention(std::move(conditions)), extension);
    }
  }

 private:
  Quality quality_;
  size_t max_workers_;
};

/// `BeamSearch` scoring through a `ReferenceEvaluator` on `num_threads`
/// workers (one by default); more than one requires a pure `quality`.
inline SearchResult ReferenceBeamSearch(const data::DataTable& table,
                                        const ConditionPool& pool,
                                        SearchConfig config, Quality quality,
                                        int num_threads = 1) {
  config.num_threads = num_threads;
  ReferenceEvaluator evaluator(std::move(quality), size_t(num_threads));
  return BeamSearch(table, pool, config, evaluator);
}

/// Outcome of the naive enumeration.
struct Enumeration {
  ScoredSubgroup best;       ///< first candidate of highest quality
  size_t num_evaluated = 0;  ///< candidates scored
};

/// Scores every refinement of (`intention`, `extension`) by pool
/// conditions with id >= `first`, depth first in increasing id order, so
/// each condition set is visited exactly once and ties keep the set visited
/// first (the lexicographically smallest id vector).
inline void EnumerateRefinements(const ConditionPool& pool, int max_depth,
                                 size_t min_coverage, const Quality& quality,
                                 const pattern::Intention& intention,
                                 const pattern::Extension& extension,
                                 size_t first, Enumeration* out) {
  if (int(intention.size()) >= max_depth) return;
  for (size_t cid = first; cid < pool.size(); ++cid) {
    const pattern::Condition& condition = pool.condition(cid);
    if (!intention.AllowsRefinementWith(condition)) continue;
    const pattern::Extension child =
        pattern::Extension::Intersect(extension, pool.extension(cid));
    if (child.count() < std::max<size_t>(min_coverage, 1) ||
        child.count() == extension.universe_size()) {
      continue;
    }
    const pattern::Intention child_intention = intention.Extended(condition);
    const double q = quality(child_intention, child);
    ++out->num_evaluated;
    if (q > out->best.quality) out->best = {child_intention, child, q};
    EnumerateRefinements(pool, max_depth, min_coverage, quality,
                         child_intention, child, cid + 1, out);
  }
}

/// The global optimum of `quality` over every condition set of at most
/// `max_depth` conditions covering at least `min_coverage` (and not all)
/// rows — no bound, no budget.
inline Enumeration NaiveEnumerate(const data::DataTable& table,
                                  const ConditionPool& pool, int max_depth,
                                  size_t min_coverage,
                                  const Quality& quality) {
  Enumeration out;
  EnumerateRefinements(pool, max_depth, min_coverage, quality,
                       pattern::Intention(),
                       pattern::Extension(table.num_rows(), /*full=*/true),
                       0, &out);
  return out;
}

}  // namespace sisd::search::reference

#endif  // SISD_TESTS_SEARCH_REFERENCE_SEARCH_HPP_

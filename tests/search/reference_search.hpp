/// \file reference_search.hpp
/// \brief Test-only references the search engines are checked against:
/// a materializing single-worker `BatchEvaluator` over a plain quality
/// function, a naive depth-first enumerator of the description language,
/// and the prefix-sum univariate SI bound. Each is the slowest honest way
/// to compute its answer: no fused kernels, no scratch reuse, no pruning,
/// no budget.

#ifndef SISD_TESTS_SEARCH_REFERENCE_SEARCH_HPP_
#define SISD_TESTS_SEARCH_REFERENCE_SEARCH_HPP_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
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
/// through `quality`. Runs on a single worker, so `quality` need not be
/// thread-safe.
class ReferenceEvaluator final : public BatchEvaluator {
 public:
  explicit ReferenceEvaluator(Quality quality)
      : quality_(std::move(quality)) {}

  void Prepare(size_t num_workers) override { SISD_CHECK(num_workers == 1); }

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
};

/// `BeamSearch` scoring through a `ReferenceEvaluator` on one thread.
inline SearchResult ReferenceBeamSearch(const data::DataTable& table,
                                        const ConditionPool& pool,
                                        SearchConfig config, Quality quality) {
  config.num_threads = 1;
  ReferenceEvaluator evaluator(std::move(quality));
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

/// Tight optimistic estimate of the location-pattern SI of every strict
/// refinement of a node with `num_conditions` conditions and extension
/// `extension`, for a univariate target under the initial single-group
/// model (Boley et al.). A refinement S' of size k has
///   IC(S') = 0.5*log(2 pi sigma^2 / k) + k*(mean(S') - mu)^2/(2 sigma^2),
/// and for fixed k the mean shift is largest for the k smallest or k
/// largest values of the node (prefix sums after sorting). The max over k,
/// divided by the smallest descendant DL (one more condition), bounds the
/// SI; a negative IC bounds it by 0, the supremum of IC'/DL' < 0.
inline double UnivariateSiBound(const model::BackgroundModel& model,
                                const linalg::Matrix& y,
                                const si::DescriptionLengthParams& dl,
                                size_t min_coverage, size_t num_conditions,
                                const pattern::Extension& extension) {
  constexpr double kLog2Pi = 1.8378770664093453;
  SISD_CHECK(model.dim() == 1 && model.num_groups() == 1);
  const double mu = model.group(0).mu[0];
  const double sigma2 = model.group(0).sigma(0, 0);
  const size_t min_cov = std::max<size_t>(min_coverage, 1);

  std::vector<double> values;
  for (size_t i : extension.ToRows()) values.push_back(y(i, 0));
  std::sort(values.begin(), values.end());
  const size_t m = values.size();
  if (m < min_cov) return -std::numeric_limits<double>::infinity();
  std::vector<double> prefix(m + 1, 0.0);
  for (size_t i = 0; i < m; ++i) prefix[i + 1] = prefix[i] + values[i];

  double best_ic = -std::numeric_limits<double>::infinity();
  for (size_t k = min_cov; k <= m; ++k) {
    const double dk = double(k);
    const double bottom_mean = prefix[k] / dk;
    const double top_mean = (prefix[m] - prefix[m - k]) / dk;
    const double shift = std::max(std::fabs(bottom_mean - mu),
                                  std::fabs(top_mean - mu));
    best_ic = std::max(best_ic, 0.5 * (kLog2Pi + std::log(sigma2 / dk)) +
                                    dk * shift * shift / (2.0 * sigma2));
  }
  const double min_descendant_dl =
      dl.gamma * double(num_conditions + 1) + dl.eta;
  return best_ic >= 0.0 ? best_ic / min_descendant_dl : 0.0;
}

}  // namespace sisd::search::reference

#endif  // SISD_TESTS_SEARCH_REFERENCE_SEARCH_HPP_

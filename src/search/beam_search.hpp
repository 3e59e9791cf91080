/// \file beam_search.hpp
/// \brief Level-wise beam search over conjunctions of conditions
/// (paper §II-D, "Location pattern").
///
/// The search is generic in the quality scorer, so the same engine drives
/// (a) the SI-based location-pattern search of the paper, (b) the
/// subgroup-list gain of `list_miner` and (c) the baseline quality measures
/// used for comparison. Per beam level the search generates one candidate
/// batch (each parent's refinements in parallel, concatenated in parent
/// order) and scores it in parallel through a `BatchEvaluator`; the beam
/// keeps the `beam_width` best per level and a global top-`k` list collects
/// the best subgroups seen anywhere in the search. Results are merged in
/// candidate generation order, so the output is bit-identical for any
/// thread count.

#ifndef SISD_SEARCH_BEAM_SEARCH_HPP_
#define SISD_SEARCH_BEAM_SEARCH_HPP_

#include <limits>
#include <string>
#include <vector>

#include "data/table.hpp"
#include "pattern/condition.hpp"
#include "pattern/extension.hpp"
#include "search/batch_evaluator.hpp"
#include "search/condition_pool.hpp"
#include "search/thread_pool.hpp"

namespace sisd::search {

/// \brief Beam search settings (defaults = the paper's Cortana settings).
struct SearchConfig {
  int beam_width = 40;       ///< candidates kept per level
  int max_depth = 4;         ///< maximum number of conditions
  int num_split_points = 4;  ///< numeric split points (1/5..4/5 percentiles)
  /// Emit `!=` set-exclusion conditions (§II-A) for categorical attributes
  /// with at least three levels. Off by default: the paper's experiments
  /// use the Cortana alphabet (`<=`, `>=`, `=` only), and the default must
  /// keep reproducing them byte for byte.
  bool include_exclusions = false;
  size_t top_k = 150;        ///< size of the global result list
  size_t min_coverage = 2;   ///< minimum subgroup size
  /// Maximum subgroup size as a fraction of the data (1.0 = no limit other
  /// than "not all rows", which is enforced by the condition pool).
  double max_coverage_fraction = 1.0;
  /// Wall-clock budget; the search stops gracefully when exceeded.
  double time_budget_seconds = std::numeric_limits<double>::infinity();
  /// Scoring threads: >= 1 is taken literally; 0 resolves through the
  /// `SISD_THREADS` environment variable, then hardware concurrency. As
  /// long as the search does not hit the wall-clock budget, the output is
  /// bit-identical for every setting; a search cut off by
  /// `time_budget_seconds` returns a timing-dependent partial result (as
  /// any wall-clock cutoff must).
  int num_threads = 0;
};

/// \brief One scored subgroup in the search output.
struct ScoredSubgroup {
  pattern::Intention intention;
  pattern::Extension extension{0};
  double quality = -std::numeric_limits<double>::infinity();
};

/// \brief Outcome of a beam search run.
struct SearchResult {
  /// Top subgroups in descending quality order (deduplicated by canonical
  /// intention signature).
  std::vector<ScoredSubgroup> top;
  /// Number of candidate evaluations performed.
  size_t num_evaluated = 0;
  /// True iff the search stopped because of the time budget.
  bool hit_time_budget = false;

  /// The single best subgroup; aborts when `top` is empty.
  const ScoredSubgroup& best() const {
    SISD_CHECK(!top.empty());
    return top.front();
  }
};

/// \brief Runs beam search over `pool`, scoring candidate batches through
/// `evaluator`.
///
/// When `shared_workers` is non-null the search scores through that pool
/// (whose worker count overrides `config.num_threads`) instead of spinning
/// up a per-call pool — the serve layer shares one pool across all live
/// sessions this way. Results stay bit-identical either way: the output is
/// invariant to the thread count.
SearchResult BeamSearch(const data::DataTable& table,
                        const ConditionPool& pool, const SearchConfig& config,
                        BatchEvaluator& evaluator,
                        ThreadPool* shared_workers = nullptr);

}  // namespace sisd::search

#endif  // SISD_SEARCH_BEAM_SEARCH_HPP_

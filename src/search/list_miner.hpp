/// \file list_miner.hpp
/// \brief Greedy SSD++-style subgroup-list miner on the batch engine.
///
/// Where the paper's dialogue returns one pattern per iteration and evolves
/// the *background model*, a subgroup **list** is an ordered rule set with
/// first-match-wins routing: a row is explained by the first rule whose
/// extension contains it, and by the dataset-marginal *default rule*
/// otherwise (si/list_gain.hpp). The miner is greedy: each round it runs
/// the regular beam search over the full condition pool, scoring every
/// candidate by the list-level compression gain of the rows the candidate
/// would newly capture, appends the best rule, removes its rows from the
/// uncovered set, and repeats until no candidate gains (or a rule budget is
/// exhausted).
///
/// Determinism: candidate generation order, chunked parallel scoring, and
/// index-order merging all come from `BeamSearch`, and the gain is a pure
/// function of the candidate plus the (fixed-per-round) uncovered set — so
/// the mined list is bit-identical for any thread count and `SISD_KERNELS`
/// setting. `ExtendSubgroupListReference` re-derives every candidate's gain
/// from scratch (materialized bitsets, no caching, no parallelism); the
/// differential test `list_miner_test` holds the two bit-equal.

#ifndef SISD_SEARCH_LIST_MINER_HPP_
#define SISD_SEARCH_LIST_MINER_HPP_

#include <vector>

#include "data/table.hpp"
#include "linalg/matrix.hpp"
#include "pattern/condition.hpp"
#include "pattern/extension.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "search/thread_pool.hpp"
#include "si/list_gain.hpp"

namespace sisd::search {

/// \brief Settings of one list-extension call.
struct ListSearchConfig {
  /// Per-round candidate search (beam width, depth, coverage bounds,
  /// threads — all reused as-is; `top_k` only affects diagnostics since
  /// the miner takes the single best candidate per round).
  SearchConfig search;
  /// Gain criterion knobs.
  si::ListGainParams gain;
  /// Maximum rules appended by this call (>= 1).
  int max_rules = 8;
  /// A rule must newly capture at least this many rows (floored to 1).
  size_t min_captured = 2;
};

/// \brief One rule of a subgroup list.
struct SubgroupRule {
  pattern::Intention intention;
  /// All rows matching the intention.
  pattern::Extension extension{0};
  /// Rows this rule actually explains: `extension` minus everything
  /// earlier rules captured (first match wins).
  pattern::Extension captured{0};
  /// Local normal model fitted on `captured`.
  si::LocalNormalModel local;
  /// List-level gain at insertion time (the quality the rule won with).
  double gain = 0.0;
};

/// \brief An ordered subgroup list plus the state needed to extend it.
struct SubgroupList {
  /// The default rule: dataset-marginal per-dimension normal model, fitted
  /// once over all rows and fixed for the list's lifetime.
  si::LocalNormalModel default_model;
  std::vector<SubgroupRule> rules;
  /// Rows not captured by any rule yet (routed to the default rule).
  pattern::Extension uncovered{0};
  /// Sum of rule gains, accumulated in rule order.
  double total_gain = 0.0;
};

/// \brief Diagnostics of one `ExtendSubgroupList` call.
struct ListMineStats {
  size_t rules_appended = 0;
  size_t num_evaluated = 0;
  /// No appendable rule remains: every candidate's gain is <= 0 (or the
  /// uncovered set is too small to capture from).
  bool exhausted = false;
  bool hit_time_budget = false;
};

/// \brief Builds an empty list over `targets`: every row uncovered, the
/// default model fitted through the same kernel-moments path the miner
/// scores with. Deterministic (and ISA-invariant, by the lane contract).
SubgroupList MakeEmptySubgroupList(const linalg::Matrix& targets,
                                   const si::ListGainParams& gain);

/// \brief Appends up to `config.max_rules` greedily chosen rules to
/// `*list` (which must have been initialized by `MakeEmptySubgroupList`
/// or by replaying rules). Scores through `shared_workers` when non-null,
/// a per-call pool otherwise; output is identical either way.
ListMineStats ExtendSubgroupList(const data::DataTable& table,
                                 const linalg::Matrix& targets,
                                 const ConditionPool& pool,
                                 const ListSearchConfig& config,
                                 SubgroupList* list,
                                 ThreadPool* shared_workers = nullptr);

/// \brief Naive single-threaded reference: identical beam enumeration, but
/// every candidate's gain is recomputed directly — materialize the
/// candidate extension, intersect with the uncovered set, take moments on
/// the materialized bitset — with no per-worker scratch, caching, or
/// fused-mask shortcuts. Exists for the differential test; bit-identical
/// to `ExtendSubgroupList` by the kernel lane contract.
ListMineStats ExtendSubgroupListReference(const data::DataTable& table,
                                          const linalg::Matrix& targets,
                                          const ConditionPool& pool,
                                          const ListSearchConfig& config,
                                          SubgroupList* list);

/// \brief Re-applies a saved rule to `*list` without searching: pushes the
/// rule, removes its extension from the uncovered set, and accumulates its
/// gain — the exact state updates `ExtendSubgroupList` performs when it
/// appends. Snapshot restore applies each re-derived rule through this,
/// so a restored list continues mining bit-identically to one that never
/// stopped.
void ReplaySubgroupRule(SubgroupRule rule, SubgroupList* list);

/// \brief Rebuilds a rule from its intention against (possibly different)
/// data: evaluates the extension on `table`, intersects with `list`'s
/// current uncovered set, refits the local model on the captured rows and
/// rescores the gain against `list`'s default model. This is how a session
/// rebased onto an appended dataset version rewrites its list history —
/// the derived numbers are exactly what `ExtendSubgroupList` would have
/// produced had it appended this intention on the new data. Snapshot
/// restore runs it on the unchanged data to rebuild each saved rule from
/// its intention. Fails when the rule would capture no rows. Does not
/// mutate `list`; follow up with `ReplaySubgroupRule` to apply the result.
Result<SubgroupRule> RederiveSubgroupRule(const data::DataTable& table,
                                          const linalg::Matrix& targets,
                                          const si::ListGainParams& gain,
                                          const pattern::Intention& intention,
                                          const SubgroupList& list);

}  // namespace sisd::search

#endif  // SISD_SEARCH_LIST_MINER_HPP_

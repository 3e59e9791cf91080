/// \file session.hpp
/// \brief Persistent mining sessions: the paper's analyst-in-the-loop
/// dialogue (mine, show, assimilate, re-mine — §II-B, Table I) as a durable,
/// resumable object.
///
/// A `MiningSession` owns its dataset (shared ownership, no lifetime traps),
/// the evolving background model with its assimilated-constraint registry,
/// and the full iteration history. `Save` writes the session's inputs — the
/// dataset, the config and the dialogue history — to a versioned JSON
/// snapshot; `Restore` rebuilds the background model by replaying that
/// history through the same model updates `MineNext` made, so the next
/// `MineNext()` produces byte-identical output to a session that never
/// stopped.

#ifndef SISD_CORE_SESSION_HPP_
#define SISD_CORE_SESSION_HPP_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/dataset_catalog.hpp"
#include "common/status.hpp"
#include "data/table.hpp"
#include "model/assimilator.hpp"
#include "model/background_model.hpp"
#include "optimize/sphere_optimizer.hpp"
#include "pattern/patterns.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "search/list_miner.hpp"
#include "search/thread_pool.hpp"
#include "si/interestingness.hpp"
#include "si/list_gain.hpp"

namespace sisd::core {

/// \brief Which pattern types an iteration should produce.
enum class PatternMix {
  kLocationOnly,       ///< location pattern per iteration (e.g. mammals §III-B)
  kLocationAndSpread,  ///< location + spread per iteration (§III-A, C, D)
};

/// \brief Everything configurable about a mining session. Defaults
/// reproduce the paper's settings (§III: beam width 40, depth 4, 4 split
/// points, top-150, gamma = 0.1, eta = 1).
struct MinerConfig {
  search::SearchConfig search;
  si::DescriptionLengthParams dl;
  PatternMix mix = PatternMix::kLocationAndSpread;
  /// 0 = dense spread direction; 2 = the §III-C pair sweep (2-sparse w).
  int spread_sparsity = 0;
  optimize::SphereOptimizerConfig spread_optimizer;
  /// Prior mean/covariance; both empty -> empirical values (the paper's
  /// setup). They are set together or not at all: `ValidateMinerConfig`
  /// rejects a config (or snapshot) that sets only one of them.
  std::optional<linalg::Vector> prior_mean;
  std::optional<linalg::Matrix> prior_covariance;
  /// Ridge added to an empirical prior covariance (keeps it SPD).
  double prior_ridge = 1e-8;
  /// Gain criterion of the subgroup-list workload (`MineList`); the search
  /// knobs in `search` are shared between both workloads.
  si::ListGainParams list_gain;
};

/// \brief Rejects, with InvalidArgument, a config the engine cannot run:
/// any key of the config table (core/config_table.hpp) outside its range,
/// `gamma` and `eta` both 0 (a location pattern's description length
/// would be 0 and its SI infinite), or only one of `prior_mean` and
/// `prior_covariance` set. Every path a config enters by —
/// session creation, snapshot restore, the serve `open` verb, `sisd_cli` —
/// calls it, so no client-supplied value reaches an engine precondition
/// check.
Status ValidateMinerConfig(const MinerConfig& config);

/// \brief A fully scored location pattern.
struct ScoredLocationPattern {
  pattern::LocationPattern pattern;
  si::LocationScore score;

  /// Renders e.g. "a3 = '1' (n=40, SI=48.35)".
  std::string Describe(const data::DataTable& table) const;
};

/// \brief A fully scored spread pattern.
struct ScoredSpreadPattern {
  pattern::SpreadPattern pattern;
  si::SpreadScore score;

  std::string Describe(const data::DataTable& table) const;
};

/// \brief Output of one mining iteration.
struct IterationResult {
  ScoredLocationPattern location;
  std::optional<ScoredSpreadPattern> spread;
  /// Set when the spread step failed *after* the location pattern was
  /// already assimilated (rare numerical edge): the iteration is still
  /// recorded — the model did move — with `spread` empty and the reason
  /// here, so session state, history and snapshots never disagree.
  std::string spread_error;
  /// The full ranked list from the beam search (top-k subgroups by SI),
  /// useful for Table-I-style inspection.
  std::vector<ScoredLocationPattern> ranked;
  /// Search diagnostics.
  size_t candidates_evaluated = 0;
  bool hit_time_budget = false;
};

/// \brief Output of one `MineList` call — the second history type of the
/// session (list rounds are recorded separately from the iterative
/// dialogue's `IterationResult`s; see the snapshot history-type policy in
/// docs/PROTOCOL.md).
struct ListMineResult {
  /// The rules this call appended, in list order. A snapshot stores only
  /// their intentions; restore re-derives the rest without a search.
  std::vector<search::SubgroupRule> rules;
  /// The list's cumulative gain after this call.
  double total_gain = 0.0;
  size_t candidates_evaluated = 0;
  /// No further rule can compress: the list is complete.
  bool exhausted = false;
  bool hit_time_budget = false;
};

/// \brief One hop of a session's dataset lineage: the dataset the session
/// was mining *before* a `Rebase` moved it to an appended version.
struct SessionVersionLink {
  /// Catalog fingerprint of the pre-rebase dataset (0 when the session
  /// owned a private copy with no catalog origin).
  uint64_t fingerprint = 0;
  std::string name;
  /// Row count the session had on that version.
  size_t rows = 0;
};

/// \brief Output of `Rebase`.
struct RebaseOutcome {
  /// Rows the new version added over the session's previous dataset.
  size_t appended_rows = 0;
  /// Iterative-dialogue constraints replayed through the live
  /// assimilation path.
  size_t replayed_iterations = 0;
  /// Subgroup-list rules re-derived and replayed on the grown data.
  size_t replayed_rules = 0;
};

/// \brief Snapshot schema version written by `Save`. Bumped only on
/// incompatible layout changes; `Restore` also reads version 1 and rejects
/// any other (see docs/PROTOCOL.md for the policy).
inline constexpr int64_t kSessionSchemaVersion = 2;

/// \brief The `format` tag identifying session snapshot files.
inline constexpr const char* kSessionFormatTag = "sisd-session";

/// \brief How `SaveToString` stores the dataset.
enum class SnapshotForm {
  /// Embed the full dataset (the default: snapshots are self-contained
  /// and portable to processes without a catalog).
  kInlineDataset,
  /// Store only `dataset_ref {fingerprint, name}` (requires the session to
  /// have a catalog origin; falls back to inline otherwise). Restoring
  /// needs a catalog that can resolve the fingerprint — the serve layer
  /// spills this way so evicted sessions share the catalog's dataset and
  /// condition pool on restore instead of rebuilding private copies.
  kDatasetRef,
};

/// \brief A durable, resumable iterative mining session.
class MiningSession {
 public:
  /// Builds a session taking ownership of `dataset` (moved in). Fails when
  /// the dataset is inconsistent or the prior covariance is not SPD.
  static Result<MiningSession> Create(data::Dataset dataset,
                                      MinerConfig config);

  /// Builds a session sharing ownership of `dataset` (must be non-null).
  static Result<MiningSession> Create(
      std::shared_ptr<const data::Dataset> dataset, MinerConfig config);

  /// Builds a session over a catalog-shared dataset and a prebuilt shared
  /// condition pool (must match the dataset and `config.search`'s
  /// num_split_points / include_exclusions — the catalog's `PoolFor`
  /// guarantees this). The session records `origin` so `SaveToString`
  /// with `SnapshotForm::kDatasetRef` can address the dataset by
  /// fingerprint instead of embedding it. This is how the serve layer
  /// opens sessions: the marginal cost per extra session on one dataset is
  /// the model state only — no dataset copy, no pool build.
  static Result<MiningSession> Create(
      std::shared_ptr<const data::Dataset> dataset, MinerConfig config,
      std::shared_ptr<const search::ConditionPool> pool,
      std::optional<catalog::DatasetRef> origin);

  /// Runs one mining iteration and assimilates what it finds.
  Result<IterationResult> MineNext();

  /// Runs `count` iterations, stopping early on search failure.
  Result<std::vector<IterationResult>> MineIterations(int count);

  /// Extends the session's subgroup list by up to `max_rules` greedily
  /// chosen rules (SSD++-style; search/list_miner.hpp). The list persists
  /// across calls — each call continues where the last stopped — and is
  /// independent of the iterative dialogue: `MineNext` evolves the
  /// background model, `MineList` routes rows to per-rule local models
  /// with the dataset marginal as the default rule. A call that appends at
  /// least one rule is recorded in `list_history()`; a call that appends
  /// none returns `exhausted` without changing any session state.
  Result<ListMineResult> MineList(int max_rules);

  /// Assimilates an analyst-chosen intention without searching: scores it
  /// as a location pattern under the current model, registers the location
  /// constraint (plus the best spread pattern when the config mixes them —
  /// exactly what `MineNext` does after its search), and appends the
  /// result to the history (`candidates_evaluated` stays 0, the ranked
  /// list holds just this pattern). This is the paper's "analyst tells the
  /// system what they know" step when the knowledge did not come from the
  /// search. Fails when the intention matches no rows.
  Result<IterationResult> AssimilateIntention(
      const pattern::Intention& intention);

  /// Moves the session onto `dataset`, a row-appended version of its
  /// current dataset (same description schema and target names, at least
  /// as many rows), without refitting from a cold start: the background
  /// model's prior is recomputed on the grown targets and every
  /// assimilated constraint is replayed through the same model updates
  /// `AssimilateIntention` uses, so the rebased state is bit-identical to
  /// a fresh session on `dataset` that assimilated the same history —
  /// that equivalence is the determinism contract `rebase_test` checks.
  /// The iteration history is rewritten in assimilate form (candidates 0,
  /// ranked = the replayed pattern) and subgroup-list rules are
  /// re-derived on the grown rows; `origin` becomes the new catalog
  /// origin (the previous origin is recorded in `version_chain()`).
  /// `pool` must match `dataset` and the session's search config — on
  /// catalog appends, `DatasetCatalog::Append` has already refreshed it
  /// incrementally. Strong exception safety: on any error the session is
  /// unchanged.
  Result<RebaseOutcome> Rebase(
      std::shared_ptr<const data::Dataset> dataset,
      std::shared_ptr<const search::ConditionPool> pool,
      std::optional<catalog::DatasetRef> origin);

  /// The datasets this session mined before each `Rebase`, oldest first
  /// (empty for never-rebased sessions). Serialized only in
  /// `SnapshotForm::kDatasetRef` snapshots (additive `version_chain`
  /// field) — inline snapshots are self-contained and unchanged.
  const std::vector<SessionVersionLink>& version_chain() const {
    return version_chain_;
  }

  /// Deep-copies the session (dataset shared, model/constraints/history
  /// copied): the copy mines independently and byte-identically to the
  /// original from this point. Used by the serve layer for consistent
  /// read-only work while the original keeps mining.
  MiningSession Clone() const { return MiningSession(*this); }

  /// \name Persistence.
  /// @{

  /// Serializes the session's inputs (dataset, config, history) as
  /// versioned JSON text. Deterministic: the same session always produces
  /// the same bytes. `form` selects how the dataset is stored (inline by
  /// default; see `SnapshotForm`).
  std::string SaveToString(
      SnapshotForm form = SnapshotForm::kInlineDataset) const;

  /// Writes `SaveToString()` to `path`.
  Status Save(const std::string& path) const;

  /// Rebuilds a session from snapshot text: validates format tag and schema
  /// version, restores the dataset, builds the initial model as `Create`
  /// does and replays the history through the model updates `MineNext`
  /// made, and re-derives the list rules from their intentions. A history
  /// field that does not fit the dataset or does not replay, or (version
  /// 1) a stored model, extension, mean or rule field that differs from
  /// the rebuilt one, fails with InvalidArgument.
  ///
  /// With a `catalog`:
  ///  - `dataset_ref` snapshots resolve their dataset through it (without a
  ///    catalog they fail with InvalidArgument — the data is not in the
  ///    snapshot);
  ///  - inline snapshots whose dataset fingerprint matches a catalog entry
  ///    adopt the catalog's shared instance and memoized condition pool
  ///    instead of keeping the decoded private copy — restore then skips
  ///    pool construction entirely.
  /// Mining output is byte-identical in all cases.
  static Result<MiningSession> RestoreFromString(
      const std::string& text, catalog::DatasetCatalog* catalog = nullptr);

  /// Reads and restores a snapshot file.
  static Result<MiningSession> Restore(
      const std::string& path, catalog::DatasetCatalog* catalog = nullptr);

  /// @}

  /// The current background model.
  const model::BackgroundModel& model() const {
    return assimilator_.model();
  }

  /// The assimilator (constraint registry).
  const model::PatternAssimilator& assimilator() const {
    return assimilator_;
  }

  /// Mutable assimilator access, e.g. for refit timing studies. The history
  /// is the model's log: a restore replays it, so state changed through
  /// this accessor is not saved.
  model::PatternAssimilator* mutable_assimilator() { return &assimilator_; }

  /// Scores an arbitrary intention as a location pattern under the *current*
  /// model (used to track SI of earlier patterns across iterations, as in
  /// Table I). Fails on empty extensions.
  Result<ScoredLocationPattern> ScoreIntention(
      const pattern::Intention& intention) const;

  /// Finds the best spread direction for a given subgroup under the current
  /// model (without assimilating anything). Fails with `NumericalError`
  /// when no direction is feasible or the reported IC is not finite.
  Result<ScoredSpreadPattern> FindSpreadPattern(
      const pattern::Subgroup& subgroup) const;

  /// The dataset being mined.
  const data::Dataset& dataset() const { return *dataset_; }

  /// Shared ownership handle to the dataset.
  const std::shared_ptr<const data::Dataset>& shared_dataset() const {
    return dataset_;
  }

  /// The session configuration.
  const MinerConfig& config() const { return config_; }

  /// The condition pool (for diagnostics and ablation benches).
  const search::ConditionPool& condition_pool() const { return *pool_; }

  /// Shared ownership handle to the (immutable) condition pool. Sessions
  /// opened through a catalog share one instance per
  /// (dataset, num_splits, include_exclusions).
  const std::shared_ptr<const search::ConditionPool>& shared_condition_pool()
      const {
    return pool_;
  }

  /// Where the dataset came from when the session was opened through a
  /// catalog (or restored through one that knew the dataset); empty for
  /// sessions owning a private copy. Drives the `dataset_ref` snapshot
  /// form.
  const std::optional<catalog::DatasetRef>& dataset_origin() const {
    return origin_;
  }

  /// History of all iterations run so far (restored sessions carry the
  /// full history of the saved session).
  const std::vector<IterationResult>& history() const { return history_; }

  /// History of all `MineList` calls that appended rules (the second
  /// snapshot history type; additive `list_history` field).
  const std::vector<ListMineResult>& list_history() const {
    return list_history_;
  }

  /// The session's current subgroup list; null until the first `MineList`
  /// call (or restore of a snapshot with list history).
  const search::SubgroupList* subgroup_list() const {
    return list_.has_value() ? &*list_ : nullptr;
  }

  /// \name Runtime attachments and activity tracking (not serialized).
  /// @{

  /// Attaches a shared worker pool: `MineNext` scores through it instead
  /// of spinning up a per-search pool. Null detaches (back to per-call
  /// pools). The pool must outlive the session's mining calls; results are
  /// bit-identical with or without it.
  void set_thread_pool(std::shared_ptr<search::ThreadPool> pool) {
    thread_pool_ = std::move(pool);
  }

  /// The attached shared pool (null when none).
  const std::shared_ptr<search::ThreadPool>& thread_pool() const {
    return thread_pool_;
  }

  /// When the session last mutated (created, restored, mined or
  /// assimilated). Monotonic-clock based; not part of the snapshot.
  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

  /// Seconds since `last_activity()`. Diagnostic/ops surface for session
  /// owners (e.g. a wall-clock idle-expiry policy layered on top); note
  /// the serve layer's LRU deliberately ranks coldness by a *logical*
  /// touch clock instead, so its behaviour stays reproducible.
  double IdleSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         last_activity_)
        .count();
  }

  /// @}

 private:
  MiningSession(std::shared_ptr<const data::Dataset> dataset,
                MinerConfig config,
                std::shared_ptr<const search::ConditionPool> pool,
                model::PatternAssimilator assimilator,
                std::optional<catalog::DatasetRef> origin)
      : dataset_(std::move(dataset)),
        config_(std::move(config)),
        pool_(std::move(pool)),
        assimilator_(std::move(assimilator)),
        origin_(std::move(origin)) {}

  /// Stamps `last_activity_` now.
  void Touch() { last_activity_ = std::chrono::steady_clock::now(); }

  /// Finds + assimilates the spread pattern for `iteration`'s location
  /// subgroup (no-op for location-only configs). Never fails the
  /// iteration: the location constraint is already assimilated when this
  /// runs, so errors land in `iteration->spread_error` instead.
  void AttachSpreadPattern(IterationResult* iteration);

  std::shared_ptr<const data::Dataset> dataset_;
  MinerConfig config_;
  /// Never null; shared with the catalog's artifact cache for
  /// catalog-opened sessions, privately owned otherwise. Immutable either
  /// way, so sharing is safe across threads and clones.
  std::shared_ptr<const search::ConditionPool> pool_;
  model::PatternAssimilator assimilator_;
  std::optional<catalog::DatasetRef> origin_;
  /// Dataset lineage across rebases, oldest first (see `version_chain()`).
  std::vector<SessionVersionLink> version_chain_;
  std::vector<IterationResult> history_;
  /// Current subgroup list (absent until list mining starts). Rebuilt on
  /// restore by replaying `list_history_`'s rules — integer bitset ops and
  /// stored doubles, so the rebuilt state is bit-identical.
  std::optional<search::SubgroupList> list_;
  std::vector<ListMineResult> list_history_;
  std::shared_ptr<search::ThreadPool> thread_pool_;
  std::chrono::steady_clock::time_point last_activity_ =
      std::chrono::steady_clock::now();
};

}  // namespace sisd::core

#endif  // SISD_CORE_SESSION_HPP_

#include "core/session.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/strings.hpp"
#include "core/session_io.hpp"
#include "search/optimal_search.hpp"
#include "search/si_evaluator.hpp"
#include "serialize/snapshot.hpp"

namespace sisd::core {

using serialize::JsonValue;

std::string ScoredLocationPattern::Describe(
    const data::DataTable& table) const {
  return StrFormat("%s (n=%zu, IC=%.2f, DL=%.2f, SI=%.2f)",
                   pattern.subgroup.intention.ToString(table).c_str(),
                   pattern.subgroup.Coverage(), score.ic, score.dl, score.si);
}

std::string ScoredSpreadPattern::Describe(const data::DataTable& table) const {
  return StrFormat("%s along w=%s (var=%.4g, IC=%.2f, DL=%.2f, SI=%.2f)",
                   pattern.subgroup.intention.ToString(table).c_str(),
                   pattern.direction.ToString().c_str(), pattern.variance,
                   score.ic, score.dl, score.si);
}

Result<MiningSession> MiningSession::Create(data::Dataset dataset,
                                            MinerConfig config) {
  return Create(std::make_shared<const data::Dataset>(std::move(dataset)),
                std::move(config));
}

Result<MiningSession> MiningSession::Create(
    std::shared_ptr<const data::Dataset> dataset, MinerConfig config) {
  SISD_RETURN_NOT_OK(ValidateMinerConfig(config));
  std::shared_ptr<const search::ConditionPool> pool;
  if (dataset != nullptr) {
    pool = std::make_shared<const search::ConditionPool>(
        search::ConditionPool::Build(dataset->descriptions,
                                     config.search.num_split_points,
                                     config.search.include_exclusions));
  }
  return Create(std::move(dataset), std::move(config), std::move(pool),
                std::nullopt);
}

Result<MiningSession> MiningSession::Create(
    std::shared_ptr<const data::Dataset> dataset, MinerConfig config,
    std::shared_ptr<const search::ConditionPool> pool,
    std::optional<catalog::DatasetRef> origin) {
  SISD_RETURN_NOT_OK(ValidateMinerConfig(config));
  if (!dataset) {
    return Status::InvalidArgument("session needs a non-null dataset");
  }
  if (!pool) {
    return Status::InvalidArgument("session needs a non-null condition pool");
  }
  SISD_RETURN_NOT_OK(dataset->Validate());
  if (dataset->num_rows() < 2) {
    return Status::InvalidArgument("dataset needs at least two rows");
  }

  Result<model::BackgroundModel> model =
      (config.prior_mean.has_value() && config.prior_covariance.has_value())
          ? model::BackgroundModel::Create(dataset->num_rows(),
                                           *config.prior_mean,
                                           *config.prior_covariance)
          : model::BackgroundModel::CreateFromData(dataset->targets,
                                                   config.prior_ridge);
  if (!model.ok()) return model.status();

  model::PatternAssimilator assimilator(std::move(model).MoveValue());
  return MiningSession(std::move(dataset), std::move(config),
                       std::move(pool), std::move(assimilator),
                       std::move(origin));
}

Result<IterationResult> MiningSession::MineNext() {
  // One batch evaluator per iteration, bound to the current model snapshot:
  // beam search scores candidate batches through it (in parallel when
  // configured), and the final top-k is rescored through the same warmed
  // contexts instead of re-running `si::ScoreLocation` from scratch.
  search::SiLocationEvaluator evaluator(assimilator_.model(),
                                        dataset_->targets, config_.dl);
  search::SearchResult search_result;
  if (config_.use_optimal_search) {
    search::OptimalResult optimal_result = search::OptimalLocationSearch(
        dataset_->descriptions, *pool_, assimilator_.model(),
        dataset_->targets, config_.dl,
        search::OptimalConfigFor(config_.search), thread_pool_.get());
    search_result.num_evaluated = optimal_result.num_evaluated;
    search_result.hit_time_budget = !optimal_result.completed;
    if (!optimal_result.best.intention.empty()) {
      search_result.top.push_back(std::move(optimal_result.best));
    }
  } else {
    search_result =
        search::BeamSearch(dataset_->descriptions, *pool_, config_.search,
                           evaluator, thread_pool_.get());
  }
  if (search_result.top.empty()) {
    return Status::NotFound(
        "search found no subgroup satisfying the constraints");
  }

  IterationResult iteration;
  iteration.candidates_evaluated = search_result.num_evaluated;
  iteration.hit_time_budget = search_result.hit_time_budget;

  for (const search::ScoredSubgroup& scored : search_result.top) {
    pattern::Subgroup subgroup;
    subgroup.intention = scored.intention;
    subgroup.extension = scored.extension;
    ScoredLocationPattern entry;
    entry.pattern =
        pattern::LocationPattern::Compute(std::move(subgroup),
                                          dataset_->targets);
    entry.score = evaluator.ScoreSubgroup(
        entry.pattern.subgroup.extension, entry.pattern.mean,
        entry.pattern.subgroup.intention.size());
    iteration.ranked.push_back(std::move(entry));
  }
  iteration.location = iteration.ranked.front();

  // Assimilate the location pattern (Theorem 1).
  SISD_RETURN_NOT_OK(assimilator_.AddLocationPattern(
      iteration.location.pattern.subgroup.extension,
      iteration.location.pattern.mean));

  // Spread step (Theorem 2). The location constraint above is already in
  // the model, so a spread failure must not abort the iteration: it is
  // recorded location-only with the reason in `spread_error`, keeping
  // history and generation in sync with the mutated model.
  AttachSpreadPattern(&iteration);

  history_.push_back(iteration);
  Touch();
  return iteration;
}

void MiningSession::AttachSpreadPattern(IterationResult* iteration) {
  if (config_.mix != PatternMix::kLocationAndSpread ||
      dataset_->num_targets() < 1) {
    return;
  }
  Result<ScoredSpreadPattern> spread =
      FindSpreadPattern(iteration->location.pattern.subgroup);
  if (!spread.ok()) {
    iteration->spread_error = spread.status().ToString();
    return;
  }
  const Status added = assimilator_.AddSpreadPattern(
      spread.Value().pattern.subgroup.extension,
      spread.Value().pattern.direction, iteration->location.pattern.mean,
      spread.Value().pattern.variance);
  if (!added.ok()) {
    iteration->spread_error = added.ToString();
    return;
  }
  iteration->spread = std::move(spread).MoveValue();
}

Result<IterationResult> MiningSession::AssimilateIntention(
    const pattern::Intention& intention) {
  SISD_ASSIGN_OR_RETURN(scored, ScoreIntention(intention));

  IterationResult iteration;
  iteration.candidates_evaluated = 0;
  iteration.ranked.push_back(scored);
  iteration.location = std::move(scored);

  SISD_RETURN_NOT_OK(assimilator_.AddLocationPattern(
      iteration.location.pattern.subgroup.extension,
      iteration.location.pattern.mean));

  AttachSpreadPattern(&iteration);

  history_.push_back(iteration);
  Touch();
  return iteration;
}

Result<ListMineResult> MiningSession::MineList(int max_rules) {
  if (max_rules < 1) {
    return Status::InvalidArgument("max_rules must be >= 1");
  }
  if (!list_.has_value()) {
    list_ = search::MakeEmptySubgroupList(dataset_->targets,
                                          config_.list_gain);
  }
  search::ListSearchConfig list_config;
  list_config.search = config_.search;
  list_config.gain = config_.list_gain;
  list_config.max_rules = max_rules;
  list_config.min_captured =
      std::max<size_t>(size_t{1}, config_.search.min_coverage);

  const size_t rules_before = list_->rules.size();
  const search::ListMineStats stats = search::ExtendSubgroupList(
      dataset_->descriptions, dataset_->targets, *pool_, list_config,
      &*list_, thread_pool_.get());

  ListMineResult result;
  result.rules.assign(list_->rules.begin() +
                          static_cast<ptrdiff_t>(rules_before),
                      list_->rules.end());
  result.total_gain = list_->total_gain;
  result.candidates_evaluated = stats.num_evaluated;
  result.exhausted = stats.exhausted;
  result.hit_time_budget = stats.hit_time_budget;
  // A call that appended nothing left the list untouched; it is not
  // history (so snapshots, replays and serve generations stay in sync
  // with actual state changes).
  if (!result.rules.empty()) {
    list_history_.push_back(result);
  }
  Touch();
  return result;
}

Result<RebaseOutcome> MiningSession::Rebase(
    std::shared_ptr<const data::Dataset> dataset,
    std::shared_ptr<const search::ConditionPool> pool,
    std::optional<catalog::DatasetRef> origin) {
  if (!dataset) {
    return Status::InvalidArgument("rebase needs a non-null dataset");
  }
  if (!pool) {
    return Status::InvalidArgument("rebase needs a non-null condition pool");
  }
  SISD_RETURN_NOT_OK(dataset->Validate());
  if (dataset->num_rows() < dataset_->num_rows()) {
    return Status::InvalidArgument(StrFormat(
        "rebase target has %zu rows, fewer than the session's %zu — only "
        "row-appended versions are valid targets",
        dataset->num_rows(), dataset_->num_rows()));
  }
  if (dataset->target_names != dataset_->target_names) {
    return Status::InvalidArgument("rebase cannot change the target space");
  }
  if (dataset->num_descriptions() != dataset_->num_descriptions()) {
    return Status::InvalidArgument(
        "rebase cannot change the description schema");
  }
  for (size_t j = 0; j < dataset_->num_descriptions(); ++j) {
    const data::Column& old_col = dataset_->descriptions.column(j);
    const data::Column& new_col = dataset->descriptions.column(j);
    if (old_col.name() != new_col.name() ||
        old_col.kind() != new_col.kind()) {
      return Status::InvalidArgument(
          "rebase cannot change the description schema (column '" +
          old_col.name() + "' differs)");
    }
  }

  RebaseOutcome outcome;
  outcome.appended_rows = dataset->num_rows() - dataset_->num_rows();

  // Build the rebased state fully on the side, then swap it in — any
  // failure below leaves *this untouched. The fresh prior is recomputed
  // from the grown targets (cheap two-pass moments); the constraint
  // registry is then rebuilt by replaying each assimilated intention,
  // which runs the same rank-one factorization updates a live
  // `AssimilateIntention` call would — so the result is bit-identical to
  // a fresh session on `dataset` fed the same history.
  SISD_ASSIGN_OR_RETURN(fresh,
                        Create(dataset, config_, pool, std::move(origin)));
  fresh.thread_pool_ = thread_pool_;
  fresh.version_chain_ = version_chain_;
  {
    SessionVersionLink link;
    link.fingerprint = origin_.has_value() ? origin_->fingerprint : 0;
    link.name = origin_.has_value() ? origin_->name : dataset_->name;
    link.rows = dataset_->num_rows();
    fresh.version_chain_.push_back(std::move(link));
  }
  for (const IterationResult& iteration : history_) {
    Result<IterationResult> replayed = fresh.AssimilateIntention(
        iteration.location.pattern.subgroup.intention);
    if (!replayed.ok()) return replayed.status();
    ++outcome.replayed_iterations;
  }
  // Subgroup-list rules are re-derived on the grown rows: extensions
  // re-evaluated, local models refitted, gains rescored against the grown
  // default model — exactly what the miner would have recorded had it
  // appended these intentions on the new data.
  for (const ListMineResult& saved : list_history_) {
    if (!fresh.list_.has_value()) {
      fresh.list_ = search::MakeEmptySubgroupList(fresh.dataset_->targets,
                                                  fresh.config_.list_gain);
    }
    ListMineResult rewritten;
    rewritten.candidates_evaluated = saved.candidates_evaluated;
    rewritten.exhausted = saved.exhausted;
    rewritten.hit_time_budget = saved.hit_time_budget;
    for (const search::SubgroupRule& rule : saved.rules) {
      Result<search::SubgroupRule> rederived = search::RederiveSubgroupRule(
          fresh.dataset_->descriptions, fresh.dataset_->targets,
          fresh.config_.list_gain, rule.intention, *fresh.list_);
      if (!rederived.ok()) return rederived.status();
      rewritten.rules.push_back(rederived.Value());
      search::ReplaySubgroupRule(std::move(rederived).MoveValue(),
                                 &*fresh.list_);
      ++outcome.replayed_rules;
    }
    rewritten.total_gain = fresh.list_->total_gain;
    fresh.list_history_.push_back(std::move(rewritten));
  }
  *this = std::move(fresh);
  Touch();
  return outcome;
}

Result<std::vector<IterationResult>> MiningSession::MineIterations(
    int count) {
  std::vector<IterationResult> results;
  results.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    SISD_ASSIGN_OR_RETURN(iteration, MineNext());
    results.push_back(std::move(iteration));
  }
  return results;
}

Result<ScoredLocationPattern> MiningSession::ScoreIntention(
    const pattern::Intention& intention) const {
  pattern::Subgroup subgroup =
      pattern::Subgroup::FromIntention(dataset_->descriptions, intention);
  if (subgroup.extension.empty()) {
    return Status::InvalidArgument("intention matches no rows");
  }
  ScoredLocationPattern out;
  out.pattern =
      pattern::LocationPattern::Compute(std::move(subgroup),
                                        dataset_->targets);
  out.score = si::ScoreLocation(assimilator_.model(),
                                out.pattern.subgroup.extension,
                                out.pattern.mean,
                                out.pattern.subgroup.intention.size(),
                                config_.dl);
  return out;
}

Result<ScoredSpreadPattern> MiningSession::ScoreSpreadForIntention(
    const pattern::Intention& intention, const linalg::Vector& w) const {
  pattern::Subgroup subgroup =
      pattern::Subgroup::FromIntention(dataset_->descriptions, intention);
  if (subgroup.extension.empty()) {
    return Status::InvalidArgument("intention matches no rows");
  }
  ScoredSpreadPattern out;
  out.pattern =
      pattern::SpreadPattern::Compute(std::move(subgroup), dataset_->targets,
                                      w);
  out.score = si::ScoreSpread(assimilator_.model(),
                              out.pattern.subgroup.extension,
                              out.pattern.direction, out.pattern.variance,
                              out.pattern.subgroup.intention.size(),
                              config_.dl);
  return out;
}

Result<ScoredSpreadPattern> MiningSession::FindSpreadPattern(
    const pattern::Subgroup& subgroup) const {
  if (subgroup.extension.empty()) {
    return Status::InvalidArgument("subgroup has empty extension");
  }
  optimize::SpreadObjective objective(assimilator_.model(),
                                      subgroup.extension, dataset_->targets);
  optimize::SphereOptimum optimum;
  if (config_.spread_sparsity == 2 && dataset_->num_targets() >= 2) {
    optimum = optimize::MaximizePairSparse(objective, nullptr);
  } else {
    optimum = optimize::MaximizeOnSphere(objective, config_.spread_optimizer);
  }

  ScoredSpreadPattern out;
  out.pattern = pattern::SpreadPattern::Compute(subgroup, dataset_->targets,
                                                optimum.direction);
  out.score = si::ScoreSpread(assimilator_.model(), subgroup.extension,
                              out.pattern.direction, out.pattern.variance,
                              subgroup.intention.size(), config_.dl);
  return out;
}

std::string MiningSession::SaveToString(SnapshotForm form) const {
  JsonValue out = JsonValue::Object();
  out.Set("format", JsonValue::Str(kSessionFormatTag));
  out.Set("schema_version", JsonValue::Int(kSessionSchemaVersion));
  if (form == SnapshotForm::kDatasetRef && origin_.has_value()) {
    // Additive schema: `dataset_ref` replaces `dataset` for sessions with
    // a catalog origin; everything else is unchanged. A session without an
    // origin has no catalog to point at, so it falls back to inline.
    out.Set("dataset_ref", EncodeDatasetRef(*origin_));
    // Additive field: the pre-rebase dataset lineage. Written only for
    // rebased sessions in ref form, so never-rebased snapshots (and all
    // inline ones) keep their exact historical bytes.
    if (!version_chain_.empty()) {
      JsonValue chain = JsonValue::Array();
      for (const SessionVersionLink& link : version_chain_) {
        chain.Append(EncodeVersionLink(link));
      }
      out.Set("version_chain", std::move(chain));
    }
  } else {
    out.Set("dataset", JsonValue::Verbatim(
                           serialize::EncodeDatasetText(*dataset_)));
  }
  out.Set("config", EncodeMinerConfig(config_));
  out.Set("assimilator", serialize::EncodeAssimilator(assimilator_));
  JsonValue history = JsonValue::Array();
  for (const IterationResult& iteration : history_) {
    history.Append(EncodeIterationResult(iteration));
  }
  out.Set("history", std::move(history));
  // Additive schema field: written only when list mining happened, so
  // sessions that never called MineList keep their exact historical bytes
  // (same policy as `spread_error` above and `use_optimal_search` in the
  // config codec).
  if (!list_history_.empty()) {
    JsonValue list_history = JsonValue::Array();
    for (const ListMineResult& entry : list_history_) {
      list_history.Append(EncodeListMineResult(entry));
    }
    out.Set("list_history", std::move(list_history));
  }
  return out.Write();
}

Status MiningSession::Save(const std::string& path) const {
  return serialize::WriteTextFile(path, SaveToString());
}

Result<MiningSession> MiningSession::RestoreFromString(
    const std::string& text, catalog::DatasetCatalog* catalog) {
  SISD_ASSIGN_OR_RETURN(root, JsonValue::Parse(text));
  SISD_ASSIGN_OR_RETURN(format_json, root.Get("format"));
  SISD_ASSIGN_OR_RETURN(format, format_json->GetString());
  if (format != kSessionFormatTag) {
    return Status::InvalidArgument("not a sisd session snapshot (format '" +
                                   format + "')");
  }
  SISD_ASSIGN_OR_RETURN(version_json, root.Get("schema_version"));
  SISD_ASSIGN_OR_RETURN(version, version_json->GetInt());
  if (version != kSessionSchemaVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported session schema version %lld (expected %lld)",
                  static_cast<long long>(version),
                  static_cast<long long>(kSessionSchemaVersion)));
  }

  SISD_ASSIGN_OR_RETURN(config_json, root.Get("config"));
  SISD_ASSIGN_OR_RETURN(config, DecodeMinerConfig(*config_json));

  // The dataset is stored inline (self-contained snapshot) or as a
  // `dataset_ref` the catalog resolves; a catalog also lets an inline
  // snapshot adopt the shared instance when the content fingerprint
  // matches a registered dataset.
  const JsonValue* dataset_json = root.Find("dataset");
  const JsonValue* ref_json = root.Find("dataset_ref");
  if ((dataset_json != nullptr) == (ref_json != nullptr)) {
    return Status::InvalidArgument(
        "snapshot must store exactly one of 'dataset' and 'dataset_ref'");
  }
  std::shared_ptr<const data::Dataset> shared_dataset;
  std::optional<catalog::DatasetRef> origin;
  if (ref_json != nullptr) {
    SISD_ASSIGN_OR_RETURN(ref, DecodeDatasetRef(*ref_json));
    if (catalog == nullptr) {
      return Status::InvalidArgument(
          "snapshot stores dataset_ref {fingerprint: " +
          catalog::FingerprintToHex(ref.fingerprint) + ", name: '" +
          ref.name + "'} but no catalog was given to resolve it");
    }
    SISD_ASSIGN_OR_RETURN(pinned, catalog->Resolve(ref, /*pin=*/false));
    shared_dataset = pinned.dataset;
    origin = pinned.ref();
  } else {
    SISD_ASSIGN_OR_RETURN(dataset, serialize::DecodeDataset(*dataset_json));
    if (catalog != nullptr) {
      // Verified content match: a fingerprint collision reads as "not in
      // the catalog" and keeps the private decoded copy.
      Result<catalog::PinnedDataset> known =
          catalog->MatchContent(dataset, /*pin=*/false);
      if (known.ok()) {
        // Same content already registered: share it (and its pool below)
        // instead of keeping the private decoded copy.
        shared_dataset = known.Value().dataset;
        origin = known.Value().ref();
      }
    }
    if (shared_dataset == nullptr) {
      shared_dataset =
          std::make_shared<const data::Dataset>(std::move(dataset));
    }
  }

  std::vector<SessionVersionLink> version_chain;
  if (const JsonValue* chain_json = root.Find("version_chain")) {
    if (!chain_json->is_array()) {
      return Status::InvalidArgument("version_chain must be an array");
    }
    version_chain.reserve(chain_json->size());
    for (const JsonValue& entry : chain_json->items()) {
      SISD_ASSIGN_OR_RETURN(link, DecodeVersionLink(entry));
      version_chain.push_back(std::move(link));
    }
  }

  SISD_ASSIGN_OR_RETURN(assimilator_json, root.Get("assimilator"));
  SISD_ASSIGN_OR_RETURN(assimilator,
                        serialize::DecodeAssimilator(*assimilator_json));
  if (assimilator.model().num_rows() != shared_dataset->num_rows() ||
      assimilator.model().dim() != shared_dataset->num_targets()) {
    return Status::InvalidArgument(
        "snapshot model shape disagrees with its dataset");
  }

  // Derived state is rebuilt or fetched, never stored: the condition pool
  // is a pure function of (descriptions, num_split_points,
  // include_exclusions) — catalog-known datasets reuse the memoized shared
  // pool and skip construction entirely — and per-group factorization
  // caches came back with the model (only caches that were cold at save
  // time are recomputed lazily).
  std::shared_ptr<const search::ConditionPool> pool;
  if (origin.has_value() && catalog != nullptr) {
    catalog::PinnedDataset pinned;
    pinned.dataset = shared_dataset;
    pinned.fingerprint = origin->fingerprint;
    pool = catalog->PoolFor(pinned, config.search.num_split_points,
                            config.search.include_exclusions);
  } else {
    pool = std::make_shared<const search::ConditionPool>(
        search::ConditionPool::Build(shared_dataset->descriptions,
                                     config.search.num_split_points,
                                     config.search.include_exclusions));
  }
  MiningSession session(std::move(shared_dataset), std::move(config),
                        std::move(pool), std::move(assimilator),
                        std::move(origin));
  session.version_chain_ = std::move(version_chain);

  SISD_ASSIGN_OR_RETURN(history_json, root.Get("history"));
  if (!history_json->is_array()) {
    return Status::InvalidArgument("session history must be an array");
  }
  session.history_.reserve(history_json->size());
  for (const JsonValue& entry : history_json->items()) {
    SISD_ASSIGN_OR_RETURN(iteration, DecodeIterationResult(entry));
    session.history_.push_back(std::move(iteration));
  }

  // Additive field: the subgroup-list history. The current list is derived
  // state — rebuilt by replaying the saved rules in order (integer bitset
  // ops plus stored doubles) onto a freshly fitted default model, which is
  // a deterministic function of the targets. The rebuilt list therefore
  // continues mining bit-identically to the saved one.
  if (const JsonValue* list_history_json = root.Find("list_history")) {
    if (!list_history_json->is_array()) {
      return Status::InvalidArgument("session list_history must be an array");
    }
    session.list_history_.reserve(list_history_json->size());
    for (const JsonValue& entry : list_history_json->items()) {
      SISD_ASSIGN_OR_RETURN(list_result, DecodeListMineResult(entry));
      session.list_history_.push_back(std::move(list_result));
    }
    if (!session.list_history_.empty()) {
      session.list_ = search::MakeEmptySubgroupList(
          session.dataset_->targets, session.config_.list_gain);
      const size_t num_rows = session.dataset_->num_rows();
      for (const ListMineResult& entry : session.list_history_) {
        for (const search::SubgroupRule& rule : entry.rules) {
          if (rule.extension.universe_size() != num_rows) {
            return Status::InvalidArgument(
                "list rule extension universe disagrees with the dataset");
          }
          search::ReplaySubgroupRule(rule, &*session.list_);
        }
      }
    }
  }
  return session;
}

Result<MiningSession> MiningSession::Restore(
    const std::string& path, catalog::DatasetCatalog* catalog) {
  SISD_ASSIGN_OR_RETURN(text, serialize::ReadTextFile(path));
  return RestoreFromString(text, catalog);
}

}  // namespace sisd::core

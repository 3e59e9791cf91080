#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/strings.hpp"
#include "search/si_evaluator.hpp"

namespace sisd::core {

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
      config.prior_mean.has_value()
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
  search::SearchResult search_result =
      search::BeamSearch(dataset_->descriptions, *pool_, config_.search,
                         evaluator, thread_pool_.get());
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
  // which runs the same model updates a live `AssimilateIntention` call
  // would — so the result is bit-identical to a fresh session on
  // `dataset` fed the same history.
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
  if (!std::isfinite(optimum.value)) {
    return Status::NumericalError(
        "no spread direction has a variance inside the IC's support");
  }

  ScoredSpreadPattern out;
  out.pattern = pattern::SpreadPattern::Compute(subgroup, dataset_->targets,
                                                optimum.direction);
  out.score = si::ScoreSpread(assimilator_.model(), subgroup.extension,
                              out.pattern.direction, out.pattern.variance,
                              subgroup.intention.size(), config_.dl);
  if (!std::isfinite(out.score.ic)) {
    return Status::NumericalError("spread pattern IC is not finite");
  }
  return out;
}

}  // namespace sisd::core

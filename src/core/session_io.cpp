#include "core/session_io.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include "common/strings.hpp"
#include "serialize/snapshot.hpp"

namespace sisd::core {

using serialize::JsonValue;
using serialize::ReadField;

namespace {

JsonValue EncodeSearchConfig(const search::SearchConfig& config) {
  JsonValue out = JsonValue::Object();
  out.Set("beam_width", JsonValue::Int(config.beam_width));
  out.Set("max_depth", JsonValue::Int(config.max_depth));
  out.Set("num_split_points", JsonValue::Int(config.num_split_points));
  out.Set("include_exclusions", JsonValue::Bool(config.include_exclusions));
  out.Set("top_k", JsonValue::Int(int64_t(config.top_k)));
  out.Set("min_coverage", JsonValue::Int(int64_t(config.min_coverage)));
  out.Set("max_coverage_fraction",
          JsonValue::Double(config.max_coverage_fraction));
  out.Set("time_budget_seconds",
          JsonValue::Double(config.time_budget_seconds));
  out.Set("num_threads", JsonValue::Int(config.num_threads));
  return out;
}

Result<search::SearchConfig> DecodeSearchConfig(const JsonValue& json) {
  search::SearchConfig out;
  SISD_RETURN_NOT_OK(ReadField(json, "beam_width", &out.beam_width));
  SISD_RETURN_NOT_OK(ReadField(json, "max_depth", &out.max_depth));
  SISD_RETURN_NOT_OK(
      ReadField(json, "num_split_points", &out.num_split_points));
  // Additive schema field. Snapshots written before the flag existed came
  // from builds whose pool unconditionally emitted != exclusions, so an
  // absent field must decode to `true` — otherwise a restored session
  // would mine over a smaller alphabet than the session that saved it,
  // breaking the byte-identical-resume guarantee. New snapshots always
  // carry the field (false by default: the paper's Cortana alphabet).
  out.include_exclusions = true;
  if (const JsonValue* exclusions = json.Find("include_exclusions")) {
    SISD_ASSIGN_OR_RETURN(v, exclusions->GetBool());
    out.include_exclusions = v;
  }
  SISD_RETURN_NOT_OK(ReadField(json, "top_k", &out.top_k));
  SISD_RETURN_NOT_OK(ReadField(json, "min_coverage", &out.min_coverage));
  SISD_RETURN_NOT_OK(
      ReadField(json, "max_coverage_fraction", &out.max_coverage_fraction));
  SISD_RETURN_NOT_OK(
      ReadField(json, "time_budget_seconds", &out.time_budget_seconds));
  SISD_RETURN_NOT_OK(ReadField(json, "num_threads", &out.num_threads));
  return out;
}

JsonValue EncodeOptimizerConfig(
    const optimize::SphereOptimizerConfig& config) {
  JsonValue out = JsonValue::Object();
  out.Set("max_iterations", JsonValue::Int(config.max_iterations));
  out.Set("max_backtracks", JsonValue::Int(config.max_backtracks));
  out.Set("gradient_tolerance",
          JsonValue::Double(config.gradient_tolerance));
  out.Set("armijo_c1", JsonValue::Double(config.armijo_c1));
  out.Set("initial_step", JsonValue::Double(config.initial_step));
  out.Set("num_random_starts", JsonValue::Int(config.num_random_starts));
  // uint64 seeds round-trip through the int64 bit pattern.
  out.Set("seed", JsonValue::Int(int64_t(config.seed)));
  return out;
}

Result<optimize::SphereOptimizerConfig> DecodeOptimizerConfig(
    const JsonValue& json) {
  optimize::SphereOptimizerConfig out;
  SISD_RETURN_NOT_OK(ReadField(json, "max_iterations", &out.max_iterations));
  SISD_RETURN_NOT_OK(ReadField(json, "max_backtracks", &out.max_backtracks));
  SISD_RETURN_NOT_OK(
      ReadField(json, "gradient_tolerance", &out.gradient_tolerance));
  SISD_RETURN_NOT_OK(ReadField(json, "armijo_c1", &out.armijo_c1));
  SISD_RETURN_NOT_OK(ReadField(json, "initial_step", &out.initial_step));
  SISD_RETURN_NOT_OK(
      ReadField(json, "num_random_starts", &out.num_random_starts));
  SISD_RETURN_NOT_OK(ReadField(json, "seed", &out.seed));
  return out;
}

JsonValue EncodeLocationScore(const si::LocationScore& score) {
  JsonValue out = JsonValue::Object();
  out.Set("ic", JsonValue::Double(score.ic));
  out.Set("dl", JsonValue::Double(score.dl));
  out.Set("si", JsonValue::Double(score.si));
  return out;
}

Result<si::LocationScore> DecodeLocationScore(const JsonValue& json) {
  si::LocationScore out;
  SISD_RETURN_NOT_OK(ReadField(json, "ic", &out.ic));
  SISD_RETURN_NOT_OK(ReadField(json, "dl", &out.dl));
  SISD_RETURN_NOT_OK(ReadField(json, "si", &out.si));
  return out;
}

JsonValue EncodeSpreadScore(const si::SpreadScore& score) {
  JsonValue out = JsonValue::Object();
  out.Set("ic", JsonValue::Double(score.ic));
  out.Set("dl", JsonValue::Double(score.dl));
  out.Set("si", JsonValue::Double(score.si));
  JsonValue approx = JsonValue::Object();
  approx.Set("alpha", JsonValue::Double(score.approx.alpha));
  approx.Set("beta", JsonValue::Double(score.approx.beta));
  approx.Set("m", JsonValue::Double(score.approx.m));
  approx.Set("a1", JsonValue::Double(score.approx.a1));
  approx.Set("a2", JsonValue::Double(score.approx.a2));
  approx.Set("a3", JsonValue::Double(score.approx.a3));
  out.Set("approx", std::move(approx));
  return out;
}

Result<si::SpreadScore> DecodeSpreadScore(const JsonValue& json) {
  si::SpreadScore out;
  SISD_RETURN_NOT_OK(ReadField(json, "ic", &out.ic));
  SISD_RETURN_NOT_OK(ReadField(json, "dl", &out.dl));
  SISD_RETURN_NOT_OK(ReadField(json, "si", &out.si));
  SISD_ASSIGN_OR_RETURN(approx, json.Get("approx"));
  SISD_RETURN_NOT_OK(ReadField(*approx, "alpha", &out.approx.alpha));
  SISD_RETURN_NOT_OK(ReadField(*approx, "beta", &out.approx.beta));
  SISD_RETURN_NOT_OK(ReadField(*approx, "m", &out.approx.m));
  SISD_RETURN_NOT_OK(ReadField(*approx, "a1", &out.approx.a1));
  SISD_RETURN_NOT_OK(ReadField(*approx, "a2", &out.approx.a2));
  SISD_RETURN_NOT_OK(ReadField(*approx, "a3", &out.approx.a3));
  return out;
}

// A pattern is stored as its intention plus its reported scores (and a
// spread's direction and variance). The decoders rebuild each extension
// and location mean on the dataset, and reject any field the replay could
// not take (InvalidArgument).

/// InvalidArgument unless every condition of `intention` names a column of
/// `table` with an op that fits the column kind and, for a categorical
/// op, a level inside the label table: a snapshot intention is client
/// input, and the evaluators index columns and labels unchecked. The
/// threshold is not checked: `assimilate` accepts +-Infinity (a condition
/// every row meets), and a NaN threshold matches no row, which the callers
/// reject as an empty subgroup.
Status CheckIntentionFits(const data::DataTable& table,
                          const pattern::Intention& intention) {
  for (const pattern::Condition& c : intention.conditions()) {
    const bool orderable_op = c.op == pattern::ConditionOp::kLessEqual ||
                              c.op == pattern::ConditionOp::kGreaterEqual;
    const bool fits =
        c.attribute < table.num_columns() &&
        orderable_op == data::IsOrderable(table.column(c.attribute).kind()) &&
        (orderable_op ||
         (c.level >= 0 &&
          size_t(c.level) < table.column(c.attribute).labels().size()));
    if (!fits) {
      return Status::InvalidArgument(StrFormat(
          "condition {attribute %zu, op '%s', threshold %g, level %d} does "
          "not fit the %zu description columns",
          c.attribute, ConditionOpToString(c.op), c.threshold, c.level,
          table.num_columns()));
    }
  }
  return Status::OK();
}

/// Encodes only the intention: the extension is derived data.
JsonValue EncodeSubgroup(const pattern::Subgroup& subgroup) {
  JsonValue out = JsonValue::Object();
  out.Set("intention", serialize::EncodeIntention(subgroup.intention));
  return out;
}

/// Checks that a stored derived value (an older snapshot's `extension` or
/// `mean`), when present, is the encoding of the rebuilt one.
Status CheckStored(const JsonValue& json, const char* key,
                   const JsonValue& rebuilt) {
  const JsonValue* stored = json.Find(key);
  if (stored != nullptr && stored->Write() != rebuilt.Write()) {
    return Status::InvalidArgument(
        std::string("stored ") + key +
        " disagrees with the one its intention gives on the dataset");
  }
  return Status::OK();
}

/// Rebuilds history subgroups from their stored intentions on a session's
/// dataset. A condition the session's condition pool holds (every
/// condition a search picked) takes the pool's precomputed rows; any other
/// (an analyst's assimilated condition) is evaluated on the table. Both are
/// `Condition::Evaluate`'s rows, so a rebuilt extension equals
/// `Intention::Evaluate`'s.
class SubgroupDecoder {
 public:
  SubgroupDecoder(const data::Dataset& dataset,
                  const search::ConditionPool& pool)
      : dataset_(dataset), pool_(pool) {
    for (size_t i = 0; i < pool.size(); ++i) {
      index_.emplace(Key(pool.condition(i)), i);
    }
  }

  const data::Dataset& dataset() const { return dataset_; }

  /// Rebuilds the subgroup from its stored intention; InvalidArgument when
  /// the intention does not fit the columns or matches no row, or when a
  /// stored `extension` (version 1) is not the rebuilt one.
  Result<pattern::Subgroup> Decode(const JsonValue& json) const {
    SISD_ASSIGN_OR_RETURN(intention_json, json.Get("intention"));
    SISD_ASSIGN_OR_RETURN(intention,
                          serialize::DecodeIntention(*intention_json));
    const data::DataTable& table = dataset_.descriptions;
    SISD_RETURN_NOT_OK(CheckIntentionFits(table, intention));
    pattern::Subgroup out;
    out.extension = pattern::Extension(table.num_rows(), /*full=*/true);
    for (const pattern::Condition& c : intention.conditions()) {
      const auto pooled = index_.find(Key(c));
      if (pooled != index_.end()) {
        out.extension.IntersectWith(pool_.extension(pooled->second));
      } else {
        out.extension.IntersectWith(c.Evaluate(table));
      }
    }
    if (out.extension.empty()) {
      return Status::InvalidArgument("history intention matches no rows");
    }
    SISD_RETURN_NOT_OK(CheckStored(
        json, "extension", serialize::EncodeExtension(out.extension)));
    out.intention = std::move(intention);
    return out;
  }

 private:
  /// Every field of a condition, the threshold by its bits. A condition
  /// that differs from the pool's in a field its op ignores is evaluated.
  using ConditionKey =
      std::tuple<size_t, pattern::ConditionOp, uint64_t, int32_t>;
  static ConditionKey Key(const pattern::Condition& c) {
    return {c.attribute, c.op, std::bit_cast<uint64_t>(c.threshold), c.level};
  }

  const data::Dataset& dataset_;
  const search::ConditionPool& pool_;
  std::map<ConditionKey, size_t> index_;
};

JsonValue EncodeScoredLocation(const ScoredLocationPattern& p) {
  JsonValue out = JsonValue::Object();
  out.Set("subgroup", EncodeSubgroup(p.pattern.subgroup));
  out.Set("score", EncodeLocationScore(p.score));
  return out;
}

Result<ScoredLocationPattern> DecodeScoredLocation(
    const JsonValue& json, const SubgroupDecoder& subgroups) {
  ScoredLocationPattern out;
  SISD_ASSIGN_OR_RETURN(subgroup_json, json.Get("subgroup"));
  SISD_ASSIGN_OR_RETURN(subgroup, subgroups.Decode(*subgroup_json));
  out.pattern = pattern::LocationPattern::Compute(
      std::move(subgroup), subgroups.dataset().targets);
  SISD_RETURN_NOT_OK(
      CheckStored(json, "mean", serialize::EncodeVector(out.pattern.mean)));
  SISD_ASSIGN_OR_RETURN(score_json, json.Get("score"));
  SISD_ASSIGN_OR_RETURN(score, DecodeLocationScore(*score_json));
  out.score = score;
  return out;
}

JsonValue EncodeScoredSpread(const ScoredSpreadPattern& p) {
  JsonValue out = JsonValue::Object();
  out.Set("subgroup", EncodeSubgroup(p.pattern.subgroup));
  out.Set("direction", serialize::EncodeVector(p.pattern.direction));
  out.Set("variance", JsonValue::Double(p.pattern.variance));
  out.Set("score", EncodeSpreadScore(p.score));
  return out;
}

Result<ScoredSpreadPattern> DecodeScoredSpread(
    const JsonValue& json, const SubgroupDecoder& subgroups) {
  ScoredSpreadPattern out;
  SISD_ASSIGN_OR_RETURN(subgroup_json, json.Get("subgroup"));
  SISD_ASSIGN_OR_RETURN(subgroup, subgroups.Decode(*subgroup_json));
  out.pattern.subgroup = std::move(subgroup);
  SISD_ASSIGN_OR_RETURN(direction_json, json.Get("direction"));
  SISD_ASSIGN_OR_RETURN(direction,
                        serialize::DecodeVector(*direction_json));
  out.pattern.direction = std::move(direction);
  SISD_RETURN_NOT_OK(ReadField(json, "variance", &out.pattern.variance));
  // The replay normalizes the direction, which needs a positive norm.
  const size_t dim = subgroups.dataset().num_targets();
  const double norm = out.pattern.direction.Norm();
  if (out.pattern.direction.size() != dim ||
      !(norm > 0.0 && std::isfinite(norm)) ||
      !std::isfinite(out.pattern.variance)) {
    return Status::InvalidArgument(StrFormat(
        "spread needs a finite nonzero %zu-dim direction and a finite "
        "variance", dim));
  }
  SISD_ASSIGN_OR_RETURN(score_json, json.Get("score"));
  SISD_ASSIGN_OR_RETURN(score, DecodeSpreadScore(*score_json));
  out.score = score;
  return out;
}

/// Encodes only the rule's intention: its rows, local model and gain are
/// derived from the intentions of the rules before it.
JsonValue EncodeSubgroupRule(const search::SubgroupRule& rule) {
  JsonValue out = JsonValue::Object();
  out.Set("intention", serialize::EncodeIntention(rule.intention));
  return out;
}

/// Rebuilds a rule from its stored intention against `list`, the list of
/// the rules before it: the derivation `Rebase` runs, here on the rows the
/// rule was mined on, so the rows, local model and gain are the ones the
/// miner recorded. Version 1 stored them; each stored value must equal
/// the rebuilt one's encoding.
Result<search::SubgroupRule> DecodeSubgroupRule(
    const JsonValue& json, const data::Dataset& dataset,
    const si::ListGainParams& gain, const search::SubgroupList& list) {
  SISD_ASSIGN_OR_RETURN(intention_json, json.Get("intention"));
  SISD_ASSIGN_OR_RETURN(intention,
                        serialize::DecodeIntention(*intention_json));
  SISD_RETURN_NOT_OK(CheckIntentionFits(dataset.descriptions, intention));
  SISD_ASSIGN_OR_RETURN(
      rule, search::RederiveSubgroupRule(dataset.descriptions,
                                         dataset.targets, gain, intention,
                                         list));
  SISD_RETURN_NOT_OK(CheckStored(json, "extension",
                                 serialize::EncodeExtension(rule.extension)));
  SISD_RETURN_NOT_OK(CheckStored(json, "captured",
                                 serialize::EncodeExtension(rule.captured)));
  SISD_RETURN_NOT_OK(
      CheckStored(json, "mean", serialize::EncodeVector(rule.local.mean)));
  SISD_RETURN_NOT_OK(CheckStored(
      json, "variance", serialize::EncodeVector(rule.local.variance)));
  SISD_RETURN_NOT_OK(CheckStored(json, "gain", JsonValue::Double(rule.gain)));
  return rule;
}

JsonValue EncodeDatasetRef(const catalog::DatasetRef& ref) {
  JsonValue out = JsonValue::Object();
  out.Set("fingerprint",
          JsonValue::Str(catalog::FingerprintToHex(ref.fingerprint)));
  out.Set("name", JsonValue::Str(ref.name));
  return out;
}

Result<catalog::DatasetRef> DecodeDatasetRef(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("dataset_ref must be an object");
  }
  catalog::DatasetRef out;
  SISD_ASSIGN_OR_RETURN(fingerprint_json, json.Get("fingerprint"));
  SISD_ASSIGN_OR_RETURN(hex, fingerprint_json->GetString());
  SISD_ASSIGN_OR_RETURN(fingerprint, catalog::FingerprintFromHex(hex));
  out.fingerprint = fingerprint;
  SISD_RETURN_NOT_OK(ReadField(json, "name", &out.name));
  return out;
}

JsonValue EncodeVersionLink(const SessionVersionLink& link) {
  JsonValue out = JsonValue::Object();
  out.Set("fingerprint",
          JsonValue::Str(catalog::FingerprintToHex(link.fingerprint)));
  out.Set("name", JsonValue::Str(link.name));
  out.Set("rows", JsonValue::Int(static_cast<int64_t>(link.rows)));
  return out;
}

Result<SessionVersionLink> DecodeVersionLink(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("version_chain entry must be an object");
  }
  SessionVersionLink out;
  SISD_ASSIGN_OR_RETURN(fingerprint_json, json.Get("fingerprint"));
  SISD_ASSIGN_OR_RETURN(hex, fingerprint_json->GetString());
  SISD_ASSIGN_OR_RETURN(fingerprint, catalog::FingerprintFromHex(hex));
  out.fingerprint = fingerprint;
  SISD_RETURN_NOT_OK(ReadField(json, "name", &out.name));
  SISD_RETURN_NOT_OK(ReadField(json, "rows", &out.rows));
  return out;
}

JsonValue EncodeIterationResult(const IterationResult& iteration) {
  JsonValue out = JsonValue::Object();
  out.Set("location", EncodeScoredLocation(iteration.location));
  out.Set("spread", iteration.spread.has_value()
                        ? EncodeScoredSpread(*iteration.spread)
                        : JsonValue::Null());
  // Written only when set: snapshots of sessions that never hit a spread
  // failure keep their exact historical bytes.
  if (!iteration.spread_error.empty()) {
    out.Set("spread_error", JsonValue::Str(iteration.spread_error));
  }
  JsonValue ranked = JsonValue::Array();
  for (const ScoredLocationPattern& entry : iteration.ranked) {
    ranked.Append(EncodeScoredLocation(entry));
  }
  out.Set("ranked", std::move(ranked));
  out.Set("candidates_evaluated",
          JsonValue::Int(int64_t(iteration.candidates_evaluated)));
  out.Set("hit_time_budget", JsonValue::Bool(iteration.hit_time_budget));
  return out;
}

Result<IterationResult> DecodeIterationResult(
    const JsonValue& json, const SubgroupDecoder& subgroups) {
  IterationResult out;
  SISD_ASSIGN_OR_RETURN(location_json, json.Get("location"));
  SISD_ASSIGN_OR_RETURN(location,
                        DecodeScoredLocation(*location_json, subgroups));
  out.location = std::move(location);
  SISD_ASSIGN_OR_RETURN(spread_json, json.Get("spread"));
  if (!spread_json->is_null()) {
    SISD_ASSIGN_OR_RETURN(spread, DecodeScoredSpread(*spread_json, subgroups));
    out.spread = std::move(spread);
  }
  if (const JsonValue* spread_error = json.Find("spread_error")) {
    SISD_ASSIGN_OR_RETURN(text, spread_error->GetString());
    out.spread_error = std::move(text);
  }
  SISD_ASSIGN_OR_RETURN(ranked_json, json.Get("ranked"));
  if (!ranked_json->is_array()) {
    return Status::InvalidArgument("ranked list must be an array");
  }
  out.ranked.reserve(ranked_json->size());
  for (const JsonValue& entry : ranked_json->items()) {
    SISD_ASSIGN_OR_RETURN(ranked_entry, DecodeScoredLocation(entry, subgroups));
    out.ranked.push_back(std::move(ranked_entry));
  }
  SISD_RETURN_NOT_OK(
      ReadField(json, "candidates_evaluated", &out.candidates_evaluated));
  SISD_RETURN_NOT_OK(ReadField(json, "hit_time_budget", &out.hit_time_budget));
  return out;
}

/// Encodes one `mine_list` call: its rules and diagnostics. The list's
/// cumulative gain is derived from the rules.
JsonValue EncodeListMineResult(const ListMineResult& result) {
  JsonValue out = JsonValue::Object();
  JsonValue rules = JsonValue::Array();
  for (const search::SubgroupRule& rule : result.rules) {
    rules.Append(EncodeSubgroupRule(rule));
  }
  out.Set("rules", std::move(rules));
  out.Set("candidates_evaluated",
          JsonValue::Int(int64_t(result.candidates_evaluated)));
  out.Set("exhausted", JsonValue::Bool(result.exhausted));
  out.Set("hit_time_budget", JsonValue::Bool(result.hit_time_budget));
  return out;
}

/// Rebuilds one `mine_list` call's rules in order and appends each to
/// `*list`, the session's list before the call.
Result<ListMineResult> DecodeListMineResult(const JsonValue& json,
                                            const data::Dataset& dataset,
                                            const si::ListGainParams& gain,
                                            search::SubgroupList* list) {
  ListMineResult out;
  SISD_ASSIGN_OR_RETURN(rules_json, json.Get("rules"));
  if (!rules_json->is_array()) {
    return Status::InvalidArgument("list rules must be an array");
  }
  out.rules.reserve(rules_json->size());
  for (const JsonValue& entry : rules_json->items()) {
    SISD_ASSIGN_OR_RETURN(rule,
                          DecodeSubgroupRule(entry, dataset, gain, *list));
    out.rules.push_back(rule);
    search::ReplaySubgroupRule(std::move(rule), list);
  }
  out.total_gain = list->total_gain;
  SISD_RETURN_NOT_OK(
      CheckStored(json, "total_gain", JsonValue::Double(out.total_gain)));
  SISD_RETURN_NOT_OK(
      ReadField(json, "candidates_evaluated", &out.candidates_evaluated));
  SISD_RETURN_NOT_OK(ReadField(json, "exhausted", &out.exhausted));
  SISD_RETURN_NOT_OK(ReadField(json, "hit_time_budget", &out.hit_time_budget));
  return out;
}

/// True iff `stored` and `expected` are the same JSON value member for
/// member, with every double compared by its written text, leaving out a
/// `factor` member of any `stored` object (older snapshots stored each
/// group's Cholesky factor).
bool SameEncodingIgnoringFactor(const JsonValue& stored,
                                const JsonValue& expected) {
  if (stored.type() != expected.type()) return false;
  if (stored.is_array()) {
    return std::equal(stored.items().begin(), stored.items().end(),
                      expected.items().begin(), expected.items().end(),
                      SameEncodingIgnoringFactor);
  }
  if (!stored.is_object()) return stored.Write() == expected.Write();
  size_t compared = 0;
  for (const auto& [key, value] : stored.members()) {
    if (key == "factor") continue;
    const JsonValue* other = expected.Find(key);
    if (other == nullptr || !SameEncodingIgnoringFactor(value, *other)) {
      return false;
    }
    ++compared;
  }
  return compared == expected.size();
}

}  // namespace

JsonValue EncodeMinerConfig(const MinerConfig& config) {
  JsonValue out = JsonValue::Object();
  out.Set("search", EncodeSearchConfig(config.search));
  JsonValue dl = JsonValue::Object();
  dl.Set("gamma", JsonValue::Double(config.dl.gamma));
  dl.Set("eta", JsonValue::Double(config.dl.eta));
  out.Set("dl", std::move(dl));
  out.Set("mix", JsonValue::Str(config.mix == PatternMix::kLocationOnly
                                    ? "location_only"
                                    : "location_and_spread"));
  out.Set("spread_sparsity", JsonValue::Int(config.spread_sparsity));
  out.Set("spread_optimizer",
          EncodeOptimizerConfig(config.spread_optimizer));
  out.Set("prior_mean", config.prior_mean.has_value()
                            ? serialize::EncodeVector(*config.prior_mean)
                            : JsonValue::Null());
  out.Set("prior_covariance",
          config.prior_covariance.has_value()
              ? serialize::EncodeMatrix(*config.prior_covariance)
              : JsonValue::Null());
  out.Set("prior_ridge", JsonValue::Double(config.prior_ridge));
  JsonValue list_gain = JsonValue::Object();
  list_gain.Set("alpha", JsonValue::Double(config.list_gain.alpha));
  list_gain.Set("beta", JsonValue::Double(config.list_gain.beta));
  list_gain.Set("variance_floor",
                JsonValue::Double(config.list_gain.variance_floor));
  list_gain.Set("normalized", JsonValue::Bool(config.list_gain.normalized));
  out.Set("list_gain", std::move(list_gain));
  return out;
}

Result<MinerConfig> DecodeMinerConfig(const JsonValue& json) {
  MinerConfig out;
  SISD_ASSIGN_OR_RETURN(search_json, json.Get("search"));
  SISD_ASSIGN_OR_RETURN(search_config, DecodeSearchConfig(*search_json));
  out.search = search_config;
  SISD_ASSIGN_OR_RETURN(dl_json, json.Get("dl"));
  SISD_RETURN_NOT_OK(ReadField(*dl_json, "gamma", &out.dl.gamma));
  SISD_RETURN_NOT_OK(ReadField(*dl_json, "eta", &out.dl.eta));
  SISD_ASSIGN_OR_RETURN(mix_json, json.Get("mix"));
  SISD_ASSIGN_OR_RETURN(mix, mix_json->GetString());
  if (mix == "location_only") {
    out.mix = PatternMix::kLocationOnly;
  } else if (mix == "location_and_spread") {
    out.mix = PatternMix::kLocationAndSpread;
  } else {
    return Status::InvalidArgument("unknown pattern mix '" + mix + "'");
  }
  SISD_RETURN_NOT_OK(ReadField(json, "spread_sparsity", &out.spread_sparsity));
  SISD_ASSIGN_OR_RETURN(optimizer_json, json.Get("spread_optimizer"));
  SISD_ASSIGN_OR_RETURN(optimizer, DecodeOptimizerConfig(*optimizer_json));
  out.spread_optimizer = optimizer;
  SISD_ASSIGN_OR_RETURN(prior_mean_json, json.Get("prior_mean"));
  if (!prior_mean_json->is_null()) {
    SISD_ASSIGN_OR_RETURN(prior_mean,
                          serialize::DecodeVector(*prior_mean_json));
    out.prior_mean = std::move(prior_mean);
  }
  SISD_ASSIGN_OR_RETURN(prior_cov_json, json.Get("prior_covariance"));
  if (!prior_cov_json->is_null()) {
    SISD_ASSIGN_OR_RETURN(prior_cov,
                          serialize::DecodeMatrix(*prior_cov_json));
    out.prior_covariance = std::move(prior_cov);
  }
  SISD_RETURN_NOT_OK(ReadField(json, "prior_ridge", &out.prior_ridge));
  // Retired field: snapshots written while a branch-and-bound search
  // existed carry `use_optimal_search`. It must still be a bool, but its
  // value is ignored: every session mines with the beam search.
  if (const JsonValue* optimal = json.Find("use_optimal_search")) {
    SISD_RETURN_NOT_OK(optimal->GetBool().status());
  }
  // Additive field (subgroup-list PR): absent in older snapshots, which
  // restore with the default gain knobs — matching MinerConfig.
  if (const JsonValue* list_gain = json.Find("list_gain")) {
    SISD_RETURN_NOT_OK(ReadField(*list_gain, "alpha", &out.list_gain.alpha));
    SISD_RETURN_NOT_OK(ReadField(*list_gain, "beta", &out.list_gain.beta));
    SISD_RETURN_NOT_OK(
        ReadField(*list_gain, "variance_floor", &out.list_gain.variance_floor));
    SISD_RETURN_NOT_OK(
        ReadField(*list_gain, "normalized", &out.list_gain.normalized));
  }
  SISD_RETURN_NOT_OK(ValidateMinerConfig(out));
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
  // The models are not stored: they are a pure function of (dataset,
  // config, history), and a restore replays the history to rebuild them.
  out.Set("config", EncodeMinerConfig(config_));
  JsonValue history = JsonValue::Array();
  for (const IterationResult& iteration : history_) {
    history.Append(EncodeIterationResult(iteration));
  }
  out.Set("history", std::move(history));
  // Additive schema field: written only when list mining happened, so
  // sessions that never called MineList keep their exact historical bytes
  // (same policy as `spread_error` above).
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
  if (version != 1 && version != kSessionSchemaVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported session schema version %lld (expected 1 or "
                  "%lld)",
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

  // The initial model comes from (dataset, config) exactly as for a fresh
  // session, and so does the condition pool — or, for a catalog-known
  // dataset, the catalog's memoized shared pool. The history is then
  // replayed onto the model below.
  std::shared_ptr<const search::ConditionPool> pool;
  if (origin.has_value()) {
    catalog::PinnedDataset pinned;
    pinned.dataset = shared_dataset;
    pinned.fingerprint = origin->fingerprint;
    pool = catalog->PoolFor(pinned, config.search.num_split_points,
                            config.search.include_exclusions);
  }
  SISD_ASSIGN_OR_RETURN(
      session, pool != nullptr
                   ? Create(std::move(shared_dataset), std::move(config),
                            std::move(pool), std::move(origin))
                   : Create(std::move(shared_dataset), std::move(config)));
  session.version_chain_ = std::move(version_chain);

  SISD_ASSIGN_OR_RETURN(history_json, root.Get("history"));
  if (!history_json->is_array()) {
    return Status::InvalidArgument("session history must be an array");
  }
  session.history_.reserve(history_json->size());
  const SubgroupDecoder subgroups(*session.dataset_, *session.pool_);
  for (const JsonValue& entry : history_json->items()) {
    SISD_ASSIGN_OR_RETURN(iteration, DecodeIterationResult(entry, subgroups));
    // The two model updates `MineNext` made. A failed spread step
    // (`spread_error`) left the model as its location update did.
    Status replayed = session.assimilator_.AddLocationPattern(
        iteration.location.pattern.subgroup.extension,
        iteration.location.pattern.mean);
    if (replayed.ok() && iteration.spread.has_value()) {
      replayed = session.assimilator_.AddSpreadPattern(
          iteration.spread->pattern.subgroup.extension,
          iteration.spread->pattern.direction,
          iteration.location.pattern.mean, iteration.spread->pattern.variance);
    }
    if (!replayed.ok()) {
      return Status::InvalidArgument(
          StrFormat("history iteration %zu does not replay: %s",
                    session.history_.size() + 1,
                    replayed.ToString().c_str()));
    }
    session.history_.push_back(std::move(iteration));
  }

  // Additive field: the subgroup-list history. The list is derived state,
  // rebuilt by re-deriving the saved rules in order onto a freshly fitted
  // default model (a deterministic function of the targets), so it
  // continues mining bit-identically to the saved one.
  if (const JsonValue* list_history_json = root.Find("list_history")) {
    if (!list_history_json->is_array()) {
      return Status::InvalidArgument("session list_history must be an array");
    }
    session.list_history_.reserve(list_history_json->size());
    for (const JsonValue& entry : list_history_json->items()) {
      if (!session.list_.has_value()) {
        session.list_ = search::MakeEmptySubgroupList(
            session.dataset_->targets, session.config_.list_gain);
      }
      SISD_ASSIGN_OR_RETURN(
          list_result,
          DecodeListMineResult(entry, *session.dataset_,
                               session.config_.list_gain, &*session.list_));
      session.list_history_.push_back(std::move(list_result));
    }
  }

  // Version 1 stored the fitted models too. They must be exactly what the
  // replay rebuilt, so a v1 snapshot upgrades only when nothing in it was
  // derived from anything but its own history.
  if (version == 1) {
    SISD_ASSIGN_OR_RETURN(assimilator_json, root.Get("assimilator"));
    if (!SameEncodingIgnoringFactor(
            *assimilator_json,
            serialize::EncodeAssimilator(session.assimilator_))) {
      return Status::InvalidArgument(
          "snapshot assimilator disagrees with the replay of its history");
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

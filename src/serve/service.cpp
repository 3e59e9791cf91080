#include "serve/service.hpp"

#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/dataset_catalog.hpp"
#include "catalog/fingerprint.hpp"
#include "common/strings.hpp"
#include "core/config_table.hpp"
#include "data/append.hpp"
#include "data/csv.hpp"
#include "datagen/scenarios.hpp"

namespace sisd::serve {

using serialize::JsonValue;
using serialize::ProtocolRequest;
using serialize::ProtocolResponse;

namespace {

/// Typed optional-parameter readers over `request.params`.
Result<std::optional<int64_t>> ParamInt(const ProtocolRequest& request,
                                        const std::string& key) {
  const JsonValue* value = request.params.Find(key);
  if (value == nullptr) return std::optional<int64_t>();
  SISD_ASSIGN_OR_RETURN(parsed, value->GetInt());
  return std::optional<int64_t>(parsed);
}

Result<std::optional<std::string>> ParamString(const ProtocolRequest& request,
                                               const std::string& key) {
  const JsonValue* value = request.params.Find(key);
  if (value == nullptr) return std::optional<std::string>();
  SISD_ASSIGN_OR_RETURN(parsed, value->GetString());
  return std::optional<std::string>(parsed);
}

Result<bool> ParamBool(const ProtocolRequest& request, const std::string& key,
                       bool fallback) {
  const JsonValue* value = request.params.Find(key);
  if (value == nullptr) return fallback;
  return value->GetBool();
}

Result<std::optional<uint64_t>> ParamGeneration(
    const ProtocolRequest& request) {
  SISD_ASSIGN_OR_RETURN(raw, ParamInt(request, "if_generation"));
  if (!raw.has_value()) return std::optional<uint64_t>();
  if (*raw < 0) {
    return Status::InvalidArgument("if_generation must be >= 0");
  }
  return std::optional<uint64_t>(static_cast<uint64_t>(*raw));
}

Status RequireSession(const ProtocolRequest& request) {
  if (request.session.empty()) {
    return Status::InvalidArgument("verb '" + request.verb +
                                   "' needs a 'session' name");
  }
  return Status::OK();
}

/// Resolves the dataset of an `open` / `dataset_load` request: a built-in
/// scenario, a CSV file (read through the streaming chunked reader), or
/// inline CSV text. `verb` only shapes the error message.
Result<data::Dataset> DatasetFromParams(const ProtocolRequest& request,
                                        const char* verb) {
  SISD_ASSIGN_OR_RETURN(scenario, ParamString(request, "scenario"));
  SISD_ASSIGN_OR_RETURN(csv_path, ParamString(request, "csv_path"));
  SISD_ASSIGN_OR_RETURN(csv_text, ParamString(request, "csv_text"));
  const int sources = int(scenario.has_value()) + int(csv_path.has_value()) +
                      int(csv_text.has_value());
  if (sources != 1) {
    return Status::InvalidArgument(
        std::string(verb) +
        " needs exactly one of 'scenario', 'csv_path', 'csv_text'");
  }
  if (scenario.has_value()) {
    return datagen::MakeScenarioDataset(*scenario);
  }
  const JsonValue* targets_json = request.params.Find("targets");
  if (targets_json == nullptr || !targets_json->is_array()) {
    return Status::InvalidArgument(
        "CSV input needs 'targets': an array of numeric column names");
  }
  std::vector<std::string> targets;
  targets.reserve(targets_json->size());
  for (const JsonValue& item : targets_json->items()) {
    SISD_ASSIGN_OR_RETURN(name, item.GetString());
    targets.push_back(std::move(name));
  }
  if (targets.empty()) {
    return Status::InvalidArgument("'targets' names no columns");
  }
  if (csv_path.has_value()) {
    SISD_ASSIGN_OR_RETURN(table, data::ReadCsvFile(*csv_path));
    return data::MakeDataset(table, targets, *csv_path);
  }
  SISD_ASSIGN_OR_RETURN(table, data::ReadCsvText(*csv_text));
  return data::MakeDataset(table, targets, "inline-csv");
}

JsonValue EncodeIterationSummary(const IterationSummary& summary) {
  JsonValue out = JsonValue::Object();
  out.Set("iteration", JsonValue::Int(static_cast<int64_t>(summary.index)));
  out.Set("location", JsonValue::Str(summary.location));
  if (summary.spread.has_value()) {
    out.Set("spread", JsonValue::Str(*summary.spread));
  }
  if (!summary.spread_error.empty()) {
    out.Set("spread_error", JsonValue::Str(summary.spread_error));
  }
  out.Set("si", JsonValue::Double(summary.si));
  out.Set("coverage",
          JsonValue::Int(static_cast<int64_t>(summary.coverage)));
  out.Set("candidates",
          JsonValue::Int(static_cast<int64_t>(summary.candidates)));
  if (summary.hit_time_budget) {
    out.Set("hit_time_budget", JsonValue::Bool(true));
  }
  return out;
}

JsonValue EncodeMineOutcome(const MineOutcome& outcome) {
  JsonValue result = JsonValue::Object();
  result.Set("generation",
             JsonValue::Int(static_cast<int64_t>(outcome.generation)));
  JsonValue iterations = JsonValue::Array();
  for (const IterationSummary& summary : outcome.iterations) {
    iterations.Append(EncodeIterationSummary(summary));
  }
  result.Set("iterations", std::move(iterations));
  if (outcome.exhausted) result.Set("exhausted", JsonValue::Bool(true));
  if (!outcome.stopped.empty()) {
    result.Set("stopped", JsonValue::Str(outcome.stopped));
  }
  return result;
}

JsonValue EncodeSessionInfo(const SessionInfo& info) {
  JsonValue result = JsonValue::Object();
  result.Set("dataset", JsonValue::Str(info.dataset));
  result.Set("rows", JsonValue::Int(static_cast<int64_t>(info.rows)));
  result.Set("descriptions",
             JsonValue::Int(static_cast<int64_t>(info.descriptions)));
  result.Set("targets", JsonValue::Int(static_cast<int64_t>(info.targets)));
  result.Set("generation",
             JsonValue::Int(static_cast<int64_t>(info.generation)));
  result.Set("iterations",
             JsonValue::Int(static_cast<int64_t>(info.iterations)));
  result.Set("constraints",
             JsonValue::Int(static_cast<int64_t>(info.constraints)));
  return result;
}

Result<JsonValue> DoOpen(SessionManager& manager,
                         const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  // The `config` overrides go onto the paper defaults, key by key,
  // through the config table's checked setter.
  core::MinerConfig config;
  if (const JsonValue* overrides = request.params.Find("config")) {
    if (!overrides->is_object()) {
      return Status::InvalidArgument("open 'config' must be an object");
    }
    for (const auto& [key, value] : overrides->members()) {
      SISD_RETURN_NOT_OK(core::SetConfigFromJson(key, value, &config));
    }
  }
  SISD_ASSIGN_OR_RETURN(dataset_ref, ParamString(request, "dataset_ref"));
  if (dataset_ref.has_value()) {
    // Catalog-addressed open: no ingest, no dataset copy, and the
    // condition pool is shared with every other session on this dataset.
    if (request.params.Find("scenario") != nullptr ||
        request.params.Find("csv_path") != nullptr ||
        request.params.Find("csv_text") != nullptr) {
      return Status::InvalidArgument(
          "open takes either 'dataset_ref' or an inline dataset source, "
          "not both");
    }
    SISD_ASSIGN_OR_RETURN(
        info, manager.OpenRef(request.session, *dataset_ref,
                              std::move(config)));
    return EncodeSessionInfo(info);
  }
  SISD_ASSIGN_OR_RETURN(dataset, DatasetFromParams(request, "open"));
  SISD_ASSIGN_OR_RETURN(info, manager.Open(request.session,
                                           std::move(dataset),
                                           std::move(config)));
  return EncodeSessionInfo(info);
}

Result<JsonValue> DoMine(SessionManager& manager,
                         const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_ASSIGN_OR_RETURN(iterations_raw, ParamInt(request, "iterations"));
  const int64_t iterations = iterations_raw.value_or(1);
  // Bounded up front so the int64 never truncates through int.
  constexpr int64_t kMaxIterationsPerRequest = 100000;
  if (iterations < 1 || iterations > kMaxIterationsPerRequest) {
    return Status::InvalidArgument(
        StrFormat("'iterations' must be in 1..%lld, got %lld",
                  static_cast<long long>(kMaxIterationsPerRequest),
                  static_cast<long long>(iterations)));
  }
  SISD_ASSIGN_OR_RETURN(if_generation, ParamGeneration(request));
  SISD_ASSIGN_OR_RETURN(
      outcome, manager.Mine(request.session, static_cast<int>(iterations),
                            if_generation));
  return EncodeMineOutcome(outcome);
}

JsonValue EncodeMineListOutcome(const MineListOutcome& outcome) {
  JsonValue result = JsonValue::Object();
  result.Set("generation",
             JsonValue::Int(static_cast<int64_t>(outcome.generation)));
  JsonValue rules = JsonValue::Array();
  for (const RuleSummary& rule : outcome.rules) {
    JsonValue entry = JsonValue::Object();
    entry.Set("rule", JsonValue::Int(static_cast<int64_t>(rule.index)));
    entry.Set("description", JsonValue::Str(rule.description));
    entry.Set("gain", JsonValue::Double(rule.gain));
    entry.Set("coverage", JsonValue::Int(static_cast<int64_t>(rule.coverage)));
    entry.Set("captured", JsonValue::Int(static_cast<int64_t>(rule.captured)));
    rules.Append(std::move(entry));
  }
  result.Set("rules", std::move(rules));
  result.Set("total_gain", JsonValue::Double(outcome.total_gain));
  result.Set("list_size",
             JsonValue::Int(static_cast<int64_t>(outcome.list_size)));
  result.Set("uncovered",
             JsonValue::Int(static_cast<int64_t>(outcome.uncovered)));
  result.Set("candidates",
             JsonValue::Int(static_cast<int64_t>(outcome.candidates)));
  if (outcome.exhausted) result.Set("exhausted", JsonValue::Bool(true));
  if (outcome.hit_time_budget) {
    result.Set("hit_time_budget", JsonValue::Bool(true));
  }
  return result;
}

Result<JsonValue> DoMineList(SessionManager& manager,
                             const ProtocolRequest& request,
                             ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_ASSIGN_OR_RETURN(rules_raw, ParamInt(request, "rules"));
  const int64_t rules = rules_raw.value_or(1);
  constexpr int64_t kMaxRulesPerRequest = 10000;
  if (rules < 1 || rules > kMaxRulesPerRequest) {
    return Status::InvalidArgument(
        StrFormat("'rules' must be in 1..%lld, got %lld",
                  static_cast<long long>(kMaxRulesPerRequest),
                  static_cast<long long>(rules)));
  }
  SISD_ASSIGN_OR_RETURN(if_generation, ParamGeneration(request));
  SISD_ASSIGN_OR_RETURN(
      outcome, manager.MineList(request.session, static_cast<int>(rules),
                                if_generation));
  return EncodeMineListOutcome(outcome);
}

Result<JsonValue> DoAssimilate(SessionManager& manager,
                               const ProtocolRequest& request,
                               ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  const JsonValue* conditions = request.params.Find("conditions");
  if (conditions == nullptr) {
    return Status::InvalidArgument(
        "assimilate needs 'conditions': an array of condition objects");
  }
  SISD_ASSIGN_OR_RETURN(if_generation, ParamGeneration(request));
  SISD_ASSIGN_OR_RETURN(
      outcome,
      manager.Assimilate(
          request.session,
          [conditions](const core::MiningSession& session) {
            return ParseConditionSpec(*conditions,
                                      session.dataset().descriptions);
          },
          if_generation));
  return EncodeMineOutcome(outcome);
}

Result<JsonValue> DoHistory(SessionManager& manager,
                            const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_ASSIGN_OR_RETURN(history, manager.History(request.session));
  JsonValue result = JsonValue::Object();
  result.Set("iterations",
             JsonValue::Int(static_cast<int64_t>(history.size())));
  JsonValue entries = JsonValue::Array();
  for (const IterationSummary& summary : history) {
    entries.Append(EncodeIterationSummary(summary));
  }
  result.Set("entries", std::move(entries));
  return result;
}

Result<JsonValue> DoExport(SessionManager& manager,
                           const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_ASSIGN_OR_RETURN(what, ParamString(request, "what"));
  SISD_ASSIGN_OR_RETURN(iteration_raw, ParamInt(request, "iteration"));
  std::optional<size_t> iteration;
  if (iteration_raw.has_value()) {
    if (*iteration_raw < 1) {
      return Status::OutOfRange("'iteration' must be >= 1");
    }
    iteration = static_cast<size_t>(*iteration_raw);
  }
  const std::string resolved_what = what.value_or("history");
  SISD_ASSIGN_OR_RETURN(
      csv, manager.ExportCsv(request.session, resolved_what, iteration));
  JsonValue result = JsonValue::Object();
  result.Set("what", JsonValue::Str(resolved_what));
  result.Set("csv", JsonValue::Str(csv));
  return result;
}

Result<JsonValue> DoSave(SessionManager& manager,
                         const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_ASSIGN_OR_RETURN(path, ParamString(request, "path"));
  SISD_ASSIGN_OR_RETURN(dataset_ref,
                        ParamBool(request, "dataset_ref", false));
  SISD_ASSIGN_OR_RETURN(outcome, manager.Save(request.session,
                                              path.value_or(""),
                                              dataset_ref));
  JsonValue result = JsonValue::Object();
  result.Set("path", JsonValue::Str(outcome.path));
  result.Set("bytes", JsonValue::Int(static_cast<int64_t>(outcome.bytes)));
  return result;
}

JsonValue EncodeCatalogEntry(const catalog::CatalogEntryInfo& info) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::Str(info.name));
  out.Set("fingerprint",
          JsonValue::Str(catalog::FingerprintToHex(info.fingerprint)));
  out.Set("bytes", JsonValue::Int(static_cast<int64_t>(info.bytes)));
  out.Set("rows", JsonValue::Int(static_cast<int64_t>(info.rows)));
  out.Set("descriptions",
          JsonValue::Int(static_cast<int64_t>(info.descriptions)));
  out.Set("targets", JsonValue::Int(static_cast<int64_t>(info.targets)));
  out.Set("pools", JsonValue::Int(static_cast<int64_t>(info.pools)));
  out.Set("sessions", JsonValue::Int(static_cast<int64_t>(info.sessions)));
  // Version-chain fields, present only for appended versions so root-only
  // catalogs keep their exact historical listing bytes.
  if (info.parent_fingerprint != 0) {
    out.Set("parent_fingerprint", JsonValue::Str(catalog::FingerprintToHex(
                                      info.parent_fingerprint)));
    out.Set("row_offset",
            JsonValue::Int(static_cast<int64_t>(info.row_offset)));
    out.Set("shared_bytes",
            JsonValue::Int(static_cast<int64_t>(info.shared_bytes)));
    out.Set("depth", JsonValue::Int(static_cast<int64_t>(info.depth)));
  }
  return out;
}

JsonValue EncodeCatalogListing(const catalog::DatasetCatalog& catalog) {
  JsonValue out = JsonValue::Object();
  JsonValue datasets = JsonValue::Array();
  for (const catalog::CatalogEntryInfo& info : catalog.List()) {
    datasets.Append(EncodeCatalogEntry(info));
  }
  out.Set("datasets", std::move(datasets));
  out.Set("bytes_total",
          JsonValue::Int(static_cast<int64_t>(catalog.total_bytes())));
  return out;
}

Result<JsonValue> DoDatasetLoad(SessionManager& manager,
                                const ProtocolRequest& request,
                                ServeMetrics*) {
  SISD_ASSIGN_OR_RETURN(dataset, DatasetFromParams(request, "dataset_load"));
  SISD_ASSIGN_OR_RETURN(name, ParamString(request, "name"));
  if (name.has_value()) {
    if (name->empty()) {
      return Status::InvalidArgument(
          "dataset_load 'name' must be non-empty when given");
    }
    dataset.name = *name;
  }
  SISD_ASSIGN_OR_RETURN(
      pinned, manager.catalog()->Intern(std::move(dataset), /*pin=*/false, /*retain=*/true));
  JsonValue result = JsonValue::Object();
  // The registered name: first registration of this content wins, so a
  // reused load may answer with a different name than it asked for.
  result.Set("name", JsonValue::Str(pinned.dataset->name));
  result.Set("fingerprint",
             JsonValue::Str(catalog::FingerprintToHex(pinned.fingerprint)));
  result.Set("bytes", JsonValue::Int(static_cast<int64_t>(pinned.bytes)));
  result.Set("rows", JsonValue::Int(
                         static_cast<int64_t>(pinned.dataset->num_rows())));
  result.Set("descriptions",
             JsonValue::Int(static_cast<int64_t>(
                 pinned.dataset->num_descriptions())));
  result.Set("targets",
             JsonValue::Int(
                 static_cast<int64_t>(pinned.dataset->num_targets())));
  result.Set("reused", JsonValue::Bool(pinned.reused));
  return result;
}

Result<JsonValue> DoDatasetList(SessionManager& manager,
                                const ProtocolRequest&, ServeMetrics*) {
  return EncodeCatalogListing(*manager.catalog());
}

/// Parses the `rows` param of `dataset_append`: an array of row arrays
/// whose cells are numbers (numeric/ordinal values, kept bit-exact) or
/// strings (categorical labels, or numeric text).
Result<std::vector<std::vector<data::AppendCell>>> ParseAppendRows(
    const JsonValue& rows_json) {
  if (!rows_json.is_array() || rows_json.size() == 0) {
    return Status::InvalidArgument(
        "'rows' must be a non-empty array of row arrays");
  }
  std::vector<std::vector<data::AppendCell>> rows;
  rows.reserve(rows_json.size());
  for (const JsonValue& row_json : rows_json.items()) {
    if (!row_json.is_array()) {
      return Status::InvalidArgument("each row must be an array of cells");
    }
    std::vector<data::AppendCell> row;
    row.reserve(row_json.size());
    for (const JsonValue& cell : row_json.items()) {
      if (cell.type() == JsonValue::Type::kString) {
        SISD_ASSIGN_OR_RETURN(text, cell.GetString());
        row.push_back(data::AppendCell::Text(std::move(text)));
      } else {
        SISD_ASSIGN_OR_RETURN(number, cell.GetDouble());
        row.push_back(data::AppendCell::Number(number));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<JsonValue> DoDatasetAppend(SessionManager& manager,
                                  const ProtocolRequest& request,
                                  ServeMetrics*) {
  SISD_ASSIGN_OR_RETURN(parent, ParamString(request, "dataset"));
  if (!parent.has_value() || parent->empty()) {
    return Status::InvalidArgument(
        "dataset_append needs 'dataset': the parent name or fingerprint");
  }
  SISD_ASSIGN_OR_RETURN(csv_text, ParamString(request, "csv_text"));
  const JsonValue* rows_json = request.params.Find("rows");
  const JsonValue* columns_json = request.params.Find("columns");
  if (csv_text.has_value() == (rows_json != nullptr)) {
    return Status::InvalidArgument(
        "dataset_append needs exactly one of 'csv_text' or "
        "'rows' (+ 'columns')");
  }

  catalog::AppendBuilder builder;
  if (csv_text.has_value()) {
    builder = [&csv_text](const data::Dataset& p) {
      return data::AppendRowsFromCsvText(p, *csv_text);
    };
  } else {
    if (columns_json == nullptr || !columns_json->is_array()) {
      return Status::InvalidArgument(
          "'rows' appends need 'columns': the array of column names the "
          "row cells follow");
    }
    std::vector<std::string> columns;
    columns.reserve(columns_json->size());
    for (const JsonValue& item : columns_json->items()) {
      SISD_ASSIGN_OR_RETURN(column, item.GetString());
      columns.push_back(std::move(column));
    }
    SISD_ASSIGN_OR_RETURN(rows, ParseAppendRows(*rows_json));
    builder = [columns = std::move(columns),
               rows = std::move(rows)](const data::Dataset& p) {
      return data::AppendRowsFromCells(p, columns, rows);
    };
  }
  SISD_ASSIGN_OR_RETURN(
      outcome,
      manager.catalog()->Append(*parent, builder, /*pin=*/false,
                                /*retain=*/true,
                                manager.thread_pool().get()));
  JsonValue result = JsonValue::Object();
  result.Set("name", JsonValue::Str(outcome.dataset.dataset->name));
  result.Set("fingerprint", JsonValue::Str(catalog::FingerprintToHex(
                                outcome.dataset.fingerprint)));
  result.Set("parent_fingerprint", JsonValue::Str(catalog::FingerprintToHex(
                                       outcome.parent_fingerprint)));
  result.Set("rows", JsonValue::Int(static_cast<int64_t>(
                         outcome.dataset.dataset->num_rows())));
  result.Set("row_offset",
             JsonValue::Int(static_cast<int64_t>(outcome.row_offset)));
  result.Set("appended_rows",
             JsonValue::Int(static_cast<int64_t>(outcome.appended_rows)));
  result.Set("reused", JsonValue::Bool(outcome.reused));
  result.Set("pools_refreshed",
             JsonValue::Int(static_cast<int64_t>(outcome.pools_refreshed)));
  return result;
}

Result<JsonValue> DoRebase(SessionManager& manager,
                           const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_ASSIGN_OR_RETURN(dataset, ParamString(request, "dataset"));
  if (!dataset.has_value() || dataset->empty()) {
    return Status::InvalidArgument(
        "rebase needs 'dataset': the appended version to move the session "
        "onto");
  }
  SISD_ASSIGN_OR_RETURN(if_generation, ParamGeneration(request));
  SISD_ASSIGN_OR_RETURN(
      rebased, manager.Rebase(request.session, *dataset, if_generation));
  JsonValue result = EncodeSessionInfo(rebased.info);
  result.Set("fingerprint",
             JsonValue::Str(catalog::FingerprintToHex(rebased.fingerprint)));
  result.Set("previous_fingerprint",
             JsonValue::Str(catalog::FingerprintToHex(
                 rebased.previous_fingerprint)));
  result.Set("appended_rows",
             JsonValue::Int(static_cast<int64_t>(rebased.appended_rows)));
  result.Set("replayed_iterations",
             JsonValue::Int(static_cast<int64_t>(
                 rebased.replayed_iterations)));
  result.Set("replayed_rules",
             JsonValue::Int(static_cast<int64_t>(rebased.replayed_rules)));
  result.Set("reused", JsonValue::Bool(rebased.reused));
  return result;
}

Result<JsonValue> DoDatasetDrop(SessionManager& manager,
                                const ProtocolRequest& request,
                                ServeMetrics*) {
  SISD_ASSIGN_OR_RETURN(name, ParamString(request, "dataset"));
  if (!name.has_value() || name->empty()) {
    return Status::InvalidArgument(
        "dataset_drop needs 'dataset': a registered name or fingerprint");
  }
  SISD_RETURN_NOT_OK(manager.catalog()->Drop(*name));
  JsonValue result = JsonValue::Object();
  result.Set("dropped", JsonValue::Str(*name));
  return result;
}

Result<JsonValue> DoEvict(SessionManager& manager,
                          const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_RETURN_NOT_OK(manager.Evict(request.session));
  JsonValue result = JsonValue::Object();
  result.Set("resident", JsonValue::Bool(false));
  return result;
}

Result<JsonValue> DoClose(SessionManager& manager,
                          const ProtocolRequest& request, ServeMetrics*) {
  SISD_RETURN_NOT_OK(RequireSession(request));
  SISD_ASSIGN_OR_RETURN(save, ParamBool(request, "save", false));
  SISD_ASSIGN_OR_RETURN(path, ParamString(request, "path"));
  SISD_RETURN_NOT_OK(
      manager.Close(request.session, save, path.value_or("")));
  JsonValue result = JsonValue::Object();
  result.Set("closed", JsonValue::Bool(true));
  return result;
}

Result<JsonValue> DoMetrics(SessionManager& manager, const ProtocolRequest&,
                            ServeMetrics* metrics) {
  if (metrics == nullptr) {
    return Status::Unavailable(
        "this transport collects no metrics (use the stream or event-loop "
        "transport)");
  }
  return EncodeMetrics(*metrics, manager.catalog().get());
}

Result<JsonValue> DoStats(SessionManager& manager, const ProtocolRequest&,
                          ServeMetrics*) {
  const ManagerStats stats = manager.Stats();
  JsonValue result = JsonValue::Object();
  result.Set("sessions", JsonValue::Int(static_cast<int64_t>(stats.sessions)));
  result.Set("resident", JsonValue::Int(static_cast<int64_t>(stats.resident)));
  result.Set("max_resident",
             JsonValue::Int(static_cast<int64_t>(stats.max_resident)));
  result.Set("opens", JsonValue::Int(static_cast<int64_t>(stats.opens)));
  result.Set("evictions",
             JsonValue::Int(static_cast<int64_t>(stats.evictions)));
  result.Set("restores",
             JsonValue::Int(static_cast<int64_t>(stats.restores)));
  result.Set("closes", JsonValue::Int(static_cast<int64_t>(stats.closes)));
  JsonValue names = JsonValue::Array();
  for (const std::string& name : manager.SessionNames()) {
    names.Append(JsonValue::Str(name));
  }
  result.Set("names", std::move(names));
  // Catalog contents: per-dataset fingerprint, byte size, pool count and
  // live session ref count.
  result.Set("catalog", EncodeCatalogListing(*manager.catalog()));
  return result;
}

/// The protocol's verb table: the one place a verb is named. Dispatch,
/// the unknown-verb error and the per-verb metrics slots all follow it,
/// in this order.
struct Verb {
  std::string_view name;
  Result<JsonValue> (*handler)(SessionManager&, const ProtocolRequest&,
                               ServeMetrics*);
};

constexpr Verb kVerbTable[] = {
    {"open", DoOpen},
    {"mine", DoMine},
    {"mine_list", DoMineList},
    {"assimilate", DoAssimilate},
    {"history", DoHistory},
    {"export", DoExport},
    {"save", DoSave},
    {"evict", DoEvict},
    {"close", DoClose},
    {"stats", DoStats},
    {"metrics", DoMetrics},
    {"dataset_load", DoDatasetLoad},
    {"dataset_list", DoDatasetList},
    {"dataset_drop", DoDatasetDrop},
    {"dataset_append", DoDatasetAppend},
    {"rebase", DoRebase},
};

Status UnknownVerb(const std::string& verb) {
  std::string expected;
  for (const Verb& entry : kVerbTable) {
    if (!expected.empty()) expected += '|';
    expected += entry.name;
  }
  return Status::InvalidArgument("unknown verb '" + verb + "' (expected " +
                                 expected + ")");
}

}  // namespace

const std::vector<std::string_view>& VerbNames() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const Verb& entry : kVerbTable) out.push_back(entry.name);
    return out;
  }();
  return names;
}

Result<pattern::Intention> ParseConditionSpec(const JsonValue& conditions,
                                              const data::DataTable& table) {
  if (!conditions.is_array() || conditions.size() == 0) {
    return Status::InvalidArgument(
        "'conditions' must be a non-empty array of condition objects");
  }
  std::vector<pattern::Condition> parsed;
  parsed.reserve(conditions.size());
  for (const JsonValue& spec : conditions.items()) {
    if (!spec.is_object()) {
      return Status::InvalidArgument("each condition must be an object");
    }
    SISD_ASSIGN_OR_RETURN(attr_json, spec.Get("attribute"));
    SISD_ASSIGN_OR_RETURN(attr_name, attr_json->GetString());
    SISD_ASSIGN_OR_RETURN(attribute, table.ColumnIndex(attr_name));
    const data::Column& column = table.column(attribute);
    SISD_ASSIGN_OR_RETURN(op_json, spec.Get("op"));
    SISD_ASSIGN_OR_RETURN(op, op_json->GetString());

    if (op == "<=" || op == ">=") {
      if (!data::IsOrderable(column.kind())) {
        return Status::InvalidArgument(
            "attribute '" + attr_name + "' is " +
            data::AttributeKindToString(column.kind()) +
            "; interval conditions need a numeric/ordinal attribute");
      }
      SISD_ASSIGN_OR_RETURN(threshold_json, spec.Get("threshold"));
      SISD_ASSIGN_OR_RETURN(threshold, threshold_json->GetDouble());
      parsed.push_back(op == "<="
                           ? pattern::Condition::LessEqual(attribute,
                                                           threshold)
                           : pattern::Condition::GreaterEqual(attribute,
                                                              threshold));
      continue;
    }
    if (op == "=" || op == "==" || op == "!=") {
      if (data::IsOrderable(column.kind())) {
        return Status::InvalidArgument(
            "attribute '" + attr_name + "' is " +
            data::AttributeKindToString(column.kind()) +
            "; equality conditions need a categorical/binary attribute");
      }
      SISD_ASSIGN_OR_RETURN(level_json, spec.Get("level"));
      SISD_ASSIGN_OR_RETURN(label, level_json->GetString());
      int32_t code = -1;
      for (size_t i = 0; i < column.labels().size(); ++i) {
        if (column.labels()[i] == label) {
          code = static_cast<int32_t>(i);
          break;
        }
      }
      if (code < 0) {
        return Status::InvalidArgument("attribute '" + attr_name +
                                       "' has no level '" + label + "'");
      }
      parsed.push_back(op == "!="
                           ? pattern::Condition::NotEquals(attribute, code)
                           : pattern::Condition::Equals(attribute, code));
      continue;
    }
    return Status::InvalidArgument("unknown condition op '" + op +
                                   "' (expected <=, >=, =, !=)");
  }
  return pattern::Intention(std::move(parsed));
}

Result<catalog::PinnedDataset> PreloadDataset(
    catalog::DatasetCatalog& catalog, const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("--preload needs a non-empty spec");
  }
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) {
    SISD_ASSIGN_OR_RETURN(dataset, datagen::MakeScenarioDataset(spec));
    return catalog.Intern(std::move(dataset), /*pin=*/false, /*retain=*/true);
  }
  const std::string path = spec.substr(0, eq);
  std::vector<std::string> targets;
  for (const std::string& column : SplitString(spec.substr(eq + 1), ',')) {
    const std::string trimmed{TrimWhitespace(column)};
    if (!trimmed.empty()) targets.push_back(trimmed);
  }
  if (path.empty() || targets.empty()) {
    return Status::InvalidArgument(
        "--preload CSV spec must be PATH=TARGET[,TARGET...], got '" + spec +
        "'");
  }
  SISD_ASSIGN_OR_RETURN(table, data::ReadCsvFile(path));
  SISD_ASSIGN_OR_RETURN(dataset, data::MakeDataset(table, targets, path));
  return catalog.Intern(std::move(dataset), /*pin=*/false, /*retain=*/true);
}

ProtocolResponse HandleRequest(SessionManager& manager,
                               const ProtocolRequest& request,
                               ServeMetrics* metrics) {
  Result<JsonValue> result = [&]() -> Result<JsonValue> {
    for (const Verb& entry : kVerbTable) {
      if (entry.name == request.verb) {
        return entry.handler(manager, request, metrics);
      }
    }
    return UnknownVerb(request.verb);
  }();
  if (!result.ok()) {
    return serialize::MakeErrorResponse(request, result.status());
  }
  return serialize::MakeOkResponse(request, std::move(result).MoveValue());
}

}  // namespace sisd::serve

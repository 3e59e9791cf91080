// sisd_cli — persistent mining sessions from the shell.
//
// Subcommands:
//   mine    start a session over a CSV file (--csv + --targets) or a
//           built-in paper scenario (--scenario), run iterations, print the
//           patterns found, and optionally --session-save a snapshot.
//   resume  restore a snapshot, run more iterations (the output continues
//           byte-identically from where the saved session stopped), and
//           save the grown session back.
//   export  flatten a snapshot's history / ranked lists to CSV, or
//           pretty-print the raw snapshot JSON.
//   list    greedily mine an ordered subgroup list (SSD++-style MDL
//           miner, search/list_miner.hpp): each appended rule captures the
//           rows it matches first and routes them to its own local normal
//           model; everything else stays on the dataset-marginal default
//           rule. Resumable through the same snapshot format as mine.
//   append  grow a saved session's dataset with new CSV rows: the
//           condition pool refreshes incrementally and the session
//           rebases onto the grown data (constraint replay, no cold
//           refit) — the live-dataset workflow from the shell.
//
// Every datagen scenario and arbitrary user data are drivable end to end:
//   sisd_cli mine --scenario crime --iterations 3 --session-save s.json
//   sisd_cli mine --csv data.csv --targets price,rent --min-coverage 20
//   sisd_cli resume --session s.json --iterations 2
//   sisd_cli export --session s.json --history history.csv
//
// The session server is a separate binary: sisd_serve (docs/PROTOCOL.md).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/strings.hpp"
#include "core/config_table.hpp"
#include "core/export.hpp"
#include "core/session.hpp"
#include "data/append.hpp"
#include "data/csv.hpp"
#include "datagen/scenarios.hpp"
#include "serialize/json.hpp"

namespace sisd {
namespace {

constexpr const char* kUsage = R"(sisd_cli — subjectively interesting subgroup discovery sessions

USAGE
  sisd_cli mine (--csv FILE --targets A[,B...] | --scenario NAME) [options]
  sisd_cli resume --session FILE [--iterations N] [--session-save OUT]
  sisd_cli export --session FILE [--history OUT.csv]
                  [--ranked OUT.csv [--iteration K]] [--json OUT.json]
  sisd_cli list (--csv FILE --targets A[,B...] | --scenario NAME |
                 --session FILE) [--rules N] [--list-alpha X]
                [--list-beta X] [--session-save OUT] [search options]
  sisd_cli append --session FILE --csv ROWS.csv [--iterations N]
                  [--session-save OUT]

MINE INPUT
  --csv FILE            CSV file with a header row (types are inferred)
  --targets A,B,...     numeric columns to model as real-valued targets;
                        every other column becomes a description attribute
  --scenario NAME       built-in generator: synthetic | crime | mammals |
                        water | gse (the paper's four datasets + synthetic)

MINE OPTIONS
  --iterations N        mining iterations to run (default 1)
  --session-save FILE   write the session snapshot after mining

CONFIG OPTIONS (defaults = the paper's Cortana settings; a value
outside its range exits 1 with InvalidArgument; [m l] = accepted by
mine / list)
)";

constexpr const char* kUsageSections = R"(
LIST
  Greedy MDL subgroup-list mining: up to --rules rules (default 3) are
  appended in order of normalized compression gain; each rule owns the
  rows it captures first (a local normal model per target), the default
  rule keeps the rest. --list-alpha / --list-beta weigh the per-condition
  and per-rule model cost (defaults 0.5 / 1). With --session FILE the
  list continues from the snapshot (byte-identical to never stopping);
  --session-save writes the grown session back. Search options
  (--beam-width, --max-depth, ...) shape the per-rule candidate search.

RESUME
  Restores the snapshot and continues mining; results are byte-identical
  to a session that never stopped. Saves back to --session-save when
  given, else to the --session file itself.

APPEND
  Restores the snapshot, appends the rows of --csv (header row required;
  columns must match the session's dataset schema), refreshes the
  condition pool incrementally from the session's own pool, and rebases
  the session onto the grown dataset: the background model's prior is
  recomputed on the grown targets and every assimilated constraint is
  replayed through the live assimilation path — bit-identical to a
  fresh session on the grown data fed the same history, without the cold
  refit. --iterations N mines further on the grown data; the session
  saves back to --session-save when given, else to the --session file.

EXPORT
  --history FILE        one CSV row per completed iteration
  --ranked FILE         the ranked top-k list of --iteration K (default:
                        the last iteration) as CSV
  --json FILE           the snapshot itself, pretty-printed
)";

struct Args {
  std::string command;
  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> bare;

  const std::string* Find(const std::string& name) const {
    for (const auto& [key, value] : flags) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

/// The usage text; the config options come from the config table.
std::string Usage() {
  std::string text = kUsage;
  for (const core::ConfigKey& key : core::ConfigKeys()) {
    const unsigned on = key.surfaces;
    if (on == core::kProtocolConfig) continue;
    const std::string_view type = core::ConfigTypeName(key);
    const std::string flag =
        core::ConfigFlag(key) +
        (type == "integer" ? " N" : type == "number" ? " X" : "");
    const std::string values =
        type == "bool" ? "switch"
                       : std::string(type) + " " +
                             core::DescribeConfigRange(key) + ", default " +
                             core::DescribeConfigDefault(key);
    text += StrFormat("  %-21s %.*s\n%24s%s  [%c %c]\n", flag.c_str(),
                      int(key.help.size()), key.help.data(), "",
                      values.c_str(), (on & core::kCliMine) ? 'm' : '-',
                      (on & core::kCliList) ? 'l' : '-');
  }
  return text + kUsageSections;
}

/// Flags that take no value: the config table's bool keys plus these.
bool IsSwitch(const std::string& name) {
  for (const core::ConfigKey& key : core::ConfigKeys()) {
    if (core::ConfigTypeName(key) == "bool" && core::ConfigFlag(key) == name) {
      return true;
    }
  }
  return name == "--help" || name == "-h";
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) return Status::InvalidArgument("missing subcommand");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (!StartsWith(token, "--") && token != "-h") {
      args.bare.push_back(token);
      continue;
    }
    if (IsSwitch(token)) {
      args.flags.emplace_back(token, "");
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + token + " needs a value");
    }
    args.flags.emplace_back(token, argv[++i]);
  }
  return args;
}

Result<long long> FlagInt(const Args& args, const std::string& name,
                          long long fallback) {
  const std::string* raw = args.Find(name);
  if (raw == nullptr) return fallback;
  std::optional<long long> parsed = ParseInt(*raw);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(name + " expects an integer, got '" +
                                   *raw + "'");
  }
  return *parsed;
}

/// Sets every config flag of `surface` onto `config` (the first
/// occurrence of a repeated flag wins), then validates the result.
Result<core::MinerConfig> ConfigFromArgs(const Args& args,
                                         core::ConfigSurface surface,
                                         core::MinerConfig config = {}) {
  for (const core::ConfigKey& key : core::ConfigKeys()) {
    if ((key.surfaces & surface) == 0) continue;
    if (const std::string* raw = args.Find(core::ConfigFlag(key))) {
      SISD_RETURN_NOT_OK(core::SetConfigFromText(key, *raw, &config));
    }
  }
  SISD_RETURN_NOT_OK(core::ValidateMinerConfig(config));
  return config;
}

Result<data::Dataset> LoadDataset(const Args& args) {
  const std::string* scenario = args.Find("--scenario");
  const std::string* csv = args.Find("--csv");
  if ((scenario != nullptr) == (csv != nullptr)) {
    return Status::InvalidArgument(
        "mine needs exactly one of --csv or --scenario");
  }
  if (scenario != nullptr) return datagen::MakeScenarioDataset(*scenario);
  const std::string* targets = args.Find("--targets");
  if (targets == nullptr) {
    return Status::InvalidArgument("--csv requires --targets");
  }
  SISD_ASSIGN_OR_RETURN(table, data::ReadCsvFile(*csv));
  std::vector<std::string> target_columns;
  for (const std::string& column : SplitString(*targets, ',')) {
    const std::string trimmed{TrimWhitespace(column)};
    if (!trimmed.empty()) target_columns.push_back(trimmed);
  }
  if (target_columns.empty()) {
    return Status::InvalidArgument("--targets names no columns");
  }
  return data::MakeDataset(table, target_columns, *csv);
}

void PrintIteration(size_t index, const core::IterationResult& iteration,
                    const data::DataTable& descriptions) {
  std::printf("iteration %zu (%zu candidates%s):\n", index,
              iteration.candidates_evaluated,
              iteration.hit_time_budget ? ", hit time budget" : "");
  std::printf("  location: %s\n",
              iteration.location.Describe(descriptions).c_str());
  if (iteration.spread.has_value()) {
    std::printf("  spread:   %s\n",
                iteration.spread->Describe(descriptions).c_str());
  } else if (!iteration.spread_error.empty()) {
    std::printf("  spread:   not assimilated (%s)\n",
                iteration.spread_error.c_str());
  }
}

Status MineIterationsAndPrint(core::MiningSession* session, int iterations) {
  const size_t already = session->history().size();
  for (int i = 0; i < iterations; ++i) {
    Result<core::IterationResult> iteration = session->MineNext();
    if (!iteration.ok()) {
      if (iteration.status().code() == StatusCode::kNotFound && i > 0) {
        std::printf("search exhausted after %d iterations\n", i);
        return Status::OK();
      }
      return iteration.status();
    }
    PrintIteration(already + size_t(i) + 1, iteration.Value(),
                   session->dataset().descriptions);
  }
  return Status::OK();
}

Status RunMine(const Args& args) {
  SISD_ASSIGN_OR_RETURN(dataset, LoadDataset(args));
  SISD_ASSIGN_OR_RETURN(config, ConfigFromArgs(args, core::kCliMine));
  std::printf("dataset '%s': %zu rows, %zu descriptions, %zu targets\n",
              dataset.name.c_str(), dataset.num_rows(),
              dataset.num_descriptions(), dataset.num_targets());
  SISD_ASSIGN_OR_RETURN(
      session, core::MiningSession::Create(std::move(dataset), config));
  SISD_ASSIGN_OR_RETURN(iterations, FlagInt(args, "--iterations", 1));
  SISD_RETURN_NOT_OK(MineIterationsAndPrint(&session, int(iterations)));
  if (const std::string* path = args.Find("--session-save")) {
    SISD_RETURN_NOT_OK(session.Save(*path));
    std::printf("session saved to %s (%zu iterations)\n", path->c_str(),
                session.history().size());
  }
  return Status::OK();
}

Status RunResume(const Args& args) {
  const std::string* path = args.Find("--session");
  if (path == nullptr) {
    return Status::InvalidArgument("resume needs --session FILE");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::Restore(*path));
  std::printf(
      "restored session over '%s': %zu iterations mined, %zu constraints\n",
      session.dataset().name.c_str(), session.history().size(),
      session.assimilator().num_constraints());
  SISD_ASSIGN_OR_RETURN(iterations, FlagInt(args, "--iterations", 1));
  SISD_RETURN_NOT_OK(MineIterationsAndPrint(&session, int(iterations)));
  const std::string* save_path = args.Find("--session-save");
  const std::string& out = save_path != nullptr ? *save_path : *path;
  SISD_RETURN_NOT_OK(session.Save(out));
  std::printf("session saved to %s (%zu iterations)\n", out.c_str(),
              session.history().size());
  return Status::OK();
}

Status RunAppend(const Args& args) {
  const std::string* path = args.Find("--session");
  if (path == nullptr) {
    return Status::InvalidArgument("append needs --session FILE");
  }
  const std::string* csv = args.Find("--csv");
  if (csv == nullptr) {
    return Status::InvalidArgument(
        "append needs --csv FILE with the new rows");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::Restore(*path));
  const size_t parent_rows = session.dataset().num_rows();
  std::printf(
      "restored session over '%s': %zu rows, %zu iterations mined\n",
      session.dataset().name.c_str(), parent_rows,
      session.history().size());
  SISD_ASSIGN_OR_RETURN(text, serialize::ReadTextFile(*csv));
  SISD_ASSIGN_OR_RETURN(
      grown, data::AppendRowsFromCsvText(session.dataset(), text));
  search::IncrementalPoolStats pool_stats;
  auto pool = std::make_shared<const search::ConditionPool>(
      search::ConditionPool::BuildIncremental(
          grown.descriptions, session.condition_pool(), parent_rows,
          session.config().search.num_split_points,
          session.config().search.include_exclusions, &pool_stats));
  auto dataset = std::make_shared<const data::Dataset>(std::move(grown));
  SISD_ASSIGN_OR_RETURN(outcome,
                        session.Rebase(dataset, pool, std::nullopt));
  std::printf(
      "appended %zu rows (%zu total); pool refreshed (%zu conditions "
      "extended in place, %zu rebuilt); replayed %zu iterations, %zu "
      "list rules\n",
      outcome.appended_rows, session.dataset().num_rows(),
      pool_stats.reused, pool_stats.rebuilt, outcome.replayed_iterations,
      outcome.replayed_rules);
  SISD_ASSIGN_OR_RETURN(iterations, FlagInt(args, "--iterations", 0));
  if (iterations > 0) {
    SISD_RETURN_NOT_OK(MineIterationsAndPrint(&session, int(iterations)));
  }
  const std::string* save_path = args.Find("--session-save");
  const std::string& out = save_path != nullptr ? *save_path : *path;
  SISD_RETURN_NOT_OK(session.Save(out));
  std::printf("session saved to %s (%zu iterations)\n", out.c_str(),
              session.history().size());
  return Status::OK();
}

Status RunExport(const Args& args) {
  const std::string* path = args.Find("--session");
  if (path == nullptr) {
    return Status::InvalidArgument("export needs --session FILE");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::Restore(*path));
  bool exported = false;
  if (const std::string* history_path = args.Find("--history")) {
    SISD_RETURN_NOT_OK(core::ExportHistoryCsv(session, *history_path));
    std::printf("history (%zu iterations) -> %s\n",
                session.history().size(), history_path->c_str());
    exported = true;
  }
  if (const std::string* ranked_path = args.Find("--ranked")) {
    if (session.history().empty()) {
      return Status::InvalidArgument("session has no iterations to export");
    }
    SISD_ASSIGN_OR_RETURN(
        iteration,
        FlagInt(args, "--iteration", (long long)(session.history().size())));
    if (iteration < 1 || size_t(iteration) > session.history().size()) {
      return Status::OutOfRange(StrFormat(
          "--iteration %lld outside 1..%zu", iteration,
          session.history().size()));
    }
    const data::DataTable table = core::RankedListTable(
        session.history()[size_t(iteration) - 1],
        session.dataset().descriptions);
    SISD_RETURN_NOT_OK(data::WriteCsvFile(table, *ranked_path));
    std::printf("ranked list of iteration %lld (%zu subgroups) -> %s\n",
                iteration, table.num_rows(), ranked_path->c_str());
    exported = true;
  }
  if (const std::string* json_path = args.Find("--json")) {
    SISD_ASSIGN_OR_RETURN(text, serialize::ReadTextFile(*path));
    SISD_ASSIGN_OR_RETURN(parsed, serialize::JsonValue::Parse(text));
    SISD_RETURN_NOT_OK(serialize::WriteTextFile(*json_path,
                                                parsed.Write(2) + "\n"));
    std::printf("snapshot JSON -> %s\n", json_path->c_str());
    exported = true;
  }
  if (!exported) {
    return Status::InvalidArgument(
        "export needs at least one of --history / --ranked / --json");
  }
  return Status::OK();
}

Status RunList(const Args& args) {
  SISD_ASSIGN_OR_RETURN(rules, FlagInt(args, "--rules", 3));
  if (rules < 1) {
    return Status::InvalidArgument("--rules must be >= 1");
  }
  const std::string* snapshot = args.Find("--session");
  std::optional<core::MiningSession> session;
  if (snapshot != nullptr) {
    if (args.Find("--csv") != nullptr || args.Find("--scenario") != nullptr) {
      return Status::InvalidArgument(
          "list takes either --session or a dataset source, not both");
    }
    SISD_ASSIGN_OR_RETURN(restored, core::MiningSession::Restore(*snapshot));
    session.emplace(std::move(restored));
    std::printf("restored session over '%s': %zu rules in the list\n",
                session->dataset().name.c_str(),
                session->subgroup_list() != nullptr
                    ? session->subgroup_list()->rules.size()
                    : size_t{0});
  } else {
    SISD_ASSIGN_OR_RETURN(dataset, LoadDataset(args));
    SISD_ASSIGN_OR_RETURN(config, ConfigFromArgs(args, core::kCliList));
    std::printf("dataset '%s': %zu rows, %zu descriptions, %zu targets\n",
                dataset.name.c_str(), dataset.num_rows(),
                dataset.num_descriptions(), dataset.num_targets());
    SISD_ASSIGN_OR_RETURN(
        created, core::MiningSession::Create(std::move(dataset), config));
    session.emplace(std::move(created));
  }

  const size_t before = session->subgroup_list() != nullptr
                            ? session->subgroup_list()->rules.size()
                            : size_t{0};
  SISD_ASSIGN_OR_RETURN(result, session->MineList(int(rules)));
  const search::SubgroupList* list = session->subgroup_list();
  for (size_t i = 0; i < result.rules.size(); ++i) {
    const search::SubgroupRule& rule = result.rules[i];
    std::printf("rule %zu: %s (gain=%.6f, captured=%zu, coverage=%zu)\n",
                before + i + 1,
                rule.intention.ToString(
                    session->dataset().descriptions).c_str(),
                rule.gain, rule.captured.count(), rule.extension.count());
  }
  if (result.exhausted) {
    std::printf("list exhausted: no further positive-gain rule (%zu "
                "appended this run)\n",
                result.rules.size());
  }
  std::printf("list: %zu rules, total gain %.6f nats, %zu rows on the "
              "default rule (%zu candidates evaluated%s)\n",
              list != nullptr ? list->rules.size() : size_t{0},
              list != nullptr ? list->total_gain : 0.0,
              list != nullptr ? list->uncovered.count() : size_t{0},
              result.candidates_evaluated,
              result.hit_time_budget ? ", hit time budget" : "");
  if (const std::string* path = args.Find("--session-save")) {
    SISD_RETURN_NOT_OK(session->Save(*path));
    std::printf("session saved to %s\n", path->c_str());
  }
  return Status::OK();
}

/// One subcommand: the flags it takes besides the config table's flags
/// of its surface (0: none), and its runner. A flag not on its list is a
/// usage error (exit 2), not a silently ignored key-value pair.
struct Subcommand {
  std::string_view name;
  unsigned surface;
  std::vector<std::string> flags;
  Status (*run)(const Args&);
};

const Subcommand kSubcommands[] = {
    {"mine", core::kCliMine,
     {"--csv", "--targets", "--scenario", "--iterations", "--session-save"},
     RunMine},
    {"resume", 0, {"--session", "--iterations", "--session-save"}, RunResume},
    {"append", 0, {"--session", "--csv", "--iterations", "--session-save"},
     RunAppend},
    {"export", 0,
     {"--session", "--history", "--ranked", "--iteration", "--json"},
     RunExport},
    {"list", core::kCliList,
     {"--csv", "--targets", "--scenario", "--session", "--rules",
      "--session-save"},
     RunList},
};

Status ValidateFlags(const Args& args, const Subcommand& subcommand) {
  for (const auto& [flag, value] : args.flags) {
    bool known = std::find(subcommand.flags.begin(), subcommand.flags.end(),
                           flag) != subcommand.flags.end();
    for (const core::ConfigKey& key : core::ConfigKeys()) {
      known = known || ((key.surfaces & subcommand.surface) != 0 &&
                        core::ConfigFlag(key) == flag);
    }
    if (!known) {
      return Status::InvalidArgument("unknown flag " + flag +
                                     " for subcommand '" + args.command +
                                     "'");
    }
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", args.status().message().c_str(),
                 Usage().c_str());
    return 2;
  }
  if (args.Value().command == "help" || args.Value().Find("--help") ||
      args.Value().Find("-h")) {
    std::printf("%s", Usage().c_str());
    return 0;
  }
  const Subcommand* subcommand = nullptr;
  for (const Subcommand& candidate : kSubcommands) {
    if (candidate.name == args.Value().command) subcommand = &candidate;
  }
  if (subcommand == nullptr) {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n\n%s",
                 args.Value().command.c_str(), Usage().c_str());
    return 2;
  }
  if (Status valid = ValidateFlags(args.Value(), *subcommand); !valid.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", valid.message().c_str(),
                 Usage().c_str());
    return 2;
  }
  if (Status status = subcommand->run(args.Value()); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sisd

int main(int argc, char** argv) { return sisd::Main(argc, argv); }

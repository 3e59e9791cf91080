// The dataset_append and rebase protocol verbs end to end: appends
// register catalog versions and refresh pools, rebase moves a session
// forward with a generation bump, dedup'd appends and same-version
// rebases report `reused`, malformed requests fail loudly, and the
// metrics verb exposes the version-chain gauges. A dialogue across three
// appends answers the same bytes on one scoring thread and on four.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "data/table.hpp"
#include "datagen/scenarios.hpp"
#include "serialize/json.hpp"
#include "serialize/protocol.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

using serialize::JsonValue;

/// Runs one newline-delimited request script on `manager`, returning one
/// parsed response per request line. `metrics` carries counters across
/// passes (ServeStream keeps a private collector when none is shared).
std::vector<serialize::ProtocolResponse> RunScript(
    SessionManager& manager, const std::string& script,
    ServeMetrics* metrics = nullptr) {
  std::istringstream in(script);
  std::ostringstream out;
  ServeStreamOptions options;
  options.metrics = metrics;
  ServeStream(manager, in, out, options);
  std::vector<serialize::ProtocolResponse> responses;
  for (const std::string& line : SplitString(out.str(), '\n')) {
    if (line.empty()) continue;
    Result<serialize::ProtocolResponse> parsed =
        serialize::ParseResponseLine(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (parsed.ok()) responses.push_back(std::move(parsed).MoveValue());
  }
  return responses;
}

int64_t IntField(const JsonValue& result, const char* key) {
  const JsonValue* field = result.Find(key);
  EXPECT_NE(field, nullptr) << key;
  return field == nullptr ? -1 : field->GetInt().ValueOr(-1);
}

std::string StrField(const JsonValue& result, const char* key) {
  const JsonValue* field = result.Find(key);
  EXPECT_NE(field, nullptr) << key;
  return field == nullptr ? "" : field->GetString().ValueOr("");
}

bool BoolField(const JsonValue& result, const char* key) {
  const JsonValue* field = result.Find(key);
  EXPECT_NE(field, nullptr) << key;
  return field == nullptr ? false : field->GetBool().ValueOr(false);
}

/// Builds a dataset_append request carrying the first `rows` rows of the
/// synthetic scenario as JSON cells (the 'columns' + 'rows' form).
std::string AppendRequestLine(int64_t id, const std::string& dataset,
                              size_t rows) {
  const data::Dataset source =
      datagen::MakeScenarioDataset("synthetic").Value();
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Int(id));
  request.Set("verb", JsonValue::Str("dataset_append"));
  request.Set("dataset", JsonValue::Str(dataset));
  JsonValue columns = JsonValue::Array();
  for (size_t j = 0; j < source.num_descriptions(); ++j) {
    columns.Append(JsonValue::Str(source.descriptions.column(j).name()));
  }
  for (const std::string& target : source.target_names) {
    columns.Append(JsonValue::Str(target));
  }
  request.Set("columns", std::move(columns));
  JsonValue rows_json = JsonValue::Array();
  for (size_t i = 0; i < rows; ++i) {
    JsonValue row = JsonValue::Array();
    for (size_t j = 0; j < source.num_descriptions(); ++j) {
      const data::Column& column = source.descriptions.column(j);
      if (data::IsOrderable(column.kind())) {
        row.Append(JsonValue::Double(column.NumericValue(i)));
      } else {
        row.Append(JsonValue::Str(column.Label(column.Code(i))));
      }
    }
    for (size_t t = 0; t < source.num_targets(); ++t) {
      row.Append(JsonValue::Double(source.targets(i, t)));
    }
    rows_json.Append(std::move(row));
  }
  request.Set("rows", std::move(rows_json));
  return request.Write() + "\n";
}

constexpr const char* kFastConfig =
    "\"config\":{\"beam_width\":8,\"max_depth\":2,\"top_k\":20,"
    "\"min_coverage\":5}";

TEST(AppendServeTest, AppendAndRebaseEndToEnd) {
  SessionManager manager{ServeConfig{}};
  ServeMetrics metrics;

  // Load the base dataset, open a session on it, mine one iteration.
  std::string setup;
  setup +=
      "{\"id\":1,\"verb\":\"dataset_load\",\"name\":\"base\","
      "\"scenario\":\"synthetic\"}\n";
  setup += std::string("{\"id\":2,\"verb\":\"open\",\"session\":\"s1\","
                       "\"dataset_ref\":\"base\",") +
           kFastConfig + "}\n";
  setup += "{\"id\":3,\"verb\":\"mine\",\"session\":\"s1\"}\n";
  std::vector<serialize::ProtocolResponse> responses = RunScript(manager, setup, &metrics);
  ASSERT_EQ(responses.size(), 3u);
  for (const serialize::ProtocolResponse& response : responses) {
    ASSERT_TRUE(response.ok) << response.error.ToString();
  }
  const int64_t base_rows = IntField(responses[1].result, "rows");
  const int64_t generation_before =
      IntField(responses[2].result, "generation");

  // Append three rows. The open built the pool, so the append must
  // refresh it incrementally.
  responses = RunScript(manager, AppendRequestLine(4, "base", 3), &metrics);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok) << responses[0].error.ToString();
  const std::string child_name = StrField(responses[0].result, "name");
  const std::string child_fp = StrField(responses[0].result, "fingerprint");
  EXPECT_NE(child_name, "base");
  EXPECT_EQ(IntField(responses[0].result, "appended_rows"), 3);
  EXPECT_EQ(IntField(responses[0].result, "row_offset"), base_rows);
  EXPECT_EQ(IntField(responses[0].result, "rows"), base_rows + 3);
  EXPECT_EQ(IntField(responses[0].result, "pools_refreshed"), 1);
  EXPECT_FALSE(BoolField(responses[0].result, "reused"));

  // An identical append dedups onto the same version.
  responses = RunScript(manager, AppendRequestLine(5, "base", 3), &metrics);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  EXPECT_EQ(StrField(responses[0].result, "fingerprint"), child_fp);
  EXPECT_TRUE(BoolField(responses[0].result, "reused"));

  // Rebase the session onto the version: generation bumps, the replay
  // count matches the mined history.
  responses = RunScript(manager,
                  "{\"id\":6,\"verb\":\"rebase\",\"session\":\"s1\","
                  "\"dataset\":\"" + child_name + "\"}\n", &metrics);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok) << responses[0].error.ToString();
  EXPECT_EQ(StrField(responses[0].result, "fingerprint"), child_fp);
  EXPECT_EQ(IntField(responses[0].result, "appended_rows"), 3);
  EXPECT_EQ(IntField(responses[0].result, "replayed_iterations"), 1);
  EXPECT_EQ(IntField(responses[0].result, "rows"), base_rows + 3);
  EXPECT_EQ(IntField(responses[0].result, "generation"),
            generation_before + 1);
  EXPECT_FALSE(BoolField(responses[0].result, "reused"));

  // Rebasing onto the version the session already mines is a reported
  // no-op: no generation bump.
  responses = RunScript(manager,
                  "{\"id\":7,\"verb\":\"rebase\",\"session\":\"s1\","
                  "\"dataset\":\"" + child_name + "\"}\n", &metrics);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  EXPECT_TRUE(BoolField(responses[0].result, "reused"));
  EXPECT_EQ(IntField(responses[0].result, "generation"),
            generation_before + 1);

  // Mining continues on the grown dataset.
  responses = RunScript(manager,
                  "{\"id\":8,\"verb\":\"mine\",\"session\":\"s1\"}\n", &metrics);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok) << responses[0].error.ToString();

  // dataset_list exposes the chain fields for the version entry.
  responses = RunScript(manager, "{\"id\":9,\"verb\":\"dataset_list\"}\n", &metrics);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  const JsonValue* datasets = responses[0].result.Find("datasets");
  ASSERT_NE(datasets, nullptr);
  bool saw_version = false;
  for (const JsonValue& entry : datasets->items()) {
    if (StrField(entry, "name") != child_name) continue;
    saw_version = true;
    EXPECT_EQ(StrField(entry, "parent_fingerprint").size(), 16u);
    EXPECT_EQ(IntField(entry, "row_offset"), base_rows);
    EXPECT_GT(IntField(entry, "shared_bytes"), 0);
    EXPECT_EQ(IntField(entry, "depth"), 1);
  }
  EXPECT_TRUE(saw_version) << "the version must appear in dataset_list";

  // Metrics: per-verb counters and the catalog version-chain gauges.
  responses = RunScript(manager, "{\"id\":10,\"verb\":\"metrics\"}\n", &metrics);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  const JsonValue* verbs = responses[0].result.Find("verbs");
  ASSERT_NE(verbs, nullptr);
  const JsonValue* append_verb = verbs->Find("dataset_append");
  ASSERT_NE(append_verb, nullptr);
  EXPECT_EQ(IntField(*append_verb, "count"), 2);
  const JsonValue* rebase_verb = verbs->Find("rebase");
  ASSERT_NE(rebase_verb, nullptr);
  EXPECT_EQ(IntField(*rebase_verb, "count"), 2);
  const JsonValue* catalog = responses[0].result.Find("catalog");
  ASSERT_NE(catalog, nullptr);
  EXPECT_EQ(IntField(*catalog, "appends"), 1);
  EXPECT_EQ(IntField(*catalog, "versions"), 1);
  EXPECT_GT(IntField(*catalog, "shared_bytes"), 0);
  EXPECT_EQ(IntField(*catalog, "pool_refreshes"), 1);
  EXPECT_GT(IntField(*catalog, "pool_conditions_reused") +
                IntField(*catalog, "pool_conditions_rebuilt"),
            0);
}

TEST(AppendServeTest, MalformedAndConflictingRequestsFailLoudly) {
  SessionManager manager{ServeConfig{}};
  std::string setup;
  setup +=
      "{\"id\":1,\"verb\":\"dataset_load\",\"name\":\"base\","
      "\"scenario\":\"synthetic\"}\n";
  setup +=
      "{\"id\":2,\"verb\":\"dataset_load\",\"name\":\"other\","
      "\"scenario\":\"crime\"}\n";
  setup += std::string("{\"id\":3,\"verb\":\"open\",\"session\":\"s1\","
                       "\"dataset_ref\":\"base\",") +
           kFastConfig + "}\n";
  std::vector<serialize::ProtocolResponse> responses = RunScript(manager, setup);
  ASSERT_EQ(responses.size(), 3u);
  for (const serialize::ProtocolResponse& response : responses) {
    ASSERT_TRUE(response.ok) << response.error.ToString();
  }

  // Neither csv_text nor rows.
  responses = RunScript(
      manager,
      "{\"id\":4,\"verb\":\"dataset_append\",\"dataset\":\"base\"}\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error.code(), StatusCode::kInvalidArgument);

  // Both csv_text and rows.
  responses = RunScript(manager,
                  "{\"id\":5,\"verb\":\"dataset_append\","
                  "\"dataset\":\"base\",\"csv_text\":\"x\\n1\\n\","
                  "\"rows\":[]}\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error.code(), StatusCode::kInvalidArgument);

  // A malformed row reports InvalidArgument and changes nothing.
  responses = RunScript(manager,
                  "{\"id\":6,\"verb\":\"dataset_append\","
                  "\"dataset\":\"base\",\"columns\":[\"ghost\"],"
                  "\"rows\":[[1]]}\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error.code(), StatusCode::kInvalidArgument);

  // Unknown parent dataset.
  responses = RunScript(manager, AppendRequestLine(7, "ghost", 1));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error.code(), StatusCode::kNotFound);

  // Rebase onto a dataset that is not a descendant of the session's.
  responses = RunScript(manager,
                  "{\"id\":8,\"verb\":\"rebase\",\"session\":\"s1\","
                  "\"dataset\":\"other\"}\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error.code(), StatusCode::kInvalidArgument);

  // Rebase guarded by a stale generation is a Conflict.
  responses = RunScript(manager, AppendRequestLine(9, "base", 2));
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  const std::string child = StrField(responses[0].result, "name");
  responses = RunScript(manager,
                  "{\"id\":10,\"verb\":\"rebase\",\"session\":\"s1\","
                  "\"dataset\":\"" + child +
                  "\",\"if_generation\":999}\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error.code(), StatusCode::kConflict);

  // The failures left the session usable and the catalog consistent.
  responses = RunScript(manager,
                  "{\"id\":11,\"verb\":\"mine\",\"session\":\"s1\"}\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok) << responses[0].error.ToString();
}

/// `rows` CSV rows (header included) of a mixed table: two numeric
/// columns with ties, an integer-valued one, a categorical, a 0/1 binary
/// and two targets. Row `i` of the whole stream is row `first + k`;
/// `level` names the categorical value every seventh row takes (a new
/// level in a later append).
std::string MixedCsv(size_t first, size_t rows, const std::string& level) {
  const char* colors[3] = {"red", "green", "blue"};
  std::string csv = "x,y,k,c,b,t1,t2\n";
  for (size_t i = first; i < first + rows; ++i) {
    const double x = double((i * 37) % 101) / 10.0;
    const double y = double(i % 7) * 1.5;
    const std::string c = i % 7 == 3 ? level : colors[i % 3];
    const double t1 = double(i % 11) * 0.3 + (c == "red" ? 1.0 : 0.0);
    const double t2 = double(i % 13) * 0.2 - (x > 5.0 ? 0.5 : 0.0);
    char line[160];
    std::snprintf(line, sizeof(line), "%.17g,%.17g,%zu,%s,%zu,%.17g,%.17g\n",
                  x, y, i % 5, c.c_str(), i % 2, t1, t2);
    csv += line;
  }
  return csv;
}

std::string Request(JsonValue request) { return request.Write() + "\n"; }

TEST(AppendServeTest, AppendDialogueIsIdenticalOnOneAndFourThreads) {
  // load -> open x2 -> assimilate -> 3 x (dataset_append, rebase both,
  // mine both). Pool builds at open, refreshes at append and the scoring
  // all run on the manager's shared pool, so every answer must be the same
  // bytes whatever its size.
  std::string script;
  JsonValue load = JsonValue::Object();
  load.Set("id", JsonValue::Int(1));
  load.Set("verb", JsonValue::Str("dataset_load"));
  load.Set("name", JsonValue::Str("mixed"));
  load.Set("csv_text", JsonValue::Str(MixedCsv(0, 240, "red")));
  JsonValue targets = JsonValue::Array();
  targets.Append(JsonValue::Str("t1"));
  targets.Append(JsonValue::Str("t2"));
  load.Set("targets", std::move(targets));
  script += Request(std::move(load));
  script += std::string("{\"id\":2,\"verb\":\"open\",\"session\":\"s1\","
                        "\"dataset_ref\":\"mixed\",") +
            kFastConfig + "}\n";
  script +=
      "{\"id\":3,\"verb\":\"open\",\"session\":\"s2\","
      "\"dataset_ref\":\"mixed\",\"config\":{\"beam_width\":8,"
      "\"max_depth\":2,\"top_k\":20,\"min_coverage\":5,"
      "\"exclusions\":true}}\n";
  script +=
      "{\"id\":4,\"verb\":\"assimilate\",\"session\":\"s1\","
      "\"conditions\":[{\"attribute\":\"c\",\"op\":\"=\","
      "\"level\":\"green\"}]}\n";
  int64_t id = 5;
  size_t first = 240;
  const size_t sizes[3] = {3, 40, 120};
  const char* levels[3] = {"red", "violet", "blue"};
  for (int step = 0; step < 3; ++step) {
    const std::string parent =
        step == 0 ? "mixed" : "mixed@v" + std::to_string(step + 1);
    const std::string child = "mixed@v" + std::to_string(step + 2);
    JsonValue append = JsonValue::Object();
    append.Set("id", JsonValue::Int(id++));
    append.Set("verb", JsonValue::Str("dataset_append"));
    append.Set("dataset", JsonValue::Str(parent));
    append.Set("csv_text",
               JsonValue::Str(MixedCsv(first, sizes[step], levels[step])));
    script += Request(std::move(append));
    first += sizes[step];
    for (const char* session : {"s1", "s2"}) {
      script += "{\"id\":" + std::to_string(id++) +
                ",\"verb\":\"rebase\",\"session\":\"" + session +
                "\",\"dataset\":\"" + child + "\"}\n";
    }
    for (const char* session : {"s1", "s2"}) {
      script += "{\"id\":" + std::to_string(id++) +
                ",\"verb\":\"mine\",\"session\":\"" + session + "\"}\n";
    }
  }

  std::vector<std::string> transcripts;
  for (const int threads : {1, 4}) {
    ServeConfig config;
    config.num_threads = threads;
    SessionManager manager(config);
    std::istringstream in(script);
    std::ostringstream out;
    ServeStream(manager, in, out);
    transcripts.push_back(out.str());
  }
  const std::vector<std::string> one = SplitString(transcripts[0], '\n');
  const std::vector<std::string> four = SplitString(transcripts[1], '\n');
  ASSERT_EQ(one.size(), four.size());
  size_t answered = 0;
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "response " << i;
    if (one[i].empty()) continue;
    ++answered;
    EXPECT_NE(one[i].find("\"ok\":true"), std::string::npos) << one[i];
    // Both sessions' alphabets (with and without exclusions) refresh.
    if (one[i].find("\"verb\":\"dataset_append\"") != std::string::npos) {
      EXPECT_NE(one[i].find("\"pools_refreshed\":2"), std::string::npos)
          << one[i];
    }
  }
  EXPECT_EQ(answered, 4u + 3u * 5u);
}

}  // namespace
}  // namespace sisd::serve

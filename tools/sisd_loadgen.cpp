// sisd_loadgen — load generator for the sisd_serve event loop.
//
// Drives N concurrent analyst connections against a running
// `sisd_serve --epoll` server, each pipelining a mixed open / mine /
// assimilate / history / close script, validating every response
// (parse, id correlation, verb echo, status), and measuring
// client-observed latency per request. The run summary — RPS, latency
// percentiles, validation counters — prints as one JSON object.
//
//   sisd_serve --epoll 0 --workers 4 &        # announces its port
//   sisd_loadgen --port 38741 --connections 64 --rounds 10
//
// A response rejected with Unavailable (queue backpressure) counts as
// `rejected`, not invalid: it is the documented overload answer. Any
// other failure — unparsable line, unknown id, wrong verb, unexpected
// error code — counts as `invalid` and fails the run (exit 1).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/status.hpp"
#include "common/strings.hpp"
#include "datagen/scenarios.hpp"
#include "search/condition_pool.hpp"
#include "serialize/json.hpp"
#include "serialize/protocol.hpp"
#include "serve/metrics.hpp"

namespace sisd {
namespace {

constexpr const char* kUsage = R"(sisd_loadgen — load generator for the sisd_serve event loop

USAGE
  sisd_loadgen --port PORT [options]

OPTIONS
  --port PORT        server port on 127.0.0.1 (required)
  --connections N    concurrent analyst connections (default 8)
  --rounds N         mine rounds per connection; every 3rd round adds a
                     history request, every 4th an assimilate (default 10)
  --pipeline N       max requests in flight per connection (default 8)
  --scenario NAME    dataset each session opens (default synthetic); the
                     assimilate condition is drawn from its table
  --dataset-ref NAME open sessions against a preloaded catalog dataset
                     instead of embedding --scenario
  --append-every N   every Nth round, append rows to the --dataset-ref
                     dataset (dataset_append) and rebase the session onto
                     the appended version (requires --dataset-ref and
                     --append-csv; default 0 = off)
  --append-csv FILE  CSV text (header + rows, matching the dataset's
                     schema) sent as the dataset_append payload
  --output FILE      write the JSON summary to FILE (default: stdout)

Each connection opens its own session (open is awaited before the
pipelined phase so a backpressure rejection cannot orphan the script),
then pipelines the traffic mix and closes. The summary reports
client-observed latency over all requests.

Append traffic is safe to race: every connection appends the same rows,
so concurrent appends dedup onto one child version (named REF@v2), and
every rebase targets that version by its derived name. A repeat append
or rebase is a documented no-op (reused), still a valid ok response.
)";

struct LoadgenArgs {
  int port = -1;
  size_t connections = 8;
  size_t rounds = 10;
  size_t pipeline = 8;
  std::string scenario = "synthetic";
  std::string dataset_ref;
  size_t append_every = 0;  // 0 = no append traffic
  std::string append_csv_path;
  std::string append_csv_text;  // loaded from append_csv_path at startup
  std::string output;
  /// The `assimilate` condition: the first condition of the --scenario
  /// table's default condition pool, so it is valid on every scenario.
  serialize::JsonValue condition;
};

/// Per-connection outcome counters, merged after the join.
struct WorkerResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t invalid = 0;
  std::vector<uint64_t> latencies_us;
  std::string first_error;  // diagnostic for the first invalid response
};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Blocking loopback connect.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& text) {
  size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

/// Buffered line reader over a socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF/error before a full line arrived.
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line->assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// One scripted request: wire line + what a valid response echoes.
struct ScriptedRequest {
  int64_t id = 0;
  std::string verb;
  std::string line;  // newline-terminated wire bytes
};

ScriptedRequest MakeRequest(int64_t id, const std::string& verb,
                            const std::string& session,
                            std::vector<std::pair<std::string,
                                                  serialize::JsonValue>>
                                params) {
  serialize::ProtocolRequest request;
  request.id = id;
  request.has_id = true;
  request.verb = verb;
  request.session = session;
  for (auto& [key, value] : params) {
    request.params.Set(key, std::move(value));
  }
  ScriptedRequest scripted;
  scripted.id = id;
  scripted.verb = verb;
  scripted.line = serialize::EncodeRequest(request).Write() + "\n";
  return scripted;
}

/// Builds one analyst's request script (open excluded; it is awaited
/// separately). The mix: mine every round, history every 3rd round,
/// assimilate every 4th.
std::vector<ScriptedRequest> BuildScript(const LoadgenArgs& args,
                                         const std::string& session) {
  using serialize::JsonValue;
  std::vector<ScriptedRequest> script;
  int64_t next_id = 2;  // id 1 is the awaited open
  for (size_t round = 1; round <= args.rounds; ++round) {
    script.push_back(MakeRequest(
        next_id++, "mine", session,
        {{"iterations", JsonValue::Int(1)}}));
    if (round % 3 == 0) {
      script.push_back(MakeRequest(next_id++, "history", session, {}));
    }
    if (args.append_every > 0 && round % args.append_every == 0) {
      // Grow the shared dataset and move this session onto the child.
      // Identical rows from every connection dedup onto one version, so
      // the child's derived name (REF@v2) is stable and the repeat
      // append/rebase rounds are valid no-ops. The append carries the
      // session name even though the verb ignores it: on the epoll
      // transport that routes it through the same per-session FIFO queue
      // as the rebase that follows, so a pipelined rebase can never be
      // executed before the append that creates its target version.
      script.push_back(MakeRequest(
          next_id++, "dataset_append", session,
          {{"dataset", JsonValue::Str(args.dataset_ref)},
           {"csv_text", JsonValue::Str(args.append_csv_text)}}));
      script.push_back(MakeRequest(
          next_id++, "rebase", session,
          {{"dataset", JsonValue::Str(args.dataset_ref + "@v2")}}));
    }
    if (round % 4 == 0) {
      // Re-assimilating a condition is a valid no-op analyst action, so
      // the request stays correct every round.
      JsonValue conditions = JsonValue::Array();
      conditions.Append(args.condition);
      script.push_back(MakeRequest(next_id++, "assimilate", session,
                                   {{"conditions", std::move(conditions)}}));
    }
  }
  script.push_back(MakeRequest(next_id++, "close", session, {}));
  return script;
}

/// Validates one response line against the outstanding-id table.
/// Updates counters; erases the id on success.
void Validate(const std::string& line,
              std::unordered_map<int64_t, std::pair<std::string, uint64_t>>*
                  outstanding,
              WorkerResult* result) {
  const auto note_invalid = [&](const std::string& why) {
    ++result->invalid;
    if (result->first_error.empty()) {
      result->first_error = why + ": " + line.substr(0, 200);
    }
  };
  Result<serialize::ProtocolResponse> parsed =
      serialize::ParseResponseLine(line);
  if (!parsed.ok()) {
    note_invalid("unparsable response");
    return;
  }
  const serialize::ProtocolResponse& response = parsed.Value();
  if (!response.has_id) {
    note_invalid("response without id");
    return;
  }
  const auto it = outstanding->find(response.id);
  if (it == outstanding->end()) {
    note_invalid("unknown id " + std::to_string(response.id));
    return;
  }
  const auto [verb, sent_us] = it->second;
  outstanding->erase(it);
  result->latencies_us.push_back(NowMicros() - sent_us);
  if (response.verb != verb) {
    note_invalid("verb mismatch: sent " + verb + " got " + response.verb);
    return;
  }
  if (response.ok) {
    ++result->ok;
    return;
  }
  if (response.error.code() == StatusCode::kUnavailable) {
    ++result->rejected;  // backpressure is a valid answer, not a failure
    return;
  }
  note_invalid("unexpected error [" +
               std::string(StatusCodeToString(response.error.code())) +
               "] " + response.error.message());
}

/// One analyst connection: await open, pipeline the script, drain.
WorkerResult RunConnection(const LoadgenArgs& args, size_t index) {
  WorkerResult result;
  const std::string session = "lg-" + std::to_string(index);
  const int fd = Connect(args.port);
  if (fd < 0) {
    ++result.invalid;
    result.first_error = "connect failed: " + std::string(strerror(errno));
    return result;
  }
  LineReader reader(fd);
  std::unordered_map<int64_t, std::pair<std::string, uint64_t>> outstanding;

  using serialize::JsonValue;
  std::vector<std::pair<std::string, JsonValue>> open_params;
  if (!args.dataset_ref.empty()) {
    open_params.emplace_back("dataset_ref", JsonValue::Str(args.dataset_ref));
  } else {
    open_params.emplace_back("scenario", JsonValue::Str(args.scenario));
  }
  const ScriptedRequest open =
      MakeRequest(1, "open", session, std::move(open_params));
  outstanding.emplace(open.id, std::make_pair(open.verb, NowMicros()));
  ++result.sent;
  std::string line;
  if (!WriteAll(fd, open.line) || !reader.ReadLine(&line)) {
    ++result.invalid;
    result.first_error = "connection lost during open";
    ::close(fd);
    return result;
  }
  Validate(line, &outstanding, &result);
  if (result.invalid != 0 || result.ok != 1) {
    // A rejected or failed open orphans the whole script; stop here.
    if (result.first_error.empty()) result.first_error = "open rejected";
    ++result.invalid;
    ::close(fd);
    return result;
  }

  const std::vector<ScriptedRequest> script = BuildScript(args, session);
  size_t next = 0;
  while (next < script.size() || !outstanding.empty()) {
    while (next < script.size() &&
           outstanding.size() < std::max<size_t>(args.pipeline, 1)) {
      const ScriptedRequest& request = script[next++];
      outstanding.emplace(request.id,
                          std::make_pair(request.verb, NowMicros()));
      ++result.sent;
      if (!WriteAll(fd, request.line)) {
        ++result.invalid;
        result.first_error = "write failed mid-script";
        ::close(fd);
        return result;
      }
    }
    if (outstanding.empty()) break;
    if (!reader.ReadLine(&line)) {
      result.invalid += outstanding.size();
      result.first_error = "connection closed with " +
                           std::to_string(outstanding.size()) +
                           " responses outstanding";
      ::close(fd);
      return result;
    }
    Validate(line, &outstanding, &result);
  }
  ::close(fd);
  return result;
}

Result<LoadgenArgs> ParseArgs(int argc, char** argv) {
  LoadgenArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") continue;
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    const auto parse_positive = [&](const char* name) -> Result<size_t> {
      std::optional<long long> n = ParseInt(value);
      if (!n.has_value() || *n < 1) {
        return Status::InvalidArgument(std::string(name) +
                                       " expects a positive integer");
      }
      return size_t(*n);
    };
    if (flag == "--port") {
      std::optional<long long> n = ParseInt(value);
      if (!n.has_value() || *n < 1 || *n > 65535) {
        return Status::InvalidArgument("--port expects a port in 1..65535");
      }
      args.port = int(*n);
    } else if (flag == "--connections") {
      SISD_ASSIGN_OR_RETURN(n, parse_positive("--connections"));
      args.connections = n;
    } else if (flag == "--rounds") {
      SISD_ASSIGN_OR_RETURN(n, parse_positive("--rounds"));
      args.rounds = n;
    } else if (flag == "--pipeline") {
      SISD_ASSIGN_OR_RETURN(n, parse_positive("--pipeline"));
      args.pipeline = n;
    } else if (flag == "--scenario") {
      args.scenario = value;
    } else if (flag == "--dataset-ref") {
      args.dataset_ref = value;
    } else if (flag == "--append-every") {
      SISD_ASSIGN_OR_RETURN(n, parse_positive("--append-every"));
      args.append_every = n;
    } else if (flag == "--append-csv") {
      args.append_csv_path = value;
    } else if (flag == "--output") {
      args.output = value;
    } else {
      return Status::InvalidArgument("unknown flag '" + flag + "'");
    }
  }
  if (args.port < 0) {
    return Status::InvalidArgument("--port is required");
  }
  if (args.append_every > 0) {
    if (args.dataset_ref.empty() || args.append_csv_path.empty()) {
      return Status::InvalidArgument(
          "--append-every requires --dataset-ref and --append-csv");
    }
    std::ifstream in(args.append_csv_path);
    if (!in) {
      return Status::IOError("cannot open --append-csv '" +
                             args.append_csv_path + "'");
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.empty()) {
      return Status::InvalidArgument("--append-csv '" +
                                     args.append_csv_path + "' is empty");
    }
    args.append_csv_text = std::move(text);
  }
  SISD_ASSIGN_OR_RETURN(dataset, datagen::MakeScenarioDataset(args.scenario));
  const data::DataTable& table = dataset.descriptions;
  const pattern::Condition first =
      search::ConditionPool::Build(table).condition(0);
  const data::Column& column = table.column(first.attribute);
  args.condition = serialize::JsonValue::Object();
  args.condition.Set("attribute", serialize::JsonValue::Str(column.name()));
  args.condition.Set("op", serialize::JsonValue::Str(
                               pattern::ConditionOpToString(first.op)));
  args.condition.Set(
      data::IsOrderable(column.kind()) ? "threshold" : "level",
      data::IsOrderable(column.kind())
          ? serialize::JsonValue::Double(first.threshold)
          : serialize::JsonValue::Str(column.Label(first.level)));
  return args;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
  }
  Result<LoadgenArgs> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s",
                 parsed.status().message().c_str(), kUsage);
    return 2;
  }
  const LoadgenArgs& args = parsed.Value();

  std::vector<WorkerResult> results(args.connections);
  std::vector<std::thread> threads;
  threads.reserve(args.connections);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < args.connections; ++i) {
    threads.emplace_back(
        [&args, &results, i] { results[i] = RunConnection(args, i); });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  WorkerResult total;
  serve::LatencyHistogram histogram;
  for (const WorkerResult& result : results) {
    total.sent += result.sent;
    total.ok += result.ok;
    total.rejected += result.rejected;
    total.invalid += result.invalid;
    for (const uint64_t us : result.latencies_us) histogram.Record(us);
    if (total.first_error.empty() && !result.first_error.empty()) {
      total.first_error = result.first_error;
    }
  }
  const serve::LatencyHistogram::Summary latency = histogram.Summarize();

  using serialize::JsonValue;
  JsonValue summary = JsonValue::Object();
  summary.Set("connections", JsonValue::Int(int64_t(args.connections)));
  summary.Set("rounds", JsonValue::Int(int64_t(args.rounds)));
  summary.Set("pipeline", JsonValue::Int(int64_t(args.pipeline)));
  summary.Set("requests", JsonValue::Int(int64_t(total.sent)));
  summary.Set("ok", JsonValue::Int(int64_t(total.ok)));
  summary.Set("rejected", JsonValue::Int(int64_t(total.rejected)));
  summary.Set("invalid", JsonValue::Int(int64_t(total.invalid)));
  summary.Set("elapsed_s", JsonValue::Double(elapsed_s));
  summary.Set("rps",
              JsonValue::Double(elapsed_s > 0.0
                                    ? double(total.ok + total.rejected) /
                                          elapsed_s
                                    : 0.0));
  JsonValue latency_json = JsonValue::Object();
  latency_json.Set("count", JsonValue::Int(int64_t(latency.count)));
  latency_json.Set("mean_us", JsonValue::Double(latency.mean_us));
  latency_json.Set("p50_us", JsonValue::Int(int64_t(latency.p50_us)));
  latency_json.Set("p95_us", JsonValue::Int(int64_t(latency.p95_us)));
  latency_json.Set("p99_us", JsonValue::Int(int64_t(latency.p99_us)));
  latency_json.Set("max_us", JsonValue::Int(int64_t(latency.max_us)));
  summary.Set("latency", std::move(latency_json));
#ifdef NDEBUG
  summary.Set("build_type", JsonValue::Str("release"));
#else
  summary.Set("build_type", JsonValue::Str("debug"));
#endif
  if (!total.first_error.empty()) {
    summary.Set("first_error", JsonValue::Str(total.first_error));
  }
  const std::string text = summary.Write(2) + "\n";
  if (args.output.empty() || args.output == "-") {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(args.output);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args.output.c_str());
      return 1;
    }
    out << text;
  }
  if (total.invalid != 0) {
    std::fprintf(stderr, "sisd_loadgen: %llu invalid responses (%s)\n",
                 static_cast<unsigned long long>(total.invalid),
                 total.first_error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sisd

int main(int argc, char** argv) { return sisd::Main(argc, argv); }

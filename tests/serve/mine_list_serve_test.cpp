// The `mine_list` verb end to end through every transport:
//  - a scripted open -> mine_list -> mine -> mine_list -> evict ->
//    mine_list dialogue through ServeStream matches rules mined directly
//    on a MiningSession, including the snapshot saved mid-script;
//  - responses are byte-identical across server worker counts;
//  - the epoll event-loop transport answers the same script with the
//    same bytes as the in-process stream transport.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "datagen/scenarios.hpp"
#include "serialize/json.hpp"
#include "serialize/protocol.hpp"
#include "serve/event_loop_server.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

constexpr const char* kOpenLine =
    "{\"id\":1,\"verb\":\"open\",\"session\":\"s1\","
    "\"scenario\":\"synthetic\",\"config\":{\"beam_width\":8,"
    "\"max_depth\":2,\"top_k\":20,\"min_coverage\":5}}";

core::MinerConfig FastConfig() {
  core::MinerConfig config;
  config.search.beam_width = 8;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  return config;
}

/// The canonical mine_list dialogue: list rounds interleaved with an
/// iterative mine, a mid-script save, and an evict/restore cycle.
std::string ListScript(const std::string& save_path) {
  std::string script;
  script += std::string(kOpenLine) + "\n";
  script += "{\"id\":2,\"verb\":\"mine_list\",\"session\":\"s1\","
            "\"rules\":2}\n";
  script += "{\"id\":3,\"verb\":\"mine\",\"session\":\"s1\"}\n";
  script += "{\"id\":4,\"verb\":\"mine_list\",\"session\":\"s1\"}\n";
  if (!save_path.empty()) {
    script += "{\"id\":5,\"verb\":\"save\",\"session\":\"s1\",\"path\":\"" +
              save_path + "\"}\n";
  }
  script += "{\"id\":6,\"verb\":\"evict\",\"session\":\"s1\"}\n";
  script += "{\"id\":7,\"verb\":\"mine_list\",\"session\":\"s1\"}\n";
  script += "{\"id\":8,\"verb\":\"history\",\"session\":\"s1\"}\n";
  return script;
}

std::string RunScript(const std::string& script, ServeConfig config) {
  SessionManager manager(std::move(config));
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(manager, in, out);
  return out.str();
}

serialize::ProtocolResponse MustParse(const std::string& line) {
  Result<serialize::ProtocolResponse> parsed =
      serialize::ParseResponseLine(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? parsed.Value() : serialize::ProtocolResponse{};
}

/// Extracts the rule descriptions of a mine_list response line.
std::vector<std::string> ListedRules(const std::string& line) {
  const serialize::ProtocolResponse response = MustParse(line);
  std::vector<std::string> rules;
  const serialize::JsonValue* array = response.result.Find("rules");
  if (array == nullptr || !array->is_array()) return rules;
  for (const serialize::JsonValue& rule : array->items()) {
    const serialize::JsonValue* description = rule.Find("description");
    rules.push_back(description == nullptr
                        ? "<missing>"
                        : description->GetString().ValueOr("<bad>"));
  }
  return rules;
}

TEST(MineListServeTest, ScriptMatchesDirectSession) {
  const std::string save_path = "/tmp/sisd_mine_list_serve.json";
  std::remove(save_path.c_str());
  const std::string output =
      RunScript(ListScript(save_path), ServeConfig{});
  const std::vector<std::string> lines = SplitString(output, '\n');
  ASSERT_GE(lines.size(), 7u) << output;

  // The same dialogue run directly on a session.
  Result<core::MiningSession> direct = core::MiningSession::Create(
      datagen::MakeScenarioDataset("synthetic").Value(), FastConfig());
  ASSERT_TRUE(direct.ok());
  core::MiningSession& session = direct.Value();
  auto rule_names = [&session](const core::ListMineResult& result) {
    std::vector<std::string> names;
    for (const search::SubgroupRule& rule : result.rules) {
      names.push_back(
          rule.intention.ToString(session.dataset().descriptions));
    }
    return names;
  };
  Result<core::ListMineResult> first = session.MineList(2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(ListedRules(lines[1]), rule_names(first.Value()));
  ASSERT_TRUE(session.MineNext().ok());
  Result<core::ListMineResult> second = session.MineList(1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ListedRules(lines[3]), rule_names(second.Value()));
  const std::string expected_snapshot = session.SaveToString();
  // Mine-list-after-evict continues identically through the restore.
  Result<core::ListMineResult> third = session.MineList(1);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(ListedRules(lines[6]), rule_names(third.Value()));

  // The snapshot saved through the protocol — with two list rounds in its
  // history — equals the direct session's snapshot byte for byte.
  Result<std::string> saved = serialize::ReadTextFile(save_path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved.Value(), expected_snapshot);
  std::remove(save_path.c_str());

  // The response schema carries the list-level summary fields.
  const serialize::ProtocolResponse response = MustParse(lines[1]);
  ASSERT_TRUE(response.ok) << lines[1];
  EXPECT_NE(response.result.Find("total_gain"), nullptr);
  EXPECT_NE(response.result.Find("list_size"), nullptr);
  EXPECT_NE(response.result.Find("uncovered"), nullptr);
  EXPECT_NE(response.result.Find("generation"), nullptr);
}

TEST(MineListServeTest, ResponsesByteIdenticalAcrossWorkerCounts) {
  const std::string script = ListScript("");
  ServeConfig one;
  one.num_threads = 1;
  ServeConfig many;
  many.num_threads = 4;
  EXPECT_EQ(RunScript(script, one), RunScript(script, many))
      << "worker count leaked into mine_list responses";
}

/// Mutex-guarded capture streambuf (the server thread writes the listen
/// announcement while the test polls it).
class SyncCaptureBuf : public std::streambuf {
 public:
  std::string Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    return data_;
  }

 protected:
  int overflow(int c) override {
    if (c != EOF) {
      std::lock_guard<std::mutex> lock(mu_);
      data_.push_back(static_cast<char>(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu_);
    data_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::mutex mu_;
  std::string data_;
};

int ParsePort(SyncCaptureBuf& announce_buf) {
  for (int i = 0; i < 1000; ++i) {
    const std::string text = announce_buf.Snapshot();
    const size_t colon = text.rfind(':');
    if (colon != std::string::npos && text.find('\n') != std::string::npos) {
      const int port = std::atoi(text.c_str() + colon + 1);
      if (port > 0) return port;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return 0;
}

int ConnectTo(int port) {
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

std::string ReadToEof(int fd) {
  std::string received;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return received;
    received.append(chunk, static_cast<size_t>(n));
  }
}

TEST(MineListServeTest, EventLoopTransportAnswersTheSameBytes) {
  const std::string script = ListScript("");
  const std::string expected = RunScript(script, ServeConfig{});

  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SessionManager manager((ServeConfig()));
    SyncCaptureBuf announce_buf;
    std::ostream announce(&announce_buf);
    ServeMetrics metrics;
    std::atomic<bool> shutdown{false};
    EventLoopConfig config;
    config.num_workers = workers;
    std::thread server([&] {
      const Status status =
          ServeEventLoop(manager, config, announce, &metrics, &shutdown);
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
    const int port = ParsePort(announce_buf);
    ASSERT_GT(port, 0) << "server never announced its port";
    const int fd = ConnectTo(port);
    ASSERT_GE(fd, 0);
    // One session, fully pipelined: per-session ordering makes the reply
    // stream deterministic, so the bytes must equal the stream transport.
    ASSERT_TRUE(WriteAll(fd, script));
    ::shutdown(fd, SHUT_WR);
    const std::string received = ReadToEof(fd);
    ::close(fd);
    shutdown.store(true);
    server.join();
    EXPECT_EQ(received, expected)
        << "event-loop transport diverged from the stream transport";
  }
}

}  // namespace
}  // namespace sisd::serve

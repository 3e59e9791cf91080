// End-to-end smoke of sisd_loadgen against a live sisd_serve --epoll
// server: 8 concurrent analyst connections of mixed traffic, every
// response validated by the loadgen itself (exit 0 = zero invalid
// responses), and the JSON summary parses with sane counters. Mirrors
// the short smoke load CI runs in the release job. Binary paths are
// injected by CMake.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "serialize/json.hpp"

#ifndef SISD_SERVE_BIN
#error "SISD_SERVE_BIN must be defined by the build system"
#endif
#ifndef SISD_LOADGEN_BIN
#error "SISD_LOADGEN_BIN must be defined by the build system"
#endif

namespace {

const char kWorkDir[] = "/tmp/sisd_loadgen_smoke_test";

int RunShell(const std::string& command) {
  const int rc = std::system(command.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string Path(const char* name) {
  return std::string(kWorkDir) + "/" + name;
}

/// Runs `connections` loadgen connections of `rounds` rounds on
/// `scenario` against a fresh epoll server; returns the parsed summary.
/// Loadgen exits nonzero on any invalid response, and the server must
/// drain to exit 0 after its max_connections finished.
sisd::serialize::JsonValue RunLoadgen(const std::string& scenario,
                                      int connections, int rounds) {
  std::system((std::string("rm -rf ") + kWorkDir).c_str());
  EXPECT_EQ(std::system((std::string("mkdir -p ") + kWorkDir).c_str()), 0);
  // The server accepts exactly the loadgen's connections, then drains
  // and exits on its own — no kill/poll needed. The shell script waits
  // for the port announcement before starting the loadgen.
  const std::string script =
      std::string("set -e\n") + SISD_SERVE_BIN + " --epoll 0 --workers 2 " +
      "--queue-capacity 32 --max-connections " +
      std::to_string(connections) + " 2> " + Path("serve.err") +
      " &\nSRV=$!\n" +
      "for i in $(seq 1 200); do grep -q listening " + Path("serve.err") +
      " 2>/dev/null && break; sleep 0.05; done\n" +
      "PORT=$(sed -n 's/.*listening on 127.0.0.1:\\([0-9]*\\).*/\\1/p' " +
      Path("serve.err") + ")\n" +
      "test -n \"$PORT\"\n" + SISD_LOADGEN_BIN +
      " --port $PORT --connections " + std::to_string(connections) +
      " --rounds " + std::to_string(rounds) + " --pipeline 4 --scenario " +
      scenario + " --output " + Path("summary.json") + "\n" +
      "wait $SRV\n";
  std::ofstream(Path("run.sh")) << script;
  EXPECT_EQ(RunShell("bash " + Path("run.sh") + " > " + Path("run.log") +
                     " 2>&1"),
            0)
      << ReadFile(Path("run.log")) << ReadFile(Path("serve.err"));

  const std::string summary_text = ReadFile(Path("summary.json"));
  sisd::Result<sisd::serialize::JsonValue> summary =
      sisd::serialize::JsonValue::Parse(summary_text);
  EXPECT_TRUE(summary.ok()) << summary_text;
  std::system((std::string("rm -rf ") + kWorkDir).c_str());
  return summary.ok() ? summary.Value() : sisd::serialize::JsonValue();
}

TEST(LoadgenSmokeTest, EightConnectionsZeroInvalidResponses) {
  constexpr int kConnections = 8;
  const sisd::serialize::JsonValue json =
      RunLoadgen("synthetic", kConnections, 3);
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.Find("connections")->GetInt().ValueOr(-1), kConnections);
  EXPECT_EQ(json.Find("invalid")->GetInt().ValueOr(-1), 0);
  // Every connection: 1 open + 3 mines + 1 history + 1 close = 6.
  EXPECT_EQ(json.Find("requests")->GetInt().ValueOr(-1), kConnections * 6);
  const int64_t ok = json.Find("ok")->GetInt().ValueOr(-1);
  const int64_t rejected = json.Find("rejected")->GetInt().ValueOr(-1);
  EXPECT_EQ(ok + rejected, kConnections * 6);
  EXPECT_GT(json.Find("rps")->GetDouble().ValueOr(-1.0), 0.0);
  EXPECT_GT(json.Find("latency")->Find("p99_us")->GetInt().ValueOr(-1), 0);
}

TEST(LoadgenSmokeTest, AssimilateIsValidOnGse) {
  // The assimilate condition comes from the scenario's own table; a
  // hardcoded synthetic attribute once made 8 of 56 gse responses
  // invalid ("no column named 'a3'").
  constexpr int kConnections = 4;
  const sisd::serialize::JsonValue json = RunLoadgen("gse", kConnections, 8);
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.Find("invalid")->GetInt().ValueOr(-1), 0);
  // Every connection: 1 open + 8 mines + 2 histories + 2 assimilates +
  // 1 close = 14.
  EXPECT_EQ(json.Find("requests")->GetInt().ValueOr(-1), kConnections * 14);
}

}  // namespace

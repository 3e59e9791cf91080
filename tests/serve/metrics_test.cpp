// Serve metrics tell the truth about the server:
//  - every verb of the verb table counts under its own name, never under
//    "invalid" (the slots follow the table, so a new verb cannot miss one);
//  - latency quantiles are never below the exact sample quantile, at most
//    one power of two above it, and never above the observed max.

#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"
#include "serialize/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

TEST(MetricsTest, EveryVerbHasItsOwnSlot) {
  ASSERT_FALSE(VerbNames().empty());
  for (const std::string_view name : VerbNames()) {
    SCOPED_TRACE(std::string(name));
    ServeMetrics metrics;
    metrics.RecordRequest(name, /*ok=*/true, 10);
    EXPECT_EQ(metrics.VerbRequests(name), 1u);
    EXPECT_EQ(metrics.VerbRequests("invalid"), 0u);
    const serialize::JsonValue encoded = EncodeMetrics(metrics, nullptr);
    const serialize::JsonValue* verbs = encoded.Find("verbs");
    ASSERT_NE(verbs, nullptr);
    EXPECT_EQ(verbs->size(), 1u);
    ASSERT_NE(verbs->Find(std::string(name)), nullptr);
  }
  ServeMetrics metrics;
  metrics.RecordRequest("frobnicate", /*ok=*/false, 10);
  metrics.RecordRequest("", /*ok=*/false, 10);  // never parsed
  EXPECT_EQ(metrics.VerbRequests("invalid"), 2u);
  EXPECT_EQ(metrics.requests(), 2u);
  EXPECT_EQ(metrics.errors(), 2u);
}

TEST(MetricsTest, MineListCountsUnderItsOwnName) {
  SessionManager manager((ServeConfig()));
  std::istringstream in(
      "{\"id\":1,\"verb\":\"open\",\"session\":\"s\",\"scenario\":"
      "\"synthetic\",\"config\":{\"beam_width\":8,\"max_depth\":2,"
      "\"top_k\":20,\"min_coverage\":5}}\n"
      "{\"id\":2,\"verb\":\"mine_list\",\"session\":\"s\"}\n"
      "{\"id\":3,\"verb\":\"metrics\"}\n");
  std::ostringstream out;
  ServeStream(manager, in, out);
  const std::vector<std::string> lines = SplitString(out.str(), '\n');
  ASSERT_GE(lines.size(), 3u) << out.str();
  Result<serialize::ProtocolResponse> response =
      serialize::ParseResponseLine(lines[2]);
  ASSERT_TRUE(response.ok() && response.Value().ok) << lines[2];
  const serialize::JsonValue* verbs = response.Value().result.Find("verbs");
  ASSERT_NE(verbs, nullptr);
  EXPECT_NE(lines[2].find("\"mine_list\":{\"count\":1}"), std::string::npos)
      << lines[2];
  EXPECT_EQ(verbs->Find("invalid"), nullptr) << lines[2];
}

/// The exact sample quantile under the histogram's rank rule: the
/// `max(1, round(q * n))`-th smallest observation.
uint64_t ExactQuantile(std::vector<uint64_t> sample, double q) {
  std::sort(sample.begin(), sample.end());
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(q * double(sample.size()) + 0.5));
  return sample[rank - 1];
}

TEST(MetricsTest, QuantilesBracketTheExactSampleAndNeverExceedTheMax) {
  // Two requests: the p95 falls in the 2879 µs bucket, whose upper bound
  // (4096) used to be reported above the observed max.
  {
    LatencyHistogram histogram;
    histogram.Record(412);
    histogram.Record(2879);
    const LatencyHistogram::Summary summary = histogram.Summarize();
    EXPECT_EQ(summary.max_us, 2879u);
    EXPECT_EQ(summary.p95_us, 2879u);
    EXPECT_EQ(summary.p99_us, 2879u);
    EXPECT_EQ(summary.p50_us, 512u);
  }
  // A recorded sample spanning many buckets, including exact powers of
  // two (bucket upper bounds) and 0.
  std::vector<uint64_t> sample;
  uint64_t state = 12345;
  for (int i = 0; i < 997; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    sample.push_back((state >> 33) % 50000);
  }
  for (const uint64_t fixed : {0ull, 1ull, 2ull, 1024ull, 65537ull}) {
    sample.push_back(fixed);
  }
  LatencyHistogram histogram;
  for (const uint64_t value : sample) histogram.Record(value);
  const LatencyHistogram::Summary summary = histogram.Summarize();
  const uint64_t max = *std::max_element(sample.begin(), sample.end());
  EXPECT_EQ(summary.count, sample.size());
  EXPECT_EQ(summary.max_us, max);
  const std::pair<double, uint64_t> quantiles[] = {
      {0.50, summary.p50_us}, {0.95, summary.p95_us}, {0.99, summary.p99_us}};
  for (const auto& [q, reported] : quantiles) {
    SCOPED_TRACE(q);
    const uint64_t exact = ExactQuantile(sample, q);
    EXPECT_GE(reported, exact);
    EXPECT_LE(reported, std::max<uint64_t>(2 * exact, 1));
    EXPECT_LE(reported, max);
  }
  // Every observation 0 µs: quantiles are 0, not the 1 µs bucket bound.
  LatencyHistogram zeros;
  zeros.Record(0);
  zeros.Record(0);
  EXPECT_EQ(zeros.Summarize().p99_us, 0u);
}

}  // namespace
}  // namespace sisd::serve

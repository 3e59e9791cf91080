#include "serve/metrics.hpp"

#include <algorithm>

#include "catalog/dataset_catalog.hpp"
#include "serve/service.hpp"

namespace sisd::serve {

namespace {

/// Smallest bucket whose upper bound `2^i` µs holds `micros`.
size_t BucketFor(uint64_t micros) {
  if (micros <= 1) return 0;
  const size_t bits =
      64 - static_cast<size_t>(__builtin_clzll(micros - 1));
  return std::min(bits, LatencyHistogram::kNumBuckets - 1);
}

/// Upper bound of bucket `i` in µs (the quantile estimate).
uint64_t BucketBound(size_t i) { return uint64_t(1) << i; }

/// Name of the slot after the verb table's: unknown or unparsed requests.
constexpr std::string_view kInvalidVerb = "invalid";

}  // namespace

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_us_.compare_exchange_weak(seen, micros,
                                        std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Summary LatencyHistogram::Summarize() const {
  // Totals are recomputed from one pass over the buckets, so the
  // quantile walk and `count` agree even while other threads record.
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  Summary summary;
  summary.count = total;
  summary.max_us = max_us_.load(std::memory_order_relaxed);
  if (total == 0) return summary;
  summary.mean_us =
      double(sum_us_.load(std::memory_order_relaxed)) / double(total);
  const auto quantile = [&](double q) -> uint64_t {
    const uint64_t target =
        std::max<uint64_t>(1, uint64_t(q * double(total) + 0.5));
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += counts[i];
      if (seen >= target) return std::min(BucketBound(i), summary.max_us);
    }
    return summary.max_us;
  };
  summary.p50_us = quantile(0.50);
  summary.p95_us = quantile(0.95);
  summary.p99_us = quantile(0.99);
  return summary;
}

ServeMetrics::ServeMetrics() : verbs_(VerbNames().size() + 1) {}

size_t ServeMetrics::VerbSlot(std::string_view verb) const {
  const std::vector<std::string_view>& names = VerbNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == verb) return i;
  }
  return names.size();  // "invalid"
}

void ServeMetrics::RecordRequest(std::string_view verb, bool ok,
                                 uint64_t latency_us) {
  VerbCounters& slot = verbs_[VerbSlot(verb)];
  slot.requests.fetch_add(1, std::memory_order_relaxed);
  if (!ok) slot.errors.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(latency_us);
}

void ServeMetrics::OnConnectionOpened() {
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t live =
      live_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = peak_connections_.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_connections_.compare_exchange_weak(
             peak, live, std::memory_order_relaxed)) {
  }
}

void ServeMetrics::OnConnectionClosed() {
  live_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void ServeMetrics::SetQueueCapacity(size_t capacity) {
  queue_capacity_.store(capacity, std::memory_order_relaxed);
}

void ServeMetrics::OnEnqueued() {
  const uint64_t depth =
      queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !queue_peak_.compare_exchange_weak(peak, depth,
                                            std::memory_order_relaxed)) {
  }
}

void ServeMetrics::OnDequeued() {
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
}

void ServeMetrics::OnRejected() {
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

void ServeMetrics::OnOversizedLine() {
  oversized_lines_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t ServeMetrics::requests() const {
  uint64_t total = 0;
  for (const VerbCounters& slot : verbs_) {
    total += slot.requests.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ServeMetrics::errors() const {
  uint64_t total = 0;
  for (const VerbCounters& slot : verbs_) {
    total += slot.errors.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ServeMetrics::rejected() const {
  return rejected_.load(std::memory_order_relaxed);
}

uint64_t ServeMetrics::oversized_lines() const {
  return oversized_lines_.load(std::memory_order_relaxed);
}

uint64_t ServeMetrics::live_connections() const {
  return live_connections_.load(std::memory_order_relaxed);
}

uint64_t ServeMetrics::peak_connections() const {
  return peak_connections_.load(std::memory_order_relaxed);
}

uint64_t ServeMetrics::connections_accepted() const {
  return connections_accepted_.load(std::memory_order_relaxed);
}

uint64_t ServeMetrics::queue_depth() const {
  return queue_depth_.load(std::memory_order_relaxed);
}

uint64_t ServeMetrics::queue_peak() const {
  return queue_peak_.load(std::memory_order_relaxed);
}

size_t ServeMetrics::queue_capacity() const {
  return queue_capacity_.load(std::memory_order_relaxed);
}

uint64_t ServeMetrics::VerbRequests(std::string_view verb) const {
  return verbs_[VerbSlot(verb)].requests.load(std::memory_order_relaxed);
}

serialize::JsonValue EncodeMetrics(const ServeMetrics& metrics,
                                   const catalog::DatasetCatalog* catalog) {
  using serialize::JsonValue;
  JsonValue out = JsonValue::Object();
  out.Set("requests",
          JsonValue::Int(static_cast<int64_t>(metrics.requests())));
  out.Set("errors", JsonValue::Int(static_cast<int64_t>(metrics.errors())));

  // Per-verb counts in verb-table order, "invalid" last, zero-traffic
  // verbs omitted so the line stays compact.
  JsonValue verbs = JsonValue::Object();
  std::vector<std::string_view> names = VerbNames();
  names.push_back(kInvalidVerb);
  for (const std::string_view name : names) {
    const uint64_t requests = metrics.VerbRequests(name);
    if (requests == 0) continue;
    JsonValue slot = JsonValue::Object();
    slot.Set("count", JsonValue::Int(static_cast<int64_t>(requests)));
    verbs.Set(std::string(name), std::move(slot));
  }
  out.Set("verbs", std::move(verbs));

  const LatencyHistogram::Summary latency = metrics.latency().Summarize();
  JsonValue lat = JsonValue::Object();
  lat.Set("count", JsonValue::Int(static_cast<int64_t>(latency.count)));
  lat.Set("mean_us", JsonValue::Double(latency.mean_us));
  lat.Set("p50_us", JsonValue::Int(static_cast<int64_t>(latency.p50_us)));
  lat.Set("p95_us", JsonValue::Int(static_cast<int64_t>(latency.p95_us)));
  lat.Set("p99_us", JsonValue::Int(static_cast<int64_t>(latency.p99_us)));
  lat.Set("max_us", JsonValue::Int(static_cast<int64_t>(latency.max_us)));
  out.Set("latency", std::move(lat));

  JsonValue connections = JsonValue::Object();
  connections.Set("live", JsonValue::Int(static_cast<int64_t>(
                              metrics.live_connections())));
  connections.Set("peak", JsonValue::Int(static_cast<int64_t>(
                              metrics.peak_connections())));
  connections.Set("accepted", JsonValue::Int(static_cast<int64_t>(
                                  metrics.connections_accepted())));
  out.Set("connections", std::move(connections));

  JsonValue queue = JsonValue::Object();
  queue.Set("depth",
            JsonValue::Int(static_cast<int64_t>(metrics.queue_depth())));
  queue.Set("peak",
            JsonValue::Int(static_cast<int64_t>(metrics.queue_peak())));
  queue.Set("capacity",
            JsonValue::Int(static_cast<int64_t>(metrics.queue_capacity())));
  queue.Set("rejected",
            JsonValue::Int(static_cast<int64_t>(metrics.rejected())));
  out.Set("queue", std::move(queue));

  out.Set("oversized_lines",
          JsonValue::Int(static_cast<int64_t>(metrics.oversized_lines())));

  if (catalog != nullptr) {
    const catalog::CatalogStats stats = catalog->Stats();
    JsonValue cat = JsonValue::Object();
    cat.Set("interns", JsonValue::Int(static_cast<int64_t>(stats.interns)));
    cat.Set("hits", JsonValue::Int(static_cast<int64_t>(stats.hits)));
    cat.Set("misses", JsonValue::Int(static_cast<int64_t>(stats.misses)));
    const uint64_t probes = stats.hits + stats.misses;
    cat.Set("hit_rate", JsonValue::Double(
                            probes == 0 ? 0.0
                                        : double(stats.hits) /
                                              double(probes)));
    cat.Set("pool_builds",
            JsonValue::Int(static_cast<int64_t>(stats.pool_builds)));
    cat.Set("pool_hits",
            JsonValue::Int(static_cast<int64_t>(stats.pool_hits)));
    const uint64_t pool_probes = stats.pool_builds + stats.pool_hits;
    cat.Set("pool_hit_rate",
            JsonValue::Double(pool_probes == 0
                                  ? 0.0
                                  : double(stats.pool_hits) /
                                        double(pool_probes)));
    // Version-chain gauges: how many live entries are appended versions,
    // how many prefix bytes the chains share instead of copying, and how
    // the append-time pool refreshes split between extended-in-place and
    // rebuilt condition extensions.
    cat.Set("appends", JsonValue::Int(static_cast<int64_t>(stats.appends)));
    cat.Set("versions",
            JsonValue::Int(static_cast<int64_t>(stats.versions)));
    cat.Set("shared_bytes",
            JsonValue::Int(static_cast<int64_t>(stats.shared_bytes)));
    cat.Set("pool_refreshes",
            JsonValue::Int(static_cast<int64_t>(stats.pool_refreshes)));
    cat.Set("pool_conditions_reused",
            JsonValue::Int(
                static_cast<int64_t>(stats.pool_conditions_reused)));
    cat.Set("pool_conditions_rebuilt",
            JsonValue::Int(
                static_cast<int64_t>(stats.pool_conditions_rebuilt)));
    out.Set("catalog", std::move(cat));
  }
  return out;
}

}  // namespace sisd::serve

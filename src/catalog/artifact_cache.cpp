#include "catalog/artifact_cache.hpp"

#include <utility>
#include <vector>

namespace sisd::catalog {

std::shared_ptr<const search::ConditionPool> ArtifactCache::PoolFor(
    uint64_t fingerprint, const data::DataTable& descriptions,
    int num_splits, bool include_exclusions, search::ThreadPool* workers) {
  const Key key{fingerprint, num_splits, include_exclusions};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pools_.find(key);
    if (it != pools_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Miss: build outside the lock (pure function of the inputs, so two
  // racing builders produce interchangeable pools; first insert wins).
  builds_.fetch_add(1, std::memory_order_relaxed);
  auto built = std::make_shared<const search::ConditionPool>(
      search::ConditionPool::Build(descriptions, num_splits,
                                   include_exclusions, workers));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = pools_.emplace(key, std::move(built));
  return it->second;
}

size_t ArtifactCache::RefreshPoolsFor(uint64_t parent_fingerprint,
                                      uint64_t child_fingerprint,
                                      const data::DataTable& child_descriptions,
                                      size_t parent_rows,
                                      search::ThreadPool* workers) {
  // Snapshot the parent's pools under the lock; build incrementally
  // outside it (same no-stall rationale as PoolFor's miss path).
  std::vector<std::pair<Key, std::shared_ptr<const search::ConditionPool>>>
      parents;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, pool] : pools_) {
      if (std::get<0>(key) != parent_fingerprint) continue;
      const Key child_key{child_fingerprint, std::get<1>(key),
                          std::get<2>(key)};
      if (pools_.count(child_key) > 0) continue;  // already refreshed
      parents.emplace_back(key, pool);
    }
  }
  size_t refreshed = 0;
  for (const auto& [key, parent_pool] : parents) {
    search::IncrementalPoolStats stats;
    auto built = std::make_shared<const search::ConditionPool>(
        search::ConditionPool::BuildIncremental(
            child_descriptions, *parent_pool, parent_rows,
            std::get<1>(key), std::get<2>(key), &stats, workers));
    const Key child_key{child_fingerprint, std::get<1>(key),
                        std::get<2>(key)};
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = pools_.emplace(child_key, std::move(built));
    if (inserted) {
      ++refreshed;
      refreshes_.fetch_add(1, std::memory_order_relaxed);
      conditions_reused_.fetch_add(stats.reused, std::memory_order_relaxed);
      conditions_rebuilt_.fetch_add(stats.rebuilt,
                                    std::memory_order_relaxed);
    }
  }
  return refreshed;
}

size_t ArtifactCache::PoolCountFor(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [key, pool] : pools_) {
    if (std::get<0>(key) == fingerprint) ++count;
  }
  return count;
}

size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pools_.size();
}

void ArtifactCache::DropPoolsFor(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = pools_.begin(); it != pools_.end();) {
    if (std::get<0>(it->first) == fingerprint) {
      it = pools_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace sisd::catalog

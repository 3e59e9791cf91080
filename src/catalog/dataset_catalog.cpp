#include "catalog/dataset_catalog.hpp"

#include <algorithm>
#include <utility>

#include "common/strings.hpp"
#include "serialize/snapshot.hpp"

namespace sisd::catalog {

DatasetCatalog::DatasetCatalog(CatalogConfig config) : config_(config) {}

PinnedDataset DatasetCatalog::TouchLocked(Entry* entry, uint64_t fingerprint,
                                          bool pin, bool reused) {
  (reused ? hits_ : interns_).fetch_add(1, std::memory_order_relaxed);
  entry->last_touch = ++touch_clock_;
  if (pin) ++entry->pins;
  PinnedDataset out;
  out.dataset = entry->dataset;
  out.fingerprint = fingerprint;
  out.bytes = entry->bytes;
  out.reused = reused;
  return out;
}

void DatasetCatalog::EraseEntryLocked(
    std::map<uint64_t, Entry>::iterator it) {
  artifacts_.DropPoolsFor(it->first);
  total_bytes_ -= it->second.bytes;
  entries_.erase(it);
}

void DatasetCatalog::EnforceBudgetLocked() {
  if (config_.max_bytes == 0) return;
  while (total_bytes_ > config_.max_bytes) {
    // Coldest unpinned entry by logical touch clock.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.pins > 0) continue;
      if (victim == entries_.end() ||
          it->second.last_touch < victim->second.last_touch) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // everything live is pinned
    EraseEntryLocked(victim);
  }
}

Result<PinnedDataset> DatasetCatalog::Intern(data::Dataset dataset, bool pin,
                                             bool retain) {
  SISD_RETURN_NOT_OK(dataset.Validate());
  // Fingerprinting streams the dataset's encoding — do it outside the lock.
  const DatasetFingerprint address = FingerprintDataset(dataset);
  const uint64_t fingerprint = address.value;
  // Dedup-hit verification compares every cell with the stored dataset,
  // which can take milliseconds for MB-scale data — never do that under
  // mu_ (it would stall every catalog operation behind each duplicate
  // open). Pattern: peek under the lock, verify outside it, re-lock to
  // commit; retry when the entry changed in between (rare: a concurrent
  // drop + re-intern).
  for (;;) {
    std::shared_ptr<const data::Dataset> existing;
    std::string existing_name;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(fingerprint);
      if (it == entries_.end()) {
        Entry entry;
        entry.name = dataset.name;
        entry.bytes = address.bytes;
        entry.retain = retain;
        entry.dataset =
            std::make_shared<const data::Dataset>(std::move(dataset));
        auto [inserted, ok] = entries_.emplace(fingerprint,
                                               std::move(entry));
        SISD_CHECK(ok);
        total_bytes_ += inserted->second.bytes;
        PinnedDataset out =
            TouchLocked(&inserted->second, fingerprint, pin,
                        /*reused=*/false);
        EnforceBudgetLocked();
        // The budget policy never evicts pinned entries, but an unpinned
        // intern larger than the leftover budget can be its own victim —
        // fail loudly rather than confirm a registration that no longer
        // exists.
        if (entries_.find(fingerprint) == entries_.end()) {
          return Status::Conflict(StrFormat(
              "dataset '%s' (%zu bytes) does not fit the catalog byte "
              "budget (%zu bytes)",
              out.dataset->name.c_str(), out.bytes, config_.max_bytes));
        }
        return out;
      }
      // The fingerprint is an index, not the identity: a byte-length
      // mismatch is already proof of a collision; equal lengths are
      // verified outside the lock.
      existing_name = it->second.name;
      if (it->second.bytes == address.bytes) {
        existing = it->second.dataset;
      }
    }
    if (existing == nullptr ||
        !serialize::SameDatasetEncoding(*existing, dataset)) {
      return Status::Conflict(
          "fingerprint collision: dataset '" + dataset.name +
          "' hashes to " + FingerprintToHex(fingerprint) +
          " but its content differs from the registered dataset '" +
          existing_name + "'");
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it == entries_.end() || it->second.dataset != existing) {
      continue;  // dropped or replaced while verifying: retry
    }
    it->second.retain = it->second.retain || retain;
    return TouchLocked(&it->second, fingerprint, pin, /*reused=*/true);
  }
}

Result<PinnedDataset> DatasetCatalog::FindByName(const std::string& name,
                                                 bool pin) {
  std::lock_guard<std::mutex> lock(mu_);
  // Distinct content can legitimately share a name (e.g. two inline-CSV
  // opens); name-based resolution must then refuse rather than pick one
  // by map order.
  auto match = entries_.end();
  size_t matches = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.name == name) {
      match = it;
      ++matches;
    }
  }
  if (matches == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no catalog dataset named '" + name + "'");
  }
  if (matches > 1) {
    return Status::Conflict(StrFormat(
        "catalog name '%s' is ambiguous (%zu datasets share it); resolve "
        "by fingerprint instead",
        name.c_str(), matches));
  }
  return TouchLocked(&match->second, match->first, pin, /*reused=*/true);
}

Result<PinnedDataset> DatasetCatalog::FindByFingerprint(uint64_t fingerprint,
                                                        bool pin) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no catalog dataset with fingerprint " +
                            FingerprintToHex(fingerprint));
  }
  return TouchLocked(&it->second, fingerprint, pin, /*reused=*/true);
}

Result<PinnedDataset> DatasetCatalog::FindByNameOrFingerprint(
    const std::string& spec, bool pin) {
  Result<PinnedDataset> by_name = FindByName(spec, pin);
  if (by_name.ok()) return by_name;
  Result<uint64_t> fingerprint = FingerprintFromHex(spec);
  if (fingerprint.ok()) {
    Result<PinnedDataset> by_fp = FindByFingerprint(fingerprint.Value(), pin);
    if (by_fp.ok()) return by_fp;
  }
  return by_name.status();  // the name-based NotFound message
}

Result<PinnedDataset> DatasetCatalog::MatchContent(
    const data::Dataset& dataset, bool pin) {
  const DatasetFingerprint address = FingerprintDataset(dataset);
  const uint64_t fingerprint = address.value;
  // Same peek / verify-outside-the-lock / commit pattern as Intern: the
  // equality check visits every cell and must not run under mu_.
  for (;;) {
    std::shared_ptr<const data::Dataset> existing;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(fingerprint);
      if (it == entries_.end() || it->second.bytes != address.bytes) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return Status::NotFound(
            "no catalog dataset with this exact content");
      }
      existing = it->second.dataset;
    }
    if (!serialize::SameDatasetEncoding(*existing, dataset)) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return Status::NotFound("no catalog dataset with this exact content");
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it == entries_.end() || it->second.dataset != existing) {
      continue;  // dropped or replaced while verifying: retry
    }
    return TouchLocked(&it->second, fingerprint, pin, /*reused=*/true);
  }
}

Result<PinnedDataset> DatasetCatalog::Resolve(const DatasetRef& ref,
                                              bool pin) {
  Result<PinnedDataset> found = FindByFingerprint(ref.fingerprint, pin);
  if (!found.ok() && !ref.name.empty()) {
    return Status::NotFound(
        "catalog cannot resolve dataset_ref {fingerprint: " +
        FingerprintToHex(ref.fingerprint) + ", name: '" + ref.name +
        "'}: not loaded (dataset_load it first)");
  }
  return found;
}

namespace {

/// Registered name of a child version: `<base>@v<depth+2>`, where base is
/// the parent's name with any existing `@v<digits>` suffix stripped (the
/// root is implicitly v1, its first child v2, ...).
std::string DeriveChildName(const std::string& parent_name,
                            size_t parent_depth) {
  std::string base = parent_name;
  const size_t at = base.rfind("@v");
  if (at != std::string::npos && at + 2 < base.size()) {
    bool all_digits = true;
    for (size_t i = at + 2; i < base.size(); ++i) {
      if (base[i] < '0' || base[i] > '9') {
        all_digits = false;
        break;
      }
    }
    if (all_digits) base = base.substr(0, at);
  }
  return StrFormat("%s@v%zu", base.c_str(), parent_depth + 2);
}

}  // namespace

Result<AppendOutcome> DatasetCatalog::Append(const std::string& parent_spec,
                                             const AppendBuilder& build_child,
                                             bool pin, bool retain,
                                             search::ThreadPool* workers) {
  SISD_CHECK(build_child != nullptr);
  // Temporary pin on the parent so a concurrent drop/evict cannot remove
  // it while the child is being built and registered.
  SISD_ASSIGN_OR_RETURN(parent,
                        FindByNameOrFingerprint(parent_spec, /*pin=*/true));
  const data::Dataset& parent_ds = *parent.dataset;
  const size_t row_offset = parent_ds.num_rows();

  Result<data::Dataset> child_result = build_child(parent_ds);
  Status invalid = child_result.ok() ? child_result.Value().Validate()
                                     : child_result.status();
  if (invalid.ok()) {
    const data::Dataset& child = child_result.Value();
    if (child.num_rows() < row_offset) {
      invalid = Status::InvalidArgument(StrFormat(
          "append builder shrank the dataset (%zu rows, parent has %zu)",
          child.num_rows(), row_offset));
    } else if (child.num_descriptions() != parent_ds.num_descriptions() ||
               child.target_names != parent_ds.target_names) {
      invalid = Status::InvalidArgument(
          "append builder changed the dataset schema");
    }
  }
  if (!invalid.ok()) {
    Unpin(parent.fingerprint);
    return invalid;
  }
  data::Dataset child = std::move(child_result).MoveValue();

  AppendOutcome out;
  out.parent_fingerprint = parent.fingerprint;
  out.row_offset = row_offset;
  out.appended_rows = child.num_rows() - row_offset;
  if (out.appended_rows == 0) {
    // Empty append: a no-op returning the parent entry itself.
    out.reused = true;
    out.dataset = parent;  // the temporary pin transfers to the caller...
    if (!pin) Unpin(parent.fingerprint);  // ...or is released
    return out;
  }

  // Chain identity + marginal accounting: both O(appended rows).
  const uint64_t child_fp =
      ChainFingerprintAppendedRows(parent.fingerprint, child, row_offset);
  const size_t marginal_bytes = AppendedRowsBytes(child, row_offset);

  bool evicted_self = false;
  for (;;) {
    std::shared_ptr<const data::Dataset> existing;
    uint64_t existing_parent = 0;
    size_t existing_offset = 0;
    std::string existing_name;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto pit = entries_.find(parent.fingerprint);
      SISD_CHECK(pit != entries_.end());  // we hold a pin
      auto it = entries_.find(child_fp);
      if (it == entries_.end()) {
        Entry entry;
        entry.name =
            DeriveChildName(pit->second.name, pit->second.ancestors.size());
        // Sibling versions of one parent share a depth; suffix the chain
        // fingerprint so name-based resolution stays unambiguous.
        for (const auto& [fp, existing_entry] : entries_) {
          if (existing_entry.name == entry.name) {
            entry.name += "-" + FingerprintToHex(child_fp).substr(0, 8);
            break;
          }
        }
        // The dataset carries its version name: serve responses and
        // name-based catalog lookups must address the child, not the
        // parent the builder copied the name from.
        child.name = entry.name;
        entry.bytes = marginal_bytes;
        entry.retain = retain;
        entry.parent_fingerprint = parent.fingerprint;
        entry.row_offset = row_offset;
        entry.shared_bytes = pit->second.shared_bytes + pit->second.bytes;
        entry.ancestors = pit->second.ancestors;
        entry.ancestors.push_back(parent.fingerprint);
        entry.dataset =
            std::make_shared<const data::Dataset>(std::move(child));
        auto [inserted, ok] = entries_.emplace(child_fp, std::move(entry));
        SISD_CHECK(ok);
        total_bytes_ += inserted->second.bytes;
        appends_.fetch_add(1, std::memory_order_relaxed);
        out.dataset =
            TouchLocked(&inserted->second, child_fp, pin, /*reused=*/false);
        EnforceBudgetLocked();
        // Self-victim check: the budget sweep may have evicted the entry
        // just created. Report outside the lock (Unpin re-locks).
        evicted_self = entries_.find(child_fp) == entries_.end();
        break;
      }
      // Chain-fingerprint hit: like Intern, the hash is only an index.
      // Verify the stored entry really is this exact append (same parent,
      // same offset, identical appended rows) outside the lock.
      existing = it->second.dataset;
      existing_parent = it->second.parent_fingerprint;
      existing_offset = it->second.row_offset;
      existing_name = it->second.name;
    }
    if (existing_parent != parent.fingerprint ||
        existing_offset != row_offset ||
        !AppendedRowsEqual(*existing, child, row_offset)) {
      Unpin(parent.fingerprint);
      return Status::Conflict(
          "chain fingerprint collision: this append to '" + parent_ds.name +
          "' hashes to " + FingerprintToHex(child_fp) +
          " but its content differs from the registered version '" +
          existing_name + "'");
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(child_fp);
    if (it == entries_.end() || it->second.dataset != existing) {
      continue;  // dropped or replaced while verifying: retry
    }
    it->second.retain = it->second.retain || retain;
    out.dataset = TouchLocked(&it->second, child_fp, pin, /*reused=*/true);
    out.reused = true;
    break;
  }
  if (evicted_self) {
    Unpin(parent.fingerprint);
    return Status::Conflict(StrFormat(
        "dataset version '%s' (%zu marginal bytes) does not fit the "
        "catalog byte budget (%zu bytes)",
        out.dataset.dataset->name.c_str(), marginal_bytes,
        config_.max_bytes));
  }

  // Refresh every cached parent pool for the child (outside the lock;
  // bit-identical to scratch builds). If the child was evicted while we
  // refreshed (tiny budget), forget the freshly inserted pools again.
  out.pools_refreshed = artifacts_.RefreshPoolsFor(
      parent.fingerprint, child_fp, out.dataset.dataset->descriptions,
      row_offset, workers);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.find(child_fp) == entries_.end()) {
      artifacts_.DropPoolsFor(child_fp);
    }
  }
  Unpin(parent.fingerprint);
  return out;
}

Result<std::vector<CatalogEntryInfo>> DatasetCatalog::ListVersions(
    const std::string& spec) {
  SISD_ASSIGN_OR_RETURN(target, FindByNameOrFingerprint(spec, /*pin=*/false));
  std::vector<CatalogEntryInfo> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(target.fingerprint);
    if (it == entries_.end()) return out;  // dropped while resolving
    std::vector<uint64_t> chain = it->second.ancestors;
    chain.push_back(target.fingerprint);
    for (uint64_t fp : chain) {
      auto eit = entries_.find(fp);
      if (eit == entries_.end()) continue;  // ancestor already dropped
      out.push_back(InfoLocked(fp, eit->second));
    }
  }
  for (CatalogEntryInfo& info : out) {
    info.pools = artifacts_.PoolCountFor(info.fingerprint);
  }
  return out;
}

bool DatasetCatalog::IsDescendantOf(uint64_t fingerprint,
                                    uint64_t ancestor) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return false;
  for (uint64_t fp : it->second.ancestors) {
    if (fp == ancestor) return true;
  }
  return false;
}

void DatasetCatalog::Unpin(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return;
  if (it->second.pins > 0) --it->second.pins;
  // Implicitly interned entries live exactly as long as their sessions:
  // the last close frees the dataset (as per-session copies used to),
  // while retained (dataset_load/--preload) entries stay cached.
  if (it->second.pins == 0 && !it->second.retain) {
    EraseEntryLocked(it);
  }
}

Status DatasetCatalog::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto target = entries_.end();
  size_t name_matches = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.name == name) {
      target = it;
      ++name_matches;
    }
  }
  if (name_matches > 1) {
    return Status::Conflict(StrFormat(
        "catalog name '%s' is ambiguous (%zu datasets share it); drop by "
        "fingerprint instead",
        name.c_str(), name_matches));
  }
  if (target == entries_.end()) {
    // Fall back to the hex fingerprint form.
    Result<uint64_t> fingerprint = FingerprintFromHex(name);
    if (fingerprint.ok()) target = entries_.find(fingerprint.Value());
  }
  if (target == entries_.end()) {
    return Status::NotFound("no catalog dataset named '" + name + "'");
  }
  if (target->second.pins > 0) {
    return Status::Conflict(StrFormat(
        "dataset '%s' is pinned by %llu open session(s); close them first",
        target->second.name.c_str(),
        static_cast<unsigned long long>(target->second.pins)));
  }
  EraseEntryLocked(target);
  return Status::OK();
}

std::shared_ptr<const search::ConditionPool> DatasetCatalog::PoolFor(
    const PinnedDataset& pinned, int num_splits, bool include_exclusions,
    search::ThreadPool* workers) {
  SISD_CHECK(pinned.dataset != nullptr);
  return artifacts_.PoolFor(pinned.fingerprint, pinned.dataset->descriptions,
                            num_splits, include_exclusions, workers);
}

CatalogEntryInfo DatasetCatalog::InfoLocked(uint64_t fingerprint,
                                            const Entry& entry) {
  CatalogEntryInfo info;
  info.name = entry.name;
  info.fingerprint = fingerprint;
  info.bytes = entry.bytes;
  info.sessions = entry.pins;
  info.rows = entry.dataset->num_rows();
  info.descriptions = entry.dataset->num_descriptions();
  info.targets = entry.dataset->num_targets();
  info.parent_fingerprint = entry.parent_fingerprint;
  info.row_offset = entry.row_offset;
  info.shared_bytes = entry.shared_bytes;
  info.depth = entry.ancestors.size();
  return info;
}

std::vector<CatalogEntryInfo> DatasetCatalog::List() const {
  std::vector<CatalogEntryInfo> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [fingerprint, entry] : entries_) {
      out.push_back(InfoLocked(fingerprint, entry));
    }
  }
  // Pool counts outside the registry lock (the artifact cache has its own).
  for (CatalogEntryInfo& info : out) {
    info.pools = artifacts_.PoolCountFor(info.fingerprint);
  }
  std::sort(out.begin(), out.end(),
            [](const CatalogEntryInfo& a, const CatalogEntryInfo& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.fingerprint < b.fingerprint;
            });
  return out;
}

size_t DatasetCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t DatasetCatalog::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

CatalogStats DatasetCatalog::Stats() const {
  CatalogStats stats;
  stats.interns = interns_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.appends = appends_.load(std::memory_order_relaxed);
  stats.pool_builds = artifacts_.builds();
  stats.pool_hits = artifacts_.hits();
  stats.pool_refreshes = artifacts_.refreshes();
  stats.pool_conditions_reused = artifacts_.conditions_reused();
  stats.pool_conditions_rebuilt = artifacts_.conditions_rebuilt();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [fingerprint, entry] : entries_) {
      if (entry.parent_fingerprint == 0) continue;
      ++stats.versions;
      stats.shared_bytes += entry.shared_bytes;
    }
  }
  return stats;
}

}  // namespace sisd::catalog

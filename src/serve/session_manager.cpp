#include "serve/session_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/strings.hpp"
#include "core/export.hpp"
#include "data/csv.hpp"
#include "serialize/json.hpp"

namespace sisd::serve {

/// One named session slot. The entry mutex guards every non-atomic field
/// and is held for the whole of an operation; `resident`/`last_touch` are
/// atomics so the eviction scan can rank entries without taking their
/// locks.
struct SessionManager::SessionEntry {
  explicit SessionEntry(std::string session_name)
      : name(std::move(session_name)) {}

  const std::string name;

  std::mutex mu;
  bool closed = false;
  uint64_t generation = 0;
  std::unique_ptr<core::MiningSession> session;  ///< null while spilled
  std::string spill_text;  ///< in-memory spill (no spill_dir)
  std::string spill_path;  ///< on-disk spill
  /// The catalog pin this session holds (kept while spilled, so a
  /// dataset_ref spill snapshot always resolves on restore). Released on
  /// close / failed open / manager teardown.
  std::optional<uint64_t> pinned_fingerprint;

  std::atomic<bool> resident{false};
  std::atomic<uint64_t> last_touch{0};
};

struct SessionManager::Shard {
  mutable std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<SessionEntry>> sessions;
};

/// Entry + held entry lock, returned by `Lock`.
struct SessionManager::LockedSession {
  std::shared_ptr<SessionEntry> entry;
  std::unique_lock<std::mutex> lock;

  core::MiningSession& session() { return *entry->session; }
};

namespace {

IterationSummary Summarize(const core::IterationResult& iteration,
                           size_t index, const data::DataTable& desc) {
  IterationSummary out;
  out.index = index;
  out.location = iteration.location.Describe(desc);
  if (iteration.spread.has_value()) {
    out.spread = iteration.spread->Describe(desc);
  }
  out.spread_error = iteration.spread_error;
  out.si = iteration.location.score.si;
  out.coverage = iteration.location.pattern.subgroup.Coverage();
  out.candidates = iteration.candidates_evaluated;
  out.hit_time_budget = iteration.hit_time_budget;
  return out;
}

Status CheckGeneration(uint64_t current,
                       const std::optional<uint64_t>& expected) {
  if (expected.has_value() && *expected != current) {
    return Status::Conflict(StrFormat(
        "generation mismatch: session is at %llu, request expected %llu",
        static_cast<unsigned long long>(current),
        static_cast<unsigned long long>(*expected)));
  }
  return Status::OK();
}

}  // namespace

SessionManager::SessionManager(ServeConfig config)
    : SessionManager(std::move(config), nullptr) {}

SessionManager::SessionManager(
    ServeConfig config, std::shared_ptr<catalog::DatasetCatalog> catalog)
    : config_(std::move(config)), catalog_(std::move(catalog)) {
  config_.max_resident = std::max<size_t>(config_.max_resident, 1);
  config_.num_shards =
      std::min<size_t>(std::max<size_t>(config_.num_shards, 1), 4096);
  if (catalog_ == nullptr) {
    catalog::CatalogConfig catalog_config;
    catalog_config.max_bytes = config_.catalog_max_bytes;
    catalog_ = std::make_shared<catalog::DatasetCatalog>(catalog_config);
  }
  pool_ = std::make_shared<search::ThreadPool>(
      search::ThreadPool::ResolveNumThreads(config_.num_threads));
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionManager::~SessionManager() {
  // Release the catalog pins of still-open sessions: a shared catalog
  // outlives this manager, and orphaned pins would block dataset_drop
  // forever.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, entry] : shard->sessions) {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (!entry->closed && entry->pinned_fingerprint.has_value()) {
        catalog_->Unpin(*entry->pinned_fingerprint);
        entry->pinned_fingerprint.reset();
      }
    }
  }
}

SessionManager::Shard& SessionManager::ShardFor(
    const std::string& name) const {
  return *shards_[std::hash<std::string>{}(name) % shards_.size()];
}

std::shared_ptr<SessionManager::SessionEntry> SessionManager::FindEntry(
    const std::string& name) const {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(name);
  return it == shard.sessions.end() ? nullptr : it->second;
}

void SessionManager::RemoveEntry(const std::string& name,
                                 const SessionEntry* expected) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(name);
  if (it != shard.sessions.end() && it->second.get() == expected) {
    shard.sessions.erase(it);
  }
}

std::string SessionManager::SpillPathFor(const std::string& name) const {
  if (config_.spill_dir.empty()) return "";
  // Sanitized name + name hash: collision-safe even when distinct names
  // sanitize identically ("a b" vs "a_b").
  std::string safe;
  safe.reserve(name.size());
  for (char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    safe.push_back(keep ? c : '_');
  }
  return StrFormat("%s/%s-%016zx.session.json", config_.spill_dir.c_str(),
                   safe.c_str(), std::hash<std::string>{}(name));
}

Status SessionManager::EnsureResident(SessionEntry* entry) {
  if (entry->session != nullptr) return Status::OK();
  // The spill stays untouched until the restore has succeeded, so a
  // failed restore (I/O error, codec failure) is retryable and never
  // destroys the only copy of the session state.
  std::string loaded;
  const std::string* text = nullptr;
  if (!entry->spill_path.empty()) {
    SISD_ASSIGN_OR_RETURN(read, serialize::ReadTextFile(entry->spill_path));
    loaded = std::move(read);
    text = &loaded;
  } else if (!entry->spill_text.empty()) {
    text = &entry->spill_text;
  } else {
    return Status::Unknown("session '" + entry->name +
                           "' has neither live state nor a spill snapshot");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::RestoreFromString(
                                     *text, catalog_.get()));
  entry->session = std::make_unique<core::MiningSession>(std::move(session));
  entry->session->set_thread_pool(pool_);
  // The live session owns the state again: drop the spill (including the
  // on-disk file — it is stale the moment the session mutates, and
  // leaving it would leak one snapshot per evict/restore/close cycle).
  entry->spill_text.clear();
  if (!entry->spill_path.empty()) {
    std::remove(entry->spill_path.c_str());
    entry->spill_path.clear();
  }
  entry->resident.store(true);
  resident_count_.fetch_add(1);
  restores_.fetch_add(1);
  return Status::OK();
}

Status SessionManager::EvictEntryLocked(SessionEntry* entry) {
  SISD_CHECK(entry->session != nullptr);
  // Catalog-origin sessions spill in dataset_ref form: the snapshot skips
  // the dataset bytes and the restore reuses the shared dataset + pool.
  // The entry's catalog pin stays held across the spill, so the ref always
  // resolves. Sessions without an origin (none are created by this
  // manager, but restores of foreign inline snapshots could lack one)
  // fall back to the self-contained inline form.
  std::string text =
      entry->session->SaveToString(core::SnapshotForm::kDatasetRef);
  if (!config_.spill_dir.empty()) {
    const std::string path = SpillPathFor(entry->name);
    SISD_RETURN_NOT_OK(serialize::WriteTextFile(path, text));
    entry->spill_path = path;
    entry->spill_text.clear();
  } else {
    entry->spill_text = std::move(text);
    entry->spill_path.clear();
  }
  entry->session.reset();
  entry->resident.store(false);
  resident_count_.fetch_sub(1);
  evictions_.fetch_add(1);
  return Status::OK();
}

void SessionManager::MaybeEvict() {
  while (resident_count_.load() > config_.max_resident) {
    // Rank resident entries by logical touch (coldest first). The scan
    // holds one shard lock at a time and no entry locks.
    std::vector<std::pair<uint64_t, std::shared_ptr<SessionEntry>>>
        candidates;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [name, entry] : shard->sessions) {
        if (entry->resident.load()) {
          candidates.emplace_back(entry->last_touch.load(), entry);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    bool evicted = false;
    for (auto& [touch, entry] : candidates) {
      (void)touch;
      // Busy sessions (operation in flight) are skipped, not waited on.
      std::unique_lock<std::mutex> lock(entry->mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      if (entry->closed || !entry->resident.load()) continue;
      if (EvictEntryLocked(entry.get()).ok()) {
        evicted = true;
        break;
      }
    }
    // Everything cold is busy or spilled already: give up for now; the
    // next operation re-runs the policy.
    if (!evicted) break;
  }
}

Result<SessionManager::LockedSession> SessionManager::Lock(
    const std::string& name) {
  std::shared_ptr<SessionEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("no session named '" + name + "'");
  }
  std::unique_lock<std::mutex> lock(entry->mu);
  if (entry->closed) {
    return Status::NotFound("session '" + name + "' is closed");
  }
  SISD_RETURN_NOT_OK(EnsureResident(entry.get()));
  entry->last_touch.store(NextTouch());
  return LockedSession{std::move(entry), std::move(lock)};
}

SessionInfo SessionManager::InfoLocked(const SessionEntry& entry) const {
  SISD_DCHECK(entry.session != nullptr);
  const core::MiningSession& session = *entry.session;
  SessionInfo info;
  info.name = entry.name;
  info.generation = entry.generation;
  info.iterations = session.history().size();
  info.constraints = session.assimilator().num_constraints();
  info.dataset = session.dataset().name;
  info.rows = session.dataset().num_rows();
  info.descriptions = session.dataset().num_descriptions();
  info.targets = session.dataset().num_targets();
  info.resident = true;
  return info;
}

Result<SessionInfo> SessionManager::Open(const std::string& name,
                                         data::Dataset dataset,
                                         core::MinerConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  // Before the dataset is interned and its condition pool built.
  SISD_RETURN_NOT_OK(core::ValidateMinerConfig(config));
  SISD_ASSIGN_OR_RETURN(pinned,
                        catalog_->Intern(std::move(dataset), /*pin=*/true,
                                        /*retain=*/false));
  return OpenPinned(name, std::move(pinned), std::move(config));
}

Result<SessionInfo> SessionManager::OpenRef(const std::string& name,
                                            const std::string& dataset_ref,
                                            core::MinerConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  SISD_RETURN_NOT_OK(core::ValidateMinerConfig(config));
  SISD_ASSIGN_OR_RETURN(
      pinned, catalog_->FindByNameOrFingerprint(dataset_ref, /*pin=*/true));
  return OpenPinned(name, std::move(pinned), std::move(config));
}

Result<SessionInfo> SessionManager::OpenPinned(const std::string& name,
                                               catalog::PinnedDataset pinned,
                                               core::MinerConfig config) {
  auto entry = std::make_shared<SessionEntry>(name);
  {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.sessions.emplace(name, entry);
    if (!inserted) {
      catalog_->Unpin(pinned.fingerprint);
      return Status::AlreadyExists("session '" + name + "' already exists");
    }
  }
  // Built under the entry lock (racers block on it, not on the shard).
  // The condition pool comes from the catalog's artifact cache: the first
  // session on a (dataset, alphabet) pays the build, every later one
  // shares the same immutable instance.
  std::unique_lock<std::mutex> entry_lock(entry->mu);
  std::shared_ptr<const search::ConditionPool> shared_pool =
      catalog_->PoolFor(pinned, config.search.num_split_points,
                        config.search.include_exclusions, pool_.get());
  Result<core::MiningSession> session = core::MiningSession::Create(
      pinned.dataset, std::move(config), std::move(shared_pool),
      pinned.ref());
  if (!session.ok()) {
    entry->closed = true;
    entry_lock.unlock();
    RemoveEntry(name, entry.get());
    catalog_->Unpin(pinned.fingerprint);
    return session.status();
  }
  entry->session =
      std::make_unique<core::MiningSession>(std::move(session).MoveValue());
  entry->session->set_thread_pool(pool_);
  entry->pinned_fingerprint = pinned.fingerprint;
  entry->resident.store(true);
  resident_count_.fetch_add(1);
  opens_.fetch_add(1);
  entry->last_touch.store(NextTouch());
  SessionInfo info = InfoLocked(*entry);
  entry_lock.unlock();
  MaybeEvict();
  return info;
}

Result<MineOutcome> SessionManager::Mine(
    const std::string& name, int iterations,
    std::optional<uint64_t> if_generation) {
  if (iterations < 1) {
    return Status::InvalidArgument("mine needs iterations >= 1");
  }
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  SISD_RETURN_NOT_OK(CheckGeneration(locked.entry->generation,
                                     if_generation));
  core::MiningSession& session = locked.session();
  MineOutcome outcome;
  for (int i = 0; i < iterations; ++i) {
    Result<core::IterationResult> iteration = session.MineNext();
    if (!iteration.ok()) {
      // An error on the first iteration mutated nothing: report it as the
      // request's failure. After at least one assimilated iteration the
      // session HAS moved, so the committed entries and new generation
      // must reach the client: exhaustion is the expected end of the
      // dialogue, anything else is surfaced via `stopped`.
      if (i == 0) return iteration.status();
      if (iteration.status().code() == StatusCode::kNotFound) {
        outcome.exhausted = true;
      } else {
        outcome.stopped = iteration.status().ToString();
      }
      break;
    }
    ++locked.entry->generation;
    outcome.iterations.push_back(Summarize(iteration.Value(),
                                           session.history().size(),
                                           session.dataset().descriptions));
  }
  outcome.generation = locked.entry->generation;
  locked.lock.unlock();
  MaybeEvict();
  return outcome;
}

Result<MineListOutcome> SessionManager::MineList(
    const std::string& name, int rules,
    std::optional<uint64_t> if_generation) {
  if (rules < 1) {
    return Status::InvalidArgument("mine_list needs rules >= 1");
  }
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  SISD_RETURN_NOT_OK(CheckGeneration(locked.entry->generation,
                                     if_generation));
  core::MiningSession& session = locked.session();
  SISD_ASSIGN_OR_RETURN(result, session.MineList(rules));
  locked.entry->generation += result.rules.size();
  const search::SubgroupList* list = session.subgroup_list();
  SISD_CHECK(list != nullptr);  // MineList materializes the list
  MineListOutcome outcome;
  outcome.generation = locked.entry->generation;
  outcome.total_gain = list->total_gain;
  outcome.list_size = list->rules.size();
  outcome.uncovered = list->uncovered.count();
  outcome.candidates = result.candidates_evaluated;
  outcome.exhausted = result.exhausted;
  outcome.hit_time_budget = result.hit_time_budget;
  const size_t first = list->rules.size() - result.rules.size();
  for (size_t i = 0; i < result.rules.size(); ++i) {
    const search::SubgroupRule& rule = result.rules[i];
    RuleSummary summary;
    summary.index = first + i + 1;
    summary.description =
        rule.intention.ToString(session.dataset().descriptions);
    summary.gain = rule.gain;
    summary.coverage = rule.extension.count();
    summary.captured = rule.captured.count();
    outcome.rules.push_back(std::move(summary));
  }
  locked.lock.unlock();
  MaybeEvict();
  return outcome;
}

Result<RebaseInfo> SessionManager::Rebase(
    const std::string& name, const std::string& dataset_spec,
    std::optional<uint64_t> if_generation) {
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  SISD_RETURN_NOT_OK(CheckGeneration(locked.entry->generation,
                                     if_generation));
  core::MiningSession& session = locked.session();
  // Every manager session is catalog-opened, so it always has a pin.
  SISD_CHECK(locked.entry->pinned_fingerprint.has_value());
  const uint64_t current_fp = *locked.entry->pinned_fingerprint;

  SISD_ASSIGN_OR_RETURN(
      target, catalog_->FindByNameOrFingerprint(dataset_spec, /*pin=*/true));
  RebaseInfo out;
  out.previous_fingerprint = current_fp;
  out.fingerprint = target.fingerprint;
  if (target.fingerprint == current_fp) {
    catalog_->Unpin(target.fingerprint);
    out.reused = true;
    out.info = InfoLocked(*locked.entry);
    return out;
  }
  if (!catalog_->IsDescendantOf(target.fingerprint, current_fp)) {
    catalog_->Unpin(target.fingerprint);
    return Status::InvalidArgument(
        "dataset '" + dataset_spec +
        "' is not an appended version of the session's current dataset");
  }
  // The pool comes from the artifact cache — `DatasetCatalog::Append` has
  // already refreshed the parent's pools incrementally for this version,
  // so this is a cache hit, not a scratch build.
  std::shared_ptr<const search::ConditionPool> pool = catalog_->PoolFor(
      target, session.config().search.num_split_points,
      session.config().search.include_exclusions, pool_.get());
  Result<core::RebaseOutcome> rebased =
      session.Rebase(target.dataset, std::move(pool), target.ref());
  if (!rebased.ok()) {
    catalog_->Unpin(target.fingerprint);
    return rebased.status();
  }
  // The target pin transfers to the entry; the old version's pin drops.
  catalog_->Unpin(current_fp);
  locked.entry->pinned_fingerprint = target.fingerprint;
  ++locked.entry->generation;
  out.appended_rows = rebased.Value().appended_rows;
  out.replayed_iterations = rebased.Value().replayed_iterations;
  out.replayed_rules = rebased.Value().replayed_rules;
  out.info = InfoLocked(*locked.entry);
  locked.lock.unlock();
  MaybeEvict();
  return out;
}

Result<MineOutcome> SessionManager::Assimilate(
    const std::string& name, const IntentionBuilder& builder,
    std::optional<uint64_t> if_generation) {
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  SISD_RETURN_NOT_OK(CheckGeneration(locked.entry->generation,
                                     if_generation));
  core::MiningSession& session = locked.session();
  SISD_ASSIGN_OR_RETURN(intention, builder(session));
  SISD_ASSIGN_OR_RETURN(iteration, session.AssimilateIntention(intention));
  ++locked.entry->generation;
  MineOutcome outcome;
  outcome.generation = locked.entry->generation;
  outcome.iterations.push_back(Summarize(iteration,
                                         session.history().size(),
                                         session.dataset().descriptions));
  locked.lock.unlock();
  MaybeEvict();
  return outcome;
}

Result<std::vector<IterationSummary>> SessionManager::History(
    const std::string& name) {
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  const core::MiningSession& session = locked.session();
  std::vector<IterationSummary> out;
  out.reserve(session.history().size());
  for (size_t i = 0; i < session.history().size(); ++i) {
    out.push_back(Summarize(session.history()[i], i + 1,
                            session.dataset().descriptions));
  }
  locked.lock.unlock();
  MaybeEvict();
  return out;
}

Result<std::string> SessionManager::ExportCsv(
    const std::string& name, const std::string& what,
    std::optional<size_t> iteration) {
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  const core::MiningSession& session = locked.session();
  std::string csv;
  if (what == "history") {
    csv = data::WriteCsvText(core::IterationSummaryTable(
        session.history(), session.dataset().descriptions,
        session.dataset().target_names));
  } else if (what == "ranked") {
    if (session.history().empty()) {
      return Status::InvalidArgument("session has no iterations to export");
    }
    const size_t k = iteration.value_or(session.history().size());
    if (k < 1 || k > session.history().size()) {
      return Status::OutOfRange(StrFormat("iteration %zu outside 1..%zu", k,
                                          session.history().size()));
    }
    csv = data::WriteCsvText(core::RankedListTable(
        session.history()[k - 1], session.dataset().descriptions));
  } else {
    return Status::InvalidArgument("export 'what' must be history|ranked");
  }
  locked.lock.unlock();
  MaybeEvict();
  return csv;
}

Result<SaveOutcome> SessionManager::Save(const std::string& name,
                                         const std::string& path,
                                         bool dataset_ref) {
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  std::string out_path = !path.empty() ? path : SpillPathFor(name);
  if (out_path.empty()) {
    return Status::InvalidArgument(
        "save needs a 'path' when the server has no spill directory");
  }
  const std::string text = locked.session().SaveToString(
      dataset_ref ? core::SnapshotForm::kDatasetRef
                  : core::SnapshotForm::kInlineDataset);
  SISD_RETURN_NOT_OK(serialize::WriteTextFile(out_path, text));
  locked.lock.unlock();
  MaybeEvict();
  return SaveOutcome{std::move(out_path), text.size()};
}

Status SessionManager::Evict(const std::string& name) {
  std::shared_ptr<SessionEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("no session named '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->closed) {
    return Status::NotFound("session '" + name + "' is closed");
  }
  if (entry->session == nullptr) return Status::OK();  // already spilled
  return EvictEntryLocked(entry.get());
}

Status SessionManager::Close(const std::string& name, bool save,
                             const std::string& path) {
  std::shared_ptr<SessionEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("no session named '" + name + "'");
  }
  std::unique_lock<std::mutex> lock(entry->mu);
  if (entry->closed) {
    return Status::NotFound("session '" + name + "' is closed");
  }
  // Captured before EnsureResident (which clears it): a spill file the
  // close does not deliberately keep must be removed, or every
  // evicted-then-closed session would leak a snapshot in spill_dir.
  std::string stale_spill = entry->spill_path;
  if (save) {
    SISD_RETURN_NOT_OK(EnsureResident(entry.get()));
    std::string out_path = !path.empty() ? path : SpillPathFor(name);
    if (out_path.empty()) {
      return Status::InvalidArgument(
          "close with save needs a 'path' when the server has no spill "
          "directory");
    }
    SISD_RETURN_NOT_OK(
        serialize::WriteTextFile(out_path, entry->session->SaveToString()));
    if (stale_spill == out_path) stale_spill.clear();  // kept on purpose
  }
  entry->closed = true;
  if (entry->session != nullptr) {
    entry->session.reset();
    entry->resident.store(false);
    resident_count_.fetch_sub(1);
  }
  entry->spill_text.clear();
  entry->spill_path.clear();
  if (entry->pinned_fingerprint.has_value()) {
    catalog_->Unpin(*entry->pinned_fingerprint);
    entry->pinned_fingerprint.reset();
  }
  if (!stale_spill.empty()) std::remove(stale_spill.c_str());
  lock.unlock();
  RemoveEntry(name, entry.get());
  closes_.fetch_add(1);
  return Status::OK();
}

Result<SessionInfo> SessionManager::Info(const std::string& name) {
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  SessionInfo info = InfoLocked(*locked.entry);
  locked.lock.unlock();
  MaybeEvict();
  return info;
}

Result<core::MiningSession> SessionManager::CloneSession(
    const std::string& name) {
  SISD_ASSIGN_OR_RETURN(locked, Lock(name));
  core::MiningSession clone = locked.session().Clone();
  locked.lock.unlock();
  MaybeEvict();
  return clone;
}

std::vector<std::string> SessionManager::SessionNames() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, entry] : shard->sessions) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

ManagerStats SessionManager::Stats() const {
  ManagerStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.sessions += shard->sessions.size();
  }
  stats.resident = resident_count_.load();
  stats.max_resident = config_.max_resident;
  stats.opens = opens_.load();
  stats.evictions = evictions_.load();
  stats.restores = restores_.load();
  stats.closes = closes_.load();
  return stats;
}

}  // namespace sisd::serve

/// \file dataset_catalog.hpp
/// \brief Content-addressed registry of immutable shared datasets — the
/// "many analysts, one dataset" substrate of the serve layer.
///
/// The paper's analyst-in-the-loop dialogue (§II-B) is naturally
/// many-dialogues-over-one-dataset: the catalog stores each distinct
/// dataset exactly once, keyed by a stable content fingerprint
/// (catalog/fingerprint.hpp), and hands out
/// `shared_ptr<const data::Dataset>` so every session shares the same
/// immutable instance. Derived search structures (condition pools) are
/// memoized per fingerprint in an embedded `ArtifactCache`, so opening the
/// 64th session on a dataset costs O(model state), not
/// O(dataset + pool build).
///
/// Semantics:
///  - **Content addressing.** `Intern` fingerprints the dataset's snapshot
///    encoding; re-interning identical content returns the existing entry
///    (`reused = true`) and moves its registered name not at all — first
///    registration wins the name. Fingerprint hits are verified by
///    equality of the encodings (`serialize::SameDatasetEncoding`, which
///    compares cells without encoding), so a hash collision is a loud
///    `Conflict`, never a silent aliasing of two different datasets.
///  - **Ref counts + lifetime.** Sessions pin the datasets they mine
///    (including while spilled to snapshots, when they hold no
///    `shared_ptr`), so `Drop` can refuse to remove a dataset that a live
///    session would need to restore. Pins are explicit (`pin` flag /
///    `Unpin`), owned by the serve layer. Entries interned with
///    `retain = true` (explicit `dataset_load` / `--preload`) stay
///    registered until dropped; entries interned with `retain = false`
///    (implicit, by a plain `open`) are removed automatically when their
///    last pin releases — a long-running server does not accumulate every
///    dataset ever opened.
///  - **Memory accounting + LRU.** Each entry's size is its snapshot byte
///    length. When `max_bytes` is configured, interning past the budget
///    drops the least-recently-touched *unpinned* entries (logical touch
///    clock, so behaviour is reproducible for a given operation order);
///    interning a dataset that cannot fit even after evictions fails
///    loudly instead of confirming a registration that no longer exists.
///
/// Thread-safe: all public methods may be called concurrently.

#ifndef SISD_CATALOG_DATASET_CATALOG_HPP_
#define SISD_CATALOG_DATASET_CATALOG_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/artifact_cache.hpp"
#include "catalog/fingerprint.hpp"
#include "common/status.hpp"
#include "data/table.hpp"

namespace sisd::catalog {

/// \brief Catalog policy knobs.
struct CatalogConfig {
  /// Total serialized bytes kept before LRU-dropping unpinned entries
  /// (0 = unlimited). Pinned entries never count as droppable.
  size_t max_bytes = 0;
};

/// \brief One catalog entry rendered for stats/listing.
struct CatalogEntryInfo {
  std::string name;
  uint64_t fingerprint = 0;
  size_t bytes = 0;     ///< accounting unit: snapshot-encoded size for
                        ///< roots, marginal appended bytes for versions
  size_t pools = 0;     ///< cached condition pools for this dataset
  uint64_t sessions = 0;  ///< live session pins
  size_t rows = 0;
  size_t descriptions = 0;
  size_t targets = 0;
  /// Version-chain fields (zero for root datasets).
  uint64_t parent_fingerprint = 0;  ///< 0 = root (not a version)
  size_t row_offset = 0;      ///< parent's row count (first appended row)
  size_t shared_bytes = 0;    ///< prefix bytes shared with the ancestry
  size_t depth = 0;           ///< chain length above this entry (root = 0)
};

/// \brief Monotonic catalog traffic counters (process lifetime). A "hit"
/// is any resolution that handed out an already-registered dataset — a
/// dedup'd `Intern` or a successful lookup; a "miss" is a lookup probe
/// that found nothing (`FindByNameOrFingerprint` counts each failed probe,
/// so one spec can record a name miss and then a fingerprint hit). Pool
/// counters mirror the embedded `ArtifactCache`.
struct CatalogStats {
  uint64_t interns = 0;      ///< fresh content registrations
  uint64_t hits = 0;         ///< reused-entry resolutions
  uint64_t misses = 0;       ///< failed lookup probes
  uint64_t pool_builds = 0;  ///< condition pools built from scratch
  uint64_t pool_hits = 0;    ///< condition pools answered from cache
  /// Version-chain gauges and incremental-refresh counters.
  uint64_t appends = 0;         ///< fresh version registrations
  uint64_t versions = 0;        ///< current entries that are versions
  uint64_t shared_bytes = 0;    ///< current prefix bytes shared via chains
  uint64_t pool_refreshes = 0;  ///< pools derived incrementally on append
  uint64_t pool_conditions_reused = 0;   ///< extensions extended in place
  uint64_t pool_conditions_rebuilt = 0;  ///< extensions rebuilt (moved)
};

/// \brief A resolved catalog dataset: the shared instance plus its address.
struct PinnedDataset {
  std::shared_ptr<const data::Dataset> dataset;
  uint64_t fingerprint = 0;
  size_t bytes = 0;
  bool reused = false;  ///< Intern found identical content already present

  /// The (fingerprint, name) pair `dataset_ref` snapshots store.
  DatasetRef ref() const {
    return DatasetRef{fingerprint, dataset ? dataset->name : ""};
  }
};

/// \brief Outcome of `DatasetCatalog::Append`.
struct AppendOutcome {
  /// The child version (or the parent itself for an empty append).
  PinnedDataset dataset;
  uint64_t parent_fingerprint = 0;
  size_t appended_rows = 0;
  size_t row_offset = 0;        ///< parent's row count
  bool reused = false;          ///< identical append already registered
  size_t pools_refreshed = 0;   ///< parent pools refreshed incrementally
};

/// \brief Builds the child dataset from the resolved parent (e.g. via
/// `data::AppendRowsFromCells` / `AppendRowsFromCsvText`). Runs outside
/// the catalog lock; a failure leaves the catalog untouched.
using AppendBuilder =
    std::function<Result<data::Dataset>(const data::Dataset& parent)>;

/// \brief The registry. See the file comment for semantics.
class DatasetCatalog {
 public:
  explicit DatasetCatalog(CatalogConfig config = CatalogConfig());

  DatasetCatalog(const DatasetCatalog&) = delete;
  DatasetCatalog& operator=(const DatasetCatalog&) = delete;

  /// Registers `dataset` (validated, fingerprinted) or dedups against an
  /// existing entry with byte-identical content. `pin` atomically takes
  /// one session pin on the entry (pair with `Unpin`); `retain` marks the
  /// entry as surviving its last unpin (see the lifetime rules above —
  /// a reuse hit upgrades an implicit entry to retained, never the
  /// reverse). The dataset's `name` field is its registered name; content
  /// present under a different name dedups anyway (the content is the
  /// identity, first name wins). Conflict on a fingerprint collision with
  /// different bytes, and when the entry cannot fit `max_bytes`.
  Result<PinnedDataset> Intern(data::Dataset dataset, bool pin, bool retain);

  /// Looks up by registered name; `pin` as in `Intern`. NotFound when no
  /// entry carries `name`; Conflict when several do (distinct content
  /// registered under one name — resolve by fingerprint instead).
  Result<PinnedDataset> FindByName(const std::string& name, bool pin);

  /// Looks up by fingerprint; `pin` as in `Intern`.
  Result<PinnedDataset> FindByFingerprint(uint64_t fingerprint, bool pin);

  /// Looks up by registered name, falling back to interpreting `spec` as a
  /// 16-hex-digit fingerprint when no name matches (the resolution rule of
  /// the `open`/`dataset_drop` protocol verbs).
  Result<PinnedDataset> FindByNameOrFingerprint(const std::string& spec,
                                                bool pin);

  /// Finds the entry whose snapshot encoding equals `dataset`'s byte for
  /// byte (fingerprint index plus structural equality verification, so a
  /// hash collision reads as "not present", never as the wrong dataset).
  /// Used by inline-snapshot restores to adopt the shared instance safely.
  Result<PinnedDataset> MatchContent(const data::Dataset& dataset, bool pin);

  /// Resolves a snapshot/protocol `dataset_ref`: the fingerprint is the
  /// identity; `ref.name` only improves the NotFound message.
  Result<PinnedDataset> Resolve(const DatasetRef& ref, bool pin);

  /// Registers a row-append *version* of the dataset `parent_spec`
  /// resolves to (name or 16-hex fingerprint). `build_child` receives the
  /// parent and returns the grown dataset (same schema, rows only added —
  /// construct it with the `data/append.hpp` helpers so column chunks are
  /// shared); any builder error is returned verbatim with the catalog
  /// untouched. The child is content-addressed by a chain fingerprint
  /// (parent fingerprint + appended rows, O(new rows)), registered as
  /// `<base>@v<depth+1>`, and accounted at its *marginal* bytes; an
  /// identical re-append dedups onto the existing version (verified by
  /// comparing the stored child's appended rows, `reused = true`). Every
  /// cached condition pool of the parent is refreshed incrementally for
  /// the child before `Append` returns, so a follow-up `PoolFor`/`Rebase`
  /// hits the cache. Appending zero rows is a no-op that returns the
  /// parent entry. Appending to a pinned parent is allowed (the parent is
  /// immutable; the child is a separate entry). The pool refresh runs on
  /// `workers` when non-null.
  Result<AppendOutcome> Append(const std::string& parent_spec,
                               const AppendBuilder& build_child, bool pin,
                               bool retain,
                               search::ThreadPool* workers = nullptr);

  /// The version chain of the entry `spec` resolves to: root first,
  /// ending at the entry itself. Ancestors already dropped from the
  /// registry are skipped (the chain metadata outlives them).
  Result<std::vector<CatalogEntryInfo>> ListVersions(const std::string& spec);

  /// True iff `ancestor` appears in the (strict) ancestor chain of the
  /// entry `fingerprint`; false when either entry is unknown.
  bool IsDescendantOf(uint64_t fingerprint, uint64_t ancestor) const;

  /// Releases one session pin. Dropping the last pin of a non-retained
  /// (implicitly interned) entry removes it — and its cached pools — from
  /// the registry. No-op when the entry is already gone.
  void Unpin(uint64_t fingerprint);

  /// Removes the entry named `name` (or, when `name` parses as 16 hex
  /// digits and no entry carries it as a name, the entry with that
  /// fingerprint) plus its cached pools. Conflict while any session pin is
  /// live — a spilled session's `dataset_ref` snapshot must stay
  /// resolvable. Sessions already holding the `shared_ptr` are unaffected
  /// either way (the data outlives the registry entry).
  Status Drop(const std::string& name);

  /// The memoized condition pool of `pinned`'s dataset for the given
  /// search alphabet (built on first use, on `workers` when non-null;
  /// shared afterwards).
  std::shared_ptr<const search::ConditionPool> PoolFor(
      const PinnedDataset& pinned, int num_splits, bool include_exclusions,
      search::ThreadPool* workers = nullptr);

  /// All entries, sorted by name then fingerprint (deterministic).
  std::vector<CatalogEntryInfo> List() const;

  /// Registered entry count.
  size_t size() const;

  /// Sum of entry byte sizes (the accounting `max_bytes` is checked
  /// against).
  size_t total_bytes() const;

  /// The embedded artifact cache (exposed for tests/diagnostics).
  ArtifactCache& artifacts() { return artifacts_; }

  /// Traffic counters (hit rates for the serve layer's `metrics` verb).
  CatalogStats Stats() const;

 private:
  struct Entry {
    std::shared_ptr<const data::Dataset> dataset;
    std::string name;
    size_t bytes = 0;
    uint64_t pins = 0;
    uint64_t last_touch = 0;
    /// False for implicitly interned entries, which die with their last
    /// pin; true for dataset_load/--preload entries, which persist.
    bool retain = false;
    /// Version-chain metadata (zero / empty for root datasets).
    uint64_t parent_fingerprint = 0;
    size_t row_offset = 0;    ///< parent's row count
    size_t shared_bytes = 0;  ///< sum of ancestor `bytes` (frozen at append)
    std::vector<uint64_t> ancestors;  ///< root-first chain above this entry
  };

  /// Renders entry -> CatalogEntryInfo, minus the pool count, which the
  /// caller fills outside the registry lock (mu_ held).
  static CatalogEntryInfo InfoLocked(uint64_t fingerprint,
                                     const Entry& entry);

  /// Renders entry -> PinnedDataset, bumping touch/pins (mu_ held).
  PinnedDataset TouchLocked(Entry* entry, uint64_t fingerprint, bool pin,
                            bool reused);

  /// Removes one entry and its cached pools (mu_ held).
  void EraseEntryLocked(std::map<uint64_t, Entry>::iterator it);

  /// Drops least-recently-touched unpinned entries until the byte budget
  /// fits (mu_ held). Pools of dropped entries are forgotten too.
  void EnforceBudgetLocked();

  const CatalogConfig config_;
  mutable std::mutex mu_;
  std::map<uint64_t, Entry> entries_;  ///< fingerprint -> entry (ordered)
  size_t total_bytes_ = 0;
  uint64_t touch_clock_ = 0;
  std::atomic<uint64_t> interns_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> appends_{0};
  ArtifactCache artifacts_;
};

}  // namespace sisd::catalog

#endif  // SISD_CATALOG_DATASET_CATALOG_HPP_

#include "search/beam_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>

#include "search/thread_pool.hpp"

namespace sisd::search {

namespace {

using Clock = std::chrono::steady_clock;

/// Scoring (and generation) chunk size: the wall-clock budget is checked
/// once per chunk instead of per candidate (`steady_clock::now()` is
/// measurable on the hot path).
constexpr size_t kCandidateChunk = 256;

/// Beam entry: intention as pool-condition indices (sorted = canonical).
struct BeamEntry {
  std::vector<uint32_t> condition_ids;
  pattern::Extension extension{0};
  double quality = -std::numeric_limits<double>::infinity();
};

pattern::Intention MakeIntention(const ConditionPool& pool,
                                 std::span<const uint32_t> ids) {
  std::vector<pattern::Condition> conditions;
  conditions.reserve(ids.size());
  for (uint32_t id : ids) conditions.push_back(pool.condition(id));
  return pattern::Intention(std::move(conditions));
}

/// One beam level's set of candidate id sets, for dedup during generation:
/// open addressing (linear probing) over candidate indices into the batch's
/// flat id arena. Every probe compares the full id span, so two distinct
/// sets never merge. Per level suffices: a level-d candidate holds exactly
/// d ids (`AllowsRefinementWith` rejects a condition the parent already
/// has), so sets of different levels never compare equal. Storage is kept
/// across levels; steady-state generation allocates nothing.
class LevelIdSet {
 public:
  /// Forgets every set, keeping the table's storage.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

  /// Records candidate `index`, whose id set is already in `batch.ids`.
  /// False when an earlier candidate of this level holds the same set.
  bool Insert(const CandidateBatch& batch, uint32_t index) {
    if (2 * (size_ + 1) > slots_.size()) Grow(batch);
    const std::span<const uint32_t> ids = batch.candidate_ids(index);
    const size_t mask = slots_.size() - 1;
    size_t slot = Hash(ids) & mask;
    for (; slots_[slot] != kEmpty; slot = (slot + 1) & mask) {
      const std::span<const uint32_t> held =
          batch.candidate_ids(slots_[slot]);
      if (std::equal(ids.begin(), ids.end(), held.begin())) return false;
    }
    slots_[slot] = index;
    ++size_;
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinSlots = 1024;

  static size_t Hash(std::span<const uint32_t> ids) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a, then a final mix
    for (uint32_t id : ids) {
      h ^= id;
      h *= 1099511628211ull;
    }
    return size_t(h ^ (h >> 29));
  }

  void Grow(const CandidateBatch& batch) {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(std::max(kMinSlots, 2 * old.size()), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (uint32_t index : old) {
      if (index == kEmpty) continue;
      size_t slot = Hash(batch.candidate_ids(index)) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = index;
    }
  }

  std::vector<uint32_t> slots_;  ///< candidate indices; power-of-two size
  size_t size_ = 0;
};

/// Bounded best-list. Each id set is offered at most once per search (the
/// generation dedup guarantees it), so the list keeps no signature set: an
/// evicted candidate had lower quality than everything kept, and it is never
/// re-offered.
class TopList {
 public:
  /// `max_ids` bounds the id sets offered; `spares` are retired entries
  /// whose storage new entries reuse.
  TopList(size_t capacity, size_t max_ids,
          std::vector<BeamEntry> spares = {})
      : capacity_(capacity), max_ids_(max_ids), spares_(std::move(spares)) {}

  /// True iff an offer with this quality could enter the list (the
  /// candidate-materialization gate: extensions are only built for
  /// candidates some list would accept).
  bool WouldAccept(double quality) const {
    return entries_.size() < capacity_ || quality > WorstQuality();
  }

  /// Allocates only while no spare storage is left: an entry the list
  /// evicts becomes the spare the next accepted offer is built in.
  void Offer(std::span<const uint32_t> ids,
             const pattern::Extension& extension, double quality) {
    if (!WouldAccept(quality)) return;
    BeamEntry entry;
    if (!spares_.empty()) {
      entry = std::move(spares_.back());
      spares_.pop_back();
    }
    entry.condition_ids.reserve(max_ids_);
    entry.condition_ids.assign(ids.begin(), ids.end());
    entry.extension = extension;
    entry.quality = quality;
    entries_.push_back(std::move(entry));
    std::push_heap(entries_.begin(), entries_.end(), BetterQuality);
    if (entries_.size() > capacity_) {
      std::pop_heap(entries_.begin(), entries_.end(), BetterQuality);
      spares_.push_back(std::move(entries_.back()));
      entries_.pop_back();
    }
  }

  /// Consumes the list: entries are moved out (bitset copies are not free),
  /// leaving it empty.
  std::vector<BeamEntry> SortedDescending() {
    std::vector<BeamEntry> out = std::move(entries_);
    entries_.clear();
    std::sort(out.begin(), out.end(), [](const BeamEntry& a,
                                         const BeamEntry& b) {
      return a.quality > b.quality;
    });
    return out;
  }

 private:
  /// Min-heap comparator on quality (heap root = worst entry).
  static bool BetterQuality(const BeamEntry& a, const BeamEntry& b) {
    return a.quality > b.quality;
  }

  double WorstQuality() const {
    return entries_.empty()
               ? -std::numeric_limits<double>::infinity()
               : entries_.front().quality;
  }

  size_t capacity_;
  size_t max_ids_;
  std::vector<BeamEntry> entries_;  // min-heap on quality
  std::vector<BeamEntry> spares_;   // evicted or retired entries
};

}  // namespace

SearchResult BeamSearch(const data::DataTable& table,
                        const ConditionPool& pool, const SearchConfig& config,
                        BatchEvaluator& evaluator,
                        ThreadPool* shared_workers) {
  SISD_CHECK(config.beam_width >= 1);
  SISD_CHECK(config.max_depth >= 1);
  const size_t n = table.num_rows();
  // Empty extensions are never valid subgroups (their statistics are
  // undefined), so the coverage floor is at least 1.
  const size_t min_coverage = std::max<size_t>(config.min_coverage, 1);
  const size_t max_coverage = static_cast<size_t>(
      config.max_coverage_fraction * double(n));

  const size_t num_workers =
      shared_workers != nullptr
          ? shared_workers->num_workers()
          : ThreadPool::ResolveNumThreads(config.num_threads);
  evaluator.Prepare(num_workers);
  std::optional<ThreadPool> local_workers;
  ThreadPool* workers = nullptr;
  if (num_workers > 1) {
    if (shared_workers != nullptr) {
      workers = shared_workers;
    } else {
      local_workers.emplace(num_workers);
      workers = &*local_workers;
    }
  }

  SearchResult result;
  // No intention holds more conditions than the depth limit or the pool.
  const size_t max_ids =
      std::min(static_cast<size_t>(config.max_depth), pool.size());
  TopList top_list(config.top_k, max_ids);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::isfinite(config.time_budget_seconds)
                                 ? config.time_budget_seconds
                                 : 1e9));

  std::vector<BeamEntry> beam;
  // The beam before `beam`: its storage seeds the next level's list.
  std::vector<BeamEntry> retired;
  const pattern::Extension full_extension(n, /*full=*/true);

  // Reused across levels, so a level's candidates cost no allocations once
  // the buffers have grown to the level's size.
  CandidateBatch batch;
  batch.pool = &pool;
  ConditionRows condition_rows;
  if (evaluator.UsesConditionRows()) {
    condition_rows.Assign(pool, n);
    batch.rows = &condition_rows;
  }
  LevelIdSet level_ids;
  std::vector<double> scores;
  std::vector<uint8_t> chunk_scored;
  pattern::Extension merge_extension(n);
  size_t generation_ticks = 0;

  // Level 1 candidates: every pool condition. Deeper levels: beam x pool.
  for (int depth = 1; depth <= config.max_depth; ++depth) {
    if (Clock::now() >= deadline) {
      result.hit_time_budget = true;
      break;
    }

    // ---- Phase 1: generate this level's candidate batch ----------------
    // Deterministic order: parents in beam order, conditions ascending.
    const size_t d = static_cast<size_t>(depth);
    batch.depth = d;
    batch.parents.clear();
    batch.items.clear();
    batch.ids.clear();
    level_ids.Clear();
    if (depth == 1) {
      batch.parents.push_back(&full_extension);
    } else {
      for (const BeamEntry& entry : beam) {
        batch.parents.push_back(&entry.extension);
      }
    }
    if (batch.parents.empty()) break;

    for (uint32_t pi = 0;
         pi < batch.parents.size() && !result.hit_time_budget; ++pi) {
      const std::span<const uint32_t> parent_ids =
          depth == 1 ? std::span<const uint32_t>()
                     : std::span<const uint32_t>(beam[pi].condition_ids);
      // Reconstruct the parent's intention once for the constraint checks.
      const pattern::Intention parent_intention =
          MakeIntention(pool, parent_ids);
      const pattern::Extension& parent_extension = *batch.parents[pi];
      for (uint32_t cid = 0; cid < pool.size(); ++cid) {
        if ((++generation_ticks & (kCandidateChunk - 1)) == 0 &&
            Clock::now() >= deadline) {
          result.hit_time_budget = true;
          break;
        }
        const pattern::Condition& cond = pool.condition(cid);
        if (!parent_intention.AllowsRefinementWith(cond)) continue;
        const size_t count = pattern::Extension::IntersectionCount(
            parent_extension, pool.extension(cid));
        if (count < min_coverage || count > max_coverage || count == n) {
          continue;
        }
        // Append the sorted id set to the arena, and drop it again when the
        // level already holds it. A duplicate shares extension and count,
        // so deduping after the coverage filter is exact.
        const uint32_t index = static_cast<uint32_t>(batch.items.size());
        const auto split =
            std::upper_bound(parent_ids.begin(), parent_ids.end(), cid);
        batch.ids.insert(batch.ids.end(), parent_ids.begin(), split);
        batch.ids.push_back(cid);
        batch.ids.insert(batch.ids.end(), split, parent_ids.end());
        if (!level_ids.Insert(batch, index)) {
          batch.ids.resize(size_t(index) * d);
          continue;
        }
        batch.items.push_back({pi, cid, static_cast<uint32_t>(count)});
      }
    }

    // ---- Phase 2: score the batch in chunks ----------------------------
    // Scores land at fixed candidate indices, so parallel scheduling cannot
    // change the outcome (see the determinism note in beam_search.hpp for
    // the finite-budget caveat). When the budget already expired during
    // generation, only a small fixed prefix of the batch is scored
    // sequentially: the level still contributes partial results, while the
    // overshoot past the deadline stays bounded by ~kExpiredSliceChunks
    // chunks of evaluation instead of a whole beam level.
    scores.assign(batch.size(), -std::numeric_limits<double>::infinity());
    chunk_scored.assign(batch.size(), 0);
    if (result.hit_time_budget) {
      constexpr size_t kExpiredSliceChunks = 4;
      const size_t slice =
          std::min(batch.size(), kExpiredSliceChunks * kCandidateChunk);
      for (size_t begin = 0; begin < slice; begin += kCandidateChunk) {
        const size_t end = std::min(begin + kCandidateChunk, slice);
        evaluator.ScoreChunk(batch, begin, end, /*worker=*/0,
                             scores.data());
        std::fill(chunk_scored.begin() + ptrdiff_t(begin),
                  chunk_scored.begin() + ptrdiff_t(end), uint8_t{1});
      }
    } else {
      std::atomic<bool> expired{false};
      const auto score_chunk = [&](size_t begin, size_t end,
                                   size_t worker) {
        if (expired.load(std::memory_order_relaxed)) return;
        if (Clock::now() >= deadline) {
          expired.store(true, std::memory_order_relaxed);
          return;
        }
        evaluator.ScoreChunk(batch, begin, end, worker, scores.data());
        std::fill(chunk_scored.begin() + ptrdiff_t(begin),
                  chunk_scored.begin() + ptrdiff_t(end), uint8_t{1});
      };
      if (workers != nullptr) {
        workers->ParallelChunks(batch.size(), kCandidateChunk, score_chunk);
      } else {
        for (size_t begin = 0; begin < batch.size();
             begin += kCandidateChunk) {
          score_chunk(begin,
                      std::min(begin + kCandidateChunk, batch.size()), 0);
        }
      }
      if (expired.load(std::memory_order_relaxed)) {
        result.hit_time_budget = true;
      }
    }

    // ---- Phase 3: merge in candidate-index order -----------------------
    // Sequential and order-fixed: output is bit-identical to a
    // single-threaded run. Extensions are materialized only for candidates
    // some list would accept.
    TopList level_best(static_cast<size_t>(config.beam_width), max_ids,
                       std::move(retired));
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!chunk_scored[i]) continue;
      ++result.num_evaluated;
      const double q = scores[i];
      if (q == -std::numeric_limits<double>::infinity()) continue;
      if (!level_best.WouldAccept(q) && !top_list.WouldAccept(q)) continue;
      const CandidateBatch::Item& item = batch.items[i];
      pattern::Extension::IntersectInto(batch.parent_extension(item),
                                        batch.condition_extension(item),
                                        &merge_extension);
      level_best.Offer(batch.candidate_ids(i), merge_extension, q);
      top_list.Offer(batch.candidate_ids(i), merge_extension, q);
    }
    retired = std::move(beam);
    beam = level_best.SortedDescending();
    if (result.hit_time_budget) break;
  }

  std::vector<BeamEntry> top = top_list.SortedDescending();
  result.top.reserve(top.size());
  for (BeamEntry& entry : top) {
    ScoredSubgroup scored;
    scored.intention = MakeIntention(pool, entry.condition_ids);
    scored.extension = std::move(entry.extension);
    scored.quality = entry.quality;
    result.top.push_back(std::move(scored));
  }
  return result;
}

}  // namespace sisd::search

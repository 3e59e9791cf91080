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

/// Fewest refinement checks (parents x pool conditions) a level must hold
/// before its generation runs on the workers. Below it, waking the helpers
/// costs about as much as the checks they would take over, and the
/// wake-up's latency varies from call to call, so a small level generates
/// on the calling thread.
constexpr size_t kMinParallelRefinements = 32 * kCandidateChunk;

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

/// One parent's refinements at one beam level, generated independently of
/// the other parents and concatenated in parent order afterwards. Storage
/// is kept across levels; steady-state generation allocates nothing.
struct ParentCandidates {
  std::vector<CandidateBatch::Item> items;
  /// Sorted id sets of `items`, `depth` ids each (the batch's arena layout).
  std::vector<uint32_t> ids;
  /// False when the deadline cut the parent's generation short.
  bool complete = false;
};

/// Every parent's skip list for one level: the ascending condition ids
/// whose refinement of the parent an earlier parent already generates.
struct SkipLists {
  std::vector<uint32_t> ids;
  /// Parent `i` skips `ids[offsets[i], offsets[i + 1])`.
  std::vector<size_t> offsets;

  std::span<const uint32_t> of(size_t parent) const {
    return std::span<const uint32_t>(ids).subspan(
        offsets[parent], offsets[parent + 1] - offsets[parent]);
  }
};

/// Builds the level's skip lists from the parent pairs.
///
/// Exact without a set of generated ids: the parents hold distinct sorted
/// id sets of one size, and `AllowsRefinementWith` rejects a condition a
/// parent already holds, so refinement `(i, b)` repeats an earlier one iff
/// some parent `j < i` has `P_j \ P_i = {b}` and `P_i \ P_j = {x}` and
/// admits `x` (then `(j, x)` is the same id set). Same id set means same
/// extension, so the coverage filter never separates the two.
void BuildSkipLists(std::span<const BeamEntry> beam,
                    std::span<const pattern::Intention> intentions,
                    const ConditionPool& pool, SkipLists* out) {
  out->ids.clear();
  out->offsets.assign(1, 0);
  for (size_t i = 0; i < beam.size(); ++i) {
    const size_t first = out->ids.size();
    const std::vector<uint32_t>& pi = beam[i].condition_ids;
    for (size_t j = 0; j < i; ++j) {
      const std::vector<uint32_t>& pj = beam[j].condition_ids;
      // One sorted merge: the single id only `pj` holds (b) and the single
      // id only `pi` holds (x); give up on a second difference.
      uint32_t only_j = 0;
      uint32_t only_i = 0;
      size_t diff_j = 0;
      size_t diff_i = 0;
      size_t a = 0;
      size_t b = 0;
      while ((a < pi.size() || b < pj.size()) && diff_i < 2 && diff_j < 2) {
        if (b == pj.size() || (a < pi.size() && pi[a] < pj[b])) {
          only_i = pi[a++];
          ++diff_i;
        } else if (a == pi.size() || pj[b] < pi[a]) {
          only_j = pj[b++];
          ++diff_j;
        } else {
          ++a;
          ++b;
        }
      }
      if (diff_i == 1 && diff_j == 1 &&
          intentions[j].AllowsRefinementWith(pool.condition(only_i))) {
        out->ids.push_back(only_j);
      }
    }
    const auto begin = out->ids.begin() + ptrdiff_t(first);
    std::sort(begin, out->ids.end());
    out->ids.erase(std::unique(begin, out->ids.end()), out->ids.end());
    out->offsets.push_back(out->ids.size());
  }
}

/// Bounded best-list. Each id set is offered at most once per search (the
/// generation's skip lists guarantee it), so the list keeps no signature
/// set: an evicted candidate had lower quality than everything kept, and it
/// is never re-offered.
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

  // Level 1 refines one root parent: no conditions, every row.
  std::vector<BeamEntry> beam(1);
  beam[0].extension = pattern::Extension(n, /*full=*/true);
  // The beam before `beam`: its storage seeds the next level's list.
  std::vector<BeamEntry> retired;

  // Reused across levels, so a level's candidates cost no allocations once
  // the buffers have grown to the level's size.
  CandidateBatch batch;
  batch.pool = &pool;
  ConditionRows condition_rows;
  if (evaluator.UsesConditionRows()) {
    condition_rows.Assign(pool, n);
    batch.rows = &condition_rows;
  }
  // Grown to the widest level's parent count (never to `beam_width`, which
  // a client may set far beyond the pool).
  std::vector<ParentCandidates> per_parent;
  std::vector<pattern::Intention> parent_intentions;
  SkipLists skips;
  std::vector<double> scores;
  std::vector<uint8_t> chunk_scored;
  pattern::Extension merge_extension(n);

  // Every level refines the previous level's beam with every pool condition.
  for (int depth = 1; depth <= config.max_depth; ++depth) {
    if (Clock::now() >= deadline) {
      result.hit_time_budget = true;
      break;
    }

    // ---- Phase 1: generate this level's candidate batch ----------------
    // Each parent's refinements are generated on their own (on the workers
    // when there are several), then concatenated in parent order: parents
    // in beam order, conditions ascending, the same order as one serial
    // pass. The skip lists drop repeated id sets exactly (`BuildSkipLists`).
    const size_t d = static_cast<size_t>(depth);
    batch.depth = d;
    batch.parents.clear();
    batch.items.clear();
    batch.ids.clear();
    parent_intentions.clear();
    for (const BeamEntry& entry : beam) {
      batch.parents.push_back(&entry.extension);
      parent_intentions.push_back(MakeIntention(pool, entry.condition_ids));
    }
    const size_t num_parents = beam.size();
    if (num_parents == 0) break;
    if (per_parent.size() < num_parents) {
      per_parent.resize(num_parents);
      // A parent has at most one refinement per pool condition: sized once
      // here, on the calling thread, the buffers never grow again within
      // the search and the workers never allocate.
      for (ParentCandidates& part : per_parent) {
        part.items.reserve(pool.size());
        part.ids.reserve(pool.size() * max_ids);
      }
    }
    BuildSkipLists(beam, parent_intentions, pool, &skips);

    const auto generate = [&](size_t begin, size_t end, size_t /*worker*/) {
      for (size_t pi = begin; pi < end; ++pi) {
        ParentCandidates& out = per_parent[pi];
        out.items.clear();
        out.ids.clear();
        out.complete = false;
        const std::vector<uint32_t>& parent_ids = beam[pi].condition_ids;
        const pattern::Intention& parent_intention = parent_intentions[pi];
        const pattern::Extension& parent_extension = *batch.parents[pi];
        const std::span<const uint32_t> skip = skips.of(pi);
        auto next_skip = skip.begin();
        for (uint32_t cid = 0; cid < pool.size(); ++cid) {
          if ((cid & (kCandidateChunk - 1)) == 0 && Clock::now() >= deadline) {
            return;
          }
          if (next_skip != skip.end() && *next_skip == cid) {
            ++next_skip;
            continue;
          }
          if (!parent_intention.AllowsRefinementWith(pool.condition(cid))) {
            continue;
          }
          const size_t count = pattern::Extension::IntersectionCount(
              parent_extension, pool.extension(cid));
          if (count < min_coverage || count > max_coverage || count == n) {
            continue;
          }
          const auto split =
              std::upper_bound(parent_ids.begin(), parent_ids.end(), cid);
          out.ids.insert(out.ids.end(), parent_ids.begin(), split);
          out.ids.push_back(cid);
          out.ids.insert(out.ids.end(), split, parent_ids.end());
          out.items.push_back({static_cast<uint32_t>(pi), cid,
                               static_cast<uint32_t>(count)});
        }
        out.complete = true;
      }
    };
    if (workers != nullptr) {
      // One chunk of every parent runs inline (`ParallelChunks`' fast path).
      const size_t grain =
          num_parents * pool.size() >= kMinParallelRefinements ? 1
                                                               : num_parents;
      workers->ParallelChunks(num_parents, grain, generate);
    } else {
      generate(0, num_parents, 0);
    }
    // Keep the parents generated in full up to the first one the deadline
    // cut short: every skip of a kept parent points at a kept parent, so
    // the kept prefix is still free of repeated id sets.
    for (size_t pi = 0; pi < num_parents; ++pi) {
      const ParentCandidates& part = per_parent[pi];
      if (!part.complete) {
        result.hit_time_budget = true;
        break;
      }
      batch.items.insert(batch.items.end(), part.items.begin(),
                         part.items.end());
      batch.ids.insert(batch.ids.end(), part.ids.begin(), part.ids.end());
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

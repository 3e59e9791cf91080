#include "search/condition_pool.hpp"

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "search/thread_pool.hpp"
#include "stats/descriptive.hpp"

namespace sisd::search {

namespace {

/// FNV-1a over an extension's packed blocks (the universe size is shared
/// by every extension in one pool, so blocks determine identity).
size_t HashBlocks(const pattern::Extension& ext) {
  size_t h = 1469598103934665603ull;
  for (uint64_t block : ext.blocks()) {
    h ^= size_t(block);
    h *= 1099511628211ull;
  }
  return h;
}

/// Candidate conditions of column `j`, in canonical enumeration order.
/// The single definition behind both `Build` paths: the incremental path
/// is bit-identical to the scratch path because they enumerate (and
/// filter) the exact same sequence.
std::vector<pattern::Condition> EnumerateColumnCandidates(
    const data::Column& col, size_t j, int num_splits,
    bool include_exclusions) {
  std::vector<pattern::Condition> candidates;
  if (data::IsOrderable(col.kind())) {
    const std::vector<double> splits =
        stats::QuantileSplitPoints(col.numeric_values(), num_splits);
    for (double split : splits) {
      candidates.push_back(pattern::Condition::LessEqual(j, split));
      candidates.push_back(pattern::Condition::GreaterEqual(j, split));
    }
  } else {
    for (size_t level = 0; level < col.NumLevels(); ++level) {
      candidates.push_back(
          pattern::Condition::Equals(j, static_cast<int32_t>(level)));
    }
    // Set-exclusion conditions (§II-A) are opt-in (the paper's Cortana
    // alphabet omits them) and only non-redundant when the attribute has
    // at least three levels (for binary attributes `!= v` equals
    // `== !v`).
    if (include_exclusions && col.NumLevels() >= 3) {
      for (size_t level = 0; level < col.NumLevels(); ++level) {
        candidates.push_back(
            pattern::Condition::NotEquals(j, static_cast<int32_t>(level)));
      }
    }
  }
  return candidates;
}

/// Exact identity of a condition for parent-pool lookup. Thresholds
/// compare by double *bits* (a quantile that moved by any amount is a
/// different condition; string round-trips are not involved).
struct ConditionKey {
  size_t attribute = 0;
  pattern::ConditionOp op = pattern::ConditionOp::kEquals;
  uint64_t value_bits = 0;

  bool operator==(const ConditionKey& other) const {
    return attribute == other.attribute && op == other.op &&
           value_bits == other.value_bits;
  }
};

struct ConditionKeyHash {
  size_t operator()(const ConditionKey& key) const {
    size_t h = 1469598103934665603ull;
    for (uint64_t part : {uint64_t(key.attribute),
                          uint64_t(static_cast<int>(key.op)),
                          key.value_bits}) {
      h ^= size_t(part);
      h *= 1099511628211ull;
    }
    return h;
  }
};

ConditionKey KeyOf(const pattern::Condition& c) {
  ConditionKey key;
  key.attribute = c.attribute;
  key.op = c.op;
  if (c.op == pattern::ConditionOp::kEquals ||
      c.op == pattern::ConditionOp::kNotEquals) {
    key.value_bits = static_cast<uint64_t>(static_cast<uint32_t>(c.level));
  } else {
    key.value_bits = std::bit_cast<uint64_t>(c.threshold);
  }
  return key;
}

/// Phase-1 output for one column: its candidates in enumeration order and
/// the extension of each (vacuous and duplicate ones included; phase 2
/// filters them).
struct ColumnSlot {
  std::vector<pattern::Condition> candidates;
  std::vector<pattern::Extension> extensions;
  IncrementalPoolStats stats;
};

}  // namespace

ConditionPool ConditionPool::Build(const data::DataTable& table,
                                   int num_splits, bool include_exclusions,
                                   ThreadPool* workers) {
  return Assemble(table, /*parent=*/nullptr, /*parent_rows=*/0, num_splits,
                  include_exclusions, /*stats=*/nullptr, workers);
}

ConditionPool ConditionPool::BuildIncremental(const data::DataTable& table,
                                              const ConditionPool& parent,
                                              size_t parent_rows,
                                              int num_splits,
                                              bool include_exclusions,
                                              IncrementalPoolStats* stats,
                                              ThreadPool* workers) {
  SISD_CHECK(table.num_rows() >= parent_rows);
  SISD_CHECK(parent.extensions_.empty() ||
             parent.extensions_.front().universe_size() == parent_rows);
  return Assemble(table, &parent, parent_rows, num_splits,
                  include_exclusions, stats, workers);
}

ConditionPool ConditionPool::Assemble(const data::DataTable& table,
                                      const ConditionPool* parent,
                                      size_t parent_rows, int num_splits,
                                      bool include_exclusions,
                                      IncrementalPoolStats* stats,
                                      ThreadPool* workers) {
  const size_t n = table.num_rows();
  std::unordered_map<ConditionKey, size_t, ConditionKeyHash> parent_index;
  if (parent != nullptr) {
    parent_index.reserve(parent->size());
    for (size_t i = 0; i < parent->size(); ++i) {
      parent_index.emplace(KeyOf(parent->condition(i)), i);
    }
  }

  // Phase 1 (parallel, one column per chunk): each column's candidates
  // and their extensions land in that column's own slot.
  std::vector<ColumnSlot> slots(table.num_columns());
  const auto fill = [&](size_t begin, size_t end, size_t /*worker*/) {
    for (size_t j = begin; j < end; ++j) {
      ColumnSlot& slot = slots[j];
      slot.candidates = EnumerateColumnCandidates(
          table.column(j), j, num_splits, include_exclusions);
      slot.extensions.reserve(slot.candidates.size());
      for (const pattern::Condition& c : slot.candidates) {
        auto it = parent_index.find(KeyOf(c));  // empty for scratch builds
        if (it != parent_index.end()) {
          // Same threshold/level as a parent condition: the parent bitset
          // is exactly the evaluation over the unchanged prefix (shared
          // column chunks), so only the appended rows need evaluating.
          pattern::Extension ext = parent->extension(it->second).ExtendedTo(n);
          c.EvaluateInto(table, parent_rows, &ext);
          slot.extensions.push_back(std::move(ext));
          ++slot.stats.reused;
        } else {
          // Scratch build, or a threshold that moved (or a condition the
          // parent pool filtered): full evaluation.
          slot.extensions.push_back(c.Evaluate(table));
          ++slot.stats.rebuilt;
        }
      }
    }
  };
  if (workers != nullptr) {
    workers->ParallelChunks(slots.size(), /*grain=*/1, fill);
  } else {
    fill(0, slots.size(), 0);
  }

  // Phase 2 (serial, column order): the vacuous filter and the first-wins
  // extension dedup see the canonical candidate sequence, so the pool does
  // not depend on the worker count. Quantile ties on low-cardinality
  // numeric columns yield several thresholds selecting exactly the same
  // rows, and every duplicate would be generated and scored at every beam
  // level; later bit-identical ones are dropped (they cannot change any
  // search outcome — candidate subgroups are determined by extensions, and
  // the ranked list dedups intentions). The dedup set keys indices into
  // `extensions_`, so no extension is copied.
  ConditionPool pool;
  size_t total = 0;
  for (const ColumnSlot& slot : slots) total += slot.candidates.size();
  const auto hash = [&pool](size_t i) {
    return HashBlocks(pool.extensions_[i]);
  };
  const auto equal = [&pool](size_t a, size_t b) {
    return pool.extensions_[a] == pool.extensions_[b];
  };
  std::unordered_set<size_t, decltype(hash), decltype(equal)> seen(
      total, hash, equal);
  IncrementalPoolStats local;
  for (ColumnSlot& slot : slots) {
    local.reused += slot.stats.reused;
    local.rebuilt += slot.stats.rebuilt;
    for (size_t c = 0; c < slot.candidates.size(); ++c) {
      pattern::Extension& ext = slot.extensions[c];
      if (ext.count() == 0 || ext.count() == n) continue;  // vacuous
      pool.extensions_.push_back(std::move(ext));
      if (!seen.insert(pool.extensions_.size() - 1).second) {
        pool.extensions_.pop_back();  // bit-identical duplicate
        continue;
      }
      pool.conditions_.push_back(slot.candidates[c]);
    }
  }
  if (stats != nullptr) *stats = local;
  return pool;
}

}  // namespace sisd::search

// Property/fuzz harness for the session snapshot codec. Randomized
// sessions interleaving mine and mine_list calls, with location-only and
// with location+spread dialogues, must save→restore→save byte-identically
// and continue mining identically after restore. Hostile snapshots —
// truncated, bit-flipped, or edited field by field (every key deleted,
// every value given a wrong type) — must restore or fail with a Status,
// never crash: the suite runs under ASan and UBSan in
// `scripts/check_asan.sh`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "catalog/dataset_catalog.hpp"
#include "core/session.hpp"
#include "datagen/scenarios.hpp"
#include "serialize/snapshot.hpp"
#include "snapshot_edit.hpp"

namespace sisd::core {
namespace {

using serialize::JsonValue;
using testing::JsonPath;

MinerConfig FastConfig(PatternMix mix) {
  MinerConfig config;
  config.search.beam_width = 4;
  config.search.max_depth = 1;
  config.search.top_k = 8;
  config.search.min_coverage = 5;
  config.spread_optimizer.num_random_starts = 1;
  config.mix = mix;
  return config;
}

MiningSession MakeSession(PatternMix mix) {
  data::Dataset dataset = datagen::MakeScenarioDataset("synthetic").Value();
  return MiningSession::Create(std::move(dataset), FastConfig(mix)).Value();
}

/// Applies op `op` (0 = one iterative mine, 1/2 = a 1- or 2-rule list
/// round). Exhaustion (NotFound / zero rules) is a valid outcome — the
/// property is about state capture, not about finding patterns forever.
void ApplyOp(MiningSession* session, int op) {
  if (op == 0) {
    const Result<IterationResult> mined = session->MineNext();
    if (!mined.ok()) {
      ASSERT_EQ(mined.status().code(), StatusCode::kNotFound)
          << mined.status().ToString();
    }
  } else {
    ASSERT_TRUE(session->MineList(op).ok());
  }
}

const char* MixName(PatternMix mix) {
  return mix == PatternMix::kLocationOnly ? "location only"
                                          : "location and spread";
}

TEST(ListSnapshotFuzzTest, MixedHistoriesRoundTripByteExact) {
  std::mt19937 rng(20240807);
  std::uniform_int_distribution<int> op_dist(0, 2);
  std::uniform_int_distribution<int> len_dist(1, 5);
  for (const PatternMix mix :
       {PatternMix::kLocationOnly, PatternMix::kLocationAndSpread}) {
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(std::string(MixName(mix)) + ", trial " +
                   std::to_string(trial));
      MiningSession session = MakeSession(mix);
      const int num_ops = len_dist(rng);
      bool mined_list = false;
      for (int i = 0; i < num_ops; ++i) {
        const int op = op_dist(rng);
        mined_list = mined_list || op != 0;
        ApplyOp(&session, op);
      }
      // Make sure the property is exercised on the list history type, not
      // only on pure-mine sequences.
      if (!mined_list) {
        ApplyOp(&session, 1);
      }

      const std::string saved = session.SaveToString();
      Result<MiningSession> restored =
          MiningSession::RestoreFromString(saved);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_EQ(restored.Value().SaveToString(), saved);
      EXPECT_EQ(restored.Value().list_history().size(),
                session.list_history().size());

      // Continue both sessions with the same op: a restored session must
      // mine (iteratively and list-wise) byte-identically to one that
      // never stopped.
      const int next_op = op_dist(rng);
      ApplyOp(&session, next_op);
      ApplyOp(&restored.Value(), next_op);
      EXPECT_EQ(restored.Value().SaveToString(), session.SaveToString());
    }
  }
}

/// A session with both history types: two mines and a 2-rule list round.
MiningSession MakeMixedSession(PatternMix mix) {
  MiningSession session = MakeSession(mix);
  ApplyOp(&session, 0);
  ApplyOp(&session, 0);
  ApplyOp(&session, 2);
  return session;
}

/// Snapshot `saved` of `session` with every list rule also storing what
/// version 1 stored (its rows, captured rows, local model and gain, and
/// each call's cumulative gain), as `session` holds them; `edit` may then
/// change rule (call, index)'s stored object.
std::string WithStoredRuleFields(
    const std::string& saved, const MiningSession& session,
    const std::function<void(size_t, size_t, JsonValue*)>& edit) {
  JsonValue root = JsonValue::Parse(saved).Value();
  JsonValue list_history = JsonValue::Array();
  for (size_t call = 0; call < session.list_history().size(); ++call) {
    const ListMineResult& result = session.list_history()[call];
    JsonValue entry = root.Find("list_history")->items()[call];
    JsonValue rules = JsonValue::Array();
    for (size_t k = 0; k < result.rules.size(); ++k) {
      const search::SubgroupRule& rule = result.rules[k];
      JsonValue stored = entry.Find("rules")->items()[k];
      stored.Set("extension", serialize::EncodeExtension(rule.extension));
      stored.Set("captured", serialize::EncodeExtension(rule.captured));
      stored.Set("mean", serialize::EncodeVector(rule.local.mean));
      stored.Set("variance", serialize::EncodeVector(rule.local.variance));
      stored.Set("gain", JsonValue::Double(rule.gain));
      edit(call, k, &stored);
      rules.Append(std::move(stored));
    }
    entry.Set("rules", std::move(rules));
    entry.Set("total_gain", JsonValue::Double(result.total_gain));
    list_history.Append(std::move(entry));
  }
  root.Set("list_history", std::move(list_history));
  return root.Write();
}

TEST(ListSnapshotFuzzTest, RulesAreRebuiltFromTheirIntentions) {
  MiningSession session = MakeMixedSession(PatternMix::kLocationAndSpread);
  ApplyOp(&session, 1);
  ASSERT_EQ(session.list_history().size(), 2u);
  const std::string saved = session.SaveToString();
  // A rule stores only its intention.
  const JsonValue root = JsonValue::Parse(saved).Value();
  for (const JsonValue& entry : root.Find("list_history")->items()) {
    EXPECT_EQ(entry.Find("total_gain"), nullptr);
    for (const JsonValue& rule : entry.Find("rules")->items()) {
      EXPECT_EQ(rule.size(), 1u);
      EXPECT_NE(rule.Find("intention"), nullptr);
    }
  }

  // Stored rule fields that equal the rebuilt ones restore, and the
  // session saves as it was.
  const auto keep = [](size_t, size_t, JsonValue*) {};
  Result<MiningSession> restored =
      MiningSession::RestoreFromString(WithStoredRuleFields(saved, session,
                                                            keep));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value().SaveToString(), saved);

  const search::SubgroupRule& last = session.list_history()[1].rules[0];
  pattern::Extension flipped = last.extension;
  if (flipped.Contains(0)) {
    flipped.Erase(0);
  } else {
    flipped.Insert(0);
  }
  linalg::Vector shifted_mean = last.local.mean;
  shifted_mean[0] += 1.0;
  const std::vector<std::pair<std::string, std::string>> tampered = {
      {"gain 123456",
       WithStoredRuleFields(saved, session,
                            [](size_t call, size_t k, JsonValue* rule) {
                              if (call == 1 && k == 0) {
                                rule->Set("gain", JsonValue::Double(123456));
                              }
                            })},
      {"one extension bit flipped",
       WithStoredRuleFields(saved, session,
                            [&](size_t call, size_t k, JsonValue* rule) {
                              if (call == 1 && k == 0) {
                                rule->Set("extension",
                                          serialize::EncodeExtension(flipped));
                              }
                            })},
      {"edited mean",
       WithStoredRuleFields(saved, session,
                            [&](size_t call, size_t k, JsonValue* rule) {
                              if (call == 1 && k == 0) {
                                rule->Set("mean",
                                          serialize::EncodeVector(shifted_mean));
                              }
                            })},
      {"edited total gain",
       testing::WithValueAt(WithStoredRuleFields(saved, session, keep),
                            {"list_history", "0", "total_gain"},
                            JsonValue::Double(-1.0))},
      // The first rule again: it captures no row the list leaves over.
      {"repeated rule",
       testing::WithValueAt(saved, {"list_history", "1", "rules", "0"},
                            root.Find("list_history")
                                ->items()[0]
                                .Find("rules")
                                ->items()[0])},
  };
  for (const auto& [name, text] : tampered) {
    SCOPED_TRACE(name);
    ASSERT_NE(text, saved);
    restored = MiningSession::RestoreFromString(text);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << restored.status().ToString();
  }
}

TEST(ListSnapshotFuzzTest, TruncatedSnapshotsFailCleanly) {
  for (const PatternMix mix :
       {PatternMix::kLocationOnly, PatternMix::kLocationAndSpread}) {
    SCOPED_TRACE(MixName(mix));
    const std::string saved = MakeMixedSession(mix).SaveToString();
    ASSERT_GT(saved.size(), 64u);
    // Cut at many points, denser near the tail where the histories live.
    for (size_t cut = 0; cut < saved.size(); cut += 1 + saved.size() / 97) {
      const Result<MiningSession> restored =
          MiningSession::RestoreFromString(saved.substr(0, cut));
      EXPECT_FALSE(restored.ok()) << "cut=" << cut;
    }
  }
}

TEST(ListSnapshotFuzzTest, BitFlippedSnapshotsNeverCrash) {
  const unsigned seed = 7;
  std::mt19937 rng(seed);
  size_t flips = 0;
  for (const PatternMix mix :
       {PatternMix::kLocationOnly, PatternMix::kLocationAndSpread}) {
    SCOPED_TRACE(MixName(mix));
    const std::string saved = MakeMixedSession(mix).SaveToString();
    std::uniform_int_distribution<size_t> pos_dist(0, saved.size() - 1);
    std::uniform_int_distribution<int> bit_dist(0, 7);
    for (int flip = 0; flip < 200; ++flip, ++flips) {
      std::string mutated = saved;
      const size_t pos = pos_dist(rng);
      mutated[pos] = char(mutated[pos] ^ (1 << bit_dist(rng)));
      // Most flips must fail with a clean Status; a flip inside a number
      // or free-text field may still decode — then the decoded session
      // must be internally consistent enough to save again.
      Result<MiningSession> restored =
          MiningSession::RestoreFromString(mutated);
      if (restored.ok()) {
        EXPECT_FALSE(restored.Value().SaveToString().empty());
      }
    }
  }
  std::printf("bit flips: seed %u, %zu edits\n", seed, flips);
}

/// Every path in `value`, parents first. An array inside the inline
/// `dataset` contributes its first element only: its cells share one
/// decoder, and walking each of them would cost thousands of restores.
void CollectPaths(const JsonValue& value, bool in_dataset, JsonPath* path,
                  std::vector<JsonPath>* out) {
  out->push_back(*path);
  if (value.is_object()) {
    for (const auto& [key, member] : value.members()) {
      path->push_back(key);
      CollectPaths(member, in_dataset || key == "dataset", path, out);
      path->pop_back();
    }
  } else if (value.is_array()) {
    const size_t count =
        in_dataset ? std::min<size_t>(value.size(), 1) : value.size();
    for (size_t i = 0; i < count; ++i) {
      path->push_back(std::to_string(i));
      CollectPaths(value.items()[i], in_dataset, path, out);
      path->pop_back();
    }
  }
}

/// A value of a JSON type other than `value`'s (ints and doubles count as
/// one type), picked by `rng`.
JsonValue WrongType(const JsonValue& value, std::mt19937* rng) {
  const auto number_or = [](JsonValue::Type type) {
    return type == JsonValue::Type::kDouble ? JsonValue::Type::kInt : type;
  };
  std::vector<JsonValue> others;
  for (JsonValue candidate :
       {JsonValue::Null(), JsonValue::Bool(true), JsonValue::Int(7),
        JsonValue::Str("x"), JsonValue::Array(), JsonValue::Object()}) {
    if (number_or(candidate.type()) != number_or(value.type())) {
      others.push_back(std::move(candidate));
    }
  }
  std::uniform_int_distribution<size_t> pick(0, others.size() - 1);
  return others[pick(*rng)];
}

TEST(ListSnapshotFuzzTest, StructureAwareEditsFailCleanly) {
  const unsigned seed = 20261020;
  std::mt19937 rng(seed);
  catalog::DatasetCatalog catalog;
  catalog::PinnedDataset pinned =
      catalog
          .Intern(datagen::MakeScenarioDataset("synthetic").Value(),
                  /*pin=*/true, /*retain=*/true)
          .Value();
  const MinerConfig config = FastConfig(PatternMix::kLocationAndSpread);
  MiningSession session =
      MiningSession::Create(
          pinned.dataset, config,
          catalog.PoolFor(pinned, config.search.num_split_points,
                          config.search.include_exclusions),
          pinned.ref())
          .Value();
  ApplyOp(&session, 0);
  ApplyOp(&session, 0);
  ApplyOp(&session, 2);
  ASSERT_TRUE(session.history()[0].spread.has_value());

  size_t edits = 0;
  size_t restored_ok = 0;
  for (const SnapshotForm form :
       {SnapshotForm::kDatasetRef, SnapshotForm::kInlineDataset}) {
    const JsonValue root = JsonValue::Parse(session.SaveToString(form)).Value();
    std::vector<JsonPath> paths;
    JsonPath path;
    CollectPaths(root, false, &path, &paths);
    for (const JsonPath& at : paths) {
      // Delete the value (not the root), then give it a wrong type.
      for (const bool remove : {true, false}) {
        if (remove && at.empty()) continue;
        const std::string text =
            testing::EditAt(root, at,
                            [&](const JsonValue& value)
                                -> std::optional<JsonValue> {
                              if (remove) return std::nullopt;
                              return WrongType(value, &rng);
                            })
                .Write();
        Result<MiningSession> restored =
            MiningSession::RestoreFromString(text, &catalog);
        ++edits;
        if (restored.ok()) {
          ++restored_ok;
          EXPECT_FALSE(restored.Value().SaveToString().empty());
        }
      }
    }
  }
  std::printf("structure-aware edits: seed %u, %zu edits, %zu restored\n",
              seed, edits, restored_ok);
  EXPECT_GT(edits, 1000u);
}

}  // namespace
}  // namespace sisd::core

// Concurrency hammer over the dataset catalog: loads, catalog-addressed
// opens, mining, closes and drops race from several threads. Run under
// TSan (scripts/check_tsan.sh) this is the data-race acceptance for the
// shared-dataset architecture; under plain builds it asserts the
// invariants that must survive any interleaving:
//  - a drop never succeeds while a session pins the dataset;
//  - sessions that did open always mine against a live shared instance;
//  - the catalog ends balanced (all pins released once sessions close).

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/dataset_catalog.hpp"
#include "data/append.hpp"
#include "datagen/scenarios.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

core::MinerConfig HammerConfig(int splits) {
  core::MinerConfig config;
  config.search.beam_width = 4;
  config.search.max_depth = 2;
  config.search.top_k = 10;
  config.search.min_coverage = 5;
  config.search.num_split_points = splits;
  return config;
}

TEST(CatalogHammerTest, ConcurrentOpenDropMineStorm) {
  SessionManager manager(ServeConfig{});
  data::Dataset seed = datagen::MakeScenarioDataset("synthetic").Value();
  seed.name = "hammer";
  Result<catalog::PinnedDataset> loaded =
      manager.catalog()->Intern(std::move(seed), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  constexpr int kMiners = 3;
  constexpr int kRounds = 8;
  std::atomic<int> mined{0};
  std::atomic<int> dropped{0};
  std::atomic<bool> failure{false};
  // Miners past their first round; the dropper starts once all are, so
  // each miner gets one round against a present dataset and the
  // `mined > 0` liveness check cannot lose to scheduling.
  std::atomic<int> first_rounds{0};

  std::vector<std::thread> threads;
  // Miner threads: open by ref (varying split counts race the artifact
  // cache), mine, close. A NotFound open just means the dropper won.
  for (int t = 0; t < kMiners; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        if (round == 1) first_rounds.fetch_add(1);
        std::string name = "s";
        name += std::to_string(t);
        name += "_";
        name += std::to_string(round);
        Result<SessionInfo> opened = manager.OpenRef(
            name, "hammer", HammerConfig(2 + (t + round) % 3));
        if (!opened.ok()) {
          if (opened.status().code() != StatusCode::kNotFound) {
            failure.store(true);
          }
          continue;
        }
        Result<MineOutcome> outcome = manager.Mine(name, 1, std::nullopt);
        if (outcome.ok()) {
          mined.fetch_add(1);
        } else if (outcome.status().code() != StatusCode::kNotFound) {
          failure.store(true);
        }
        const Status closed = manager.Close(name, /*save=*/false, "");
        if (!closed.ok()) failure.store(true);
      }
    });
  }
  // Dropper thread: tries to drop and immediately re-load the dataset.
  // Conflict (pinned by a miner) and NotFound (already dropped) are the
  // expected contention outcomes; anything else is a bug.
  threads.emplace_back([&]() {
    while (first_rounds.load() < kMiners) std::this_thread::yield();
    for (int round = 0; round < 2 * kRounds; ++round) {
      const Status drop = manager.catalog()->Drop("hammer");
      if (drop.ok()) {
        dropped.fetch_add(1);
        data::Dataset again =
            datagen::MakeScenarioDataset("synthetic").Value();
        again.name = "hammer";
        Result<catalog::PinnedDataset> reloaded =
            manager.catalog()->Intern(std::move(again), /*pin=*/false, /*retain=*/true);
        if (!reloaded.ok()) failure.store(true);
      } else if (drop.code() != StatusCode::kConflict &&
                 drop.code() != StatusCode::kNotFound) {
        failure.store(true);
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(failure.load());
  EXPECT_GT(mined.load(), 0) << "storm never mined once";
  // All sessions closed: no pins left, so a final drop must succeed.
  EXPECT_EQ(manager.Stats().sessions, 0u);
  EXPECT_TRUE(manager.catalog()->Drop("hammer").ok());
  EXPECT_EQ(manager.catalog()->size(), 0u);
}

// N threads intern the same content at once. One registers it; the rest
// find the entry under the lock and verify the content match outside it
// (the structural comparison running concurrently with the registration
// and with each other). Every call succeeds with the one shared instance.
TEST(CatalogHammerTest, ConcurrentDuplicateInternsShareOneEntry) {
  constexpr int kThreads = 8;
  catalog::DatasetCatalog catalog;
  data::Dataset seed = datagen::MakeScenarioDataset("synthetic").Value();
  seed.name = "twin";
  std::vector<data::Dataset> copies(kThreads, seed);
  std::vector<std::optional<Result<catalog::PinnedDataset>>> results(
      kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[size_t(t)] = catalog.Intern(std::move(copies[size_t(t)]),
                                          /*pin=*/true, /*retain=*/false);
    });
  }
  for (std::thread& thread : threads) thread.join();

  int reused = 0;
  const data::Dataset* shared = nullptr;
  for (const auto& result : results) {
    ASSERT_TRUE(result.has_value() && result->ok())
        << result->status().ToString();
    const catalog::PinnedDataset& pinned = result->Value();
    if (shared == nullptr) shared = pinned.dataset.get();
    EXPECT_EQ(pinned.dataset.get(), shared);
    reused += pinned.reused ? 1 : 0;
  }
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(reused, kThreads - 1);
  const catalog::CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.interns, 1u);
  EXPECT_EQ(stats.hits, uint64_t(kThreads - 1));
  // Every call took a pin: the implicit entry dies with the last one.
  const uint64_t fingerprint = results[0]->Value().fingerprint;
  for (int t = 0; t < kThreads; ++t) catalog.Unpin(fingerprint);
  EXPECT_EQ(catalog.size(), 0u);
}

// The append-era storm: appenders grow the dataset (dedup racing dedup),
// miners open whichever version resolves and rebase toward the newest
// one, while a dropper recycles the root. Run under TSan this is the
// data-race acceptance for the version-chain machinery; under plain
// builds it asserts the interleaving invariants:
//  - appends either register a version, dedup onto one, or lose the
//    parent to the dropper (NotFound) — never anything else;
//  - a rebase either moves the session onto a live descendant, reports
//    the no-op reuse, loses the race (NotFound/Conflict), or correctly
//    refuses a non-descendant after the root was recycled;
//  - the catalog ends balanced: every pin released once sessions close.
TEST(CatalogHammerTest, ConcurrentAppendOpenRebaseStorm) {
  SessionManager manager(ServeConfig{});
  data::Dataset seed = datagen::MakeScenarioDataset("synthetic").Value();
  seed.name = "hammer";
  Result<catalog::PinnedDataset> loaded = manager.catalog()->Intern(
      std::move(seed), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The appended rows re-feed a prefix of the dataset through the cell
  // entry point; distinct `rows` values produce distinct versions.
  const auto slice_builder = [](size_t rows) {
    return [rows](const data::Dataset& parent) -> Result<data::Dataset> {
      std::vector<std::string> columns;
      for (size_t j = 0; j < parent.num_descriptions(); ++j) {
        columns.push_back(parent.descriptions.column(j).name());
      }
      for (const std::string& target : parent.target_names) {
        columns.push_back(target);
      }
      std::vector<std::vector<data::AppendCell>> cells;
      for (size_t i = 0; i < rows; ++i) {
        std::vector<data::AppendCell> row;
        for (size_t j = 0; j < parent.num_descriptions(); ++j) {
          const data::Column& column = parent.descriptions.column(j);
          if (data::IsOrderable(column.kind())) {
            row.push_back(
                data::AppendCell::Number(column.NumericValue(i)));
          } else {
            row.push_back(
                data::AppendCell::Text(column.Label(column.Code(i))));
          }
        }
        for (size_t t = 0; t < parent.num_targets(); ++t) {
          row.push_back(data::AppendCell::Number(parent.targets(i, t)));
        }
        cells.push_back(std::move(row));
      }
      return data::AppendRowsFromCells(parent, columns, cells);
    };
  };

  constexpr int kMiners = 2;
  constexpr int kAppenders = 2;
  constexpr int kRounds = 6;
  std::atomic<int> appended{0};
  std::atomic<int> rebased{0};
  std::atomic<int> mined{0};
  std::atomic<bool> failure{false};
  // Appender and miner threads past their first round. The dropper waits
  // for all of them before recycling the root, so each gets one round
  // against a present root: the appended/mined liveness checks cannot
  // lose to a dropper that keeps the root absent through every round.
  std::atomic<int> first_rounds{0};
  // Latest version name any appender registered (racy by design; a stale
  // read just makes the rebase a no-op or a lost race).
  std::mutex latest_mu;
  std::string latest = "hammer";

  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        if (round == 1) first_rounds.fetch_add(1);
        Result<catalog::AppendOutcome> outcome = manager.catalog()->Append(
            "hammer", slice_builder(1 + (t + round) % 4), /*pin=*/false,
            /*retain=*/true);
        if (outcome.ok()) {
          appended.fetch_add(1);
          std::lock_guard<std::mutex> lock(latest_mu);
          latest = outcome.Value().dataset.dataset->name;
        } else if (outcome.status().code() != StatusCode::kNotFound) {
          failure.store(true);
        }
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < kMiners; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        if (round == 1) first_rounds.fetch_add(1);
        std::string name = "r";
        name += std::to_string(t);
        name += "_";
        name += std::to_string(round);
        Result<SessionInfo> opened =
            manager.OpenRef(name, "hammer", HammerConfig(2 + t));
        if (!opened.ok()) {
          if (opened.status().code() != StatusCode::kNotFound) {
            failure.store(true);
          }
          continue;
        }
        std::string target;
        {
          std::lock_guard<std::mutex> lock(latest_mu);
          target = latest;
        }
        Result<RebaseInfo> moved =
            manager.Rebase(name, target, std::nullopt);
        if (moved.ok()) {
          rebased.fetch_add(1);
        } else if (moved.status().code() != StatusCode::kNotFound &&
                   moved.status().code() != StatusCode::kConflict &&
                   moved.status().code() != StatusCode::kInvalidArgument) {
          // InvalidArgument covers the recycled root: after a drop and
          // re-intern, `latest` can name a version of the *old* chain,
          // which is legitimately not a descendant anymore.
          failure.store(true);
        }
        Result<MineOutcome> outcome = manager.Mine(name, 1, std::nullopt);
        if (outcome.ok()) {
          mined.fetch_add(1);
        } else if (outcome.status().code() != StatusCode::kNotFound) {
          failure.store(true);
        }
        if (!manager.Close(name, /*save=*/false, "").ok()) {
          failure.store(true);
        }
      }
    });
  }
  // Dropper: recycles the root under the appenders' and miners' feet.
  threads.emplace_back([&]() {
    while (first_rounds.load() < kMiners + kAppenders) {
      std::this_thread::yield();
    }
    for (int round = 0; round < kRounds; ++round) {
      const Status drop = manager.catalog()->Drop("hammer");
      if (drop.ok()) {
        data::Dataset again =
            datagen::MakeScenarioDataset("synthetic").Value();
        again.name = "hammer";
        if (!manager.catalog()
                 ->Intern(std::move(again), /*pin=*/false, /*retain=*/true)
                 .ok()) {
          failure.store(true);
        }
      } else if (drop.code() != StatusCode::kConflict &&
                 drop.code() != StatusCode::kNotFound) {
        failure.store(true);
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(failure.load());
  EXPECT_GT(appended.load(), 0) << "storm never appended once";
  EXPECT_GT(mined.load(), 0) << "storm never mined once";
  EXPECT_EQ(manager.Stats().sessions, 0u);
  // No pins left: the whole surviving chain must drop cleanly.
  for (const catalog::CatalogEntryInfo& info :
       manager.catalog()->List()) {
    EXPECT_TRUE(manager.catalog()->Drop(info.name).ok()) << info.name;
  }
  EXPECT_EQ(manager.catalog()->size(), 0u);
}

}  // namespace
}  // namespace sisd::serve

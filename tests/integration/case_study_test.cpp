/// Integration tests for the paper's exhibits on the generated stand-in
/// data: the crime headline (Fig. 1), the noise-robustness curves
/// (Fig. 3) and the three case studies (§III-B, C, D; Figs. 4-10). A
/// mining session must recover the planted structure of each generated
/// dataset — the same qualitative findings the paper reports on the real
/// data. Each exhibit test uses the seeds and config of its bench binary,
/// so docs/REPRODUCING.md can cite it for what that binary prints.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "datagen/crime.hpp"
#include "datagen/gse.hpp"
#include "datagen/mammals.hpp"
#include "datagen/scenarios.hpp"
#include "datagen/synthetic.hpp"
#include "datagen/water.hpp"
#include "si/interestingness.hpp"

namespace sisd {
namespace {

/// Mines `iterations` iterations of `scenario` at paper defaults (what
/// `sisd_cli mine --scenario S` runs). Every iteration reports either a
/// spread pattern with finite IC and SI or the `spread_error` that kept it
/// location-only: a spread direction is chosen only inside the IC's
/// support, and a reported score is never infinite.
void ExpectFiniteSpreadScores(const std::string& scenario, int iterations) {
  Result<data::Dataset> dataset = datagen::MakeScenarioDataset(scenario);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  Result<core::MiningSession> session = core::MiningSession::Create(
      std::move(dataset).MoveValue(), core::MinerConfig{});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int i = 1; i <= iterations; ++i) {
    Result<core::IterationResult> result = session.Value().MineNext();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const core::IterationResult& iteration = result.Value();
    if (iteration.spread.has_value()) {
      EXPECT_TRUE(std::isfinite(iteration.spread->score.ic))
          << scenario << " iteration " << i;
      EXPECT_TRUE(std::isfinite(iteration.spread->score.si))
          << scenario << " iteration " << i;
    } else {
      EXPECT_FALSE(iteration.spread_error.empty())
          << scenario << " iteration " << i;
    }
  }
}

TEST(MammalsCaseStudyTest, PaperDefaultSpreadScoresAreFinite) {
  ExpectFiniteSpreadScores("mammals", 3);
}

TEST(GseCaseStudyTest, PaperDefaultSpreadScoresAreFinite) {
  ExpectFiniteSpreadScores("gse", 10);
}

TEST(CrimeCaseStudyTest, TopPatternIsTheDriverUpperTail) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;
  config.search.max_depth = 2;  // bench_fig01_crime_kde's config
  config.search.min_coverage = 20;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const data::Dataset& dataset = session.Value().dataset();
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Paper §I: top pattern "PctIlleg >= 0.39", 20.5% coverage, mean 0.53 vs
  // 0.24 overall. Shape check: the driver attribute with >= and an upper
  // tail covering ~20% with strongly elevated mean.
  const auto& intention = result.Value().location.pattern.subgroup.intention;
  ASSERT_GE(intention.size(), 1u);
  const pattern::Condition& top_cond = intention.conditions()[0];
  EXPECT_EQ(dataset.descriptions.column(top_cond.attribute).name(),
            data.truth.driver_name);
  EXPECT_EQ(top_cond.op, pattern::ConditionOp::kGreaterEqual);
  EXPECT_NEAR(top_cond.threshold, data.truth.driver_threshold, 0.1);

  const double coverage =
      double(result.Value().location.pattern.subgroup.Coverage()) /
      double(dataset.num_rows());
  EXPECT_NEAR(coverage, 0.205, 0.06);
  EXPECT_GT(result.Value().location.pattern.mean[0],
            data.truth.overall_mean + 0.15);
}

TEST(GseCaseStudyTest, FirstPatternIsLowChildrenEastWithLeftElevated) {
  const datagen::GseData data = datagen::MakeGseLike();
  core::MinerConfig config;
  config.spread_sparsity = 2;  // the paper's §III-C 2-sparsity constraint
  config.search.min_coverage = 10;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  const data::Dataset& dataset = session.Value().dataset();
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Top pattern: a low-children condition (paper: "Children Pop. <= 14.1").
  const auto& intention = result.Value().location.pattern.subgroup.intention;
  bool has_children_le = false;
  for (const pattern::Condition& c : intention.conditions()) {
    if (c.attribute == data.truth.children_attribute &&
        c.op == pattern::ConditionOp::kLessEqual) {
      has_children_le = true;
    }
  }
  EXPECT_TRUE(has_children_le)
      << "top intention: "
      << intention.ToString(dataset.descriptions);

  // Extension mostly covers the East stratum.
  const auto& ext = result.Value().location.pattern.subgroup.extension;
  const size_t east_overlap =
      pattern::Extension::IntersectionCount(ext, data.truth.east);
  EXPECT_GT(double(east_overlap), 0.6 * double(ext.count()));

  // LEFT elevated within the subgroup vs the overall mean.
  double left_overall = 0.0;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    left_overall += dataset.targets(i, data.truth.left_target);
  }
  left_overall /= double(dataset.num_rows());
  EXPECT_GT(result.Value().location.pattern.mean[data.truth.left_target],
            left_overall + 8.0);
}

TEST(GseCaseStudyTest, SpreadPatternFindsCduSpdLowVarianceDirection) {
  const datagen::GseData data = datagen::MakeGseLike();
  core::MinerConfig config;
  config.spread_sparsity = 2;
  config.search.min_coverage = 10;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.Value().spread.has_value());
  const core::ScoredSpreadPattern& spread = *result.Value().spread;

  // 2-sparse direction supported on (CDU, SPD) — the anti-correlated pair.
  std::vector<size_t> support;
  for (size_t k = 0; k < spread.pattern.direction.size(); ++k) {
    if (std::fabs(spread.pattern.direction[k]) > 1e-9) support.push_back(k);
  }
  ASSERT_EQ(support.size(), 2u);
  EXPECT_EQ(support[0], data.truth.cdu_target);
  EXPECT_EQ(support[1], data.truth.spd_target);

  // Observed variance along w far below the model's expectation at scoring
  // time (paper Fig. 8: "variance much smaller than expected"). The
  // surrogate's mean is exactly that expectation.
  const double expected = spread.score.approx.MeanValue();
  EXPECT_LT(spread.pattern.variance, 0.4 * expected);

  // Direction close to the planted (0.5704, 0.8214) up to sign.
  linalg::Vector planted(5);
  planted[data.truth.cdu_target] = 0.5704;
  planted[data.truth.spd_target] = 0.8214;
  EXPECT_GT(std::fabs(spread.pattern.direction.Dot(planted)), 0.95);
}

TEST(GseCaseStudyTest, DialogueFindsEastThenCitiesThenTheComplement) {
  // bench_fig07to08_socioeconomics's config.
  const datagen::GseData data = datagen::MakeGseLike();
  core::MinerConfig config;
  config.spread_sparsity = 2;
  config.search.min_coverage = 10;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  std::vector<core::IterationResult> found;
  for (int iteration = 0; iteration < 3; ++iteration) {
    Result<core::IterationResult> result = session.Value().MineNext();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    found.push_back(std::move(result).MoveValue());
    if (iteration == 0) {
      // Fig. 8a: after assimilation the model's expected subgroup mean is
      // the observed one (Theorem 1, the "updated model" bars).
      const core::ScoredLocationPattern& first = found[0].location;
      const linalg::Vector after =
          session.Value().model().ExpectedSubgroupMean(
              first.pattern.subgroup.extension);
      for (size_t t = 0; t < after.size(); ++t) {
        EXPECT_NEAR(after[t], first.pattern.mean[t], 1e-6) << "target " << t;
      }
    }
  }
  auto share = [&](int i, const pattern::Extension& stratum) {
    const pattern::Extension& ext =
        found[i].location.pattern.subgroup.extension;
    return double(pattern::Extension::IntersectionCount(ext, stratum)) /
           double(ext.count());
  };
  // Fig. 7a: East Germany (100% East); Fig. 7b: large cities (98%);
  // Fig. 7c: a high-children near-complement of both (0% East, 5% cities).
  EXPECT_GT(share(0, data.truth.east), 0.9);
  EXPECT_GT(share(1, data.truth.cities), 0.8);
  EXPECT_LT(share(1, data.truth.east), 0.1);
  EXPECT_LT(share(2, data.truth.east), 0.1);
  EXPECT_LT(share(2, data.truth.cities), 0.2);
  bool children_ge = false;
  for (const pattern::Condition& c :
       found[2].location.pattern.subgroup.intention.conditions()) {
    children_ge |= c.attribute == data.truth.children_attribute &&
                   c.op == pattern::ConditionOp::kGreaterEqual;
  }
  EXPECT_TRUE(children_ge);
}

TEST(WaterCaseStudyTest, TopPatternMatchesBioindicatorSignature) {
  const datagen::WaterData data = datagen::MakeWaterLike();
  core::MinerConfig config;
  config.search.min_coverage = 20;
  config.search.max_depth = 2;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  const data::Dataset& dataset = session.Value().dataset();
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The subgroup must be pollution-driven: strong overlap with the planted
  // "Gammarus absent AND Tubifex abundant" rows.
  const auto& ext = result.Value().location.pattern.subgroup.extension;
  const size_t overlap =
      pattern::Extension::IntersectionCount(ext, data.truth.polluted);
  EXPECT_GT(double(overlap), 0.5 * double(std::min(
                                  ext.count(), data.truth.polluted.count())));

  // BOD elevated within the subgroup (paper Fig. 10). Targets are
  // standardized, so the gap is in global-SD units.
  double bod_overall = 0.0;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    bod_overall += dataset.targets(i, data.truth.bod_target);
  }
  bod_overall /= double(dataset.num_rows());
  EXPECT_GT(result.Value().location.pattern.mean[data.truth.bod_target],
            bod_overall + 0.6);
}

TEST(WaterCaseStudyTest, SpreadPatternIsHighVarianceDirection) {
  const datagen::WaterData data = datagen::MakeWaterLike();
  core::MinerConfig config;
  config.search.min_coverage = 20;
  config.search.max_depth = 2;
  config.spread_optimizer.num_random_starts = 4;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.Value().spread.has_value());
  const core::ScoredSpreadPattern& spread = *result.Value().spread;

  // Paper §III-D headline: the top spread direction has variance LARGER
  // than expected (unusual — displaced subgroups typically shrink). The
  // surrogate's mean is the model's expectation at scoring time.
  const double expected = spread.score.approx.MeanValue();
  EXPECT_GT(spread.pattern.variance, 1.3 * expected);
}

/// One row of Fig. 3: the SI of the three true descriptions and the
/// pure-noise baseline at one distortion level, averaged over draws.
struct NoiseRow {
  double p = 0.0;
  double si_true[3] = {0.0, 0.0, 0.0};
  double baseline = 0.0;
};

/// The Fig. 3 series exactly as bench_fig03_noise_robustness computes
/// them: p = 0, 0.025, ..., 0.35, five corruption draws per level, scored
/// under the initial (empirical) model.
std::vector<NoiseRow> NoiseRobustnessCurves() {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  const model::BackgroundModel model =
      model::BackgroundModel::CreateFromData(data.dataset.targets).Value();
  const si::DescriptionLengthParams dl;
  // Scores `attr = level` on `corrupted`; false when it covers no rows,
  // or every row and `skip_full` is set (the baseline's rule).
  auto score = [&](const data::Dataset& corrupted, size_t attr,
                   int32_t level, bool skip_full, double* si) {
    const pattern::Intention intention(
        {pattern::Condition::Equals(attr, level)});
    const pattern::Extension ext = intention.Evaluate(corrupted.descriptions);
    if (ext.empty()) return false;
    if (skip_full && ext.count() == corrupted.num_rows()) return false;
    const linalg::Vector mean = pattern::SubgroupMean(corrupted.targets, ext);
    *si = si::ScoreLocation(model, ext, mean, 1, dl).si;
    return true;
  };
  std::vector<NoiseRow> rows;
  for (int step = 0; step <= 14; ++step) {
    NoiseRow row;
    row.p = 0.025 * step;
    const int kReps = 5;
    for (int rep = 0; rep < kReps; ++rep) {
      const data::Dataset corrupted = datagen::FlipBinaryDescriptors(
          data.dataset, row.p, 1000 + uint64_t(step) * 17 + uint64_t(rep));
      for (size_t k = 0; k < 3; ++k) {
        double si = 0.0;
        if (score(corrupted, k, 1, false, &si)) row.si_true[k] += si / kReps;
      }
      double best_noise = -1e300;
      for (size_t attr = 3; attr < 5; ++attr) {
        for (int32_t level = 0; level <= 1; ++level) {
          double si = 0.0;
          if (score(corrupted, attr, level, true, &si)) {
            best_noise = std::max(best_noise, si);
          }
        }
      }
      row.baseline += best_noise / kReps;
    }
    rows.push_back(row);
  }
  return rows;
}

TEST(NoiseRobustnessTest, TrueDescriptionsDecayToZeroAboveAFlatBaseline) {
  const std::vector<NoiseRow> rows = NoiseRobustnessCurves();
  ASSERT_EQ(rows.size(), 15u);
  for (const NoiseRow& row : rows) {
    SCOPED_TRACE(row.p);
    // The pure-noise baseline is negative and flat (-3.00 .. -2.48).
    EXPECT_GT(row.baseline, -3.5);
    EXPECT_LT(row.baseline, -2.0);
    for (int k = 0; k < 3; ++k) {
      // No curve meets the baseline anywhere in p <= 0.35: the closest
      // gap is 0.74 (a3 = '1' at p = 0.35).
      EXPECT_GT(row.si_true[k] - row.baseline, 0.5) << "curve " << k;
      // Clearly positive up to p = 0.2, about zero from p = 0.3 on.
      if (row.p < 0.2 + 1e-9) {
        EXPECT_GT(row.si_true[k], 1.0) << "curve " << k;
      }
      if (row.p > 0.3 - 1e-9) {
        EXPECT_LT(row.si_true[k], 1.0) << "curve " << k;
      }
    }
  }
  // Strong at p = 0 and decaying over every 0.1 step in p (rows 0, 4, 8,
  // 12); single 0.025 steps need not be monotone.
  for (int k = 0; k < 3; ++k) {
    EXPECT_GT(rows[0].si_true[k], 50.0) << "curve " << k;
    for (size_t r = 4; r <= 12; r += 4) {
      EXPECT_LT(rows[r].si_true[k], rows[r - 4].si_true[k])
          << "curve " << k << " at p=" << rows[r].p;
    }
  }
}

TEST(MammalsCaseStudyTest, ThreeIterationsFindNorthSouthAndSouthWest) {
  // bench_fig04to06_mammals's config: location patterns only (binary
  // targets), depth 2, beam 16, coverage >= 50.
  const datagen::MammalsData data = datagen::MakeMammalsLike();
  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;
  config.search.max_depth = 2;
  config.search.beam_width = 16;
  config.search.min_coverage = 50;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const data::Dataset& dataset = session.Value().dataset();

  std::vector<core::ScoredLocationPattern> found;
  for (int iteration = 0; iteration < 3; ++iteration) {
    Result<core::IterationResult> result = session.Value().MineNext();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    found.push_back(result.Value().location);
  }
  // Map centroids of the three extensions (the bench's Fig. 6 summary).
  double lat[3], lon[3];
  for (int i = 0; i < 3; ++i) {
    const pattern::Extension& ext = found[i].pattern.subgroup.extension;
    lat[i] = lon[i] = 0.0;
    for (size_t row : ext.ToRows()) {
      lat[i] += data.latitude[row];
      lon[i] += data.longitude[row];
    }
    lat[i] /= double(ext.count());
    lon[i] /= double(ext.count());
    EXPECT_TRUE(std::isfinite(found[i].score.ic)) << "iteration " << i + 1;
    if (i > 0) {
      EXPECT_LT(found[i].score.si, found[i - 1].score.si);
    }
  }
  auto share = [&](int i, const pattern::Extension& region) {
    const pattern::Extension& ext = found[i].pattern.subgroup.extension;
    return double(pattern::Extension::IntersectionCount(ext, region)) /
           double(ext.count());
  };

  // Iteration 1: the cold north (centroid lat 66.2, 94% planted cold
  // cells; the paper's Fig. 6a).
  EXPECT_GT(lat[0], 60.0);
  EXPECT_GT(share(0, data.truth.cold_region), 0.8);
  // Iteration 2: the dry south (lat 40.1, lon 23.3; 64% planted dry-August
  // cells; Fig. 6b).
  EXPECT_LT(lat[1], 45.0);
  EXPECT_GT(lon[1], 15.0);
  EXPECT_GT(share(1, data.truth.dry_south), 0.5);
  // Iteration 3: south-west Europe (lat 41.5, lon -0.5), not the paper's
  // dry east (Fig. 6c) — a recorded deviation of the generated data.
  EXPECT_LT(lat[2], 48.0);
  EXPECT_LT(lon[2], 8.0);
  EXPECT_LT(share(2, data.truth.cold_region), 0.1);

  // Figs. 4-5: under the prior, the five species most surprising in the
  // iteration-1 subgroup are the planted cold-region species: wood mouse
  // absent, the others (mountain hare, moose, ...) present.
  const pattern::Extension& cold = found[0].pattern.subgroup.extension;
  const model::BackgroundModel prior =
      model::BackgroundModel::CreateFromData(dataset.targets).Value();
  const model::MeanStatisticMarginal marginal = prior.MeanStatMarginal(cold);
  std::vector<size_t> top5 =
      si::RankAttributesByIC(prior, cold, found[0].pattern.mean);
  ASSERT_GE(top5.size(), 5u);
  top5.resize(5);
  for (size_t s : data.truth.cold_absent_species) {
    EXPECT_TRUE(std::count(top5.begin(), top5.end(), s))
        << dataset.target_names[s] << " is not among the top five";
  }
  for (size_t s : top5) {
    const double shift = found[0].pattern.mean[s] - marginal.mean[s];
    if (std::count(data.truth.cold_absent_species.begin(),
                   data.truth.cold_absent_species.end(), s)) {
      EXPECT_LT(shift, -0.4) << dataset.target_names[s];
    } else {
      EXPECT_TRUE(std::count(data.truth.cold_present_species.begin(),
                             data.truth.cold_present_species.end(), s))
          << dataset.target_names[s] << " is not a planted cold species";
      EXPECT_GT(shift, 0.4) << dataset.target_names[s];
    }
  }
}

}  // namespace
}  // namespace sisd

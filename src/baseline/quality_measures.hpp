/// \file quality_measures.hpp
/// \brief Classical subgroup-discovery quality measures used as baselines.
///
/// The paper contrasts its subjective measure against objective ones only
/// qualitatively (Related Work: WRAcc-based significance, Boley et al.'s
/// dispersion-corrected scores). For the Fig. 3 baseline and the ablation
/// benches we implement the standard single-target measures; all work on a
/// designated target column of the target matrix. `MeasureEvaluator` scores
/// them inside the beam search.

#ifndef SISD_BASELINE_QUALITY_MEASURES_HPP_
#define SISD_BASELINE_QUALITY_MEASURES_HPP_

#include <vector>

#include "linalg/matrix.hpp"
#include "pattern/extension.hpp"
#include "search/batch_evaluator.hpp"

namespace sisd::baseline {

/// \brief Summary of the full data needed by the objective measures.
struct TargetSummary {
  double mean = 0.0;
  double stddev = 0.0;    ///< population
  double median = 0.0;
  size_t n = 0;

  /// Computes the summary for column `target` of `y`.
  static TargetSummary Compute(const linalg::Matrix& y, size_t target);
};

/// \brief z-score of the subgroup mean: `sqrt(|I|) * |mean_I - mean| / sd`.
/// The classical mean-shift test statistic.
double ZScoreQuality(const linalg::Matrix& y, size_t target,
                     const TargetSummary& summary,
                     const pattern::Extension& extension);

/// \brief Continuous WRAcc (a.k.a. impact): `(|I|/n) * (mean_I - mean)`.
/// Positive version; use `fabs` for two-sided search.
double WraccQuality(const linalg::Matrix& y, size_t target,
                    const TargetSummary& summary,
                    const pattern::Extension& extension);

/// \brief Dispersion-corrected quality in the spirit of Boley et al. (2017):
/// `sqrt(|I|) * |median_I - median| / (1 + AMD_I)` where `AMD_I` is the
/// subgroup's mean absolute deviation around its median. Rewards subgroups
/// that are both displaced and tight. Equivalent to the family below at its
/// defaults (`a = 0.5`, two-sided).
double DispersionCorrectedQuality(const linalg::Matrix& y, size_t target,
                                  const TargetSummary& summary,
                                  const pattern::Extension& extension);

/// \brief Parameters of the dispersion-corrected *family* of Boley et al.
/// (2017, §2): `f_a(I) = |I|^a * shift / (1 + AMD_I)` where `shift` is the
/// subgroup's median displacement — two-sided (`|median_I - median|`) or
/// one-sided (`max(0, median_I - median)`, the paper's
/// "positive-median-shift" objective). The size exponent `a` trades off
/// generality against effect size: `a = 1` is impact-weighted (WRAcc-like),
/// `a = 0.5` the test-statistic normalization, `a = 0` pure effect size.
struct DispersionCorrectedParams {
  double size_exponent = 0.5;  ///< `a` in `|I|^a`
  bool two_sided = true;       ///< absolute vs. positive-only median shift
};

/// \brief The dispersion-corrected family member selected by `params`.
double DispersionCorrectedFamilyQuality(const linalg::Matrix& y, size_t target,
                                        const TargetSummary& summary,
                                        const pattern::Extension& extension,
                                        const DispersionCorrectedParams& params);

/// \brief The measures `MeasureEvaluator` can score (two-sided: WRAcc is
/// scored by its absolute value).
enum class BaselineMeasure { kZScore, kWracc, kDispersionCorrected };

/// \brief Batch evaluator scoring candidates by a baseline measure on
/// column `target` of `y`. `kDispersionCorrected` scores the family member
/// selected by `params` (the defaults give `DispersionCorrectedQuality`).
/// Each worker materializes candidates into its own scratch extension, so
/// scoring runs in parallel. Keeps a pointer to `y`, which must outlive the
/// evaluator and stay unchanged while it is in use.
class MeasureEvaluator final : public search::BatchEvaluator {
 public:
  MeasureEvaluator(const linalg::Matrix& y, size_t target,
                   BaselineMeasure measure,
                   DispersionCorrectedParams params = {});

  void Prepare(size_t num_workers) override;

  void ScoreChunk(const search::CandidateBatch& batch, size_t begin,
                  size_t end, size_t worker, double* scores) override;

 private:
  double Score(const pattern::Extension& extension) const;

  const linalg::Matrix* y_;
  size_t target_;
  TargetSummary summary_;
  BaselineMeasure measure_;
  DispersionCorrectedParams params_;
  std::vector<pattern::Extension> scratch_;  ///< one per worker
};

}  // namespace sisd::baseline

#endif  // SISD_BASELINE_QUALITY_MEASURES_HPP_

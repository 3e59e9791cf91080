/// \file evaluation_context.hpp
/// \brief Allocation-free SI scoring context for the batch evaluation
/// engine.
///
/// Beam search evaluates tens of thousands of candidate subgroups per level
/// (paper §IV). Scoring a candidate through the plain free functions in
/// interestingness.hpp heap-allocates a subgroup-mean vector, a per-group
/// count vector and — once the model has several parameter groups — a fresh
/// Cholesky factorization of the mean-statistic covariance. An
/// `EvaluationContext` owns reusable scratch buffers, including the
/// marginal mean, covariance and factor that a multi-group subgroup is
/// refactored into, so repeated scoring performs no heap allocation.
///
/// A context is bound to one immutable model snapshot. It is NOT
/// thread-safe; parallel scoring uses one context per worker thread (the
/// scored values are identical regardless of which context computes them,
/// which is what makes multi-threaded search bit-deterministic).

#ifndef SISD_SI_EVALUATION_CONTEXT_HPP_
#define SISD_SI_EVALUATION_CONTEXT_HPP_

#include <cstdint>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "model/background_model.hpp"
#include "pattern/extension.hpp"
#include "pattern/patterns.hpp"
#include "si/interestingness.hpp"

namespace sisd::si {

/// \brief Reusable scratch for location-SI scoring against one
/// background-model snapshot.
class EvaluationContext {
 public:
  /// Binds the context to `model` (kept by reference; must outlive the
  /// context and not be mutated while the context is in use). `targets`
  /// (may be null) enables the subgroup-mean kernels. Warms the model's
  /// per-group Cholesky caches so later reads are const and thread-safe.
  explicit EvaluationContext(const model::BackgroundModel& model,
                             const linalg::Matrix* targets = nullptr);

  EvaluationContext(const EvaluationContext&) = delete;
  EvaluationContext& operator=(const EvaluationContext&) = delete;
  EvaluationContext(EvaluationContext&&) = default;
  EvaluationContext& operator=(EvaluationContext&&) = default;

  /// The bound model snapshot.
  const model::BackgroundModel& model() const { return *model_; }

  /// IC of a location pattern (Eq. 13). Bit-identical to the free function
  /// `si::LocationIC`, without its per-call allocations.
  double LocationIC(const pattern::Extension& extension,
                    const linalg::Vector& empirical_mean);

  /// IC of the virtual extension `a & b` with `count = |a & b| > 0`,
  /// computed with fused masked popcounts (nothing materialized).
  double LocationICMasked(const pattern::Extension& a,
                          const pattern::Extension& b, size_t count,
                          const linalg::Vector& empirical_mean);

  /// Full (IC, DL, SI) score; bit-identical to `si::ScoreLocation`.
  LocationScore ScoreLocation(const pattern::Extension& extension,
                              const linalg::Vector& empirical_mean,
                              size_t num_conditions,
                              const DescriptionLengthParams& params);

  /// Masked-variant of `ScoreLocation` over the virtual extension `a & b`.
  LocationScore ScoreLocationMasked(const pattern::Extension& a,
                                    const pattern::Extension& b, size_t count,
                                    const linalg::Vector& empirical_mean,
                                    size_t num_conditions,
                                    const DescriptionLengthParams& params);

  /// `ScoreLocationMasked` from precomputed per-group counts: the subgroup
  /// holds `count > 0` rows, `group_counts[g * stride]` of them in model
  /// group `g` (not read for a single-group model). Bit-identical to
  /// `ScoreLocationMasked` when the counts are those of its `a & b`.
  LocationScore ScoreLocationFromGroupCounts(
      const uint32_t* group_counts, size_t stride, size_t count,
      const linalg::Vector& empirical_mean, size_t num_conditions,
      const DescriptionLengthParams& params);

  /// Empirical subgroup mean into `*out` (requires `targets`).
  void SubgroupMeanInto(const pattern::Extension& extension,
                        linalg::Vector* out) const;

  /// Empirical mean over `a & b` into `*out` (requires `targets`).
  void MaskedSubgroupMeanInto(const pattern::Extension& a,
                              const pattern::Extension& b, size_t count,
                              linalg::Vector* out) const;

  /// Scratch mean buffer callers may use between scoring calls (the scoring
  /// methods never touch it).
  linalg::Vector* scratch_mean() { return &scratch_mean_; }

 private:
  /// IC of a `total`-row subgroup. With several model groups it reads the
  /// per-group counts in `counts_` (sum = `total`); a single-group model
  /// needs none.
  double ICFromCounts(size_t total, const linalg::Vector& empirical_mean);

  /// (IC, DL, SI) from an IC and the pattern's condition count.
  static LocationScore ScoreFromIC(double ic, size_t num_conditions,
                                   const DescriptionLengthParams& params);

  const model::BackgroundModel* model_;
  const linalg::Matrix* targets_;

  std::vector<size_t> counts_;  ///< per-group count scratch
  linalg::Vector diff_;         ///< mean-offset scratch (dy)
  linalg::Vector fsolve_;       ///< forward-solve scratch (dy)
  linalg::Vector scratch_mean_;  ///< caller-visible mean buffer (dy)

  /// Multi-group marginal of the mean statistic at dy > 1, rebuilt per
  /// subgroup (dy = 1 computes it in scalars).
  linalg::Vector marginal_mean_;   ///< (dy)
  linalg::Matrix marginal_cov_;    ///< (dy x dy)
  linalg::Cholesky marginal_chol_; ///< factor of `marginal_cov_`
};

}  // namespace sisd::si

#endif  // SISD_SI_EVALUATION_CONTEXT_HPP_

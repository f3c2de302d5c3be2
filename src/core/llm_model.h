// The paper's model: a conditionally-growing Adaptive Vector Quantization of
// the query space, each cell carrying SGD-trained Local Linear Mapping
// coefficients. Implements:
//
//   - Algorithm 1 (training): vigilance test ρ, Theorem-4 SGD updates,
//     Γ = max(Γ^J, Γ^H) convergence tracking;
//   - Algorithm 2 (Q1): overlap-weighted nearest-neighbours regression
//     prediction of the mean value (Eqs. 9–12);
//   - Algorithm 3 (Q2): the list S of local linear models of g (Theorem 3);
//   - Eq. 14: data-value prediction û.
//
// All of them read a query's neighbourhood — its nearest prototype and the
// overlap set W(q) with Eq. 9's δ weights — from one sweep over the
// prototype centres and radii, which the model keeps in one contiguous
// row-per-prototype array beside the prototypes themselves.
//
// Ablation knobs (see DESIGN.md §7): fixed-K quantization instead of
// vigilance growth, nearest-only prediction instead of δ-weighting,
// constant / global-hyperbolic / per-prototype-hyperbolic learning rates,
// and coefficient seeding at spawn.

#ifndef QREG_CORE_LLM_MODEL_H_
#define QREG_CORE_LLM_MODEL_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/prototype.h"
#include "query/query.h"
#include "util/status.h"

namespace qreg {
namespace core {

/// \brief Vigilance radius ρ = a (√d + 1) (Section IV) for unit-range data.
///
/// `a` is the fraction of the per-dimension value range; d is the
/// input-space dimension (the query space has d+1 dimensions).
double VigilanceFromCoefficient(double a, size_t d);

/// \brief Vigilance for non-unit attribute ranges: the paper expresses ρ
/// "through a set of percentages a_i of the value ranges of each dimension",
/// i.e. ρ = ||[a·R_x, ..., a·R_x]||₂ + a·R_θ = a (√d · R_x + R_θ).
double VigilanceForRanges(double a, size_t d, double x_range, double theta_range);

/// \brief Learning-rate schedules for the Theorem-4 SGD updates.
enum class LearningRateSchedule : int {
  /// η = 1/(1 + t_k) with t_k the *winner's* update count. Robust when
  /// prototypes spawn late (a late prototype still starts plastic).
  kPerPrototypeHyperbolic = 0,
  /// η = 1/(1 + t) with t the global step count (the schedule as literally
  /// written in Section II-B).
  kGlobalHyperbolic = 1,
  /// Constant η (ablation).
  kConstant = 2,
};

/// \brief How unseen queries are answered (Algorithm 2).
enum class PredictionMode : int {
  /// δ̃-weighted aggregation over the overlap set W(q); nearest prototype
  /// when W(q) is empty (the paper's Algorithm 2).
  kOverlapWeighted = 0,
  /// Always the single nearest prototype (ablation).
  kNearestOnly = 1,
};

/// \brief Model hyper-parameters.
struct LlmConfig {
  size_t d = 2;              ///< Input-space dimension.
  double vigilance = 0.0;    ///< ρ. Set directly or via coefficient `a`.
  double a = 0.25;           ///< Quantization-resolution coefficient.
  double gamma = 0.01;       ///< Convergence threshold γ for Γ.

  LearningRateSchedule schedule = LearningRateSchedule::kPerPrototypeHyperbolic;
  double constant_eta = 0.05;  ///< Used when schedule == kConstant.

  /// Exponent of the hyperbolic decay for the *coefficient* updates (y_k,
  /// b_k): η_coef = (1 + n)^(-coef_power). 1.0 is Theorem 4's literal
  /// schedule; the default 0.6 still satisfies the Robbins-Monro conditions
  /// while avoiding the classic 2cλ_min > 1 threshold that freezes slope
  /// learning when a cell's input covariance is small (see DESIGN.md).
  /// Prototype positions always use the exact 1/(1+n) running-mean rate.
  double coef_power = 0.6;

  /// Precondition each coefficient-step coordinate by the running mean
  /// square of that input coordinate (diagonal NLMS). Within a quantization
  /// cell the inputs (q − w_j) have tiny variance compared to the intercept
  /// direction, so an unpreconditioned step leaves the slope b_j orders of
  /// magnitude behind the intercept y_j; this equalizes the rates and also
  /// keeps updates stable on wide domains such as R2's [-10,10]^d. Disable
  /// to recover the literal Theorem-4 step.
  bool normalize_coef_step = true;

  PredictionMode prediction = PredictionMode::kOverlapWeighted;

  /// 0 keeps the paper's vigilance growth; > 0 freezes the prototype count
  /// at K (the first K distinct queries seed the codebook) for the
  /// fixed-K-quantization ablation.
  int32_t fixed_k = 0;

  /// Seed a spawned prototype's y_K with the observed answer instead of the
  /// paper's 0-init. Without seeding, fine quantizations (large K, few wins
  /// per prototype) answer near 0 until each cell has re-learned its level;
  /// the ablation bench quantifies the difference. Default on.
  bool seed_y_with_answer = true;

  /// Window (in training pairs) over which Γ is averaged before comparing to
  /// γ; 1 reproduces the paper's instantaneous test. The default smooths the
  /// stochastic Γ trajectory so one lucky tiny step cannot end training.
  int32_t convergence_window = 25;

  /// Prediction-time slope shrinkage: slopes of a prototype with n wins are
  /// scaled by n / (n + slope_shrinkage). Converged prototypes are barely
  /// affected; barely-trained ones fall back toward their constant level
  /// y_k instead of extrapolating noise. 0 disables.
  double slope_shrinkage = 3.0;

  /// Returns a config with ρ derived from `a` and `d` (unit-range data).
  static LlmConfig ForDimension(size_t d, double a = 0.25, double gamma = 0.01);

  /// Returns a config with ρ scaled to the given attribute ranges (e.g. the
  /// R2 dataset spans [-10,10]^d, so x_range = 20).
  static LlmConfig ForDomain(size_t d, double a, double gamma, double x_range,
                             double theta_range);

  util::Status Validate() const;
};

/// \brief Outcome of one training observation.
struct TrainStep {
  int32_t winner = -1;        ///< Index of the updated (or spawned) prototype.
  bool spawned = false;       ///< True if a new prototype was created.
  double gamma_j = 0.0;       ///< Γ^J contribution: prototype displacement.
  double gamma_h = 0.0;       ///< Γ^H contribution: coefficient displacement.
};

/// \brief A query's neighbourhood among a model's prototypes, from one
/// LlmModel::Sweep: the query-space nearest prototype (Algorithm 2's
/// fallback, the vigilance test's distance) and the overlap set W(q) with
/// each member's δ (Eqs. 9–10), in prototype order.
class Neighbourhood {
 public:
  /// Overlaps held inline; a larger W(q) spills to the heap.
  static constexpr size_t kInlineOverlaps = 64;

  /// Index of the nearest prototype (the first on a tie); -1 when the model
  /// has none or no distance is finite.
  int32_t nearest() const { return nearest_; }
  /// Its query-space distance; +inf when nearest() is -1.
  double nearest_distance() const { return std::sqrt(nearest_d2_); }

  /// |W(q)|, and its members' prototype indexes and δ > 0.
  size_t overlap_size() const { return size_; }
  int32_t overlap_index(size_t i) const { return At(i).index; }
  double overlap_delta(size_t i) const { return At(i).delta; }
  /// Σ δ over W(q), summed in prototype order.
  double delta_sum() const { return delta_sum_; }

 private:
  friend class LlmModel;

  struct Overlap {
    int32_t index;
    double delta;
  };

  void Clear();
  void Add(int32_t index, double delta);
  const Overlap& At(size_t i) const {
    return i < kInlineOverlaps ? inline_[i] : spill_[i - kInlineOverlaps];
  }

  int32_t nearest_ = -1;
  double nearest_d2_ = std::numeric_limits<double>::infinity();
  double delta_sum_ = 0.0;
  size_t size_ = 0;
  // Left uninitialized on purpose: a sweep writes entry i before anything
  // reads it, and zeroing would add a 1 KiB memset to every request.
  std::array<Overlap, kInlineOverlaps> inline_;
  std::vector<Overlap> spill_;
};

/// \brief The trained model (Figure 2's "Model" box).
class LlmModel {
 public:
  explicit LlmModel(LlmConfig config);

  const LlmConfig& config() const { return config_; }

  // --- Training (Algorithm 1) ------------------------------------------

  /// Processes one (query, answer) pair: vigilance test, Theorem-4 update or
  /// spawn, Γ bookkeeping. Invalid-dimension queries return an error.
  util::Result<TrainStep> Observe(const query::Query& q, double y);

  /// max(Γ^J, Γ^H) averaged over the configured window; +inf before any
  /// observation.
  double CurrentGamma() const;

  /// True once CurrentGamma() <= γ (and at least one pair was seen).
  bool HasConverged() const;

  /// Freezes the model: further Observe() calls return FailedPrecondition.
  /// (After Algorithm 1 terminates "no further modification is performed".)
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Re-opens a frozen model for continued training — the hook for the
  /// paper's "adaptation to data space updates" future work (see
  /// core/drift.h). Clears the Γ history so stale convergence evidence does
  /// not end retraining immediately.
  void Unfreeze() {
    frozen_ = false;
    gamma_history_.clear();
  }

  /// Restores plasticity after a data-distribution change: caps every
  /// prototype's win count at `max_wins` (scaling the preconditioner moments
  /// accordingly) so the hyperbolic learning rates become large enough to
  /// track the new regime. The ART "stability-plasticity" dial the paper
  /// alludes to in Section IV, turned back toward plasticity.
  void ResetPlasticity(int64_t max_wins = 10);

  // --- Prediction (Algorithms 2 & 3) -----------------------------------
  //
  // Each prediction sweeps the prototypes once (Sweep). The overloads that
  // take a Neighbourhood reuse a sweep the caller already ran for the same
  // query on this model, such as the service router's vigilance test.

  /// The neighbourhood of `q`: one pass over the prototypes computes each
  /// centre distance² s_k once and derives both the query-space distance
  /// s_k + (θ − θ_k)² and δ_k from it. A query of the wrong dimension gets
  /// an empty neighbourhood.
  void Sweep(const query::Query& q, Neighbourhood* out) const;

  /// Q1: predicted mean value ŷ for an unseen query (Algorithm 2).
  /// Fails if the model has no prototypes.
  util::Result<double> PredictMean(const query::Query& q) const;
  util::Result<double> PredictMean(const query::Query& q,
                                   const Neighbourhood& hood) const;

  /// Q2: the list S of local linear models of g over D(x, θ) (Algorithm 3).
  /// Overlapping prototypes contribute one model each, with δ̃ weights; if
  /// none overlap, the single nearest prototype is extrapolated (weight 0 by
  /// convention, matching "Case 3").
  util::Result<std::vector<LocalLinearModel>> RegressionQuery(
      const query::Query& q) const;
  util::Result<std::vector<LocalLinearModel>> RegressionQuery(
      const query::Query& q, const Neighbourhood& hood) const;

  /// Data-value prediction û(x) given the neighbourhood of q (Eq. 14).
  util::Result<double> PredictValue(const query::Query& q,
                                    const std::vector<double>& x) const;

  /// L2 query-space distance from q to its nearest prototype; +inf when the
  /// model has no prototypes. The service router's accuracy policy compares
  /// this against the vigilance ρ to decide model vs. exact execution.
  double NearestPrototypeDistance(const query::Query& q) const;

  // --- Introspection ----------------------------------------------------

  int32_t num_prototypes() const { return static_cast<int32_t>(prototypes_.size()); }
  const std::vector<Prototype>& prototypes() const { return prototypes_; }
  int64_t observations() const { return t_; }

  /// Total memory of the parameter set α (Section V: O(dK)).
  int64_t ParameterBytes() const;

  std::string Summary() const;

 private:
  friend class ModelSerializer;

  double PrototypeRate(const Prototype& p) const;
  double CoefficientRate(const Prototype& p) const;
  double SlopeScale(const Prototype& p) const;
  /// The sweep kernel behind Sweep; without `with_overlap` it finds only the
  /// nearest prototype and leaves W(q) empty.
  void SweepRows(const query::Query& q, bool with_overlap,
                 Neighbourhood* out) const;
  /// Checks a prediction's inputs: a non-empty model, q of the model's
  /// dimension and a nearest prototype in `hood`.
  util::Status CheckPredictable(const query::Query& q,
                                const Neighbourhood& hood) const;
  /// Algorithm 2 / Eq. 14: the δ̃-weighted sum over W(q) of f_k(q), or of
  /// f_k(x, θ_k) when `x` is given.
  double WeightedPrediction(const query::Query& q, const Neighbourhood& hood,
                            const std::vector<double>* x) const;

  /// Adds a prototype and its row of `rows_`.
  void AppendPrototype(Prototype p);
  /// Copies prototype k's centre and radius into its row of `rows_`.
  void SyncRow(size_t k);

  LlmConfig config_;
  std::vector<Prototype> prototypes_;
  /// Row k holds [w_k.center, w_k.theta] (d + 1 doubles), a copy of
  /// prototypes_[k].w laid out contiguously for Sweep.
  std::vector<double> rows_;
  int64_t t_ = 0;           // Global observation counter.
  bool frozen_ = false;
  std::vector<double> gamma_history_;  // Ring buffer of recent Γ values.
};

}  // namespace core
}  // namespace qreg

#endif  // QREG_CORE_LLM_MODEL_H_

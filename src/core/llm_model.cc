#include "core/llm_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace qreg {
namespace core {

double VigilanceFromCoefficient(double a, size_t d) {
  return a * (std::sqrt(static_cast<double>(d)) + 1.0);
}

double VigilanceForRanges(double a, size_t d, double x_range, double theta_range) {
  return a * (std::sqrt(static_cast<double>(d)) * x_range + theta_range);
}

LlmConfig LlmConfig::ForDimension(size_t d, double a, double gamma) {
  LlmConfig c;
  c.d = d;
  c.a = a;
  c.vigilance = VigilanceFromCoefficient(a, d);
  c.gamma = gamma;
  return c;
}

LlmConfig LlmConfig::ForDomain(size_t d, double a, double gamma, double x_range,
                               double theta_range) {
  LlmConfig c;
  c.d = d;
  c.a = a;
  c.vigilance = VigilanceForRanges(a, d, x_range, theta_range);
  c.gamma = gamma;
  return c;
}

util::Status LlmConfig::Validate() const {
  if (d == 0) return util::Status::InvalidArgument("d must be positive");
  if (vigilance <= 0.0 && fixed_k <= 0) {
    return util::Status::InvalidArgument(
        "vigilance must be positive (or fixed_k set)");
  }
  if (gamma <= 0.0) return util::Status::InvalidArgument("gamma must be positive");
  if (schedule == LearningRateSchedule::kConstant &&
      (constant_eta <= 0.0 || constant_eta >= 1.0)) {
    return util::Status::InvalidArgument("constant_eta must be in (0, 1)");
  }
  if (convergence_window < 1) {
    return util::Status::InvalidArgument("convergence_window must be >= 1");
  }
  if (coef_power <= 0.5 || coef_power > 1.0) {
    return util::Status::InvalidArgument(
        "coef_power must lie in (0.5, 1] for Robbins-Monro convergence");
  }
  if (slope_shrinkage < 0.0) {
    return util::Status::InvalidArgument("slope_shrinkage must be >= 0");
  }
  return util::Status::OK();
}

LlmModel::LlmModel(LlmConfig config) : config_(std::move(config)) {
  if (config_.vigilance <= 0.0 && config_.fixed_k <= 0) {
    config_.vigilance = VigilanceFromCoefficient(config_.a, config_.d);
  }
}

double LlmModel::PrototypeRate(const Prototype& p) const {
  switch (config_.schedule) {
    case LearningRateSchedule::kPerPrototypeHyperbolic:
      return 1.0 / (1.0 + static_cast<double>(p.wins));
    case LearningRateSchedule::kGlobalHyperbolic:
      return 1.0 / (1.0 + static_cast<double>(t_));
    case LearningRateSchedule::kConstant:
      return config_.constant_eta;
  }
  return 0.5;
}

double LlmModel::SlopeScale(const Prototype& p) const {
  if (config_.slope_shrinkage <= 0.0) return 1.0;
  const double n = static_cast<double>(p.wins);
  return n / (n + config_.slope_shrinkage);
}

double LlmModel::CoefficientRate(const Prototype& p) const {
  switch (config_.schedule) {
    case LearningRateSchedule::kPerPrototypeHyperbolic:
      return std::pow(1.0 + static_cast<double>(p.wins), -config_.coef_power);
    case LearningRateSchedule::kGlobalHyperbolic:
      return std::pow(1.0 + static_cast<double>(t_), -config_.coef_power);
    case LearningRateSchedule::kConstant:
      return config_.constant_eta;
  }
  return 0.5;
}

void Neighbourhood::Clear() {
  nearest_ = -1;
  nearest_d2_ = std::numeric_limits<double>::infinity();
  delta_sum_ = 0.0;
  size_ = 0;
  spill_.clear();
}

void Neighbourhood::Add(int32_t index, double delta) {
  if (size_ < kInlineOverlaps) {
    inline_[size_] = Overlap{index, delta};
  } else {
    spill_.push_back(Overlap{index, delta});
  }
  ++size_;
  delta_sum_ += delta;
}

void LlmModel::AppendPrototype(Prototype p) {
  rows_.insert(rows_.end(), p.w.center.begin(), p.w.center.end());
  rows_.push_back(p.w.theta);
  prototypes_.push_back(std::move(p));
}

void LlmModel::SyncRow(size_t k) {
  const query::Query& w = prototypes_[k].w;
  double* row = rows_.data() + k * (config_.d + 1);
  std::copy(w.center.begin(), w.center.end(), row);
  row[config_.d] = w.theta;
}

void LlmModel::Sweep(const query::Query& q, Neighbourhood* out) const {
  SweepRows(q, /*with_overlap=*/true, out);
}

void LlmModel::SweepRows(const query::Query& q, bool with_overlap,
                         Neighbourhood* out) const {
  out->Clear();
  const size_t d = config_.d;
  if (q.dimension() != d) return;
  const double* x = q.center.data();
  const double theta = q.theta;
  const size_t num = prototypes_.size();
  int32_t nearest = -1;
  double nearest_d2 = std::numeric_limits<double>::infinity();
  // Rows are swept in blocks. The first pass computes each centre distance²
  // s_k once, tracks the nearest prototype, and collects the rows whose ball
  // meets q's (s_k ≤ (θ + θ_k)²) without a branch; the second computes δ_k
  // for those few only. The operations and their order are those of
  // query::QueryDistanceSquared and query::DegreeOfOverlap, so every bit
  // matches theirs.
  constexpr size_t kBlock = 64;
  int32_t candidate[kBlock];
  double candidate_d2[kBlock];
  for (size_t begin = 0; begin < num; begin += kBlock) {
    const size_t end = std::min(num, begin + kBlock);
    size_t candidates = 0;
    for (size_t k = begin; k < end; ++k) {
      const double* row = rows_.data() + k * (d + 1);
      double center_d2 = 0.0;
      for (size_t i = 0; i < d; ++i) {
        const double t = x[i] - row[i];
        center_d2 += t * t;
      }
      const double dtheta = theta - row[d];
      const double d2 = center_d2 + dtheta * dtheta;
      if (d2 < nearest_d2) {  // Strict: the first of tied prototypes wins.
        nearest_d2 = d2;
        nearest = static_cast<int32_t>(k);
      }
      const double theta_sum = theta + row[d];
      candidate[candidates] = static_cast<int32_t>(k);
      candidate_d2[candidates] = center_d2;
      candidates +=
          with_overlap && center_d2 <= theta_sum * theta_sum ? 1 : 0;
    }
    for (size_t c = 0; c < candidates; ++c) {
      const double theta_k =
          rows_[static_cast<size_t>(candidate[c]) * (d + 1) + d];
      const double delta =
          query::DegreeOfOverlapFromDistance2(candidate_d2[c], theta, theta_k);
      if (delta > 0.0) out->Add(candidate[c], delta);
    }
  }
  out->nearest_ = nearest;
  out->nearest_d2_ = nearest_d2;
}

double LlmModel::NearestPrototypeDistance(const query::Query& q) const {
  Neighbourhood hood;
  SweepRows(q, /*with_overlap=*/false, &hood);
  return hood.nearest_distance();  // inf when there are no prototypes.
}

util::Result<TrainStep> LlmModel::Observe(const query::Query& q, double y) {
  if (frozen_) {
    return util::Status::FailedPrecondition("model is frozen after convergence");
  }
  if (q.dimension() != config_.d) {
    return util::Status::InvalidArgument(
        util::Format("query dimension %zu != model dimension %zu", q.dimension(),
                     config_.d));
  }
  const bool growing = config_.fixed_k <= 0;
  const bool codebook_full =
      !growing && num_prototypes() >= config_.fixed_k;
  // The winner, when one is needed: the vigilance test and the update both
  // read it from one sweep.
  Neighbourhood hood;
  if (!prototypes_.empty() && (growing || codebook_full)) {
    SweepRows(q, /*with_overlap=*/false, &hood);
    if (hood.nearest() < 0) {
      return util::Status::InvalidArgument(
          "query has no finite distance to any prototype");
    }
  }
  ++t_;
  TrainStep step;

  if (prototypes_.empty() ||
      (growing && hood.nearest_distance() > config_.vigilance) ||
      (!growing && !codebook_full)) {
    // Spawn: the query becomes a new prototype (Algorithm 1's else-branch).
    AppendPrototype(Prototype(q, config_.seed_y_with_answer ? y : 0.0));
    step.winner = num_prototypes() - 1;
    step.spawned = true;
    // A spawn changes the quantization by (at most) the vigilance radius;
    // record that so convergence is not declared on a spawning step.
    step.gamma_j = (config_.vigilance > 0.0)
                       ? config_.vigilance
                       : 1.0;
    step.gamma_h = config_.seed_y_with_answer ? std::fabs(y) : 0.0;
  } else {
    const int32_t j = hood.nearest();
    Prototype& p = prototypes_[static_cast<size_t>(j)];
    step.winner = j;

    const double eta_w = PrototypeRate(p);
    double eta_c = CoefficientRate(p);
    // Residual of the current LLM at q: e = y - y_j - b_j (q - w_j)^T.
    const double residual = y - p.PredictQuery(q);

    // Theorem 4 updates. Order matters: all three use the *pre-update* w_j.
    double dw_norm2 = 0.0;
    double db_norm2 = 0.0;

    // Coefficient update. The literal Theorem-4 step is
    //   Δy = η_c e,  Δb = η_c e (q − w_j).
    // With normalize_coef_step (default) we instead take the same gradient
    // direction preconditioned by the diagonal of the per-cell input second
    // moments M = diag(1, E[z²]) and normalized by the preconditioned
    // curvature (NLMS): Δ[y,b] = η_c e M⁻¹ z̃ / (z̃ᵀ M⁻¹ z̃), where
    // z̃ = [1, q − w_j]. This equalizes convergence rates between the
    // intercept direction (input variance 1) and the slope directions
    // (within-cell input variance « 1) and bounds each combined correction
    // by η_c·e; see DESIGN.md §7.
    constexpr double kEps = 1e-12;
    const double dtheta = q.theta - p.w.theta;
    double dy;
    std::vector<double> db(config_.d + 1, 0.0);  // center slopes, then θ.
    if (config_.normalize_coef_step) {
      // A vigilance-scaled pseudo-sample regularizes the second-moment
      // estimates so the first few preconditioned steps cannot blow up when
      // the current |q − w| happens to be tiny in some coordinate.
      const double prior =
          (config_.vigilance > 0.0 ? config_.vigilance * config_.vigilance : 1.0) /
          static_cast<double>(config_.d + 1);
      const double n_obs = static_cast<double>(p.wins + 2);  // +1 pseudo-sample
      double curvature = 1.0;  // intercept coordinate: input 1, moment 1.
      std::vector<double> precond(config_.d + 1, 0.0);
      for (size_t i = 0; i < config_.d; ++i) {
        const double z = q.center[i] - p.w.center[i];
        p.input_sq_x[i] += z * z;
        const double mean_sq = (prior + p.input_sq_x[i]) / n_obs;
        precond[i] = z / (mean_sq + kEps);
        curvature += z * precond[i];
      }
      p.input_sq_theta += dtheta * dtheta;
      const double mean_sq_theta = (prior + p.input_sq_theta) / n_obs;
      precond[config_.d] = dtheta / (mean_sq_theta + kEps);
      curvature += dtheta * precond[config_.d];

      const double scale = eta_c * residual / curvature;
      dy = scale;
      for (size_t i = 0; i <= config_.d; ++i) db[i] = scale * precond[i];
    } else {
      dy = eta_c * residual;
      for (size_t i = 0; i < config_.d; ++i) {
        db[i] = eta_c * residual * (q.center[i] - p.w.center[i]);
      }
      db[config_.d] = eta_c * residual * dtheta;
    }
    for (size_t i = 0; i < config_.d; ++i) {
      p.b_x[i] += db[i];
      db_norm2 += db[i] * db[i];
    }
    p.b_theta += db[config_.d];
    db_norm2 += db[config_.d] * db[config_.d];
    p.y += dy;

    // Δw_j = η_w (q - w_j): the prototype tracks its cell's running mean.
    for (size_t i = 0; i < config_.d; ++i) {
      const double dw = eta_w * (q.center[i] - p.w.center[i]);
      p.w.center[i] += dw;
      dw_norm2 += dw * dw;
    }
    const double dw_theta = eta_w * dtheta;
    p.w.theta += dw_theta;
    dw_norm2 += dw_theta * dw_theta;
    SyncRow(static_cast<size_t>(j));

    ++p.wins;
    step.gamma_j = std::sqrt(dw_norm2);
    step.gamma_h = std::sqrt(db_norm2) + std::fabs(dy);
  }

  const double gamma_t = std::max(step.gamma_j, step.gamma_h);
  gamma_history_.push_back(gamma_t);
  const size_t window = static_cast<size_t>(config_.convergence_window);
  if (gamma_history_.size() > window) {
    gamma_history_.erase(gamma_history_.begin(),
                         gamma_history_.end() - static_cast<long>(window));
  }
  return step;
}

double LlmModel::CurrentGamma() const {
  if (gamma_history_.empty()) return std::numeric_limits<double>::infinity();
  double s = 0.0;
  for (double g : gamma_history_) s += g;
  return s / static_cast<double>(gamma_history_.size());
}

bool LlmModel::HasConverged() const {
  return !gamma_history_.empty() && CurrentGamma() <= config_.gamma;
}

void LlmModel::ResetPlasticity(int64_t max_wins) {
  if (max_wins < 0) max_wins = 0;
  for (Prototype& p : prototypes_) {
    if (p.wins <= max_wins) continue;
    const double scale =
        static_cast<double>(max_wins) / static_cast<double>(p.wins);
    for (double& v : p.input_sq_x) v *= scale;
    p.input_sq_theta *= scale;
    p.wins = max_wins;
  }
  gamma_history_.clear();
}

util::Status LlmModel::CheckPredictable(const query::Query& q,
                                        const Neighbourhood& hood) const {
  if (prototypes_.empty()) {
    return util::Status::FailedPrecondition("model has no prototypes");
  }
  if (q.dimension() != config_.d) {
    return util::Status::InvalidArgument("query dimension mismatch");
  }
  if (hood.nearest() < 0) {
    return util::Status::InvalidArgument(
        "query has no finite distance to any prototype");
  }
  return util::Status::OK();
}

double LlmModel::WeightedPrediction(const query::Query& q,
                                    const Neighbourhood& hood,
                                    const std::vector<double>* x) const {
  // Normalized degrees of overlap δ̃ (Algorithm 2 / Eq. 11 and Eq. 14).
  double out = 0.0;
  for (size_t i = 0; i < hood.overlap_size(); ++i) {
    const Prototype& p = prototypes_[static_cast<size_t>(hood.overlap_index(i))];
    const double f = x != nullptr ? p.PredictData(*x, SlopeScale(p))
                                  : p.PredictQuery(q, SlopeScale(p));
    out += (hood.overlap_delta(i) / hood.delta_sum()) * f;
  }
  return out;
}

util::Result<double> LlmModel::PredictMean(const query::Query& q) const {
  Neighbourhood hood;
  Sweep(q, &hood);
  return PredictMean(q, hood);
}

util::Result<double> LlmModel::PredictMean(const query::Query& q,
                                           const Neighbourhood& hood) const {
  QREG_RETURN_NOT_OK(CheckPredictable(q, hood));
  if (config_.prediction == PredictionMode::kNearestOnly ||
      hood.overlap_size() == 0) {
    // Case W(q) = ∅: extrapolate from the closest prototype (Algorithm 2).
    const Prototype& p = prototypes_[static_cast<size_t>(hood.nearest())];
    return p.PredictQuery(q, SlopeScale(p));
  }
  return WeightedPrediction(q, hood, nullptr);
}

util::Result<std::vector<LocalLinearModel>> LlmModel::RegressionQuery(
    const query::Query& q) const {
  Neighbourhood hood;
  Sweep(q, &hood);
  return RegressionQuery(q, hood);
}

util::Result<std::vector<LocalLinearModel>> LlmModel::RegressionQuery(
    const query::Query& q, const Neighbourhood& hood) const {
  QREG_RETURN_NOT_OK(CheckPredictable(q, hood));
  std::vector<LocalLinearModel> s;
  if (hood.overlap_size() == 0 ||
      config_.prediction == PredictionMode::kNearestOnly) {
    // Case 3: extrapolate the linearity trend of the nearest subspace.
    const int32_t j = hood.nearest();
    const Prototype& p = prototypes_[static_cast<size_t>(j)];
    s.push_back(p.ToDataModel(j, 0.0, SlopeScale(p)));
    return s;
  }
  s.reserve(hood.overlap_size());
  for (size_t i = 0; i < hood.overlap_size(); ++i) {
    const int32_t k = hood.overlap_index(i);
    const Prototype& p = prototypes_[static_cast<size_t>(k)];
    s.push_back(
        p.ToDataModel(k, hood.overlap_delta(i) / hood.delta_sum(), SlopeScale(p)));
  }
  return s;
}

util::Result<double> LlmModel::PredictValue(const query::Query& q,
                                            const std::vector<double>& x) const {
  Neighbourhood hood;
  Sweep(q, &hood);
  QREG_RETURN_NOT_OK(CheckPredictable(q, hood));
  if (x.size() != config_.d) {
    return util::Status::InvalidArgument("data point dimension mismatch");
  }
  if (config_.prediction == PredictionMode::kNearestOnly ||
      hood.overlap_size() == 0) {
    const Prototype& p = prototypes_[static_cast<size_t>(hood.nearest())];
    return p.PredictData(x, SlopeScale(p));
  }
  return WeightedPrediction(q, hood, &x);
}

int64_t LlmModel::ParameterBytes() const {
  // Per prototype: center (d) + θ + y + b_x (d) + b_θ doubles.
  const int64_t per = static_cast<int64_t>((2 * config_.d + 3) * sizeof(double));
  return per * num_prototypes();
}

std::string LlmModel::Summary() const {
  return util::Format(
      "LlmModel{d=%zu, K=%d, a=%.3f, rho=%.4f, gamma=%.4g, observations=%lld, "
      "frozen=%s, params=%lld bytes}",
      config_.d, num_prototypes(), config_.a, config_.vigilance, config_.gamma,
      static_cast<long long>(t_), frozen_ ? "yes" : "no",
      static_cast<long long>(ParameterBytes()));
}

}  // namespace core
}  // namespace qreg

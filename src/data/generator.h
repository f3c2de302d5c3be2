// Dataset synthesis: samples a DataFunction over its domain, adds Gaussian
// observation noise, and (optionally) min-max scales features/output to
// [0,1] as the paper does for R1 ("all real-valued vectors are scaled in
// [0,1]").

#ifndef QREG_DATA_GENERATOR_H_
#define QREG_DATA_GENERATOR_H_

#include <cstdint>
#include <memory>

#include "data/functions.h"
#include "storage/table.h"
#include "util/status.h"

namespace qreg {
namespace data {

/// \brief Synthesis parameters.
struct DatasetConfig {
  int64_t n = 100000;          ///< Rows to generate.
  double noise_stddev = 0.0;   ///< Gaussian noise added to u.
  /// Gaussian noise added to each x_j, then clamped back into the
  /// function's domain [lo, hi]. The clamp piles rows onto the boundary and
  /// stacks identical points at the corners: R2 (N(0, 1) noise on
  /// [-10, 10]^d) at d = 2 and 300k rows holds 461 rows in duplicated
  /// points, 131 of them at (-10, -10). Kept as is, since every R2 accuracy
  /// figure is measured on it.
  double feature_noise_stddev = 0.0;
  bool scale_features_unit = false;   ///< Min-max scale x to [0,1]^d.
  bool scale_output_unit = true;      ///< Min-max scale u to [0,1].
  uint64_t seed = 42;
};

/// \brief Description of the applied scaling, to map queries between the raw
/// and scaled coordinate systems.
struct ScalingInfo {
  std::vector<double> x_min, x_max;  ///< Empty when features not scaled.
  double u_min = 0.0, u_max = 1.0;   ///< Identity when output not scaled.
  bool features_scaled = false;
  bool output_scaled = false;
};

/// \brief A generated dataset plus its ground-truth function and scaling.
struct Dataset {
  storage::Table table;
  ScalingInfo scaling;
  std::shared_ptr<const DataFunction> function;

  explicit Dataset(size_t d) : table(d) {}

  /// Evaluates the ground-truth function at a *scaled* point (undoing the
  /// feature scaling, applying the output scaling). Noise-free.
  double GroundTruth(const std::vector<double>& x_scaled) const;
};

/// \brief Samples `config.n` uniform points from the function's domain.
util::Result<Dataset> GenerateDataset(std::shared_ptr<const DataFunction> function,
                                      const DatasetConfig& config);

/// \brief The paper's R1 stand-in: gas-sensor-like surface, d features,
/// everything scaled to [0,1], u-noise σ=0.01 of the output range.
util::Result<Dataset> MakeR1(size_t d, int64_t n, uint64_t seed);

/// \brief The paper's R2: Rosenbrock on [-10,10]^d with unit-scaled output
/// and N(0,1)-noised features (Section VI-A), each clamped to the domain,
/// output noise from the same spec.
util::Result<Dataset> MakeR2(size_t d, int64_t n, uint64_t seed);

}  // namespace data
}  // namespace qreg

#endif  // QREG_DATA_GENERATOR_H_

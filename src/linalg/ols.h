// Ordinary least squares: the exact multivariate linear regression used by
// the REG baseline (paper section VI) and inside the MARS/PLR baseline.
//
// Two paths are provided:
//  - OlsAccumulator: one-pass streaming accumulation of the moment matrix
//    [1 x]^T [1 x] and moment vector [1 x]^T u, each moment kept once. This
//    is how an in-DBMS aggregate would evaluate Q2 without materializing
//    the subspace.
//  - FitOls: batch fit from an explicit design, via QR (robust path).

#ifndef QREG_LINALG_OLS_H_
#define QREG_LINALG_OLS_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace qreg {
namespace linalg {

/// \brief A fitted linear model u ≈ intercept + slope · x with fit statistics.
struct OlsFit {
  double intercept = 0.0;
  std::vector<double> slope;

  int64_t n = 0;          ///< Number of observations used.
  double ssr = 0.0;       ///< Sum of squared residuals.
  double tss = 0.0;       ///< Total sum of squares around the mean of u.
  double u_mean = 0.0;    ///< Mean of the dependent variable.

  /// Fraction of Variance Unexplained s = SSR/TSS (paper section VI).
  /// Returns +inf when TSS == 0 and SSR > 0; 0 when both are 0.
  double FVU() const;

  /// Coefficient of determination R^2 = 1 - FVU.
  double CoD() const;

  /// Predicted value at x (x.size() must equal slope.size()).
  double Predict(const std::vector<double>& x) const;
};

/// \brief Streaming accumulator for OLS over d-dimensional inputs.
///
/// Accumulates sufficient statistics so that Solve() costs O(d^3) regardless
/// of how many points were added. Numerically appropriate for the unit-scaled
/// data qreg operates on.
class OlsAccumulator {
 public:
  explicit OlsAccumulator(size_t d);

  /// Adds one observation (x must have size d).
  void Add(const std::vector<double>& x, double u);

  /// Adds one observation from a raw pointer (x points at d doubles).
  void Add(const double* x, double u);

  /// Fused block update: adds the `count` selected lanes of a row-major
  /// candidate block (`xs` strided by dimension(), outputs in `us`, lane
  /// offsets in ascending `sel`). Arithmetic-identical to calling Add() on
  /// each selected lane in order — one indexed loop, no per-row dispatch.
  void AddBlock(const double* xs, const double* us, const int32_t* sel,
                int32_t count);

  /// Merges another accumulator of the same dimension (for partitioned scans).
  util::Status Merge(const OlsAccumulator& other);

  int64_t count() const { return n_; }
  size_t dimension() const { return d_; }

  /// Solves the normal equations; requires count() >= 1.
  ///
  /// With fewer observations than d+1 the system is rank-deficient: the
  /// regularized solver still returns the minimum-norm-ish solution, matching
  /// what an analyst gets from a tiny query ball.
  util::Result<OlsFit> Solve() const;

 private:
  size_t d_;
  int64_t n_ = 0;
  Matrix xtx_;                // (d+1)² moments of [1, x]; n goes at (0, 0).
  std::vector<double> xtu_;   // (d+1) moments of [1, x]^T u; [0] is Σu.
  double utu_ = 0.0;          // sum of u^2.
};

/// \brief Batch OLS (adds an intercept column) via Householder QR.
util::Result<OlsFit> FitOls(const Matrix& x, const std::vector<double>& u);

}  // namespace linalg
}  // namespace qreg

#endif  // QREG_LINALG_OLS_H_

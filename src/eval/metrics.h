// Evaluation metrics of Section VI: RMSE (predictability, A1/A2), Fraction
// of Variance Unexplained and Coefficient of Determination (goodness of
// fit).

#ifndef QREG_EVAL_METRICS_H_
#define QREG_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

namespace qreg {
namespace eval {

/// \brief Streaming RMSE accumulator.
class RmseAccumulator {
 public:
  void Add(double actual, double predicted) {
    const double e = actual - predicted;
    sse_ += e * e;
    ++n_;
  }

  int64_t count() const { return n_; }
  double Rmse() const;
  double Mse() const;

  void Reset() {
    sse_ = 0.0;
    n_ = 0;
  }

 private:
  double sse_ = 0.0;
  int64_t n_ = 0;
};

/// \brief Streaming FVU/CoD accumulator over (actual, predicted) pairs.
///
/// FVU s = SSR / TSS with TSS around the mean of the actuals; CoD = 1 - s.
/// A second pass is avoided by accumulating raw moments.
class FvuAccumulator {
 public:
  void Add(double actual, double predicted) {
    const double e = actual - predicted;
    ssr_ += e * e;
    sum_ += actual;
    sum_sq_ += actual * actual;
    ++n_;
  }

  int64_t count() const { return n_; }
  double Ssr() const { return ssr_; }
  double Tss() const;
  /// +inf if TSS == 0 with SSR > 0; 0 if both are 0.
  double Fvu() const;
  double CoD() const { return 1.0 - Fvu(); }

  void Reset() {
    ssr_ = sum_ = sum_sq_ = 0.0;
    n_ = 0;
  }

 private:
  double ssr_ = 0.0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  int64_t n_ = 0;
};

/// \brief RMSE over paired vectors (sizes must match).
double Rmse(const std::vector<double>& actual, const std::vector<double>& predicted);

/// \brief FVU over paired vectors.
double Fvu(const std::vector<double>& actual, const std::vector<double>& predicted);

/// \brief Arithmetic mean.
double Mean(const std::vector<double>& v);

/// \brief Sample percentile in [0,100] (linear interpolation, copies input).
double Percentile(std::vector<double> v, double pct);

}  // namespace eval
}  // namespace qreg

#endif  // QREG_EVAL_METRICS_H_

// Answer checks and accuracy metrics.
//
// Checks (any failure makes the run incorrect):
//   - every non-cache wire answer in the captured sample equals, bit for bit,
//     what an in-process QueryRouter with the same policy and the cache off
//     returns for the same request (model and exact answers do not depend on
//     the cache, so this holds on every workload);
//   - every captured exact Q1 answer equals a brute-force mean over the table,
//     with the same row count — the exact path is exact, not merely
//     consistent with itself;
//   - every cache-served answer has cache_delta ≥ δ_min (checked inline by
//     the load driver on every answer).
//
// Accuracy: q1_nrmse and q2_fvu over the served accuracy sample.

#ifndef QREG_PERFBENCH_CHECKS_H_
#define QREG_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/query_router.h"
#include "stack.h"
#include "util/status.h"
#include "workloads.h"

namespace qreg {
namespace perfbench {

struct CheckResult {
  int64_t compared = 0;      ///< Non-cache answers compared bit for bit.
  int64_t mismatched = 0;
  int64_t brute_checked = 0;  ///< Exact Q1 answers checked by brute force.
  int64_t brute_mismatched = 0;
  std::string first_error;

  bool ok() const { return mismatched == 0 && brute_mismatched == 0; }
};

CheckResult CheckCaptured(
    const ServiceStack& stack, const WorkloadSpec& spec,
    const std::vector<Item>& items,
    const std::vector<std::pair<size_t, service::Answer>>& captured);

struct Accuracy {
  /// RMSE of served Q1 answers against ExactEngine::MeanValue, divided by
  /// the standard deviation of the exact answers.
  double q1_nrmse = 0.0;
  /// Median over the sample of the paper's Q2 score s (mean per-piece FVU,
  /// eval::EvaluatePiecewiseFvuAt). The median, because per-query FVUs are
  /// heavy-tailed (a flat ball has a tiny total sum of squares).
  double q2_fvu = 0.0;
  int64_t q1_scored = 0;
  int64_t q2_scored = 0;
};

Accuracy ScoreAccuracy(const ServiceStack& stack, const std::vector<Item>& sample,
                       const std::vector<util::Result<service::Answer>>& served);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_CHECKS_H_

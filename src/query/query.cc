#include "query/query.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace qreg {
namespace query {

std::string Query::ToString() const {
  std::string out = "Q([";
  for (size_t i = 0; i < center.size(); ++i) {
    out += util::Format("%.4g", center[i]);
    if (i + 1 < center.size()) out += ", ";
  }
  out += util::Format("], θ=%.4g)", theta);
  return out;
}

double QueryDistanceSquared(const Query& a, const Query& b) {
  assert(a.dimension() == b.dimension());
  double s = 0.0;
  for (size_t i = 0; i < a.center.size(); ++i) {
    const double t = a.center[i] - b.center[i];
    s += t * t;
  }
  const double dt = a.theta - b.theta;
  return s + dt * dt;
}

double QueryDistance(const Query& a, const Query& b) {
  return std::sqrt(QueryDistanceSquared(a, b));
}

bool Overlaps(const Query& a, const Query& b, const storage::LpNorm& norm) {
  assert(a.dimension() == b.dimension());
  const double theta_sum = a.theta + b.theta;
  if (norm.kind() == storage::LpKind::kL2) {
    // Compare squared distances: the sqrt buys nothing for a threshold test
    // and this is the δ-cache's per-candidate hot path.
    return norm.Distance2(a.center.data(), b.center.data(), a.dimension()) <=
           theta_sum * theta_sum;
  }
  const double dist =
      norm.Distance(a.center.data(), b.center.data(), a.dimension());
  return dist <= theta_sum;
}

double DegreeOfOverlap(const Query& a, const Query& b) {
  assert(a.dimension() == b.dimension());
  return DegreeOfOverlapFromDistance2(
      storage::LpNorm::L2().Distance2(a.center.data(), b.center.data(),
                                      a.dimension()),
      a.theta, b.theta);
}

}  // namespace query
}  // namespace qreg

// Query model: q = [x, θ] (Definition 4), query-space distance
// (Definition 5), the overlap predicate A (Definition 6), and the degree of
// overlapping δ (Equation 9).

#ifndef QREG_QUERY_QUERY_H_
#define QREG_QUERY_QUERY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "storage/lp_norm.h"

namespace qreg {
namespace query {

/// \brief A dNN analytics query: ball of radius theta around center.
struct Query {
  std::vector<double> center;  ///< x in R^d
  double theta = 0.0;          ///< radius θ > 0

  Query() = default;
  Query(std::vector<double> c, double t) : center(std::move(c)), theta(t) {}

  size_t dimension() const { return center.size(); }

  std::string ToString() const;
};

/// Exact equality of [x, θ] vectors — the fast path of the service layer's
/// semantic answer cache (a repeated query is a trivially-admissible hit).
inline bool operator==(const Query& a, const Query& b) {
  return a.theta == b.theta && a.center == b.center;
}
inline bool operator!=(const Query& a, const Query& b) { return !(a == b); }

/// \brief Squared query-space distance ||x - x'||^2 + (θ-θ')^2
/// (Definition 5).
double QueryDistanceSquared(const Query& a, const Query& b);

/// \brief Query-space L2 distance.
double QueryDistance(const Query& a, const Query& b);

/// \brief Overlap predicate A(q, q'): the two balls intersect under `norm`
/// (Definition 6): ||x - x'||_p <= θ + θ'.
bool Overlaps(const Query& a, const Query& b,
              const storage::LpNorm& norm = storage::LpNorm::L2());

/// \brief Degree of overlapping δ(q, q') in [0, 1] (Equation 9):
/// 1 - max(||x - x'||_2, |θ - θ'|) / (θ + θ') when the balls overlap in L2,
/// else 0.
///
/// δ = 1 exactly for identical balls; δ -> 0 as the balls merely touch or as
/// one shrinks to nothing inside the other.
double DegreeOfOverlap(const Query& a, const Query& b);

/// \brief δ of Equation 9 for two balls of radii `theta_a`, `theta_b` whose
/// centres lie `center_d2` = ||x - x'||₂² apart: DegreeOfOverlap for callers
/// that already hold the squared centre distance (the model's prototype
/// sweep computes it once per prototype).
inline double DegreeOfOverlapFromDistance2(double center_d2, double theta_a,
                                           double theta_b) {
  const double theta_sum = theta_a + theta_b;
  if (!(center_d2 <= theta_sum * theta_sum) || theta_sum <= 0.0) return 0.0;
  const double ratio =
      std::max(std::sqrt(center_d2), std::fabs(theta_a - theta_b)) / theta_sum;
  return std::clamp(1.0 - ratio, 0.0, 1.0);
}

/// \brief A (query, answer) training pair streamed to the model (Figure 2).
struct QueryAnswer {
  Query q;
  double y = 0.0;  ///< Exact Q1 answer: average of u over D(x, θ).
};

}  // namespace query
}  // namespace qreg

#endif  // QREG_QUERY_QUERY_H_

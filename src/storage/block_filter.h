// Branch-free block-at-a-time Lp radius filters: the hot inner loop of every
// exact operator (Q1/Q2/Select are all radius scans, Definitions
// 2-5).
//
// A filter takes one contiguous candidate block of row-major feature rows,
// computes each row's distance measure against the query center with no
// per-row branches (the MonetDB/X100-style vectorized layout: a straight
// accumulation loop the compiler can unroll and vectorize, then a
// predicated selection-store pass), and emits the ascending lane indices of
// the rows inside the ball.
//
// Kernel selection happens ONCE per scan via SelectBlockFilter — never per
// row and never per block — so the p-dispatch and the compile-time
// dimension specialization are both hoisted out of the hot loop. For the
// common low dimensions the squared-L2/L1/LInf reductions are instantiated
// with a compile-time d, which lets the compiler fully unroll the
// coordinate loop.
//
// Accept decisions are arithmetic-identical to LpNorm::Within for every row
// (same coordinate order, same compare), so block scans select exactly the
// rows a per-row Within scan would.

#ifndef QREG_STORAGE_BLOCK_FILTER_H_
#define QREG_STORAGE_BLOCK_FILTER_H_

#include <cmath>
#include <cstdint>

#include "storage/lp_norm.h"

namespace qreg {
namespace storage {

/// \brief Candidate rows per block: big enough to amortize kernel dispatch
/// and fill the selection pipeline, small enough that the per-block scratch
/// (distances + selected lanes) stays L1-resident.
constexpr int32_t kScanBlockRows = 256;

/// \brief Filters one candidate block. `xs` points at `rows` row-major rows
/// of `d` doubles; `scratch` must hold >= rows doubles; `sel` must hold >=
/// rows lanes. Writes the ascending lane indices of in-ball rows into `sel`
/// and returns how many. `p` is only read by the generic-p kernel.
using BlockFilterFn = int32_t (*)(const double* xs, int32_t rows, size_t d,
                                  const double* center, double radius,
                                  double p, int32_t* sel, double* scratch);

/// \brief A per-scan resolved filter kernel (function pointer + the p the
/// generic kernel closes over).
struct BlockFilter {
  BlockFilterFn fn = nullptr;
  double p = 2.0;

  int32_t Run(const double* xs, int32_t rows, size_t d, const double* center,
              double radius, int32_t* sel, double* scratch) const {
    return fn(xs, rows, d, center, radius, p, sel, scratch);
  }
};

namespace block_filter_internal {

// Predicated selection-store: no data-dependent branch in the loop body, so
// the compiler emits a compare + conditional increment instead of a
// mispredict-prone branch per row.
inline int32_t CompactLeq(const double* measure, int32_t rows, double bound,
                          int32_t* sel) {
  int32_t count = 0;
  for (int32_t i = 0; i < rows; ++i) {
    sel[count] = i;
    count += measure[i] <= bound ? 1 : 0;
  }
  return count;
}

// Squared-L2 per-row reduction. KD > 0 fixes the dimension at compile time
// (fully unrolled); KD == 0 reads the runtime d.
template <int KD>
inline void Dist2Block(const double* xs, int32_t rows, size_t d,
                       const double* center, double* out) {
  const size_t dim = KD > 0 ? static_cast<size_t>(KD) : d;
  for (int32_t i = 0; i < rows; ++i) {
    const double* row = xs + static_cast<size_t>(i) * dim;
    double acc = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double t = row[j] - center[j];
      acc += t * t;
    }
    out[i] = acc;
  }
}

template <int KD>
inline void L1Block(const double* xs, int32_t rows, size_t d,
                    const double* center, double* out) {
  const size_t dim = KD > 0 ? static_cast<size_t>(KD) : d;
  for (int32_t i = 0; i < rows; ++i) {
    const double* row = xs + static_cast<size_t>(i) * dim;
    double acc = 0.0;
    for (size_t j = 0; j < dim; ++j) acc += std::fabs(row[j] - center[j]);
    out[i] = acc;
  }
}

template <int KD>
inline void LInfBlock(const double* xs, int32_t rows, size_t d,
                      const double* center, double* out) {
  const size_t dim = KD > 0 ? static_cast<size_t>(KD) : d;
  for (int32_t i = 0; i < rows; ++i) {
    const double* row = xs + static_cast<size_t>(i) * dim;
    double acc = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      acc = std::max(acc, std::fabs(row[j] - center[j]));
    }
    out[i] = acc;
  }
}

template <int KD>
inline int32_t FilterL2(const double* xs, int32_t rows, size_t d,
                        const double* center, double radius, double /*p*/,
                        int32_t* sel, double* scratch) {
  Dist2Block<KD>(xs, rows, d, center, scratch);
  return CompactLeq(scratch, rows, radius * radius, sel);
}

template <int KD>
inline int32_t FilterL1(const double* xs, int32_t rows, size_t d,
                        const double* center, double radius, double /*p*/,
                        int32_t* sel, double* scratch) {
  L1Block<KD>(xs, rows, d, center, scratch);
  return CompactLeq(scratch, rows, radius, sel);
}

template <int KD>
inline int32_t FilterLInf(const double* xs, int32_t rows, size_t d,
                          const double* center, double radius, double /*p*/,
                          int32_t* sel, double* scratch) {
  LInfBlock<KD>(xs, rows, d, center, scratch);
  return CompactLeq(scratch, rows, radius, sel);
}

// Generic p >= 1: same expression as LpNorm::Distance's generic path
// (pow-accumulate then the 1/p root), so the accept set matches Within.
inline int32_t FilterGeneric(const double* xs, int32_t rows, size_t d,
                             const double* center, double radius, double p,
                             int32_t* sel, double* scratch) {
  for (int32_t i = 0; i < rows; ++i) {
    const double* row = xs + static_cast<size_t>(i) * d;
    double acc = 0.0;
    for (size_t j = 0; j < d; ++j) {
      acc += std::pow(std::fabs(row[j] - center[j]), p);
    }
    scratch[i] = std::pow(acc, 1.0 / p);
  }
  return CompactLeq(scratch, rows, radius, sel);
}

// One row of the dispatch table: the KD-specialized instantiations of a
// norm's filter, indexed by min(d, table width).
template <template <int> class F>
inline BlockFilterFn Specialize(size_t d) {
  switch (d) {
    case 1: return F<1>::fn;
    case 2: return F<2>::fn;
    case 3: return F<3>::fn;
    case 4: return F<4>::fn;
    case 5: return F<5>::fn;
    case 6: return F<6>::fn;
    case 7: return F<7>::fn;
    case 8: return F<8>::fn;
    case 10: return F<10>::fn;
    case 12: return F<12>::fn;
    case 16: return F<16>::fn;
    default: return F<0>::fn;
  }
}

template <int KD> struct L2Table { static constexpr BlockFilterFn fn = &FilterL2<KD>; };
template <int KD> struct L1Table { static constexpr BlockFilterFn fn = &FilterL1<KD>; };
template <int KD> struct LInfTable { static constexpr BlockFilterFn fn = &FilterLInf<KD>; };

}  // namespace block_filter_internal

/// \brief Resolves the filter kernel for (norm, d) once per scan.
inline BlockFilter SelectBlockFilter(const LpNorm& norm, size_t d) {
  namespace bi = block_filter_internal;
  BlockFilter f;
  f.p = norm.p();
  switch (norm.kind()) {
    case LpKind::kL2:
      f.fn = bi::Specialize<bi::L2Table>(d);
      break;
    case LpKind::kL1:
      f.fn = bi::Specialize<bi::L1Table>(d);
      break;
    case LpKind::kLInf:
      f.fn = bi::Specialize<bi::LInfTable>(d);
      break;
    case LpKind::kGeneric:
      f.fn = &bi::FilterGeneric;
      break;
  }
  return f;
}

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_BLOCK_FILTER_H_

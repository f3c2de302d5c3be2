#include "storage/scan_index.h"

#include <algorithm>
#include <limits>

#include "storage/block_filter.h"

namespace qreg {
namespace storage {

namespace {

// The blocked scan core: filter kernel resolved once per call, then each
// kScanBlockRows-row block is distance-filtered branch-free and its
// selected lanes handed to the kernel in row order.
void BlockScanRange(const Table& table, int64_t begin, int64_t end,
                    const double* center, double radius, const LpNorm& norm,
                    BlockKernel* kernel, SelectionStats* stats) {
  const size_t d = table.dimension();
  const BlockFilter filter = SelectBlockFilter(norm, d);
  double scratch[kScanBlockRows];
  int32_t sel[kScanBlockRows];
  int64_t matched = 0;
  const double* us = table.u_column().data();
  for (int64_t b = begin; b < end; b += kScanBlockRows) {
    const int32_t rows =
        static_cast<int32_t>(std::min<int64_t>(kScanBlockRows, end - b));
    const double* xs = table.x(b);
    const int32_t count =
        filter.Run(xs, rows, d, center, radius, sel, scratch);
    matched += count;
    if (count > 0) {
      BlockSpan span;
      span.xs = xs;
      span.us = us + b;
      span.ids = nullptr;  // Scan ids are consecutive: id = b + lane.
      span.id_base = b;
      span.sel = sel;
      span.count = count;
      span.rows = rows;
      span.d = d;
      kernel->OnBlock(span);
    }
  }
  if (stats != nullptr) {
    stats->tuples_examined += end - begin;
    stats->tuples_matched += matched;
  }
}

// End of a plan's last range: the table's end at visit time, so a plan
// made before rows were appended still covers them.
constexpr int64_t kToTableEnd = std::numeric_limits<int64_t>::max();

}  // namespace

void ScanIndex::BlockVisitPartition(const ScanPartition& part,
                                    const double* center, double radius,
                                    const LpNorm& norm, BlockKernel* kernel,
                                    SelectionStats* stats) const {
  BlockScanRange(table_, part.begin, std::min(part.end, table_.num_rows()),
                 center, radius, norm, kernel, stats);
}

std::vector<ScanPartition> ScanIndex::MakePartitions(size_t target) const {
  const int64_t n = table_.num_rows();
  const int64_t parts = std::max<int64_t>(
      1, std::min<int64_t>(static_cast<int64_t>(std::max<size_t>(target, 1)), n));
  std::vector<ScanPartition> plan;
  plan.reserve(static_cast<size_t>(parts));
  const int64_t chunk = n / parts;
  int64_t begin = 0;
  for (int64_t i = 0; i < parts; ++i) {
    ScanPartition p;
    p.begin = begin;
    p.end = (i + 1 == parts) ? kToTableEnd : begin + chunk;
    begin = p.end;
    plan.push_back(p);
  }
  return plan;
}

}  // namespace storage
}  // namespace qreg

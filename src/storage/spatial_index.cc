#include "storage/spatial_index.h"

namespace qreg {
namespace storage {

void SpatialIndex::BlockVisit(const double* center, double radius,
                              const LpNorm& norm, BlockKernel* kernel,
                              SelectionStats* stats) const {
  for (const ScanPartition& part : MakePartitions(1)) {
    BlockVisitPartition(part, center, radius, norm, kernel, stats);
  }
}

}  // namespace storage
}  // namespace qreg

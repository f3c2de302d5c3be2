#include "storage/spatial_index.h"

namespace qreg {
namespace storage {

std::vector<int64_t> SpatialIndex::RadiusSearch(const double* center, double radius,
                                                const LpNorm& norm,
                                                SelectionStats* stats) const {
  std::vector<int64_t> ids;
  class Collect : public BlockKernel {
   public:
    explicit Collect(std::vector<int64_t>* out) : out_(out) {}
    void OnBlock(const BlockSpan& span) override {
      for (int32_t k = 0; k < span.count; ++k) out_->push_back(span.IdAt(k));
    }
   private:
    std::vector<int64_t>* out_;
  } collect(&ids);
  BlockVisit(center, radius, norm, &collect, stats);
  return ids;
}

}  // namespace storage
}  // namespace qreg

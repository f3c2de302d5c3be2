#include "query/exact_engine.h"

#include <algorithm>

#include "query/scan_kernels.h"
#include "util/run_chunks.h"
#include "util/timer.h"

namespace qreg {
namespace query {

namespace {

// Data-driven plan size: enough partitions to spread a big scan over many
// cores, few enough that per-partition setup stays negligible. Must not
// depend on the pool, so resizing the service never changes answers.
constexpr int64_t kRowsPerPartition = 8192;
constexpr int64_t kMaxPartitions = 64;

util::Status EmptySubspace() {
  return util::Status::NotFound("empty data subspace D(x, theta)");
}

// Admission-time check shared by the query paths: an index that no longer
// covers its table (rows appended after the build) fails with
// kFailedPrecondition, and an already expired/cancelled request returns its
// typed status. Either returns with zeroed (but timed) stats, before any
// partition is visited.
util::Status CheckAdmission(const storage::SpatialIndex& index,
                            const util::ExecControl* control, ExecStats* stats,
                            const util::Stopwatch& sw) {
  util::Status st;
  if (!index.CoversTable()) {
    st = util::Status::FailedPrecondition(
        "index '" + index.name() +
        "' does not cover rows appended to its table after it was built");
  } else if (control != nullptr) {
    st = control->Check();
  }
  if (!st.ok() && stats != nullptr) {
    *stats = ExecStats();
    stats->nanos = sw.ElapsedNanos();
  }
  return st;
}

// The plan size: the caller's target, else the data-driven default.
size_t PlanSize(const storage::Table& table, const ParallelOptions& parallel) {
  if (parallel.target_partitions > 0) return parallel.target_partitions;
  return static_cast<size_t>(std::max<int64_t>(
      1, std::min(kMaxPartitions, table.num_rows() / kRowsPerPartition)));
}

}  // namespace

ExactEngine::ExactEngine(const storage::Table& table,
                         const storage::SpatialIndex& index,
                         storage::LpNorm norm, ParallelOptions parallel)
    : table_(table),
      index_(index),
      norm_(norm),
      parallel_(parallel),
      plan_(index.MakePartitions(PlanSize(table, parallel))) {}

template <typename Kernel>
util::Status ExactEngine::Reduce(const Query& q, Kernel* total,
                                 ExecStats* stats,
                                 const util::ExecControl* control) const {
  util::Stopwatch sw;
  QREG_RETURN_NOT_OK(CheckAdmission(index_, control, stats, sw));
  // Every part starts as a copy of the still-zeroed total.
  std::vector<Kernel> parts(plan_.size(), *total);
  std::vector<storage::SelectionStats> part_sel(plan_.size());
  const util::ChunkRunResult run = util::RunChunks(
      parallel_.pool, plan_.size(),
      [this, &q, &parts, &part_sel](size_t i) {
        index_.BlockVisitPartition(plan_[i], q.center.data(), q.theta, norm_,
                                   &parts[i], &part_sel[i]);
      },
      control);
  storage::SelectionStats sel;
  for (size_t i = 0; i < plan_.size(); ++i) {  // Deterministic: plan order.
    total->Merge(parts[i]);
    sel.tuples_examined += part_sel[i].tuples_examined;
    sel.tuples_matched += part_sel[i].tuples_matched;
  }
  if (stats != nullptr) {
    stats->tuples_examined = sel.tuples_examined;
    stats->tuples_matched = sel.tuples_matched;
    stats->nanos = sw.ElapsedNanos();
    stats->chunks_completed = static_cast<int64_t>(run.executed);
    stats->chunks_total = static_cast<int64_t>(plan_.size());
  }
  return run.status;
}

util::Result<MeanValueResult> ExactEngine::MeanValue(
    const Query& q, ExecStats* stats, const util::ExecControl* control) const {
  SumBlockKernel total;
  QREG_RETURN_NOT_OK(Reduce(q, &total, stats, control));
  if (total.count() == 0) return EmptySubspace();
  MeanValueResult r;
  r.mean = total.sum() / static_cast<double>(total.count());
  r.count = total.count();
  return r;
}

util::Result<linalg::OlsFit> ExactEngine::Regression(
    const Query& q, ExecStats* stats, const util::ExecControl* control) const {
  util::Stopwatch sw;
  GramBlockKernel total(table_.dimension());
  QREG_RETURN_NOT_OK(Reduce(q, &total, stats, control));
  auto fit = total.acc().count() == 0
                 ? util::Result<linalg::OlsFit>(EmptySubspace())
                 : total.acc().Solve();
  if (stats != nullptr) stats->nanos = sw.ElapsedNanos();  // Incl. the solve.
  return fit;
}

util::Result<std::vector<int64_t>> ExactEngine::Select(
    const Query& q, ExecStats* stats, const util::ExecControl* control) const {
  CollectIdsBlockKernel total;
  QREG_RETURN_NOT_OK(Reduce(q, &total, stats, control));
  return total.TakeIds();
}

}  // namespace query
}  // namespace qreg

// Exact query evaluation over the storage engine: the ground truth the
// paper's model is trained from and compared against.
//
//  - Q1 (MeanValue): average of u over D(x, θ)          [Definition 4]
//  - Q2 (Regression): multivariate OLS over D(x, θ)     [the REG baseline]
//  - Select: the row ids of D(x, θ), for baselines that need raw points
//
// Every operator runs through one reduction routine (Reduce): the operator
// supplies its transition state — a fused block kernel from
// query/scan_kernels.h that owns its accumulator and can Merge a partial —
// and its final step (NotFound / the mean / the OLS solve); Reduce owns
// the scan. Execution is block-at-a-time: the access path streams
// filtered candidate blocks into the kernel, one virtual call per block,
// with the Lp filter kernel resolved once per scan. Nothing is
// materialized.
//
// Reduce has one path. It splits the selection into the engine's partition
// plan (computed once, from the data), gives each partition its own copy of
// the zeroed state (the MADlib-style transition state), runs the partitions
// through util::RunChunks — on the ThreadPool the engine was built with,
// inline without one — and merges the partials in plan order. The plan and
// the merge order depend only on the data, so an answer is bit-for-bit the
// same with or without a pool, at any worker count, and with or without a
// deadline or cancel token to honor. Scalar accumulators are
// Kahan-compensated; see scan_kernels.h for why determinism nevertheless
// comes from the plan-order merge, not the compensation.

#ifndef QREG_QUERY_EXACT_ENGINE_H_
#define QREG_QUERY_EXACT_ENGINE_H_

#include <cstdint>
#include <vector>

#include "linalg/ols.h"
#include "query/query.h"
#include "storage/spatial_index.h"
#include "storage/table.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qreg {
namespace query {

/// \brief Intra-query parallelism for the exact engine.
///
/// The answer is a pure function of the partition plan, never of the pool:
/// a null pool (or one with 0 workers) runs the same partitioned reduction
/// inline, bit-for-bit identical to any worker count.
struct ParallelOptions {
  /// Borrowed worker pool; must outlive the engine's use. Null runs
  /// partitions inline on the calling thread.
  util::ThreadPool* pool = nullptr;

  /// Partition-plan size passed to SpatialIndex::MakePartitions. 0 derives
  /// a data-driven default (~1 partition per 8192 rows, capped at 64) —
  /// deliberately independent of pool size so answers do not change when
  /// the service is resized.
  size_t target_partitions = 0;
};

/// \brief Execution statistics of one exact query. On a deadline/cancel
/// abort the tuple counters hold the *partial* work done before the trip,
/// and `chunks_completed < chunks_total` quantifies how far the scan got.
struct ExecStats {
  int64_t tuples_examined = 0;
  int64_t tuples_matched = 0;
  int64_t nanos = 0;
  int64_t chunks_completed = 0;  ///< Partition chunks fully executed.
  int64_t chunks_total = 0;      ///< Chunks in the plan (0 if not admitted).

  double millis() const { return static_cast<double>(nanos) / 1e6; }
};

/// \brief Result of an exact Q1 query.
struct MeanValueResult {
  double mean = 0.0;
  int64_t count = 0;  ///< n_θ(x): cardinality of the selected subspace.
};

/// \brief Exact Q1/Q2 executor over a table + access path.
class ExactEngine {
 public:
  /// Both referents (and `parallel.pool`, when set) must outlive the
  /// engine, which never owns the pool. The partition plan is computed here,
  /// once, not per query; the engine is immutable afterwards.
  ExactEngine(const storage::Table& table, const storage::SpatialIndex& index,
              storage::LpNorm norm = storage::LpNorm::L2(),
              ParallelOptions parallel = ParallelOptions());

  /// Q1: mean of u over D(x, θ). NotFound if the subspace is empty.
  /// FailedPrecondition, before any partition is visited, if the index no
  /// longer covers the table (SpatialIndex::CoversTable: rows were appended
  /// after a k-d tree was built). Same for every operator below.
  ///
  /// With a non-null `control`, the scan honors the request lifecycle: an
  /// already-expired deadline (or tripped token) returns the typed status
  /// without visiting any partition, and a mid-scan trip aborts within one
  /// chunk-claim, returning kDeadlineExceeded / kCancelled with the partial
  /// work recorded in `stats`. Checks happen per chunk of the partition
  /// plan, never per row, and never change the answer's bits. Same for
  /// Regression below.
  util::Result<MeanValueResult> MeanValue(
      const Query& q, ExecStats* stats = nullptr,
      const util::ExecControl* control = nullptr) const;

  /// Q2: OLS fit of u on x over D(x, θ) (the REG baseline).
  /// NotFound if the subspace is empty.
  util::Result<linalg::OlsFit> Regression(
      const Query& q, ExecStats* stats = nullptr,
      const util::ExecControl* control = nullptr) const;

  /// Row ids inside D(x, θ) (helper for baselines that need raw points).
  /// An empty subspace yields an empty vector, not NotFound. Honors the
  /// request lifecycle exactly like MeanValue: on a deadline/cancel trip the
  /// typed status returns within one chunk-claim with partial work in
  /// `stats` (the partially collected ids are discarded — a truncated
  /// selection is not a usable answer).
  util::Result<std::vector<int64_t>> Select(
      const Query& q, ExecStats* stats = nullptr,
      const util::ExecControl* control = nullptr) const;

  /// The partition plan every query runs.
  const std::vector<storage::ScanPartition>& PartitionPlan() const {
    return plan_;
  }

  const storage::Table& table() const { return table_; }
  const storage::SpatialIndex& index() const { return index_; }
  const storage::LpNorm& norm() const { return norm_; }

 private:
  /// The one scan loop behind every operator. `total` is the operator's
  /// zeroed transition state: a BlockKernel with `void Merge(const Kernel&)`.
  /// One copy of `total` per plan partition, run by util::RunChunks through
  /// BlockVisitPartition, merged into `total` in plan order. Fills `stats`
  /// and returns the admission or mid-scan lifecycle status.
  template <typename Kernel>
  util::Status Reduce(const Query& q, Kernel* total, ExecStats* stats,
                      const util::ExecControl* control) const;

  const storage::Table& table_;
  const storage::SpatialIndex& index_;
  const storage::LpNorm norm_;
  const ParallelOptions parallel_;
  const std::vector<storage::ScanPartition> plan_;
};

}  // namespace query
}  // namespace qreg

#endif  // QREG_QUERY_EXACT_ENGINE_H_

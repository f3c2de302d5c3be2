#include "query/exact_engine.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "query/scan_kernels.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
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

// Admission-time lifecycle check shared by the query paths: an already
// expired/cancelled request returns its typed status with zeroed (but
// timed) stats, before any partition is visited.
util::Status CheckAdmission(const util::ExecControl* control, ExecStats* stats,
                            const util::Stopwatch& sw) {
  if (control == nullptr) return util::Status::OK();
  util::Status st = control->Check();
  if (!st.ok() && stats != nullptr) {
    *stats = ExecStats();
    stats->nanos = sw.ElapsedNanos();
  }
  return st;
}

// Per-chunk lifecycle check (test hook first, then the real check) shared
// by the inline loop and the pooled Drain so their ordering never diverges.
util::Status CheckChunk(const util::ExecControl& control, size_t chunk) {
  if (control.on_chunk_for_testing) control.on_chunk_for_testing(chunk);
  return control.Check();
}

}  // namespace

std::vector<storage::ScanPartition> ExactEngine::PartitionPlan() const {
  size_t target = parallel_.target_partitions;
  if (target == 0) {
    target = static_cast<size_t>(std::max<int64_t>(
        1, std::min(kMaxPartitions, table_.num_rows() / kRowsPerPartition)));
  }
  return index_.MakePartitions(target);
}

namespace {

// Heap-shared chunk-claiming state: helper tasks hold a shared_ptr, so one
// that only gets scheduled after the query finished (its chunks all claimed
// by others) just observes an empty counter and exits — it never has to run
// before the caller may return, and never touches the caller's stack.
struct ChunkState {
  std::atomic<size_t> next{0};
  size_t chunks = 0;
  // Only dereferenced for a successfully claimed chunk, and every chunk is
  // claimed and finished before the owning RunChunks call returns.
  const std::function<void(size_t)>* body = nullptr;
  const util::ExecControl* control = nullptr;  // Null = no lifecycle checks.
  // First lifecycle failure wins: the exchange on `aborted` elects a single
  // writer for `abort_status`, and later claimants skip their bodies so the
  // remaining chunks drain in claim-counter time instead of scan time.
  std::atomic<bool> aborted{false};
  util::Status abort_status;
  std::atomic<size_t> executed{0};
  util::Mutex mu;
  util::CondVar cv;
  size_t completed QREG_GUARDED_BY(mu) = 0;

  void Drain() {
    size_t done_here = 0;
    for (size_t i = next.fetch_add(1); i < chunks; i = next.fetch_add(1)) {
      if (control != nullptr && !aborted.load(std::memory_order_acquire)) {
        util::Status st = CheckChunk(*control, i);
        if (!st.ok() && !aborted.exchange(true, std::memory_order_acq_rel)) {
          abort_status = std::move(st);
        }
      }
      if (!aborted.load(std::memory_order_acquire)) {
        (*body)(i);
        executed.fetch_add(1, std::memory_order_relaxed);
      }
      ++done_here;
    }
    if (done_here > 0) {
      util::MutexLock lock(&mu);
      completed += done_here;
      if (completed == chunks) cv.NotifyAll();
    }
  }
};

}  // namespace

ExactEngine::ChunkRunResult ExactEngine::RunChunks(
    size_t chunks, const std::function<void(size_t)>& body,
    const util::ExecControl* control) const {
  ChunkRunResult result;
  util::ThreadPool* pool = parallel_.pool;
  if (pool == nullptr || pool->num_threads() == 0 || chunks <= 1) {
    for (size_t i = 0; i < chunks; ++i) {
      if (control != nullptr) {
        util::Status st = CheckChunk(*control, i);
        if (!st.ok()) {
          result.status = std::move(st);
          return result;
        }
      }
      body(i);
      ++result.executed;
    }
    return result;
  }
  auto state = std::make_shared<ChunkState>();
  state->chunks = chunks;
  state->body = &body;
  state->control = control;
  const size_t helpers = std::min(pool->num_threads(), chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    // TrySubmit, never Submit: when the pool is saturated (e.g. this query
    // is itself running on a pool worker) the caller just keeps more chunks
    // for itself instead of risking a queue-full deadlock.
    if (!pool->TrySubmit([state] { state->Drain(); })) break;
  }
  // The caller always participates and the wait is on *chunk* completion,
  // not helper completion: progress never depends on a queued helper ever
  // being scheduled (it may sit behind other queries' tasks forever).
  state->Drain();
  {
    util::MutexLock lock(&state->mu);
    while (state->completed != state->chunks) state->cv.Wait(&state->mu);
  }
  result.executed = state->executed.load(std::memory_order_relaxed);
  if (state->aborted.load(std::memory_order_acquire)) {
    result.status = state->abort_status;
  }
  return result;
}

template <typename Kernel>
util::Status ExactEngine::Reduce(const Query& q, Kernel* total,
                                 ExecStats* stats,
                                 const util::ExecControl* control) const {
  util::Stopwatch sw;
  QREG_RETURN_NOT_OK(CheckAdmission(control, stats, sw));
  storage::SelectionStats sel;
  ChunkRunResult run;
  if (!parallel_enabled() && control == nullptr) {
    index_.BlockVisit(q.center.data(), q.theta, norm_, total, &sel);
  } else {
    const std::vector<storage::ScanPartition> plan = PartitionPlan();
    // Every part starts as a copy of the still-zeroed total.
    std::vector<Kernel> parts(plan.size(), *total);
    std::vector<storage::SelectionStats> part_sel(plan.size());
    run = RunChunks(
        plan.size(),
        [this, &q, &plan, &parts, &part_sel](size_t i) {
          index_.BlockVisitPartition(plan[i], q.center.data(), q.theta, norm_,
                                     &parts[i], &part_sel[i]);
        },
        control);
    for (size_t i = 0; i < plan.size(); ++i) {  // Deterministic: plan order.
      total->Merge(parts[i]);
      sel.tuples_examined += part_sel[i].tuples_examined;
      sel.tuples_matched += part_sel[i].tuples_matched;
    }
    if (stats != nullptr) {
      stats->chunks_completed = static_cast<int64_t>(run.executed);
      stats->chunks_total = static_cast<int64_t>(plan.size());
    }
  }
  if (stats != nullptr) {
    stats->tuples_examined = sel.tuples_examined;
    stats->tuples_matched = sel.tuples_matched;
    stats->nanos = sw.ElapsedNanos();
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

util::Result<MomentsResult> ExactEngine::Moments(
    const Query& q, ExecStats* stats, const util::ExecControl* control) const {
  MomentsBlockKernel total;
  QREG_RETURN_NOT_OK(Reduce(q, &total, stats, control));
  if (total.count() == 0) return EmptySubspace();
  MomentsResult r;
  r.count = total.count();
  r.mean = total.sum() / static_cast<double>(r.count);
  r.second_moment = total.sum_sq() / static_cast<double>(r.count);
  r.variance = std::max(0.0, r.second_moment - r.mean * r.mean);
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

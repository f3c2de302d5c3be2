// Fixed-size worker pool with a bounded MPMC task queue — the execution
// substrate of both the service layer's query router (inter-query
// parallelism) and the exact engine's partitioned scans (intra-query
// parallelism).
//
// Design points (following the in-RDBMS serving architectures the service
// layer is modeled on):
//   - bounded queue: a saturated pool applies backpressure at Submit()
//     (or declines via TrySubmit()) instead of buffering unboundedly;
//   - 0 workers = synchronous mode: Submit() runs the task on the calling
//     thread. This gives benches and tests a single-threaded baseline with
//     identical code paths.

#ifndef QREG_UTIL_THREAD_POOL_H_
#define QREG_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace qreg {
namespace util {

/// \brief Fixed-size worker pool over a bounded MPMC queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 means synchronous mode (tasks run on
  /// the submitting thread). `queue_capacity` bounds the number of queued,
  /// not-yet-running tasks; Submit blocks while the queue is full.
  explicit ThreadPool(size_t num_threads, size_t queue_capacity = 256);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains already-queued tasks, then joins all workers.
  ~ThreadPool();

  /// Enqueues a task, blocking while the queue is at capacity (backpressure).
  /// In synchronous mode the task runs inline before Submit returns.
  void Submit(std::function<void()> task);

  /// Enqueues without blocking; returns false if the queue is full (or the
  /// pool is shutting down). In synchronous mode runs inline, returns true.
  bool TrySubmit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// Tasks queued but not yet picked up by a worker (approximate).
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<std::function<void()>> queue_ QREG_GUARDED_BY(mu_);
  size_t capacity_;  // Const after construction.
  bool stop_ QREG_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // Const after construction.
};

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_THREAD_POOL_H_

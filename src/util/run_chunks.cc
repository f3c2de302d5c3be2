#include "util/run_chunks.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace qreg {
namespace util {

namespace {

// Per-chunk lifecycle check (test hook first, then the real check) shared
// by the inline loop and the pooled Drain so their ordering never diverges.
Status CheckChunk(const ExecControl& control, size_t chunk) {
  if (control.on_chunk_for_testing) control.on_chunk_for_testing(chunk);
  return control.Check();
}

// Heap-shared chunk-claiming state: helper tasks hold a shared_ptr, so one
// that only gets scheduled after the run finished (its chunks all claimed
// by others) just observes an empty counter and exits — it never has to run
// before the caller may return, and never touches the caller's stack.
struct ChunkState {
  std::atomic<size_t> next{0};
  size_t chunks = 0;
  // Only dereferenced for a successfully claimed chunk, and every chunk is
  // claimed and finished before the owning RunChunks call returns.
  const std::function<void(size_t)>* body = nullptr;
  const ExecControl* control = nullptr;  // Null = no lifecycle checks.
  // First lifecycle failure wins: the exchange on `aborted` elects a single
  // writer for `abort_status`, and later claimants skip their bodies so the
  // remaining chunks drain in claim-counter time instead of body time.
  std::atomic<bool> aborted{false};
  Status abort_status;
  std::atomic<size_t> executed{0};
  Mutex mu;
  CondVar cv;
  size_t completed QREG_GUARDED_BY(mu) = 0;

  void Drain() {
    size_t done_here = 0;
    for (size_t i = next.fetch_add(1); i < chunks; i = next.fetch_add(1)) {
      if (control != nullptr && !aborted.load(std::memory_order_acquire)) {
        Status st = CheckChunk(*control, i);
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
      MutexLock lock(&mu);
      completed += done_here;
      if (completed == chunks) cv.NotifyAll();
    }
  }
};

}  // namespace

ChunkRunResult RunChunks(ThreadPool* pool, size_t chunks,
                         const std::function<void(size_t)>& body,
                         const ExecControl* control) {
  ChunkRunResult result;
  if (pool == nullptr || pool->num_threads() == 0 || chunks <= 1) {
    for (size_t i = 0; i < chunks; ++i) {
      if (control != nullptr) {
        Status st = CheckChunk(*control, i);
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
    // TrySubmit, never Submit: when the pool is saturated (e.g. this run is
    // itself executing on a pool worker) the caller just keeps more chunks
    // for itself instead of risking a queue-full deadlock.
    if (!pool->TrySubmit([state] { state->Drain(); })) break;
  }
  // The caller always participates and the wait is on *chunk* completion,
  // not helper completion: progress never depends on a queued helper ever
  // being scheduled (it may sit behind other runs' tasks forever).
  state->Drain();
  {
    MutexLock lock(&state->mu);
    while (state->completed != state->chunks) state->cv.Wait(&state->mu);
  }
  result.executed = state->executed.load(std::memory_order_relaxed);
  if (state->aborted.load(std::memory_order_acquire)) {
    result.status = state->abort_status;
  }
  return result;
}

}  // namespace util
}  // namespace qreg

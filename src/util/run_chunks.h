// The one chunk-claim loop of the codebase: runs `body(i)` for every i in
// [0, chunks) on a ThreadPool, with the calling thread participating. The
// exact engine uses it for a query's scan partitions (intra-query
// parallelism); the trainer uses it for a lookahead window of independent
// training scans and the query router for a batch's requests (inter-query
// parallelism).
//
// Pool workers help through an atomic claim counter and the caller always
// participates, so nesting on a shared pool (a chunk that itself calls
// RunChunks) degrades to inline execution instead of deadlocking. Helpers are
// only ever offered with TrySubmit: a saturated pool makes the caller keep
// more chunks for itself, never blocks it.

#ifndef QREG_UTIL_RUN_CHUNKS_H_
#define QREG_UTIL_RUN_CHUNKS_H_

#include <cstddef>
#include <functional>

#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qreg {
namespace util {

/// \brief Outcome of a chunked run: how many chunks executed their body, and
/// the lifecycle status that aborted the run (OK when it ran to completion).
struct ChunkRunResult {
  size_t executed = 0;
  Status status;
};

/// Runs `body(i)` for every i in [0, chunks). A null pool, a 0-worker pool or
/// a single chunk runs inline on the caller, in index order.
///
/// With a non-null `control`, its on_chunk_for_testing hook and then its
/// Check() run before each chunk's body; on failure the remaining chunks are
/// claimed-and-skipped (a fast drain, not a hard stop) and the failing status
/// is returned. Returns only after every chunk was claimed and finished.
ChunkRunResult RunChunks(ThreadPool* pool, size_t chunks,
                         const std::function<void(size_t)>& body,
                         const ExecControl* control);

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_RUN_CHUNKS_H_

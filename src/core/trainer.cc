#include "core/trainer.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/run_chunks.h"
#include "util/timer.h"

namespace qreg {
namespace core {

namespace {

// W: queries answered per lookahead window. Large enough that the per-window
// join is rare next to the scans it overlaps, small enough that the at most
// W - 1 scans wasted when training converges mid-window stay cheap.
constexpr int64_t kLookahead = 256;

// Answers the upcoming queries of the caller's stream before they are used.
// Queries are drawn from a private copy of the stream, a window at a time,
// and each is answered with MeanValue(q) through util::RunChunks
// (one chunk per query) on `pool` plus the calling thread. Take() hands them
// out in stream order and advances the caller's stream by one Next() per
// query taken, so it ends where the serial draw-then-scan loop leaves it.
// Without pool workers the window is one query wide: the serial loop itself.
class LookaheadWindow {
 public:
  struct Slot {
    query::Query q;
    util::Status status;  // MeanValue's status; OK = `answer` is valid.
    query::MeanValueResult answer;
    int64_t scan_nanos = 0;  // This query's own scan time.
  };

  LookaheadWindow(const query::ExactEngine& engine,
                  query::WorkloadGenerator* stream, util::ThreadPool* pool)
      : engine_(engine),
        stream_(stream),
        ahead_(*stream),
        pool_(pool),
        width_(pool != nullptr && pool->num_threads() > 0 ? kLookahead : 1) {}

  // Takes the stream's next query. When the answered window is used up,
  // first draws min(width, budget) more queries and answers them; `budget`
  // >= 1 is the most queries the caller may still take. The slot stays
  // valid until the next Take().
  const Slot& Take(int64_t budget) {
    if (next_ == window_.size()) Fill(std::clamp<int64_t>(budget, 1, width_));
    const Slot& slot = window_[next_++];
    const query::Query taken = stream_->Next();
    assert(taken == slot.q && "caller's stream diverged from the lookahead");
    (void)taken;
    return slot;
  }

 private:
  void Fill(int64_t count) {
    window_.clear();
    for (int64_t i = 0; i < count; ++i) {
      window_.push_back({ahead_.Next(), {}, {}, 0});
    }
    util::RunChunks(
        pool_, window_.size(),
        [this](size_t i) {
          Slot& slot = window_[i];
          util::Stopwatch sw;
          auto mean = engine_.MeanValue(slot.q);
          slot.scan_nanos = sw.ElapsedNanos();
          if (mean.ok()) {
            slot.answer = *mean;
          } else {
            slot.status = mean.status();
          }
        },
        nullptr);
    next_ = 0;
  }

  const query::ExactEngine& engine_;
  query::WorkloadGenerator* stream_;
  query::WorkloadGenerator ahead_;  // Runs ahead of *stream_ by the window.
  util::ThreadPool* pool_;
  const int64_t width_;
  std::vector<Slot> window_;
  size_t next_ = 0;  // Index in window_ of the slot Take() returns next.
};

}  // namespace

util::Result<TrainingReport> Trainer::Train(query::WorkloadGenerator* workload,
                                            LlmModel* model,
                                            util::ThreadPool* pool) const {
  if (workload == nullptr || model == nullptr) {
    return util::Status::InvalidArgument("null workload or model");
  }
  TrainingReport report;
  util::Stopwatch sw;
  LookaheadWindow window(engine_, workload, pool);

  while (report.pairs_used < config_.max_pairs) {
    // Every query drawn ahead can still become a pair, so a window never
    // reaches past the remaining pair budget.
    const LookaheadWindow::Slot& slot =
        window.Take(config_.max_pairs - report.pairs_used);
    report.query_exec_nanos += slot.scan_nanos;

    if (!slot.status.ok()) {
      // Empty subspace: the DBMS returns NULL; nothing to learn from.
      if (slot.status.code() == util::StatusCode::kNotFound) {
        ++report.pairs_skipped;
        continue;
      }
      // A failed precondition (an index that no longer covers its table)
      // fails every query alike: skipping them would never reach the pair
      // budget.
      return slot.status;
    }

    sw.Restart();
    QREG_ASSIGN_OR_RETURN(TrainStep step,
                          model->Observe(slot.q, slot.answer.mean));
    (void)step;
    report.model_update_nanos += sw.ElapsedNanos();
    ++report.pairs_used;

    if (config_.trace_every > 0 && report.pairs_used % config_.trace_every == 0) {
      report.gamma_trace.emplace_back(report.pairs_used, model->CurrentGamma());
    }
    if (report.pairs_used >= config_.min_pairs && model->HasConverged()) {
      report.converged = true;
      break;
    }
  }

  report.final_gamma = model->CurrentGamma();
  report.num_prototypes = model->num_prototypes();
  if (report.converged) model->Freeze();  // Algorithm 1 stops learning.
  return report;
}

util::Result<TrainingReport> Trainer::TrainFromPairs(
    const std::vector<query::QueryAnswer>& pairs, LlmModel* model) const {
  if (model == nullptr) return util::Status::InvalidArgument("null model");
  TrainingReport report;
  util::Stopwatch sw;
  for (const query::QueryAnswer& pair : pairs) {
    if (report.pairs_used >= config_.max_pairs) break;
    sw.Restart();
    QREG_ASSIGN_OR_RETURN(TrainStep step, model->Observe(pair.q, pair.y));
    (void)step;
    report.model_update_nanos += sw.ElapsedNanos();
    ++report.pairs_used;
    if (config_.trace_every > 0 && report.pairs_used % config_.trace_every == 0) {
      report.gamma_trace.emplace_back(report.pairs_used, model->CurrentGamma());
    }
    if (report.pairs_used >= config_.min_pairs && model->HasConverged()) {
      report.converged = true;
      break;
    }
  }
  report.final_gamma = model->CurrentGamma();
  report.num_prototypes = model->num_prototypes();
  if (report.converged) model->Freeze();  // Algorithm 1 stops learning.
  return report;
}

}  // namespace core
}  // namespace qreg

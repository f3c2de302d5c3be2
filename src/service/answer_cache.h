// δ-overlap semantic answer cache: the paper's degree-of-overlapping δ
// (Equation 9) promoted from a prediction weight to a serving-layer
// cache-admission predicate.
//
// A cached (query, answer) pair answers a new query q when the two query
// balls overlap (Definition 6) AND their overlap degree δ(q, q') meets the
// configured δ_min. δ = 1 only for identical balls and decays toward 0 as
// the balls drift apart, so δ_min directly trades answer staleness-in-space
// for hit rate: δ_min = 1 caches only exact repeats; δ_min → 0 admits any
// overlapping neighbour.
//
// Concurrency & lookup cost:
//   - Entries live in per-key *groups* (the router keys by
//     "dataset/g<N>/kind"), evicted LRU per group.
//   - One writer-preferring reader-writer lock (util::SharedMutex) guards
//     every group: Lookup and size() share it, Insert and
//     EraseGroupsWithPrefix hold it exclusively and edit groups in place.
//     Only exact answers are admitted, so each insert follows a scan that
//     costs 10²–10³ times the insert. A hit stamps the entry's atomic LRU
//     ticket; the writer evicts the minimum stamp (exact LRU). Counters are
//     relaxed atomics, exact under any interleaving.
//   - Within a group, cached query centers are bucketed on a uniform grid.
//     Admission requires ||x - x'|| ≤ (1 - δ_min)(θ + θ'), so a lookup only
//     probes the cells within that radius, and takes the linear probe when
//     the cell fan-out would exceed the group size (small groups, high d).
//     Both paths admit the same entry: the highest δ, ties to the newest.
//
// All operations are thread-safe.

#ifndef QREG_SERVICE_ANSWER_CACHE_H_
#define QREG_SERVICE_ANSWER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/prototype.h"
#include "query/query.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace qreg {
namespace service {

/// \brief Cache sizing and admission parameters.
struct AnswerCacheConfig {
  /// Max cached answers per group (dataset × query kind). LRU beyond this.
  /// (Named for shards the cache no longer has; benchmarks set it by name.)
  size_t capacity_per_shard = 512;

  /// Minimum degree of overlapping δ(q, q') (Eq. 9) for a cached answer to
  /// be reused. In [0, 1].
  double delta_min = 0.9;

  /// Probe the grid of cached query centers inside each group. Disable to
  /// force the linear δ-probe (the correctness baseline).
  bool enable_grid = true;
};

/// \brief The reusable payload of one cached answer (Q1 scalar and/or the
/// Q2 list S of local linear models).
struct CachedAnswer {
  query::Query q;      ///< The query that produced this answer.
  double mean = 0.0;   ///< Q1 payload.
  std::vector<core::LocalLinearModel> pieces;  ///< Q2 payload.
  double delta = 1.0;  ///< δ(probe, q) of the admitting lookup (output only).
};

/// \brief Monotonic hit/miss/evict counters.
struct AnswerCacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;
  int64_t grid_probes = 0;    ///< Lookups served by the grid path.
  int64_t linear_probes = 0;  ///< Lookups served by the linear path.

  double HitRate() const {
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                       : 0.0;
  }
};

/// \brief Thread-safe LRU cache with δ-overlap admission; reads share one
/// reader-writer lock.
class AnswerCache {
 public:
  explicit AnswerCache(AnswerCacheConfig config);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Probes the group for the cached query with the highest δ(q, ·) ≥ δ_min
  /// among overlapping entries. On a hit fills `*out` (with `out->delta` set
  /// to the achieved overlap degree), touches the entry's LRU stamp, and
  /// returns true. Takes the reader lock.
  bool Lookup(const std::string& group, const query::Query& q,
              CachedAnswer* out) QREG_EXCLUDES(mu_);

  /// Caches an answer, evicting the group's least-recently-used entry beyond
  /// capacity. A second insert with an identical query replaces the previous
  /// answer.
  void Insert(const std::string& group, CachedAnswer answer) QREG_EXCLUDES(mu_);

  /// Erases every group whose key starts with `group_prefix` and returns the
  /// number of cached entries dropped. The router uses this to invalidate a
  /// dataset's answers after a drift retrain: cache keys carry the model
  /// generation ("dataset/g<N>/kind"), so a generation swap already stops
  /// stale entries from being served — this reclaims their memory.
  size_t EraseGroupsWithPrefix(const std::string& group_prefix)
      QREG_EXCLUDES(mu_);

  AnswerCacheStats stats() const;
  size_t size() const QREG_EXCLUDES(mu_);  ///< Total entries across groups.

 private:
  /// One cached answer plus its LRU stamp. Edited only under the writer
  /// lock, except `last_used`, which readers stamp on a hit.
  struct Entry {
    CachedAnswer answer;
    uint64_t seq;    // Insert ticket: the newest insert wins δ ties.
    uint64_t cell;   // CellHash of the center.
    size_t index;    // Position in Group::entries (swap-and-pop erase).
    mutable std::atomic<uint64_t> last_used;

    Entry(CachedAnswer a, uint64_t stamp, uint64_t cell_hash, size_t at)
        : answer(std::move(a)), seq(stamp), cell(cell_hash), index(at),
          last_used(stamp) {}
  };

  /// One group's entries, unordered, plus the grid over their centers. The
  /// grid is kept even with `enable_grid` off, where it only finds an
  /// insert's exact duplicate. Hash collisions merely merge cells: extra
  /// candidates, never missed ones.
  struct Group {
    std::vector<std::unique_ptr<Entry>> entries;
    std::unordered_map<uint64_t, std::vector<const Entry*>> grid;
    double cell = 0.0;       // Cell edge length; 0 until the first insert.
    double theta_max = 0.0;  // Largest cached θ (bounds the probe radius).
  };

  /// Best admissible entry of `g` (grid or linear probe), or null. Sets
  /// *delta_out and *used_grid (whether the grid path answered).
  const Entry* FindBest(const Group& g, const query::Query& q,
                        double* delta_out, bool* used_grid) const;
  /// Drops `e` from `g`'s entries and grid, freeing it.
  static void Erase(Group* g, const Entry& e);
  /// Folds `e` into the running best (*best, *best_delta): the highest
  /// δ ≥ δ_min, ties to the newest insert, so the answer does not depend on
  /// probe order. Returns true on an exact repeat (δ = 1, nothing beats it).
  static bool Consider(const Entry* e, const query::Query& q, double delta_min,
                       const Entry** best, double* best_delta);

  AnswerCacheConfig config_;

  mutable util::SharedMutex mu_;
  std::unordered_map<std::string, Group> groups_ QREG_GUARDED_BY(mu_);
  size_t size_ QREG_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> ticket_{1};  // LRU clock shared with readers.
  std::atomic<int64_t> lookups_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> grid_probes_{0};
  std::atomic<int64_t> linear_probes_{0};
};

}  // namespace service
}  // namespace qreg

#endif  // QREG_SERVICE_ANSWER_CACHE_H_

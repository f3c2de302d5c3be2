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
//   - Entries live in per-key *groups* (the router keys by "dataset/kind"),
//     evicted LRU per group; groups are hashed over `num_shards` shards.
//   - Reads are wait-free: each shard epoch-publishes an immutable snapshot
//     of its groups (entries + per-group probe grid). Lookup loads the
//     current snapshot with one atomic acquire, probes it without taking
//     any lock, and records the LRU touch as an atomic ticket stamp on the
//     hit entry. A concurrent writer can only swing the snapshot pointer to
//     a *new* fully-built snapshot, so readers never observe a torn entry —
//     there is nothing to retry and nothing to block on.
//   - Writers (Insert / EraseGroupsWithPrefix / Clear) still serialize on
//     the shard mutex, copy-on-write the touched group, and publish the
//     next snapshot generation with one atomic release store. Entry handles
//     are raw pointers, so the copy is two flat copies (handles and probe
//     grid) with no per-entry refcount traffic. An insert edits the copied
//     grid in place — at most three binary-searched slot edits (replaced
//     entry, LRU victim, new entry) — and finds an exact-duplicate query
//     through the new entry's grid cell rather than an O(group) scan. That
//     matters: a churning hot-spot workload writes on ~40% of its requests,
//     so writers share the shard mutex far more often than a write-light
//     workload would.
//   - Entries are owned by the lineage of group snapshots. When a writer
//     publishes the successor of group snapshot S, S takes ownership of the
//     one entry the successor dropped (the replaced duplicate or the LRU
//     victim) and a reference to the successor; the entries S shares with
//     later snapshots are owned further down the chain, which S keeps
//     alive. A snapshot with no successor (the current one, or an erased
//     or cleared group) owns all of its entries. So a reader's snapshot
//     keeps every entry it can reach alive, as shared entry handles did —
//     but those cost an atomic increment per entry on every copy and a
//     decrement per entry when the old snapshot died (1,024 of each per
//     insert into a full group, on cache lines the executors share, under
//     the shard mutex); now an insert touches no refcount but the
//     snapshots'. Chains are released iteratively, so a reader stalled
//     across 100k inserts cannot overflow the stack when it lets go.
//   - Hit/miss/insert counters are per-shard atomics, so they stay exact
//     under any reader/writer interleaving.
//   - Within a group, cached query centers are bucketed on a uniform grid,
//     kept as a flat vector of slots sorted by cell hash. Since admission
//     requires ||x - x'|| ≤ (1 - δ_min)(θ + θ'), a lookup only probes the
//     grid cells within that radius — one binary search per cell instead of
//     O(group) — and falls back to the linear probe whenever the cell
//     fan-out would exceed the group size (small groups, high d). Both
//     paths admit exactly the same entries.
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
  size_t capacity_per_shard = 512;

  /// Minimum degree of overlapping δ(q, q') (Eq. 9) for a cached answer to
  /// be reused. In [0, 1].
  double delta_min = 0.9;

  /// Lock shards the groups are hashed over. More shards = less contention
  /// between datasets/kinds; clamped to at least 1.
  size_t num_shards = 8;

  /// Spatial grid bucketing of cached query centers inside each group.
  /// Disable to force the linear δ-probe (the correctness baseline).
  bool enable_grid = true;

  /// Grid lookups probing more than this many cells fall back to the linear
  /// probe (the grid only pays off when cells hold few entries each).
  size_t max_grid_cells = 64;
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

/// \brief Thread-safe sharded LRU cache with δ-overlap admission and
/// wait-free (mutex-less) reads.
class AnswerCache {
 public:
  explicit AnswerCache(AnswerCacheConfig config);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Probes the group for the cached query with the highest δ(q, ·) ≥ δ_min
  /// among overlapping entries. On a hit fills `*out` (with `out->delta` set
  /// to the achieved overlap degree), touches the entry's LRU stamp, and
  /// returns true. Takes no mutex: reads run against the shard's current
  /// immutable snapshot.
  bool Lookup(const std::string& group, const query::Query& q,
              CachedAnswer* out);

  /// Caches an answer, evicting the group's least-recently-used entry beyond
  /// capacity. A second insert with an identical query replaces the previous
  /// answer.
  void Insert(const std::string& group, CachedAnswer answer);

  void Clear();

  /// Erases every group whose key starts with `group_prefix` and returns the
  /// number of cached entries dropped. The router uses this to invalidate a
  /// dataset's answers after a drift retrain: cache keys carry the model
  /// generation ("dataset/g<N>/kind"), so a generation swap already stops
  /// stale entries from being served — this reclaims their memory. A lookup
  /// concurrent with the erase may still serve the snapshot it already
  /// loaded (the usual epoch-reclamation semantics).
  size_t EraseGroupsWithPrefix(const std::string& group_prefix);

  AnswerCacheStats stats() const;  ///< Aggregated over all shards.
  size_t size() const;             ///< Total entries across groups.

  const AnswerCacheConfig& config() const { return config_; }

  /// Test-only: the current snapshot of `group`'s shard, held the way a
  /// reader holds it for the length of a Lookup. Every entry that snapshot
  /// reaches stays alive until the handle is dropped.
  std::shared_ptr<const void> pin_for_testing(const std::string& group) const;
  /// Test-only: Lookup against a handle from pin_for_testing instead of the
  /// shard's current snapshot (counters and LRU stamps as in Lookup).
  bool LookupPinnedForTesting(const std::shared_ptr<const void>& pin,
                              const std::string& group, const query::Query& q,
                              CachedAnswer* out);
  /// Test-only: cached entries alive in this process, over every cache and
  /// every snapshot still held.
  static int64_t live_entries_for_testing();

 private:
  /// One immutable cached entry plus its mutable LRU ticket. Entries are
  /// shared between consecutive snapshots, so a reader's ticket stamp is
  /// visible to the writer that picks the eviction victim.
  struct Entry {
    CachedAnswer answer;
    const uint64_t seq;  // Insert ticket: orders a group newest-first.
    mutable std::atomic<uint64_t> last_used;

    Entry(CachedAnswer a, uint64_t stamp)
        : answer(std::move(a)), seq(stamp), last_used(stamp) {
      live_entries_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Entry() { live_entries_.fetch_sub(1, std::memory_order_relaxed); }
  };

  /// One probe-grid slot: an entry filed under the hash of its center's
  /// cell. `e` is one of the same snapshot's entries; every writer that
  /// drops an entry also erases its slot.
  struct Slot {
    uint64_t cell;  // CellHash of the entry's center.
    uint64_t seq;   // Entry::seq.
    const Entry* e;

    /// Grid order: cell ascending, then newest insert first within a cell.
    bool operator<(const Slot& o) const {
      return cell != o.cell ? cell < o.cell : seq > o.seq;
    }
  };

  struct GroupSnapshot;
  /// Frees a group snapshot once its last reference goes. Releasing a
  /// snapshot releases its successor, so nested releases are queued and
  /// freed in a loop by the outermost call on the thread.
  struct GroupDeleter {
    void operator()(const GroupSnapshot* g) const;
  };
  using GroupPtr = std::shared_ptr<const GroupSnapshot>;

  /// Immutable per-group state: entries newest-insert-first (descending
  /// seq) plus the probe grid over entry centers, a flat slot vector sorted
  /// by cell hash ascending, then seq descending. A cell is one contiguous
  /// run walked in the same order as `entries`; hash collisions merely merge
  /// cells — extra candidates, never missed ones.
  struct GroupSnapshot {
    std::vector<const Entry*> entries;
    std::vector<Slot> grid;  // Empty while the grid is disabled.
    double cell = 0.0;       // Cell edge length; 0 until the first insert.
    double theta_max = 0.0;  // Largest cached θ (bounds the probe radius).

    // Lineage links, set once under the shard mutex when a writer publishes
    // this group's successor (readers never look at them): the successor
    // itself, and the one entry it dropped, which this snapshot now owns.
    mutable GroupPtr successor;
    mutable const Entry* retired = nullptr;
    mutable const GroupSnapshot* next_dead = nullptr;  // GroupDeleter queue.

    GroupSnapshot() = default;
    GroupSnapshot(const GroupSnapshot&) = delete;
    GroupSnapshot& operator=(const GroupSnapshot&) = delete;
    ~GroupSnapshot();
  };

  struct ShardSnapshot {
    std::unordered_map<std::string, GroupPtr> groups;
  };
  using SnapshotPtr = std::shared_ptr<const ShardSnapshot>;

  struct Shard {
    util::Mutex mu;  // Serializes writers only.
    // Epoch-published via std::atomic_load/store: readers probe the current
    // snapshot without `mu` by design (the wait-free read path above), so
    // the pointer is deliberately *not* GUARDED_BY(mu) — writers hold `mu`
    // only to serialize the copy-on-write against other writers.
    SnapshotPtr snap;
    std::atomic<uint64_t> ticket{1};  // LRU clock shared with readers.
    std::atomic<int64_t> size{0};
    std::atomic<int64_t> lookups{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> inserts{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> grid_probes{0};
    std::atomic<int64_t> linear_probes{0};
  };

  Shard& ShardFor(const std::string& group) const;

  /// Lookup against `snap` (null = empty shard); the caller keeps it alive.
  bool LookupIn(Shard& shard, const ShardSnapshot* snap,
                const std::string& group, const query::Query& q,
                CachedAnswer* out);

  uint64_t CellHash(const double* center, size_t d, double cell) const;
  /// Grid edits of a writer's private group copy: one binary search plus
  /// one vector insert/erase each. No-ops while the grid is disabled.
  void AddSlot(GroupSnapshot* g, const Entry& e) const;
  void EraseSlot(GroupSnapshot* g, const Entry& e) const;

  /// Best admissible entry of an immutable group snapshot, or null. Sets
  /// *delta_out and *used_grid (whether the grid path answered). The caller
  /// keeps the snapshot alive for the duration.
  const Entry* FindBest(const GroupSnapshot& g, const query::Query& q,
                        double* delta_out, bool* used_grid) const;
  const Entry* LinearProbe(const GroupSnapshot& g, const query::Query& q,
                           double* delta_out) const;

  AnswerCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;  // Fixed size after ctor.

  static std::atomic<int64_t> live_entries_;  // Entry objects, process-wide.
};

}  // namespace service
}  // namespace qreg

#endif  // QREG_SERVICE_ANSWER_CACHE_H_

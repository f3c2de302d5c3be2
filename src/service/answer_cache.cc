#include "service/answer_cache.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

namespace qreg {
namespace service {

namespace {

// splitmix64: cheap avalanche for combining quantized cell coordinates.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

inline int64_t CellCoord(double x, double cell) {
  return static_cast<int64_t>(std::floor(x / cell));
}

}  // namespace

std::atomic<int64_t> AnswerCache::live_entries_{0};

AnswerCache::GroupSnapshot::~GroupSnapshot() {
  // The lineage head owns every entry it holds; an older snapshot owns only
  // the entry its successor dropped (the rest are owned further down the
  // chain, which `successor` keeps alive until this point).
  if (successor == nullptr) {
    for (const Entry* e : entries) delete e;
  }
  delete retired;
}

void AnswerCache::GroupDeleter::operator()(const GroupSnapshot* g) const {
  // A reader stalled on an old snapshot can hold a chain as long as the
  // inserts published meanwhile; deleting one link releases the next, so a
  // plain recursive release would run the stack out. Releases nested inside
  // a delete only queue their snapshot; the outermost call frees the queue.
  thread_local const GroupSnapshot* pending = nullptr;
  thread_local bool draining = false;
  g->next_dead = pending;
  pending = g;
  if (draining) return;
  draining = true;
  while (pending != nullptr) {
    const GroupSnapshot* p = pending;
    pending = p->next_dead;
    delete p;
  }
  draining = false;
}

AnswerCache::AnswerCache(AnswerCacheConfig config) : config_(config) {
  config_.delta_min = std::min(1.0, std::max(0.0, config_.delta_min));
  if (config_.capacity_per_shard == 0) config_.capacity_per_shard = 1;
  if (config_.num_shards == 0) config_.num_shards = 1;
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

AnswerCache::Shard& AnswerCache::ShardFor(const std::string& group) const {
  return *shards_[std::hash<std::string>{}(group) % shards_.size()];
}

uint64_t AnswerCache::CellHash(const double* center, size_t d, double cell) const {
  uint64_t h = 0xcbf29ce484222325ULL ^ d;
  for (size_t j = 0; j < d; ++j) {
    h = Mix(h, static_cast<uint64_t>(CellCoord(center[j], cell)));
  }
  return h;
}

void AnswerCache::AddSlot(GroupSnapshot* g, const Entry& e) const {
  if (g->cell <= 0.0) return;
  const query::Query& q = e.answer.q;
  const Slot s{CellHash(q.center.data(), q.dimension(), g->cell), e.seq, &e};
  g->grid.insert(std::lower_bound(g->grid.begin(), g->grid.end(), s), s);
}

void AnswerCache::EraseSlot(GroupSnapshot* g, const Entry& e) const {
  if (g->cell <= 0.0) return;
  const query::Query& q = e.answer.q;
  const Slot s{CellHash(q.center.data(), q.dimension(), g->cell), e.seq, &e};
  // Seq is unique per shard, so (cell, seq) pins exactly this entry's slot.
  g->grid.erase(std::lower_bound(g->grid.begin(), g->grid.end(), s));
}

const AnswerCache::Entry* AnswerCache::LinearProbe(const GroupSnapshot& g,
                                                   const query::Query& q,
                                                   double* delta_out) const {
  const Entry* best = nullptr;
  double best_delta = 0.0;
  for (const Entry* e : g.entries) {
    const query::Query& eq = e->answer.q;
    if (eq.dimension() != q.dimension()) continue;
    if (eq == q) {  // Exact repeat: δ = 1, nothing can beat it.
      *delta_out = 1.0;
      return e;
    }
    if (!query::Overlaps(q, eq)) continue;  // Predicate A (Definition 6).
    const double delta = query::DegreeOfOverlap(q, eq);  // Equation 9.
    if (delta >= config_.delta_min && delta > best_delta) {
      best = e;
      best_delta = delta;
    }
  }
  *delta_out = best_delta;
  return best;
}

const AnswerCache::Entry* AnswerCache::FindBest(const GroupSnapshot& g,
                                                const query::Query& q,
                                                double* delta_out,
                                                bool* used_grid) const {
  *used_grid = false;
  const size_t d = q.dimension();
  if (!config_.enable_grid || g.cell <= 0.0 || d == 0) {
    return LinearProbe(g, q, delta_out);
  }

  // Any admissible entry satisfies ||x - x'|| ≤ (1 - δ_min)(θ + θ') — with
  // θ' bounded by the group's θ_max — so only cells within that radius can
  // hold a hit. Count the cell fan-out first; if it beats a straight scan
  // of the group (small groups, large d), the linear probe wins.
  const double radius = (1.0 - config_.delta_min) * (q.theta + g.theta_max);
  std::vector<int64_t> lo(d), hi(d);
  size_t cells = 1;
  for (size_t j = 0; j < d; ++j) {
    lo[j] = CellCoord(q.center[j] - radius, g.cell);
    hi[j] = CellCoord(q.center[j] + radius, g.cell);
    const uint64_t span = static_cast<uint64_t>(hi[j] - lo[j]) + 1;
    if (span > config_.max_grid_cells) return LinearProbe(g, q, delta_out);
    cells *= static_cast<size_t>(span);
    if (cells > config_.max_grid_cells) return LinearProbe(g, q, delta_out);
  }
  if (cells >= g.entries.size()) {
    return LinearProbe(g, q, delta_out);
  }
  *used_grid = true;

  const Entry* best = nullptr;
  double best_delta = 0.0;
  std::vector<int64_t> coord = lo;
  for (;;) {
    uint64_t h = 0xcbf29ce484222325ULL ^ d;
    for (size_t j = 0; j < d; ++j) h = Mix(h, static_cast<uint64_t>(coord[j]));
    // The cell's run of slots, newest insert first.
    for (auto it = std::lower_bound(
             g.grid.begin(), g.grid.end(), h,
             [](const Slot& s, uint64_t cell) { return s.cell < cell; });
         it != g.grid.end() && it->cell == h; ++it) {
      const Entry* e = it->e;
      const query::Query& eq = e->answer.q;
      if (eq.dimension() != d) continue;
      if (eq == q) {
        *delta_out = 1.0;
        return e;
      }
      if (!query::Overlaps(q, eq)) continue;
      const double delta = query::DegreeOfOverlap(q, eq);
      if (delta >= config_.delta_min && delta > best_delta) {
        best = e;
        best_delta = delta;
      }
    }
    // Odometer over the cell box.
    size_t j = 0;
    for (; j < d; ++j) {
      if (++coord[j] <= hi[j]) break;
      coord[j] = lo[j];
    }
    if (j == d) break;
  }
  *delta_out = best_delta;
  return best;
}

bool AnswerCache::Lookup(const std::string& group_key, const query::Query& q,
                         CachedAnswer* out) {
  Shard& shard = ShardFor(group_key);
  // The whole read runs against this immutable snapshot; holding the
  // shared_ptr keeps every entry it reaches alive even if writers publish
  // (or erase) newer generations meanwhile.
  const SnapshotPtr snap =
      std::atomic_load_explicit(&shard.snap, std::memory_order_acquire);
  return LookupIn(shard, snap.get(), group_key, q, out);
}

bool AnswerCache::LookupIn(Shard& shard, const ShardSnapshot* snap,
                           const std::string& group_key, const query::Query& q,
                           CachedAnswer* out) {
  shard.lookups.fetch_add(1, std::memory_order_relaxed);
  const GroupSnapshot* g = nullptr;
  if (snap != nullptr) {
    auto it = snap->groups.find(group_key);
    if (it != snap->groups.end()) g = it->second.get();
  }
  if (g == nullptr) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  double best_delta = 0.0;
  bool used_grid = false;
  const Entry* best = FindBest(*g, q, &best_delta, &used_grid);
  (used_grid ? shard.grid_probes : shard.linear_probes)
      .fetch_add(1, std::memory_order_relaxed);
  if (best == nullptr) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  if (out != nullptr) {
    *out = best->answer;
    out->delta = best_delta;
  }
  // LRU touch: a monotone ticket stamp on the (snapshot-shared) entry, so
  // writers pick eviction victims by minimum stamp. Replaces the list
  // splice of the locked design — readers mutate nothing structural.
  best->last_used.store(shard.ticket.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return true;
}

void AnswerCache::Insert(const std::string& group_key, CachedAnswer answer) {
  Shard& shard = ShardFor(group_key);
  util::MutexLock lock(&shard.mu);
  const SnapshotPtr cur =
      std::atomic_load_explicit(&shard.snap, std::memory_order_acquire);

  auto next = std::make_shared<ShardSnapshot>();
  if (cur != nullptr) next->groups = cur->groups;  // Other groups shared.

  // The successor group is built in `g`, but its entry handles stay in the
  // local `entries` until nothing can throw any more: a snapshot owns the
  // entries it holds, so it must not hold borrowed ones while it could
  // still be destroyed unpublished.
  std::unique_ptr<GroupSnapshot> g(new GroupSnapshot);
  const GroupSnapshot* old = nullptr;
  auto old_it = next->groups.find(group_key);
  if (old_it != next->groups.end()) {
    old = old_it->second.get();
    g->grid = old->grid;  // One flat copy; edited in place below.
    g->cell = old->cell;
    g->theta_max = old->theta_max;
  }
  const std::vector<const Entry*> no_entries;
  const std::vector<const Entry*>& prev = old != nullptr ? old->entries : no_entries;

  if (config_.enable_grid && g->cell <= 0.0) {
    // Cell edge fixed from the first cached ball: matches the typical probe
    // radius (1 - δ_min)·2θ so hits probe O(3^d ∩ max_grid_cells) cells.
    double base = (1.0 - config_.delta_min) * 2.0 * answer.q.theta;
    if (base <= 1e-12) base = answer.q.theta;
    if (base <= 1e-12) base = 1.0;
    g->cell = base;
  }
  g->theta_max = std::max(g->theta_max, answer.q.theta);

  const uint64_t stamp = shard.ticket.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<const Entry> fresh(new Entry(std::move(answer), stamp));
  const query::Query& fq = fresh->answer.q;

  // Replace an exact-duplicate query (keeps the group canonical). An
  // identical center has an identical cell hash, so the duplicate, if any,
  // sits in the new entry's grid run; only a grid-less group needs the
  // O(group) scan.
  const Entry* dropped = nullptr;
  if (g->cell > 0.0) {
    const uint64_t h = CellHash(fq.center.data(), fq.dimension(), g->cell);
    for (auto it = std::lower_bound(
             g->grid.begin(), g->grid.end(), h,
             [](const Slot& s, uint64_t cell) { return s.cell < cell; });
         it != g->grid.end() && it->cell == h; ++it) {
      if (it->e->answer.q == fq) {
        dropped = it->e;
        g->grid.erase(it);
        break;
      }
    }
  } else {
    for (const Entry* e : prev) {
      if (e->answer.q == fq) {
        dropped = e;
        break;
      }
    }
  }
  bool evicted = false;
  if (dropped == nullptr) {
    shard.size.fetch_add(1, std::memory_order_relaxed);
    shard.inserts.fetch_add(1, std::memory_order_relaxed);
    if (prev.size() + 1 > config_.capacity_per_shard) {
      // Evict the minimum LRU stamp: exact LRU, since every insert and
      // every hit draws a fresh monotone ticket (the new entry's is the
      // newest, so only the old entries compete).
      dropped = prev[0];
      uint64_t victim_stamp = dropped->last_used.load(std::memory_order_relaxed);
      for (size_t i = 1; i < prev.size(); ++i) {
        const uint64_t s = prev[i]->last_used.load(std::memory_order_relaxed);
        if (s < victim_stamp) {
          victim_stamp = s;
          dropped = prev[i];
        }
      }
      EraseSlot(g.get(), *dropped);
      evicted = true;
      shard.size.fetch_sub(1, std::memory_order_relaxed);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Newest first: the new entry, then the old ones (already in descending
  // seq) minus the dropped one, located by binary search on seq.
  std::vector<const Entry*> entries;
  entries.reserve(prev.size() + 1);
  entries.push_back(fresh.get());
  auto cut = prev.end();
  if (dropped != nullptr) {
    cut = std::lower_bound(prev.begin(), prev.end(), dropped->seq,
                           [](const Entry* e, uint64_t seq) { return e->seq > seq; });
  }
  entries.insert(entries.end(), prev.begin(), cut);
  if (cut != prev.end()) entries.insert(entries.end(), cut + 1, prev.end());

  // Don't let one evicted large-θ outlier pin the probe radius (and with it
  // the grid fallback) forever: re-derive the maximum when it leaves.
  if (evicted && dropped->answer.q.theta >= g->theta_max) {
    g->theta_max = 0.0;
    for (const Entry* e : entries) {
      g->theta_max = std::max(g->theta_max, e->answer.q.theta);
    }
  }
  AddSlot(g.get(), *fresh);

  GroupSnapshot* const built = g.get();
  GroupPtr published(g.release(), GroupDeleter());
  next->groups[group_key] = published;

  // Nothing below allocates or throws: the new snapshot takes its entries
  // (the fresh one included), the old one its dropped entry and successor.
  built->entries = std::move(entries);
  built->entries.front() = fresh.release();
  if (old != nullptr) {
    old->retired = dropped;
    old->successor = std::move(published);
  }
  std::atomic_store_explicit(&shard.snap, SnapshotPtr(std::move(next)),
                             std::memory_order_release);
}

size_t AnswerCache::EraseGroupsWithPrefix(const std::string& group_prefix) {
  size_t erased = 0;
  for (auto& shard : shards_) {
    util::MutexLock lock(&shard->mu);
    const SnapshotPtr cur =
        std::atomic_load_explicit(&shard->snap, std::memory_order_acquire);
    if (cur == nullptr) continue;
    size_t erased_here = 0;
    auto next = std::make_shared<ShardSnapshot>();
    for (const auto& kv : cur->groups) {
      if (kv.first.compare(0, group_prefix.size(), group_prefix) == 0) {
        erased_here += kv.second->entries.size();
      } else {
        next->groups.insert(kv);
      }
    }
    if (erased_here == 0) continue;
    shard->size.fetch_sub(static_cast<int64_t>(erased_here),
                          std::memory_order_relaxed);
    erased += erased_here;
    std::atomic_store_explicit(&shard->snap, SnapshotPtr(std::move(next)),
                               std::memory_order_release);
  }
  return erased;
}

void AnswerCache::Clear() {
  for (auto& shard : shards_) {
    util::MutexLock lock(&shard->mu);
    std::atomic_store_explicit(&shard->snap, SnapshotPtr(),
                               std::memory_order_release);
    shard->size.store(0, std::memory_order_relaxed);
  }
}

std::shared_ptr<const void> AnswerCache::pin_for_testing(
    const std::string& group) const {
  return std::atomic_load_explicit(&ShardFor(group).snap,
                                   std::memory_order_acquire);
}

bool AnswerCache::LookupPinnedForTesting(const std::shared_ptr<const void>& pin,
                                         const std::string& group,
                                         const query::Query& q,
                                         CachedAnswer* out) {
  return LookupIn(ShardFor(group), static_cast<const ShardSnapshot*>(pin.get()),
                  group, q, out);
}

int64_t AnswerCache::live_entries_for_testing() {
  return live_entries_.load(std::memory_order_relaxed);
}

AnswerCacheStats AnswerCache::stats() const {
  AnswerCacheStats total;
  for (const auto& shard : shards_) {
    total.lookups += shard->lookups.load(std::memory_order_relaxed);
    total.hits += shard->hits.load(std::memory_order_relaxed);
    total.misses += shard->misses.load(std::memory_order_relaxed);
    total.inserts += shard->inserts.load(std::memory_order_relaxed);
    total.evictions += shard->evictions.load(std::memory_order_relaxed);
    total.grid_probes += shard->grid_probes.load(std::memory_order_relaxed);
    total.linear_probes += shard->linear_probes.load(std::memory_order_relaxed);
  }
  return total;
}

size_t AnswerCache::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->size.load(std::memory_order_relaxed);
  }
  return static_cast<size_t>(total);
}

}  // namespace service
}  // namespace qreg

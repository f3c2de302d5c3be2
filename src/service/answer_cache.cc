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
  size_t probed = 0;
  for (const EntryPtr& e : g.entries) {
    if (config_.max_probe > 0 && probed >= config_.max_probe) break;
    ++probed;
    const query::Query& eq = e->answer.q;
    if (eq.dimension() != q.dimension()) continue;
    if (eq == q) {  // Exact repeat: δ = 1, nothing can beat it.
      *delta_out = 1.0;
      return e.get();
    }
    if (!query::Overlaps(q, eq)) continue;  // Predicate A (Definition 6).
    const double delta = query::DegreeOfOverlap(q, eq);  // Equation 9.
    if (delta >= config_.delta_min && delta > best_delta) {
      best = e.get();
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
  size_t probed = 0;
  std::vector<int64_t> coord = lo;
  for (;;) {
    uint64_t h = 0xcbf29ce484222325ULL ^ d;
    for (size_t j = 0; j < d; ++j) h = Mix(h, static_cast<uint64_t>(coord[j]));
    // The cell's run of slots, newest insert first.
    for (auto it = std::lower_bound(
             g.grid.begin(), g.grid.end(), h,
             [](const Slot& s, uint64_t cell) { return s.cell < cell; });
         it != g.grid.end() && it->cell == h; ++it) {
      if (config_.max_probe > 0 && probed >= config_.max_probe) break;
      ++probed;
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
  shard.lookups.fetch_add(1, std::memory_order_relaxed);
  // The whole read runs against this immutable snapshot; holding the
  // shared_ptr keeps every entry alive even if writers publish (or erase)
  // newer generations meanwhile.
  const SnapshotPtr snap =
      std::atomic_load_explicit(&shard.snap, std::memory_order_acquire);
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

  auto g = std::make_shared<GroupSnapshot>();
  auto old_it = next->groups.find(group_key);
  if (old_it != next->groups.end()) {
    const GroupSnapshot& old = *old_it->second;
    g->entries = old.entries;  // Pointer-sized copies; entries are shared.
    g->grid = old.grid;        // One flat copy; edited in place below.
    g->cell = old.cell;
    g->theta_max = old.theta_max;
  }

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
  auto entry = std::make_shared<const Entry>(std::move(answer), stamp);

  // Replace an exact-duplicate query in place (keeps the group canonical).
  // Writers own the group copy, so a plain scan over ≤ capacity entries is
  // fine here — the grid only accelerates the reader path.
  bool replaced = false;
  for (size_t i = 0; i < g->entries.size(); ++i) {
    if (g->entries[i]->answer.q == entry->answer.q) {
      EraseSlot(g.get(), *g->entries[i]);
      g->entries.erase(g->entries.begin() + static_cast<int64_t>(i));
      g->entries.insert(g->entries.begin(), entry);
      replaced = true;
      break;
    }
  }
  if (!replaced) {
    g->entries.insert(g->entries.begin(), entry);
    shard.size.fetch_add(1, std::memory_order_relaxed);
    shard.inserts.fetch_add(1, std::memory_order_relaxed);
    if (g->entries.size() > config_.capacity_per_shard) {
      // Evict the minimum LRU stamp: exact LRU, since every insert and
      // every hit draws a fresh monotone ticket.
      size_t victim = 0;
      uint64_t victim_stamp = g->entries[0]->last_used.load(std::memory_order_relaxed);
      for (size_t i = 1; i < g->entries.size(); ++i) {
        const uint64_t s = g->entries[i]->last_used.load(std::memory_order_relaxed);
        if (s < victim_stamp) {
          victim_stamp = s;
          victim = i;
        }
      }
      const double victim_theta = g->entries[victim]->answer.q.theta;
      EraseSlot(g.get(), *g->entries[victim]);
      g->entries.erase(g->entries.begin() + static_cast<int64_t>(victim));
      shard.size.fetch_sub(1, std::memory_order_relaxed);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
      // Don't let one evicted large-θ outlier pin the probe radius (and with
      // it the grid fallback) forever: re-derive the maximum when it leaves.
      if (victim_theta >= g->theta_max) {
        g->theta_max = 0.0;
        for (const EntryPtr& e : g->entries) {
          g->theta_max = std::max(g->theta_max, e->answer.q.theta);
        }
      }
    }
  }
  AddSlot(g.get(), *entry);

  next->groups[group_key] = std::move(g);
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

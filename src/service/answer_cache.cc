#include "service/answer_cache.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qreg {
namespace service {

namespace {

// Grid lookups probing more than this many cells fall back to the linear
// probe (the grid only pays off when cells hold few entries each).
constexpr size_t kMaxGridCells = 64;

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

uint64_t CellHash(const double* center, size_t d, double cell) {
  uint64_t h = 0xcbf29ce484222325ULL ^ d;
  for (size_t j = 0; j < d; ++j) {
    h = Mix(h, static_cast<uint64_t>(CellCoord(center[j], cell)));
  }
  return h;
}

}  // namespace

AnswerCache::AnswerCache(AnswerCacheConfig config) : config_(config) {
  config_.delta_min = std::min(1.0, std::max(0.0, config_.delta_min));
  if (config_.capacity_per_shard == 0) config_.capacity_per_shard = 1;
}

bool AnswerCache::Consider(const Entry* e, const query::Query& q,
                           double delta_min, const Entry** best,
                           double* best_delta) {
  const query::Query& eq = e->answer.q;
  if (eq.dimension() != q.dimension()) return false;
  if (eq == q) {  // Exact repeat: δ = 1, nothing can beat it.
    *best = e;
    *best_delta = 1.0;
    return true;
  }
  if (!query::Overlaps(q, eq)) return false;  // Predicate A (Definition 6).
  const double delta = query::DegreeOfOverlap(q, eq);  // Equation 9.
  if (delta >= delta_min &&
      (delta > *best_delta ||
       (*best != nullptr && delta == *best_delta && e->seq > (*best)->seq))) {
    *best = e;
    *best_delta = delta;
  }
  return false;
}

const AnswerCache::Entry* AnswerCache::FindBest(const Group& g,
                                                const query::Query& q,
                                                double* delta_out,
                                                bool* used_grid) const {
  const Entry* best = nullptr;
  *delta_out = 0.0;
  *used_grid = false;
  auto linear_probe = [&] {
    for (const auto& e : g.entries) {
      if (Consider(e.get(), q, config_.delta_min, &best, delta_out)) break;
    }
    return best;
  };
  const size_t d = q.dimension();
  if (!config_.enable_grid || d == 0) return linear_probe();

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
    if (span > kMaxGridCells) return linear_probe();
    cells *= static_cast<size_t>(span);
    if (cells > kMaxGridCells) return linear_probe();
  }
  if (cells >= g.entries.size()) return linear_probe();
  *used_grid = true;

  std::vector<int64_t> coord = lo;
  for (;;) {
    uint64_t h = 0xcbf29ce484222325ULL ^ d;
    for (size_t j = 0; j < d; ++j) h = Mix(h, static_cast<uint64_t>(coord[j]));
    auto it = g.grid.find(h);
    if (it != g.grid.end()) {
      for (const Entry* e : it->second) {
        if (Consider(e, q, config_.delta_min, &best, delta_out)) return best;
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
  return best;
}

bool AnswerCache::Lookup(const std::string& group_key, const query::Query& q,
                         CachedAnswer* out) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  util::ReaderLock lock(&mu_);
  auto it = groups_.find(group_key);
  if (it == groups_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  double best_delta = 0.0;
  bool used_grid = false;
  const Entry* best = FindBest(it->second, q, &best_delta, &used_grid);
  (used_grid ? grid_probes_ : linear_probes_)
      .fetch_add(1, std::memory_order_relaxed);
  if (best == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (out != nullptr) {
    *out = best->answer;
    out->delta = best_delta;
  }
  // LRU touch: a monotone ticket stamp on the entry, so the writer picks
  // eviction victims by minimum stamp while readers share the lock.
  best->last_used.store(ticket_.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return true;
}

void AnswerCache::Erase(Group* g, const Entry& e) {
  auto it = g->grid.find(e.cell);
  std::vector<const Entry*>& run = it->second;
  *std::find(run.begin(), run.end(), &e) = run.back();
  run.pop_back();
  if (run.empty()) g->grid.erase(it);
  const size_t i = e.index;
  g->entries[i] = std::move(g->entries.back());  // Frees e unless it is last.
  g->entries[i]->index = i;
  g->entries.pop_back();
}

void AnswerCache::Insert(const std::string& group_key, CachedAnswer answer) {
  util::WriterLock lock(&mu_);
  Group& g = groups_[group_key];
  const double theta = answer.q.theta;
  if (g.cell <= 0.0) {
    // Cell edge fixed from the first cached ball: matches the typical probe
    // radius (1 - δ_min)·2θ so hits probe O(3^d ∩ kMaxGridCells) cells.
    g.cell = (1.0 - config_.delta_min) * 2.0 * theta;
    if (g.cell <= 1e-12) g.cell = theta > 1e-12 ? theta : 1.0;
  }
  g.theta_max = std::max(g.theta_max, theta);
  const uint64_t cell =
      CellHash(answer.q.center.data(), answer.q.dimension(), g.cell);
  const uint64_t stamp = ticket_.fetch_add(1, std::memory_order_relaxed);

  // Replace an exact-duplicate query in place (keeps the group canonical).
  // An identical center has an identical cell hash, so only the new
  // entry's cell can hold it.
  Entry* dup = nullptr;
  auto run = g.grid.find(cell);
  if (run != g.grid.end()) {
    for (const Entry* e : run->second) {
      if (e->answer.q == answer.q) dup = g.entries[e->index].get();
    }
  }
  if (dup != nullptr) {
    dup->answer = std::move(answer);
    dup->seq = stamp;
    dup->last_used.store(stamp, std::memory_order_relaxed);
    return;
  }

  inserts_.fetch_add(1, std::memory_order_relaxed);
  bool rederive_theta = false;
  if (g.entries.size() >= config_.capacity_per_shard) {
    // Evict the minimum LRU stamp: exact LRU, since every insert and every
    // hit draws a fresh monotone ticket.
    const Entry* victim = g.entries[0].get();
    uint64_t victim_stamp = victim->last_used.load(std::memory_order_relaxed);
    for (const auto& e : g.entries) {
      const uint64_t s = e->last_used.load(std::memory_order_relaxed);
      if (s < victim_stamp) {
        victim_stamp = s;
        victim = e.get();
      }
    }
    // Don't let one evicted large-θ outlier pin the probe radius (and with
    // it the grid fallback) forever: re-derive the maximum when it leaves.
    rederive_theta = victim->answer.q.theta >= g.theta_max;
    Erase(&g, *victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++size_;
  }
  g.entries.push_back(
      std::make_unique<Entry>(std::move(answer), stamp, cell, g.entries.size()));
  g.grid[cell].push_back(g.entries.back().get());
  if (rederive_theta) {
    g.theta_max = 0.0;
    for (const auto& e : g.entries) {
      g.theta_max = std::max(g.theta_max, e->answer.q.theta);
    }
  }
}

size_t AnswerCache::EraseGroupsWithPrefix(const std::string& group_prefix) {
  util::WriterLock lock(&mu_);
  size_t erased = 0;
  for (auto it = groups_.begin(); it != groups_.end();) {
    if (it->first.compare(0, group_prefix.size(), group_prefix) == 0) {
      erased += it->second.entries.size();
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
  size_ -= erased;
  return erased;
}

AnswerCacheStats AnswerCache::stats() const {
  return {lookups_.load(),   hits_.load(),        misses_.load(),
          inserts_.load(),   evictions_.load(),   grid_probes_.load(),
          linear_probes_.load()};
}

size_t AnswerCache::size() const {
  util::ReaderLock lock(&mu_);
  return size_;
}

}  // namespace service
}  // namespace qreg

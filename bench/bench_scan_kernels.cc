// Scan-kernel throughput: per-row type-erased dispatch vs the block-at-a-time
// kernel pipeline, plus the AnswerCache read- and write-path micro-benches.
//
// Part 1 — scan kernels. For every (d, selectivity) cell the bench runs a
// full-table radius scan two ways over the same data and the same
// selectivity-calibrated L2 ball:
//   - rowvisitor: the legacy per-row hot loop, local to this bench —
//     LpNorm::Within with its early-exit branch, one std::function call per
//     matching row (kept here as the measured baseline);
//   - blockvisit: ScanIndex::BlockVisit streaming 256-row blocks through the
//     branch-free filter into a fused SumBlockKernel.
// Reported as rows/sec (candidate rows examined per wall second).
//
// Part 2 — cache read path. N reader threads hammer AnswerCache::Lookup
// (shared reader lock) on a warm 64-entry group; in the second cell of each
// reader count one more thread meanwhile inserts fresh queries into a full
// 1,024-entry group of the same cache (writer lock, one eviction each).
// Reports lookups/s and inserts/s: whether the lock starves the writer or
// stalls the readers.
//
// Part 3 — cache write path. One group is filled to a given occupancy, then
// churned by cache_churn-like traffic (jittered hot spots, d = 2, θ ≈ 0.1,
// δ_min = 0.93): lookup, and insert on a miss. Reports ns per insert, ns per
// lookup and the hit rate — the cache probe cost vs δ-cache occupancy. The
// identical operation sequence is replayed through an enable_grid = false
// twin (the linear correctness baseline), whose timings are reported beside.
//
// Part 4 — contained subtrees. R1 at d = 2 with 300,000 rows, θ ∈ {0.05,
// 0.1, 0.2}: the kd-tree engine's serial MeanValue and Regression µs per
// query, and per query how many rows were summarised (taken from subtrees
// inside the ball) vs filtered (boundary-leaf rows run through the block
// filter), counted by a bench-local kernel.
//
// Always writes machine-readable JSON to OutDir() (default bench/out/):
//   bench_scan_kernels.json       — one record per (d, selectivity, path)
//   bench_cache_read_path.json    — one record per (reader count, writer)
//   bench_cache_write_path.json   — one record per occupancy
//   bench_contained_subtrees.json — one record per θ
// picked up by the CI bench-smoke artifact upload. The table JSON includes
// bytes/row from the Table::MemoryBytes breakdown.
//
// --smoke: scaled-down sizes for CI, plus a hard gate: exits non-zero if
// blockvisit is not at least as fast as rowvisitor on the d=6, 10% L2
// profile (guards against the block pipeline regressing below the per-row
// loop it replaced).
//
// Self-checks (every run): exits non-zero if the block scan's answer
// diverges from the row scan's, if any lookup of the grid cache differs
// from its linear twin in hit/miss or δ, or if a kd-tree MeanValue differs
// from the ScanIndex one in count or, beyond 1e-12 relative, in mean.
//
// Env knobs: QREG_SCAN_ROWS (default 200000), QREG_SCAN_REPS (default
// auto), QREG_SEED.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "query/exact_engine.h"
#include "query/scan_kernels.h"
#include "service/answer_cache.h"
#include "storage/scan_index.h"
#include "storage/table.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace qreg {
namespace bench {
namespace {

storage::Table MakeUniformTable(size_t d, int64_t rows, uint64_t seed) {
  util::Rng rng(seed);
  storage::Table t(d);
  t.Reserve(rows);
  std::vector<double> x(d);
  for (int64_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform(0, 1);
    t.AppendUnchecked(x.data(), rng.Uniform(-1, 1));
  }
  return t;
}

// The radius whose L2 ball around `center` captures ~`selectivity` of the
// table: the selectivity-quantile of the observed distances.
double CalibrateRadius(const storage::Table& t, const std::vector<double>& center,
                       double selectivity) {
  const int64_t n = t.num_rows();
  std::vector<double> dist(static_cast<size_t>(n));
  const storage::LpNorm l2 = storage::LpNorm::L2();
  for (int64_t i = 0; i < n; ++i) {
    dist[static_cast<size_t>(i)] =
        l2.Distance(t.x(i), center.data(), t.dimension());
  }
  const auto k = static_cast<int64_t>(selectivity * static_cast<double>(n - 1));
  std::nth_element(dist.begin(), dist.begin() + k, dist.end());
  return dist[static_cast<size_t>(k)];
}

// Per-row callback of the legacy loop: (row id, features, output).
using RowCallback = std::function<void(int64_t id, const double* x, double u)>;

// The legacy per-row hot loop the block pipeline replaced: early-exit
// Within per row, type-erased callback per match.
int64_t LegacyRowScan(const storage::Table& t, const double* center,
                      double radius, const storage::LpNorm& norm,
                      const RowCallback& visit) {
  const size_t d = t.dimension();
  const int64_t n = t.num_rows();
  int64_t matched = 0;
  for (int64_t i = 0; i < n; ++i) {
    const double* row = t.x(i);
    if (norm.Within(row, center, d, radius)) {
      ++matched;
      visit(i, row, t.u(i));
    }
  }
  return matched;
}

struct ScanCell {
  size_t d = 0;
  double selectivity = 0.0;
  double row_rps = 0.0;    // rowvisitor rows/sec
  double block_rps = 0.0;  // blockvisit rows/sec
  double speedup = 0.0;
  int64_t matched = 0;
  double bytes_per_row = 0.0;
};

ScanCell RunScanCell(size_t d, double selectivity, int64_t rows, int64_t reps,
                     uint64_t seed) {
  ScanCell cell;
  cell.d = d;
  cell.selectivity = selectivity;

  const storage::Table table = MakeUniformTable(d, rows, seed);
  const storage::ScanIndex scan(table);
  const std::vector<double> center(d, 0.5);
  const double radius = CalibrateRadius(table, center, selectivity);
  const storage::LpNorm norm = storage::LpNorm::L2();
  cell.bytes_per_row =
      static_cast<double>(table.MemoryBytes()) / static_cast<double>(rows);

  // Baseline: legacy per-row dispatch.
  double row_sum = 0.0;
  int64_t row_count = 0;
  util::Stopwatch sw;
  for (int64_t r = 0; r < reps; ++r) {
    row_sum = 0.0;
    row_count = 0;
    cell.matched = LegacyRowScan(
        table, center.data(), radius, norm,
        [&row_sum, &row_count](int64_t, const double*, double u) {
          row_sum += u;
          ++row_count;
        });
  }
  const double row_secs = sw.ElapsedMillis() / 1e3;
  cell.row_rps = static_cast<double>(rows * reps) / std::max(1e-9, row_secs);

  // Block pipeline: fused filter + Kahan sum kernel.
  double block_sum = 0.0;
  int64_t block_count = 0;
  sw.Restart();
  for (int64_t r = 0; r < reps; ++r) {
    query::SumBlockKernel kernel;
    storage::SelectionStats stats;
    scan.BlockVisit(center.data(), radius, norm, &kernel, &stats);
    block_sum = kernel.sum();
    block_count = kernel.count();
  }
  const double block_secs = sw.ElapsedMillis() / 1e3;
  cell.block_rps = static_cast<double>(rows * reps) / std::max(1e-9, block_secs);
  cell.speedup = cell.block_rps / std::max(1e-9, cell.row_rps);

  // Same selection, same answer (within compensation): a wrong kernel would
  // make the throughput numbers meaningless.
  if (block_count != cell.matched || block_count != row_count ||
      std::fabs(block_sum - row_sum) >
          1e-9 * std::max(1.0, std::fabs(row_sum))) {
    std::cerr << "FATAL: block scan diverged from row scan (d=" << d
              << ", sel=" << selectivity << ")\n";
    std::exit(1);
  }
  return cell;
}

// cache_churn's traffic shape: radii in a narrow band around 0.1, centers
// jittered around a fixed set of hot spots.
std::vector<query::Query> ChurnQueries(int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<query::Query> spots(8192);
  for (query::Query& h : spots) {
    h = query::Query({rng.Uniform(0.05, 0.95), rng.Uniform(0.05, 0.95)},
                     rng.Uniform(0.09, 0.11));
  }
  std::vector<query::Query> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const query::Query& h = spots[rng.UniformInt(spots.size())];
    out.push_back(query::Query(
        {h.center[0] + rng.Gaussian(0.0, 0.01),
         h.center[1] + rng.Gaussian(0.0, 0.01)},
        h.theta * std::min(1.05, std::max(0.95, 1.0 + rng.Gaussian(0.0, 0.02)))));
  }
  return out;
}

struct CacheCell {
  int readers = 0;
  bool writer = false;
  double lookups_per_sec = 0.0;
  double inserts_per_sec = 0.0;
  double hit_rate = 0.0;
};

CacheCell RunCacheCell(int readers, int64_t lookups_each, bool writer) {
  constexpr size_t kWriterGroupSize = 1024;
  service::AnswerCacheConfig cfg;
  cfg.delta_min = 0.9;
  cfg.capacity_per_shard = kWriterGroupSize;
  service::AnswerCache cache(cfg);
  const std::string group = "ds/g0/Q1";
  for (int i = 0; i < 64; ++i) {
    service::CachedAnswer a;
    a.q = query::Query({0.01 * i, 0.5}, 0.1);
    a.mean = static_cast<double>(i);
    cache.Insert(group, a);
  }
  const std::string write_group = "ds/g0/Q2";
  std::vector<service::CachedAnswer> fresh(kWriterGroupSize + 65536);
  std::vector<query::Query> qs =
      ChurnQueries(static_cast<int64_t>(fresh.size()), 7);
  for (size_t i = 0; i < fresh.size(); ++i) fresh[i].q = std::move(qs[i]);
  for (size_t i = 0; i < kWriterGroupSize; ++i) {
    cache.Insert(write_group, fresh[i]);
  }

  std::atomic<bool> readers_done{false};
  int64_t inserts = 0;
  std::thread writer_thread;
  util::Stopwatch sw;
  if (writer) {
    writer_thread = std::thread([&] {
      // Cycles through the fresh queries; each insert evicts the LRU entry.
      size_t next = kWriterGroupSize;
      while (!readers_done.load(std::memory_order_acquire)) {
        cache.Insert(write_group, fresh[next]);
        ++inserts;
        if (++next == fresh.size()) next = 0;
      }
    });
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&cache, &group, lookups_each, r] {
      util::Rng rng(static_cast<uint64_t>(100 + r));
      service::CachedAnswer out;
      for (int64_t i = 0; i < lookups_each; ++i) {
        const query::Query probe({0.01 * rng.UniformInt(64), 0.5}, 0.1);
        cache.Lookup(group, probe, &out);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double secs = sw.ElapsedMillis() / 1e3;
  readers_done.store(true, std::memory_order_release);
  if (writer_thread.joinable()) writer_thread.join();

  CacheCell cell;
  cell.readers = readers;
  cell.writer = writer;
  cell.lookups_per_sec =
      static_cast<double>(lookups_each * readers) / std::max(1e-9, secs);
  cell.inserts_per_sec = static_cast<double>(inserts) / std::max(1e-9, secs);
  cell.hit_rate = cache.stats().HitRate();
  return cell;
}

struct WriteCell {
  size_t occupancy = 0;
  double ns_per_insert = 0.0;
  double ns_per_lookup = 0.0;
  double hit_rate = 0.0;
  double linear_ns_per_insert = 0.0;  // enable_grid = false twin.
  double linear_ns_per_lookup = 0.0;
};

// One write-path replay: the δ of every lookup (0 on a miss; a hit's δ is
// at least δ_min > 0) and the total time spent in Lookup and Insert.
struct Replay {
  std::vector<double> deltas;
  int64_t lookup_ns = 0;
  int64_t insert_ns = 0;
  int64_t inserts = 0;
};

// Fills one group with the first `occupancy` queries, then replays the rest
// as lookup-then-insert-on-miss.
Replay ReplayChurn(bool enable_grid, size_t occupancy,
                   const std::vector<query::Query>& qs) {
  service::AnswerCacheConfig cfg;
  cfg.delta_min = 0.93;
  cfg.capacity_per_shard = occupancy;
  cfg.enable_grid = enable_grid;
  service::AnswerCache cache(cfg);
  const std::string group = "ds/g0/Q1";
  for (size_t i = 0; i < occupancy; ++i) {
    service::CachedAnswer a;
    a.q = qs[i];
    cache.Insert(group, std::move(a));
  }
  Replay r;
  service::CachedAnswer out;
  for (size_t i = occupancy; i < qs.size(); ++i) {
    int64_t t0 = util::NowNanos();
    const bool hit = cache.Lookup(group, qs[i], &out);
    int64_t t1 = util::NowNanos();
    r.lookup_ns += t1 - t0;
    r.deltas.push_back(hit ? out.delta : 0.0);
    if (hit) continue;
    service::CachedAnswer a;
    a.q = qs[i];
    a.mean = static_cast<double>(i);
    t0 = util::NowNanos();
    cache.Insert(group, std::move(a));
    t1 = util::NowNanos();
    r.insert_ns += t1 - t0;
    ++r.inserts;
  }
  return r;
}

WriteCell RunWriteCell(size_t occupancy, int64_t ops, uint64_t seed) {
  const std::vector<query::Query> qs =
      ChurnQueries(static_cast<int64_t>(occupancy) + ops, seed);
  const Replay grid = ReplayChurn(/*enable_grid=*/true, occupancy, qs);
  const Replay linear = ReplayChurn(/*enable_grid=*/false, occupancy, qs);
  // The grid must admit exactly what the linear probe admits; a wrong grid
  // edit would make the timings meaningless.
  if (grid.deltas != linear.deltas) {
    std::cerr << "FATAL: grid cache diverged from its linear twin "
              << "(occupancy=" << occupancy << ")\n";
    std::exit(1);
  }
  const auto per = [](int64_t ns, int64_t n) {
    return static_cast<double>(ns) / static_cast<double>(std::max<int64_t>(1, n));
  };
  WriteCell cell;
  cell.occupancy = occupancy;
  cell.ns_per_insert = per(grid.insert_ns, grid.inserts);
  cell.ns_per_lookup = per(grid.lookup_ns, ops);
  cell.hit_rate = static_cast<double>(ops - grid.inserts) / static_cast<double>(ops);
  cell.linear_ns_per_insert = per(linear.insert_ns, linear.inserts);
  cell.linear_ns_per_lookup = per(linear.lookup_ns, ops);
  return cell;
}

// Counts what the kd-tree summarised: subtrees offered whole, and their rows.
class SummaryCountingKernel : public storage::BlockKernel {
 public:
  void OnBlock(const storage::BlockSpan&) override {}
  bool OnSubtree(const storage::SubtreeSummary& summary) override {
    ++summaries;
    rows += summary.count;
    return true;
  }

  int64_t summaries = 0;
  int64_t rows = 0;
};

struct SubtreeCell {
  double theta = 0.0;
  double mean_value_us = 0.0;
  double regression_us = 0.0;
  double summarised_rows = 0.0;  // Per query.
  double filtered_rows = 0.0;    // Per query.
  double summaries = 0.0;        // Per query.
  double matched = 0.0;          // Per query.
};

SubtreeCell RunSubtreeCell(const DataBundle& bundle, double theta,
                           int64_t queries, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<query::Query> qs;
  for (int64_t i = 0; i < queries; ++i) {
    qs.push_back(query::Query({rng.Uniform(0, 1), rng.Uniform(0, 1)}, theta));
  }
  SubtreeCell cell;
  cell.theta = theta;
  const double n = static_cast<double>(queries);

  std::vector<query::MeanValueResult> tree_means(qs.size());
  util::Stopwatch sw;
  for (size_t i = 0; i < qs.size(); ++i) {
    auto r = bundle.engine->MeanValue(qs[i]);
    if (r.ok()) tree_means[i] = *r;
  }
  cell.mean_value_us = sw.ElapsedMillis() * 1e3 / n;
  sw.Restart();
  for (const query::Query& q : qs) (void)bundle.engine->Regression(q);
  cell.regression_us = sw.ElapsedMillis() * 1e3 / n;

  const storage::LpNorm norm = bundle.engine->norm();
  for (size_t i = 0; i < qs.size(); ++i) {
    SummaryCountingKernel counting;
    storage::SelectionStats stats;
    bundle.kdtree->BlockVisit(qs[i].center.data(), theta, norm, &counting, &stats);
    cell.summaries += static_cast<double>(counting.summaries) / n;
    cell.summarised_rows += static_cast<double>(counting.rows) / n;
    cell.filtered_rows +=
        static_cast<double>(stats.tuples_examined - counting.rows) / n;
    cell.matched += static_cast<double>(stats.tuples_matched) / n;

    // The summaries must not change the answer: same count, same mean
    // within compensation, as the filtering scan.
    auto want = bundle.scan_engine->MeanValue(qs[i]);
    const int64_t want_count = want.ok() ? want->count : 0;
    const double want_mean = want.ok() ? want->mean : 0.0;
    if (tree_means[i].count != want_count ||
        std::fabs(tree_means[i].mean - want_mean) >
            1e-12 * std::max(1.0, std::fabs(want_mean))) {
      std::cerr << "FATAL: kd-tree MeanValue diverged from the scan (theta="
                << theta << ", query " << i << ")\n";
      std::exit(1);
    }
  }
  return cell;
}

int Run(bool smoke) {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_scan_kernels",
              "tentpole: block-vectorized scan kernels vs per-row dispatch",
              env);

  const int64_t rows =
      util::GetEnvInt64("QREG_SCAN_ROWS", smoke ? 60000 : 200000);
  // Auto reps: keep each timed side around a few tens of millions of rows.
  const int64_t reps = util::GetEnvInt64(
      "QREG_SCAN_REPS", std::max<int64_t>(1, (smoke ? 2000000 : 20000000) / rows));

  const size_t dims[] = {2, 6, 12};
  const double selectivities[] = {0.01, 0.10, 0.90};

  util::TablePrinter table(
      {"d", "selectivity", "rowvisitor_rps", "blockvisit_rps", "speedup",
       "matched", "bytes_per_row"});
  std::string json = "[\n";
  double gate_row_rps = 0.0, gate_block_rps = 0.0;  // d=6, 10% profile.
  for (size_t d : dims) {
    for (double sel : selectivities) {
      const ScanCell cell =
          RunScanCell(d, sel, rows, reps, env.seed + 13 * d);
      if (d == 6 && sel == 0.10) {
        gate_row_rps = cell.row_rps;
        gate_block_rps = cell.block_rps;
      }
      table.AddRow({util::Format("%zu", d), util::Format("%.0f%%", sel * 100),
                    util::Format("%.3g", cell.row_rps),
                    util::Format("%.3g", cell.block_rps),
                    util::Format("%.2f", cell.speedup),
                    util::Format("%lld", static_cast<long long>(cell.matched)),
                    util::Format("%.1f", cell.bytes_per_row)});
      json += util::Format(
          "  {\"d\": %zu, \"selectivity\": %.2f, \"rows\": %lld, "
          "\"reps\": %lld, \"norm\": \"l2\", "
          "\"rowvisitor_rows_per_sec\": %.1f, "
          "\"blockvisit_rows_per_sec\": %.1f, \"speedup\": %.4f, "
          "\"matched\": %lld, \"bytes_per_row\": %.2f},\n",
          d, sel, static_cast<long long>(rows), static_cast<long long>(reps),
          cell.row_rps, cell.block_rps, cell.speedup,
          static_cast<long long>(cell.matched), cell.bytes_per_row);
    }
  }
  if (json.size() > 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);
  }
  json += "]\n";
  if (!WriteOutFile("bench_scan_kernels.json", json)) {
    std::cerr << "warning: could not write bench_scan_kernels.json\n";
  }
  EmitTable("scan_kernels", util::Format("matrix_rows%lld", static_cast<long long>(rows)), table, env);

  // ---- Cache read path: shared readers, alone and beside one writer ----
  const std::vector<int> reader_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 8, 32};
  const int64_t lookups_each = smoke ? 20000 : 200000;

  util::TablePrinter cache_table(
      {"readers", "writer", "lookups_per_sec", "inserts_per_sec", "hit_rate"});
  std::string cache_json = "[\n";
  for (int readers : reader_counts) {
    for (const bool writer : {false, true}) {
      const CacheCell cell = RunCacheCell(readers, lookups_each, writer);
      cache_table.AddRow({util::Format("%d", readers), writer ? "1" : "0",
                          util::Format("%.3g", cell.lookups_per_sec),
                          util::Format("%.3g", cell.inserts_per_sec),
                          util::Format("%.3f", cell.hit_rate)});
      cache_json += util::Format(
          "  {\"readers\": %d, \"writer\": %d, \"lookups_per_sec\": %.1f, "
          "\"inserts_per_sec\": %.1f, \"hit_rate\": %.4f, "
          "\"hardware_concurrency\": %u},\n",
          readers, writer ? 1 : 0, cell.lookups_per_sec, cell.inserts_per_sec,
          cell.hit_rate, std::thread::hardware_concurrency());
    }
  }
  if (cache_json.size() > 2 && cache_json[cache_json.size() - 2] == ',') {
    cache_json.erase(cache_json.size() - 2, 1);
  }
  cache_json += "]\n";
  if (!WriteOutFile("bench_cache_read_path.json", cache_json)) {
    std::cerr << "warning: could not write bench_cache_read_path.json\n";
  }
  std::cout << "\ncache read path (Lookup):\n";
  EmitTable("scan_kernels", "cache_read_path", cache_table, env);

  // ---- Cache write path: lookup, insert on miss, at occupancy ----
  const std::vector<size_t> occupancies =
      smoke ? std::vector<size_t>{64, 256, 1024}
            : std::vector<size_t>{64, 1024, 4096};
  const int64_t churn_ops = smoke ? 10000 : 50000;

  util::TablePrinter write_table({"occupancy", "ns_per_insert", "ns_per_lookup",
                                  "hit_rate", "linear_ns_per_insert",
                                  "linear_ns_per_lookup"});
  std::string write_json = "[\n";
  for (size_t occupancy : occupancies) {
    const WriteCell cell = RunWriteCell(occupancy, churn_ops, env.seed);
    write_table.AddRow({util::Format("%zu", occupancy),
                        util::Format("%.0f", cell.ns_per_insert),
                        util::Format("%.0f", cell.ns_per_lookup),
                        util::Format("%.3f", cell.hit_rate),
                        util::Format("%.0f", cell.linear_ns_per_insert),
                        util::Format("%.0f", cell.linear_ns_per_lookup)});
    write_json += util::Format(
        "  {\"occupancy\": %zu, \"ops\": %lld, \"d\": 2, "
        "\"delta_min\": 0.93, \"ns_per_insert\": %.1f, "
        "\"ns_per_lookup\": %.1f, \"hit_rate\": %.4f, "
        "\"linear_ns_per_insert\": %.1f, \"linear_ns_per_lookup\": %.1f},\n",
        occupancy, static_cast<long long>(churn_ops), cell.ns_per_insert,
        cell.ns_per_lookup, cell.hit_rate, cell.linear_ns_per_insert,
        cell.linear_ns_per_lookup);
  }
  if (write_json.size() > 2 && write_json[write_json.size() - 2] == ',') {
    write_json.erase(write_json.size() - 2, 1);
  }
  write_json += "]\n";
  if (!WriteOutFile("bench_cache_write_path.json", write_json)) {
    std::cerr << "warning: could not write bench_cache_write_path.json\n";
  }
  std::cout << "\ncache write path (lookup, insert on miss; grid vs linear twin):\n";
  EmitTable("scan_kernels", "cache_write_path", write_table, env);

  // ---- Contained subtrees: kd-tree Q1/Q2 over R1, d = 2 ----
  const int64_t subtree_rows = 300000;
  const int64_t subtree_queries = smoke ? 200 : 2000;
  const DataBundle r1 = MakeR1Bundle(2, subtree_rows, env.seed);
  util::TablePrinter subtree_table(
      {"theta", "mean_value_us", "regression_us", "rows_summarised",
       "rows_filtered", "summaries", "matched"});
  std::string subtree_json = "[\n";
  for (double theta : {0.05, 0.1, 0.2}) {
    const SubtreeCell cell =
        RunSubtreeCell(r1, theta, subtree_queries, env.seed + 101);
    subtree_table.AddRow({util::Format("%.2f", theta),
                          util::Format("%.1f", cell.mean_value_us),
                          util::Format("%.1f", cell.regression_us),
                          util::Format("%.0f", cell.summarised_rows),
                          util::Format("%.0f", cell.filtered_rows),
                          util::Format("%.1f", cell.summaries),
                          util::Format("%.0f", cell.matched)});
    subtree_json += util::Format(
        "  {\"dataset\": \"R1\", \"d\": 2, \"rows\": %lld, "
        "\"queries\": %lld, \"theta\": %.2f, \"mean_value_us\": %.2f, "
        "\"regression_us\": %.2f, \"rows_summarised_per_query\": %.1f, "
        "\"rows_filtered_per_query\": %.1f, \"summaries_per_query\": %.2f, "
        "\"matched_per_query\": %.1f},\n",
        static_cast<long long>(subtree_rows),
        static_cast<long long>(subtree_queries), theta, cell.mean_value_us,
        cell.regression_us, cell.summarised_rows, cell.filtered_rows,
        cell.summaries, cell.matched);
  }
  if (subtree_json.size() > 2 && subtree_json[subtree_json.size() - 2] == ',') {
    subtree_json.erase(subtree_json.size() - 2, 1);
  }
  subtree_json += "]\n";
  if (!WriteOutFile("bench_contained_subtrees.json", subtree_json)) {
    std::cerr << "warning: could not write bench_contained_subtrees.json\n";
  }
  std::cout << "\ncontained subtrees (kd-tree, R1, d=2, per query):\n";
  EmitTable("scan_kernels", "contained_subtrees", subtree_table, env);

  const double gate_speedup = gate_block_rps / std::max(1e-9, gate_row_rps);
  std::cout << util::Format(
      "\nd=6 / 10%% L2 profile: blockvisit %.2fx rowvisitor "
      "(acceptance target: >= 2x on a release build)\n",
      gate_speedup);
  if (smoke && gate_block_rps < gate_row_rps) {
    std::cerr << "FATAL: blockvisit slower than the rowvisitor baseline on "
                 "the d=6/10% profile\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return qreg::bench::Run(smoke);
}

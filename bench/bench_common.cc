#include "bench/bench_common.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "eval/fvu_eval.h"
#include "eval/metrics.h"
#include "linalg/matrix.h"
#include "plr/mars.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace qreg {
namespace bench {

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  const int64_t scale = util::GetEnvInt64("QREG_SCALE", 1);
  env.rows_r1 = util::GetEnvInt64("QREG_ROWS_R1", 200000) * scale;
  env.rows_r2 = util::GetEnvInt64("QREG_ROWS_R2", 200000) * scale;
  env.train_cap = util::GetEnvInt64("QREG_TRAIN_CAP", 30000);
  env.test_queries = util::GetEnvInt64("QREG_TEST_QUERIES", 2000);
  env.seed = static_cast<uint64_t>(util::GetEnvInt64("QREG_SEED", 42));
  return env;
}

DatasetProfile R1Profile() {
  DatasetProfile p;
  p.name = "R1";
  p.center_lo = 0.0;
  p.center_hi = 1.0;
  p.theta_mean = 0.1;
  p.theta_stddev = 0.1;
  p.x_range = 1.0;
  p.theta_range = 1.0;
  return p;
}

DatasetProfile R2Profile() {
  DatasetProfile p;
  p.name = "R2";
  p.center_lo = -10.0;
  p.center_hi = 10.0;
  p.theta_mean = 2.0;
  p.theta_stddev = 0.4;
  p.x_range = 20.0;
  p.theta_range = 2.0;
  return p;
}

namespace {

DataBundle MakeBundle(data::Dataset&& ds, const DatasetProfile& profile) {
  DataBundle b;
  b.dataset = std::make_unique<data::Dataset>(std::move(ds));
  b.kdtree = std::make_unique<storage::KdTree>(b.dataset->table);
  b.scan = std::make_unique<storage::ScanIndex>(b.dataset->table);
  b.engine = std::make_unique<query::ExactEngine>(b.dataset->table, *b.kdtree);
  b.scan_engine =
      std::make_unique<query::ExactEngine>(b.dataset->table, *b.scan);
  b.profile = profile;
  return b;
}

}  // namespace

DataBundle MakeR1Bundle(size_t d, int64_t rows, uint64_t seed) {
  auto ds = data::MakeR1(d, rows, seed);
  if (!ds.ok()) {
    std::cerr << "fatal: " << ds.status() << "\n";
    std::abort();
  }
  return MakeBundle(std::move(ds).value(), R1Profile());
}

DataBundle MakeR2Bundle(size_t d, int64_t rows, uint64_t seed) {
  auto ds = data::MakeR2(d, rows, seed);
  if (!ds.ok()) {
    std::cerr << "fatal: " << ds.status() << "\n";
    std::abort();
  }
  DatasetProfile profile = R2Profile();
  if (d >= 4) {
    // Keep the average number of tuples per subspace meaningful at
    // container-scale densities (DESIGN.md §3).
    profile.theta_mean = 3.5;
    profile.theta_stddev = 0.5;
  }
  return MakeBundle(std::move(ds).value(), profile);
}

query::WorkloadGenerator MakeWorkload(const DataBundle& bundle, uint64_t seed) {
  const DatasetProfile& p = bundle.profile;
  return query::WorkloadGenerator(query::WorkloadConfig::Cube(
      bundle.table().dimension(), p.center_lo, p.center_hi, p.theta_mean,
      p.theta_stddev, seed));
}

TrainedModel TrainLlm(const DataBundle& bundle, double a, double gamma,
                      int64_t train_cap, uint64_t seed) {
  const size_t d = bundle.table().dimension();
  core::LlmConfig cfg = core::LlmConfig::ForDomain(
      d, a, gamma, bundle.profile.x_range, bundle.profile.theta_range);

  TrainedModel out;
  out.model = std::make_unique<core::LlmModel>(cfg);
  core::TrainerConfig tc;
  tc.max_pairs = train_cap;
  tc.min_pairs = std::min<int64_t>(train_cap, 2000);
  core::Trainer trainer(*bundle.engine, tc);
  query::WorkloadGenerator gen = MakeWorkload(bundle, seed);
  auto report = trainer.Train(&gen, out.model.get());
  if (!report.ok()) {
    std::cerr << "fatal: training failed: " << report.status() << "\n";
    std::abort();
  }
  out.report = std::move(report).value();
  return out;
}

double EvalQ1Rmse(const core::LlmModel& model, const DataBundle& bundle,
                  int64_t m, uint64_t seed) {
  query::WorkloadGenerator gen = MakeWorkload(bundle, seed ^ 0x9E3779B9ULL);
  eval::RmseAccumulator rmse;
  int64_t attempts = 0;
  while (rmse.count() < m && attempts < 50 * m) {
    ++attempts;
    const query::Query q = gen.Next();
    auto exact = bundle.engine->MeanValue(q);
    if (!exact.ok()) continue;
    auto pred = model.PredictMean(q);
    if (!pred.ok()) continue;
    rmse.Add(exact->mean, *pred);
  }
  return rmse.Rmse();
}

double EvalDataValueRmse(const core::LlmModel& model, const DataBundle& bundle,
                         int64_t m, uint64_t seed) {
  util::Rng rng(seed ^ 0xA5A5F00DULL);
  const storage::Table& table = bundle.table();
  eval::RmseAccumulator rmse;
  for (int64_t i = 0; i < m; ++i) {
    const int64_t id = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(table.num_rows())));
    const std::vector<double> x = table.XRow(id);
    const query::Query q(x, bundle.profile.theta_mean);
    auto pred = model.PredictValue(q, x);
    if (!pred.ok()) continue;
    rmse.Add(table.u(id), *pred);
  }
  return rmse.Rmse();
}

Q2Eval EvalQ2(const core::LlmModel& model, const DataBundle& bundle, int64_t m,
              uint64_t seed, bool eval_plr, int32_t plr_max_terms,
              double theta_scale) {
  const DatasetProfile& p = bundle.profile;
  query::WorkloadGenerator gen(query::WorkloadConfig::Cube(
      bundle.table().dimension(), p.center_lo, p.center_hi,
      p.theta_mean * theta_scale, p.theta_stddev * theta_scale,
      seed ^ 0x51ED2700ULL));
  Q2Eval out;
  // Per-query FVUs are heavy-tailed (subspaces in flat regions have tiny
  // TSS), so the summary statistic is the per-query *median* — robust and
  // order-preserving across methods (EXPERIMENTS.md).
  std::vector<double> llm_vals, reg_vals, plr_vals;
  double pieces_sum = 0.0;
  int64_t attempts = 0;
  const storage::Table& table = bundle.table();
  const size_t d = table.dimension();

  while (out.queries < m && attempts < 100 * m) {
    ++attempts;
    const query::Query q = gen.Next();
    auto ids = bundle.engine->Select(q).value();
    // Need enough tuples for a meaningful fit comparison.
    if (static_cast<int64_t>(ids.size()) < static_cast<int64_t>(4 * (d + 1))) {
      continue;
    }
    auto reg = bundle.engine->Regression(q);
    if (!reg.ok()) continue;
    auto pw = eval::EvaluatePiecewiseFvu(model, q, table, ids);
    if (!pw.ok()) continue;

    if (eval_plr) {
      // MARS over the selected subspace (ARESLab-style, max terms tied to K).
      linalg::Matrix x(ids.size(), d);
      std::vector<double> u(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        const double* row = table.x(ids[i]);
        for (size_t j = 0; j < d; ++j) x(i, j) = row[j];
        u[i] = table.u(ids[i]);
      }
      plr::MarsConfig mc;
      mc.max_terms = plr_max_terms;
      mc.max_fit_rows = 4000;
      mc.max_knots_per_dim = 10;
      auto mars = plr::FitMars(x, u, mc);
      if (!mars.ok()) continue;
      plr_vals.push_back(mars->Fvu());
    }

    llm_vals.push_back(pw->mean_fvu);
    reg_vals.push_back(reg->FVU());
    pieces_sum += static_cast<double>(pw->pieces_total);
    ++out.queries;
  }
  if (out.queries > 0) {
    out.llm_fvu = eval::Percentile(llm_vals, 50);
    out.reg_fvu = eval::Percentile(reg_vals, 50);
    out.plr_fvu = eval_plr ? eval::Percentile(plr_vals, 50) : 0.0;
    out.avg_pieces = pieces_sum / static_cast<double>(out.queries);
    out.llm_cod = 1.0 - out.llm_fvu;
    out.reg_cod = 1.0 - out.reg_fvu;
    out.plr_cod = eval_plr ? 1.0 - out.plr_fvu : 0.0;
  }
  return out;
}

void PrintHeader(const std::string& bench, const std::string& paper_ref,
                 const BenchEnv& env) {
  std::cout << "==============================================================\n";
  std::cout << bench << "\n";
  std::cout << "reproduces: " << paper_ref << "\n";
  std::cout << util::Format(
      "env: rows_r1=%lld rows_r2=%lld train_cap=%lld test_queries=%lld seed=%llu\n",
      static_cast<long long>(env.rows_r1), static_cast<long long>(env.rows_r2),
      static_cast<long long>(env.train_cap),
      static_cast<long long>(env.test_queries),
      static_cast<unsigned long long>(env.seed));
  std::cout << "==============================================================\n";
}

std::string OutDir() {
  const std::string dir = util::GetEnvString("QREG_OUT_DIR", "bench/out");
  // mkdir -p: create each path component (existing components are fine).
  std::string partial;
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i == dir.size() || dir[i] == '/') {
      if (!partial.empty()) ::mkdir(partial.c_str(), 0755);
    }
    if (i < dir.size()) partial += dir[i];
  }
  return dir;
}

namespace {

// Renders a cell as raw JSON: finite numbers and true/false stay literals,
// everything else (including "nan"/"inf", which strtod accepts but JSON
// forbids) becomes a quoted string (bench tables never contain quotes or
// backslashes).
std::string JsonValue(const std::string& cell) {
  if (cell == "true" || cell == "false") return cell;
  char* end = nullptr;
  const double parsed = std::strtod(cell.c_str(), &end);
  const bool numeric = !cell.empty() && end != nullptr && *end == '\0' &&
                       std::isfinite(parsed);
  return numeric ? cell : "\"" + cell + "\"";
}

}  // namespace

bool EmitTable(const std::string& bench_name, const std::string& table_name,
               const util::TablePrinter& table, const BenchEnv& env) {
  std::cout << "\n-- " << table_name << " --\n";
  table.Print(std::cout);

  std::string json = util::Format(
      "{\n  \"bench\": \"%s\",\n  \"table\": \"%s\",\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"rows_r1\": %lld, \"rows_r2\": %lld, \"train_cap\": %lld, "
      "\"test_queries\": %lld, \"seed\": %llu,\n  \"records\": [",
      bench_name.c_str(), table_name.c_str(),
      std::thread::hardware_concurrency(), static_cast<long long>(env.rows_r1),
      static_cast<long long>(env.rows_r2), static_cast<long long>(env.train_cap),
      static_cast<long long>(env.test_queries),
      static_cast<unsigned long long>(env.seed));
  const std::vector<std::string>& header = table.header();
  const auto& rows = table.rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    json += r == 0 ? "\n    {" : ",\n    {";
    for (size_t c = 0; c < rows[r].size() && c < header.size(); ++c) {
      if (c > 0) json += ", ";
      json += "\"" + header[c] + "\": " + JsonValue(rows[r][c]);
    }
    json += "}";
  }
  json += rows.empty() ? "]\n}\n" : "\n  ]\n}\n";

  const std::string path = util::Format("%s/%s_%s.json", OutDir().c_str(),
                                        bench_name.c_str(), table_name.c_str());
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::cerr << "failed to write " << path << "\n";
  return ok;
}

}  // namespace bench
}  // namespace qreg

// google-benchmark micro-benchmarks of the individual components: selection
// access paths, streaming OLS, the AVQ/SGD training step, the prediction
// algorithms and the served model path, MARS fitting, model
// (de)serialization, and answer-frame encoding.

#include <benchmark/benchmark.h>

#include <sstream>

#include "core/llm_model.h"
#include "core/model_io.h"
#include "data/generator.h"
#include "linalg/matrix.h"
#include "linalg/ols.h"
#include "net/wire.h"
#include "plr/mars.h"
#include "query/exact_engine.h"
#include "query/scan_kernels.h"
#include "query/workload.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "util/rng.h"

namespace qreg {
namespace {

std::unique_ptr<data::Dataset> MakeData(size_t d, int64_t n) {
  auto ds = data::MakeR1(d, n, 7);
  return std::make_unique<data::Dataset>(std::move(ds).value());
}

// ---------- Selection access paths ----------

void BM_ScanRadius(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto ds = MakeData(2, n);
  storage::ScanIndex index(ds->table);
  const double center[] = {0.5, 0.5};
  for (auto _ : state) {
    storage::SelectionStats stats;
    query::SumBlockKernel kernel;
    index.BlockVisit(center, 0.1, storage::LpNorm::L2(), &kernel, &stats);
    benchmark::DoNotOptimize(kernel.count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScanRadius)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_KdTreeRadius(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto ds = MakeData(2, n);
  storage::KdTree index(ds->table);
  const double center[] = {0.5, 0.5};
  for (auto _ : state) {
    storage::SelectionStats stats;
    query::SumBlockKernel kernel;
    index.BlockVisit(center, 0.1, storage::LpNorm::L2(), &kernel, &stats);
    benchmark::DoNotOptimize(kernel.count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdTreeRadius)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_KdTreeBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto ds = MakeData(3, n);
  for (auto _ : state) {
    storage::KdTree index(ds->table);
    benchmark::DoNotOptimize(index.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdTreeBuild)->Arg(10000)->Arg(100000);

// ---------- OLS ----------

void BM_OlsAccumulate(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<double> x(d);
  linalg::OlsAccumulator acc(d);
  for (auto _ : state) {
    for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform();
    acc.Add(x, x[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OlsAccumulate)->Arg(2)->Arg(5)->Arg(10);

void BM_OlsSolve(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(13);
  linalg::OlsAccumulator acc(d);
  std::vector<double> x(d);
  for (int i = 0; i < 2000; ++i) {
    for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform();
    acc.Add(x, x[0] - 0.5 * (d > 1 ? x[1] : 0.0) + rng.Gaussian(0, 0.01));
  }
  for (auto _ : state) {
    auto fit = acc.Solve();
    benchmark::DoNotOptimize(fit.ok());
  }
}
BENCHMARK(BM_OlsSolve)->Arg(2)->Arg(5)->Arg(10);

// ---------- LLM model ----------

core::LlmModel MakeTrainedModel(size_t d, int64_t pairs, double a) {
  core::LlmModel model(core::LlmConfig::ForDimension(d, a));
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(d, 0.0, 1.0, 0.1, 0.05, 17));
  util::Rng rng(19);
  for (int64_t i = 0; i < pairs; ++i) {
    (void)model.Observe(gen.Next(), rng.Uniform());
  }
  return model;
}

void BM_LlmObserve(benchmark::State& state) {
  const size_t d = 3;
  core::LlmModel model = MakeTrainedModel(d, 2000, 0.1);
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(d, 0.0, 1.0, 0.1, 0.05, 23));
  util::Rng rng(29);
  for (auto _ : state) {
    auto step = model.Observe(gen.Next(), rng.Uniform());
    benchmark::DoNotOptimize(step.ok());
  }
  state.SetLabel("K=" + std::to_string(model.num_prototypes()));
}
BENCHMARK(BM_LlmObserve);

void BM_LlmPredictMean(benchmark::State& state) {
  const size_t d = 3;
  const double a = state.range(0) / 100.0;
  core::LlmModel model = MakeTrainedModel(d, 5000, a);
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(d, 0.0, 1.0, 0.1, 0.05, 31));
  for (auto _ : state) {
    auto y = model.PredictMean(gen.Next());
    benchmark::DoNotOptimize(y.ok());
  }
  state.SetLabel("K=" + std::to_string(model.num_prototypes()));
}
BENCHMARK(BM_LlmPredictMean)->Arg(30)->Arg(10)->Arg(5);

void BM_LlmRegressionQuery(benchmark::State& state) {
  const size_t d = 3;
  core::LlmModel model = MakeTrainedModel(d, 5000, 0.1);
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(d, 0.0, 1.0, 0.1, 0.05, 37));
  for (auto _ : state) {
    auto s = model.RegressionQuery(gen.Next());
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetLabel("K=" + std::to_string(model.num_prototypes()));
}
BENCHMARK(BM_LlmRegressionQuery);

// The work a model-routed request costs the router: the hybrid vigilance
// test and the Q1 (arg 0) or Q2 (arg 1) answer, both read from one sweep.
void BM_LlmModelPath(benchmark::State& state) {
  const size_t d = 2;
  core::LlmModel model = MakeTrainedModel(d, 5000, 0.06);
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(d, 0.0, 1.0, 0.1, 0.05, 41));
  std::vector<query::Query> queries(1024);
  for (query::Query& q : queries) q = gen.Next();
  const double rho = model.config().vigilance;
  const bool q2 = state.range(0) == 1;
  core::Neighbourhood hood;
  size_t i = 0;
  for (auto _ : state) {
    const query::Query& q = queries[i++ % queries.size()];
    model.Sweep(q, &hood);
    benchmark::DoNotOptimize(hood.nearest_distance() <= rho);
    if (q2) {
      auto s = model.RegressionQuery(q, hood);
      benchmark::DoNotOptimize(s.ok());
    } else {
      auto y = model.PredictMean(q, hood);
      benchmark::DoNotOptimize(y.ok());
    }
  }
  state.SetLabel(std::string(q2 ? "Q2" : "Q1") +
                 " K=" + std::to_string(model.num_prototypes()));
}
BENCHMARK(BM_LlmModelPath)->Arg(0)->Arg(1);

void BM_ModelSaveLoad(benchmark::State& state) {
  core::LlmModel model = MakeTrainedModel(3, 5000, 0.1);
  for (auto _ : state) {
    std::ostringstream os;
    (void)core::ModelSerializer::Save(model, &os);
    std::istringstream is(os.str());
    auto loaded = core::ModelSerializer::Load(&is);
    benchmark::DoNotOptimize(loaded.ok());
  }
}
BENCHMARK(BM_ModelSaveLoad);

// ---------- MARS ----------

void BM_MarsFit(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(41);
  linalg::Matrix x(static_cast<size_t>(n), 2);
  std::vector<double> u(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const size_t r = static_cast<size_t>(i);
    x(r, 0) = rng.Uniform();
    x(r, 1) = rng.Uniform();
    u[r] = std::sin(4.0 * x(r, 0)) + x(r, 1) * x(r, 1);
  }
  plr::MarsConfig cfg;
  cfg.max_terms = 15;
  cfg.max_knots_per_dim = 10;
  for (auto _ : state) {
    auto m = plr::FitMars(x, u, cfg);
    benchmark::DoNotOptimize(m.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MarsFit)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

// ---------- Query geometry ----------

void BM_DegreeOfOverlap(benchmark::State& state) {
  query::Query a({0.1, 0.2, 0.3}, 0.2);
  query::Query b({0.2, 0.1, 0.35}, 0.15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::DegreeOfOverlap(a, b));
  }
}
BENCHMARK(BM_DegreeOfOverlap);

// ---------- Wire encoding ----------

// One answer frame onto a reused buffer, as the server's event loop encodes
// it: a Q1 answer (arg 0) or a Q2 answer of `arg` pieces in d = 2.
void BM_AnswerFrameEncode(benchmark::State& state) {
  const int64_t pieces = state.range(0);
  service::Answer answer;
  answer.kind = pieces == 0 ? service::QueryKind::kQ1MeanValue
                            : service::QueryKind::kQ2Regression;
  answer.mean = 0.4375;
  util::Rng rng(43);
  for (int64_t i = 0; i < pieces; ++i) {
    core::LocalLinearModel m;
    m.intercept = rng.Uniform();
    m.slope = {rng.Uniform(), rng.Uniform()};
    m.prototype_id = static_cast<int32_t>(i);
    m.weight = 1.0 / static_cast<double>(pieces);
    answer.pieces.push_back(std::move(m));
  }
  answer.exec.nanos = 1500;
  std::vector<uint8_t> buf;
  uint64_t id = 0;
  for (auto _ : state) {
    buf.clear();
    net::AppendAnswerFrame(&buf, ++id, answer);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
  state.SetLabel(std::to_string(buf.size()) + " B");
}
BENCHMARK(BM_AnswerFrameEncode)->Arg(0)->Arg(17);

}  // namespace
}  // namespace qreg

BENCHMARK_MAIN();

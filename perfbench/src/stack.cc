#include "stack.h"

#include "bench/bench_common.h"
#include "common.h"
#include "util/timer.h"

namespace qreg {
namespace perfbench {

net::ServerConfig BenchServerConfig(size_t executors) {
  net::ServerConfig cfg;
  cfg.event_loops = 1;
  cfg.executor_threads = executors;
  cfg.backend = net::BackendKind::kEpoll;
  return cfg;
}

util::Result<std::unique_ptr<ServiceStack>> BuildStack(const StackParams& params) {
  auto stack = std::make_unique<ServiceStack>();
  SetupTimings& t = stack->timings;
  const int64_t start = util::NowNanos();

  int64_t step = util::NowNanos();
  QREG_ASSIGN_OR_RETURN(data::Dataset ds,
                        data::MakeR1(params.d, params.rows, params.seed));
  stack->dataset = std::make_unique<data::Dataset>(std::move(ds));
  t.generate_s = SecondsSince(step);

  step = util::NowNanos();
  stack->kdtree = std::make_unique<storage::KdTree>(stack->dataset->table);
  t.index_build_s = SecondsSince(step);

  step = util::NowNanos();
  const bench::DatasetProfile p = bench::R1Profile();
  service::CatalogOptions opts = service::CatalogOptions::ForCube(
      params.d, p.center_lo, p.center_hi, p.theta_mean, p.theta_stddev,
      /*a=*/0.1, params.train_pairs, params.seed + 1);
  opts.trainer.min_pairs = params.train_pairs;
  stack->catalog = std::make_unique<service::ModelCatalog>();
  QREG_RETURN_NOT_OK(stack->catalog->Register(kDataset, &stack->dataset->table,
                                              stack->kdtree.get(), opts));
  QREG_RETURN_NOT_OK(stack->catalog->TrainAll());
  QREG_ASSIGN_OR_RETURN(stack->snapshot, stack->catalog->Get(kDataset));
  t.report = stack->snapshot.report;
  t.train_s = SecondsSince(step);

  step = util::NowNanos();
  stack->router =
      std::make_unique<service::QueryRouter>(stack->catalog.get(), params.router);
  stack->server =
      std::make_unique<net::Server>(stack->router.get(), BenchServerConfig(params.executors));
  QREG_ASSIGN_OR_RETURN(stack->endpoint, stack->server->Start());
  t.server_start_s = SecondsSince(step);

  t.total_s = SecondsSince(start);
  return stack;
}

}  // namespace perfbench
}  // namespace qreg

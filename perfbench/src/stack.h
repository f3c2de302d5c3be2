// The served system under test: R1 data, its kd-tree, a trained catalog, a
// router and a loopback net::Server — built in that order, each step timed,
// so `setup_s` and its breakdown come from one place.

#ifndef QREG_PERFBENCH_STACK_H_
#define QREG_PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>

#include "core/trainer.h"
#include "data/generator.h"
#include "net/server.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "storage/kdtree.h"
#include "util/status.h"

namespace qreg {
namespace perfbench {

/// The dataset name every request addresses.
constexpr const char* kDataset = "r1";

struct StackParams {
  size_t d = 2;
  int64_t rows = 0;
  /// Training runs exactly this many (query, answer) pairs — never stops
  /// early on convergence — so set-up work is the same on every run.
  int64_t train_pairs = 0;
  uint64_t seed = 0;  ///< Data and training queries.
  service::RouterConfig router;
  size_t executors = 1;  ///< Server executor threads.
};

/// Wall time of each set-up step, in seconds, plus the training report.
struct SetupTimings {
  double generate_s = 0.0;
  double index_build_s = 0.0;
  double train_s = 0.0;
  double server_start_s = 0.0;
  double total_s = 0.0;  ///< Start of data generation to a listening server.
  core::TrainingReport report;
};

/// Members are declared in build order, so destruction shuts the server
/// down before the router, catalog, index and data it borrows go away.
struct ServiceStack {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<storage::KdTree> kdtree;
  std::unique_ptr<service::ModelCatalog> catalog;
  std::unique_ptr<service::QueryRouter> router;
  std::unique_ptr<net::Server> server;
  net::Endpoint endpoint;
  service::CatalogSnapshot snapshot;  ///< Trained model, engine, vigilance.
  SetupTimings timings;

  const storage::Table& table() const { return dataset->table; }
};

/// Builds and starts the whole stack single-threadedly (the server's own
/// threads start last, inside Server::Start).
util::Result<std::unique_ptr<ServiceStack>> BuildStack(const StackParams& params);

/// The server configuration every workload uses: one epoll event loop and
/// `executors` executor threads.
net::ServerConfig BenchServerConfig(size_t executors);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_STACK_H_

// Tests for the future-work extension of paper Section VII that the service
// serves: adaptation to data updates (drift detection and retraining).

#include <gtest/gtest.h>

#include <cmath>

#include "core/drift.h"
#include "core/llm_model.h"
#include "core/trainer.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "storage/kdtree.h"
#include "util/rng.h"

namespace qreg {
namespace core {
namespace {

using query::Query;

// ---------- Drift detection & retraining ----------

class DriftTest : public ::testing::Test {
 protected:
  static storage::Table MakeTable(double level, uint64_t seed) {
    storage::Table table(1);
    util::Rng rng(seed);
    for (int i = 0; i < 20000; ++i) {
      const double x = rng.Uniform();
      table.Append({x}, level + 0.5 * x + rng.Gaussian(0.0, 0.02)).ok();
    }
    return table;
  }
};

TEST_F(DriftTest, ProbeRequiresCalibration) {
  storage::Table table = MakeTable(1.0, 5);
  storage::KdTree index(table);
  query::ExactEngine engine(table, index);
  LlmModel model(LlmConfig::ForDimension(1, 0.2));
  ASSERT_TRUE(model.Observe(Query({0.5}, 0.1), 1.0).ok());

  DriftMonitor monitor(DriftConfig{});
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(1, 0.0, 1.0, 0.1, 0.03, 7));
  EXPECT_EQ(monitor.Probe(model, engine, &gen).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(DriftTest, DetectsRegimeShiftAndRecovers) {
  // Train on the original regime.
  storage::Table original = MakeTable(1.0, 11);
  storage::KdTree original_index(original);
  query::ExactEngine original_engine(original, original_index);

  LlmModel model(LlmConfig::ForDimension(1, 0.15));
  TrainerConfig tc;
  tc.max_pairs = 10000;
  tc.min_pairs = 1000;
  Trainer trainer(original_engine, tc);
  query::WorkloadGenerator train_gen(
      query::WorkloadConfig::Cube(1, 0.0, 1.0, 0.1, 0.03, 13));
  ASSERT_TRUE(trainer.Train(&train_gen, &model).ok());

  DriftConfig dcfg;
  dcfg.probe_queries = 150;
  dcfg.degradation_factor = 3.0;
  dcfg.absolute_threshold = 0.05;
  DriftMonitor monitor(dcfg);
  query::WorkloadGenerator probe_gen(
      query::WorkloadConfig::Cube(1, 0.0, 1.0, 0.1, 0.03, 17));
  ASSERT_TRUE(monitor.Calibrate(model, original_engine, &probe_gen).ok());

  // No drift on the unchanged data.
  auto steady = monitor.Probe(model, original_engine, &probe_gen);
  ASSERT_TRUE(steady.ok());
  EXPECT_FALSE(steady->drifted);

  // The relation is replaced by a shifted regime (level 1.0 -> 3.0).
  storage::Table shifted = MakeTable(3.0, 19);
  storage::KdTree shifted_index(shifted);
  query::ExactEngine shifted_engine(shifted, shifted_index);

  auto drifted = monitor.Probe(model, shifted_engine, &probe_gen);
  ASSERT_TRUE(drifted.ok());
  EXPECT_TRUE(drifted->drifted);
  EXPECT_GT(drifted->rmse, 10.0 * drifted->baseline_rmse);

  // Retrain against the new engine; the probe goes quiet again.
  auto retrain = monitor.Retrain(&model, shifted_engine, &train_gen, 15000);
  ASSERT_TRUE(retrain.ok());
  EXPECT_GT(retrain->pairs_used, 0);

  auto recovered = monitor.Probe(model, shifted_engine, &probe_gen);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->drifted)
      << "rmse=" << recovered->rmse << " baseline=" << recovered->baseline_rmse;
}

TEST_F(DriftTest, GrownKdTreeFailsTrainingAndProbesLoudly) {
  storage::Table table = MakeTable(1.0, 23);
  storage::KdTree index(table);
  query::ExactEngine engine(table, index);
  LlmModel model(LlmConfig::ForDimension(1, 0.15));
  TrainerConfig tc;
  tc.max_pairs = 2000;
  Trainer trainer(engine, tc);
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(1, 0.0, 1.0, 0.1, 0.03, 29));
  ASSERT_TRUE(trainer.Train(&gen, &model).ok());
  DriftMonitor monitor(DriftConfig{});
  ASSERT_TRUE(monitor.Calibrate(model, engine, &gen).ok());

  // New rows the tree never indexed: every exact answer would miss them.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(table.Append({0.5}, 3.0).ok());
  LlmModel fresh(LlmConfig::ForDimension(1, 0.15));
  EXPECT_EQ(trainer.Train(&gen, &fresh).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(fresh.num_prototypes(), 0);
  EXPECT_EQ(monitor.Probe(model, engine, &gen).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(monitor.Retrain(&model, engine, &gen, 500).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(DriftTest, ResetPlasticityCapsWinsAndScalesMoments) {
  LlmModel model(LlmConfig::ForDimension(1, 0.5));
  util::Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        model.Observe(Query({rng.Uniform(0.4, 0.6)}, 0.1), rng.Uniform()).ok());
  }
  ASSERT_EQ(model.num_prototypes(), 1);
  const Prototype& before = model.prototypes()[0];
  ASSERT_GT(before.wins, 10);
  const double moment_per_win =
      before.input_sq_x[0] / static_cast<double>(before.wins);

  model.ResetPlasticity(10);
  const Prototype& after = model.prototypes()[0];
  EXPECT_EQ(after.wins, 10);
  // Moments scale with the win cap so the preconditioner's *mean* square
  // stays consistent.
  EXPECT_NEAR(after.input_sq_x[0] / 10.0, moment_per_win,
              0.05 * moment_per_win);
  // The model is plastic again: the next update moves y at rate ~1/11^0.6.
  const double y_before = after.y;
  ASSERT_TRUE(model.Observe(Query({0.5}, 0.1), y_before + 1.0).ok());
  EXPECT_GT(std::fabs(model.prototypes()[0].y - y_before), 0.02);
}

TEST_F(DriftTest, UnfreezeClearsConvergenceEvidence) {
  LlmModel model(LlmConfig::ForDimension(1, 0.2));
  ASSERT_TRUE(model.Observe(Query({0.5}, 0.1), 1.0).ok());
  model.Freeze();
  ASSERT_TRUE(model.frozen());
  model.Unfreeze();
  EXPECT_FALSE(model.frozen());
  EXPECT_FALSE(model.HasConverged());  // Γ history cleared
  EXPECT_TRUE(model.Observe(Query({0.5}, 0.1), 1.0).ok());
}

}  // namespace
}  // namespace core
}  // namespace qreg

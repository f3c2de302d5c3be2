// Unit + property tests for src/core: vigilance AVQ growth, Theorem-4 SGD
// updates, Γ convergence, Algorithms 2 & 3 prediction paths, model
// serialization, trainer behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "core/llm_model.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qreg {
namespace core {
namespace {

using query::Query;

// ---------- Vigilance / config ----------

TEST(VigilanceTest, FormulaMatchesPaper) {
  // ρ = a (√d + 1)
  EXPECT_DOUBLE_EQ(VigilanceFromCoefficient(0.25, 4), 0.25 * 3.0);
  EXPECT_DOUBLE_EQ(VigilanceFromCoefficient(1.0, 1), 2.0);
}

TEST(LlmConfigTest, ForDimensionDerivesRho) {
  LlmConfig c = LlmConfig::ForDimension(2, 0.25);
  EXPECT_NEAR(c.vigilance, 0.25 * (std::sqrt(2.0) + 1.0), 1e-12);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(LlmConfigTest, ValidationRejectsBadValues) {
  LlmConfig c = LlmConfig::ForDimension(2);
  c.gamma = 0.0;
  EXPECT_FALSE(c.Validate().ok());

  c = LlmConfig::ForDimension(0);
  EXPECT_FALSE(c.Validate().ok());

  c = LlmConfig::ForDimension(2);
  c.schedule = LearningRateSchedule::kConstant;
  c.constant_eta = 1.5;
  EXPECT_FALSE(c.Validate().ok());

  c = LlmConfig::ForDimension(2);
  c.convergence_window = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = LlmConfig::ForDimension(2);
  c.coef_power = 0.3;  // violates Robbins-Monro square-summability guard
  EXPECT_FALSE(c.Validate().ok());
}

// ---------- Growth / vigilance test ----------

TEST(LlmModelTest, FirstObservationSpawnsPrototypeAtQuery) {
  LlmConfig cfg = LlmConfig::ForDimension(2, 0.25);
  cfg.seed_y_with_answer = false;  // the paper's literal 0-init
  LlmModel model(cfg);
  Query q({0.5, 0.5}, 0.1);
  auto step = model.Observe(q, 3.0);
  ASSERT_TRUE(step.ok());
  EXPECT_TRUE(step->spawned);
  EXPECT_EQ(step->winner, 0);
  ASSERT_EQ(model.num_prototypes(), 1);
  EXPECT_EQ(model.prototypes()[0].w.center, q.center);
  EXPECT_DOUBLE_EQ(model.prototypes()[0].w.theta, q.theta);
  EXPECT_DOUBLE_EQ(model.prototypes()[0].y, 0.0);
}

TEST(LlmModelTest, SeedYWithAnswerIsDefault) {
  LlmModel model(LlmConfig::ForDimension(2, 0.25));
  ASSERT_TRUE(model.Observe(Query({0.5, 0.5}, 0.1), 3.0).ok());
  EXPECT_DOUBLE_EQ(model.prototypes()[0].y, 3.0);
}

TEST(LlmModelTest, NearbyQueryUpdatesFarQuerySpawns) {
  LlmModel model(LlmConfig::ForDimension(1, 0.25));  // rho = 0.5
  ASSERT_TRUE(model.Observe(Query({0.0}, 0.1), 1.0).ok());

  // Distance sqrt(0.2^2 + 0^2) = 0.2 < 0.5: update, not spawn.
  auto near = model.Observe(Query({0.2}, 0.1), 1.0);
  ASSERT_TRUE(near.ok());
  EXPECT_FALSE(near->spawned);
  EXPECT_EQ(model.num_prototypes(), 1);

  // Distance 5 > 0.5: spawn.
  auto far = model.Observe(Query({5.0}, 0.1), 1.0);
  ASSERT_TRUE(far.ok());
  EXPECT_TRUE(far->spawned);
  EXPECT_EQ(model.num_prototypes(), 2);
}

TEST(LlmModelTest, Theorem4UpdateArithmetic) {
  LlmConfig c = LlmConfig::ForDimension(1, /*a=*/2.0);  // rho = 4: no spawning
  c.schedule = LearningRateSchedule::kConstant;
  c.constant_eta = 0.5;
  c.normalize_coef_step = false;  // test the literal Theorem-4 arithmetic
  c.seed_y_with_answer = false;   // the paper's 0-init, so y starts at 0
  LlmModel model(c);
  ASSERT_TRUE(model.Observe(Query({0.0}, 1.0), 1.0).ok());  // spawn at q1

  auto step = model.Observe(Query({0.4}, 1.0), 2.0);
  ASSERT_TRUE(step.ok());
  EXPECT_FALSE(step->spawned);
  const Prototype& p = model.prototypes()[0];
  // residual e = 2 - (0 + 0) = 2
  // Δb_x = 0.5 * 2 * 0.4 = 0.4 ; Δb_θ = 0 ; Δy = 1 ; Δw = 0.5*0.4 = 0.2
  EXPECT_NEAR(p.b_x[0], 0.4, 1e-12);
  EXPECT_NEAR(p.b_theta, 0.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
  EXPECT_NEAR(p.w.center[0], 0.2, 1e-12);
  EXPECT_NEAR(p.w.theta, 1.0, 1e-12);
  EXPECT_NEAR(step->gamma_j, 0.2, 1e-12);
  EXPECT_NEAR(step->gamma_h, 0.4 + 1.0, 1e-12);
}

TEST(LlmModelTest, DimensionMismatchRejected) {
  LlmModel model(LlmConfig::ForDimension(2));
  EXPECT_EQ(model.Observe(Query({0.1}, 0.1), 1.0).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(LlmModelTest, FrozenModelRejectsObserve) {
  LlmModel model(LlmConfig::ForDimension(2));
  ASSERT_TRUE(model.Observe(Query({0.1, 0.1}, 0.1), 1.0).ok());
  model.Freeze();
  EXPECT_EQ(model.Observe(Query({0.1, 0.1}, 0.1), 1.0).status().code(),
            util::StatusCode::kFailedPrecondition);
}

// Property: smaller a (finer quantization) gives at least as many prototypes.
class GrowthMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(GrowthMonotonicityTest, FinerVigilanceMoreProtos) {
  const int d = GetParam();
  auto run = [d](double a) {
    LlmModel model(LlmConfig::ForDimension(static_cast<size_t>(d), a));
    auto cfg = query::WorkloadConfig::Cube(static_cast<size_t>(d), 0.0, 1.0, 0.1,
                                           0.02, 77);
    query::WorkloadGenerator gen(cfg);
    util::Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE(model.Observe(gen.Next(), rng.Uniform()).ok());
    }
    return model.num_prototypes();
  };
  const int k_coarse = run(0.8);
  const int k_mid = run(0.4);
  const int k_fine = run(0.1);
  EXPECT_LE(k_coarse, k_mid);
  EXPECT_LE(k_mid, k_fine);
  EXPECT_GE(k_fine, 4);  // fine quantization must produce several cells
}

INSTANTIATE_TEST_SUITE_P(Dims, GrowthMonotonicityTest, ::testing::Values(1, 2, 3, 5));

TEST(LlmModelTest, FixedKModeCapsPrototypes) {
  LlmConfig c = LlmConfig::ForDimension(2, 0.05);  // would grow many
  c.fixed_k = 7;
  LlmModel model(c);
  auto cfg = query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.1, 0.02, 3);
  query::WorkloadGenerator gen(cfg);
  util::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(model.Observe(gen.Next(), rng.Uniform()).ok());
  }
  EXPECT_EQ(model.num_prototypes(), 7);
}

// ---------- Convergence on a globally linear f ----------

TEST(LlmModelTest, ConvergesToLinearFunction) {
  // f(x, θ) = 2 + 3 x1 − x2 + 0.5 θ is globally linear: a handful of LLMs
  // should reproduce it almost exactly.
  LlmModel model(LlmConfig::ForDimension(2, 0.5));
  auto cfg = query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.15, 0.05, 11);
  query::WorkloadGenerator gen(cfg);
  auto f = [](const Query& q) {
    return 2.0 + 3.0 * q.center[0] - q.center[1] + 0.5 * q.theta;
  };
  for (int i = 0; i < 30000; ++i) {
    const Query q = gen.Next();
    ASSERT_TRUE(model.Observe(q, f(q)).ok());
  }
  // Unseen queries.
  query::WorkloadGenerator test(
      query::WorkloadConfig::Cube(2, 0.05, 0.95, 0.15, 0.05, 999));
  double sse = 0.0;
  const int m = 500;
  for (int i = 0; i < m; ++i) {
    const Query q = test.Next();
    auto pred = model.PredictMean(q);
    ASSERT_TRUE(pred.ok());
    sse += (pred.value() - f(q)) * (pred.value() - f(q));
  }
  const double rmse = std::sqrt(sse / m);
  EXPECT_LT(rmse, 0.05) << "K=" << model.num_prototypes();
}

TEST(LlmModelTest, GammaDecreasesOverTraining) {
  LlmModel model(LlmConfig::ForDimension(2, 0.4));
  auto cfg = query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.1, 0.02, 21);
  query::WorkloadGenerator gen(cfg);
  util::Rng rng(8);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const Query q = gen.Next();
    ASSERT_TRUE(model.Observe(q, 0.3 * q.center[0] + rng.Gaussian(0, 0.01)).ok());
    if (i == 100) early = model.CurrentGamma();
  }
  late = model.CurrentGamma();
  EXPECT_LT(late, early);
}

// ---------- Prediction paths (Algorithms 2 & 3) ----------

class PredictionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LlmConfig c = LlmConfig::ForDimension(1, 0.3);
    model_ = std::make_unique<LlmModel>(c);
    // Train two well-separated prototypes on two different local lines:
    //   left  (x≈0.2): y = 1 + 2 (x − 0.2)
    //   right (x≈2.0): y = 5 − 1 (x − 2.0)
    util::Rng rng(31);
    for (int i = 0; i < 8000; ++i) {
      const double xl = 0.2 + rng.Uniform(-0.1, 0.1);
      ASSERT_TRUE(
          model_->Observe(Query({xl}, 0.1 + rng.Uniform(-0.02, 0.02)),
                          1.0 + 2.0 * (xl - 0.2))
              .ok());
      const double xr = 2.0 + rng.Uniform(-0.1, 0.1);
      ASSERT_TRUE(
          model_->Observe(Query({xr}, 0.1 + rng.Uniform(-0.02, 0.02)),
                          5.0 - 1.0 * (xr - 2.0))
              .ok());
    }
    ASSERT_EQ(model_->num_prototypes(), 2);
  }

  std::unique_ptr<LlmModel> model_;
};

TEST_F(PredictionTest, OverlapSetFindsNearbyPrototype) {
  Neighbourhood hood;
  model_->Sweep(Query({0.2}, 0.1), &hood);
  ASSERT_EQ(hood.overlap_size(), 1u);
  EXPECT_EQ(hood.overlap_index(0), 0);  // The left prototype, spawned first.
  EXPECT_EQ(hood.nearest(), 0);
  // Far query overlapping nothing.
  model_->Sweep(Query({10.0}, 0.1), &hood);
  EXPECT_EQ(hood.overlap_size(), 0u);
  // Huge ball overlaps both.
  model_->Sweep(Query({1.0}, 5.0), &hood);
  EXPECT_EQ(hood.overlap_size(), 2u);
}

TEST_F(PredictionTest, PredictMeanNearPrototypeIsLocalValue) {
  auto y = model_->PredictMean(Query({0.25}, 0.1));
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(*y, 1.0 + 2.0 * 0.05, 0.05);
}

TEST_F(PredictionTest, PredictMeanFallsBackToNearestWhenNoOverlap) {
  // x = 3.0 overlaps nothing (prototypes near 0.2 and 2.0 with θ≈0.1);
  // nearest is the right prototype: extrapolate its line.
  auto y = model_->PredictMean(Query({3.0}, 0.05));
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(*y, 5.0 - 1.0 * 1.0, 0.25);
}

TEST_F(PredictionTest, RegressionQueryReturnsLocalLines) {
  auto s = model_->RegressionQuery(Query({0.2}, 0.1));
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->size(), 1u);
  const LocalLinearModel& m = (*s)[0];
  // Local line: slope 2, intercept 1 − 2*0.2 = 0.6 (in absolute coords).
  EXPECT_NEAR(m.slope[0], 2.0, 0.15);
  EXPECT_NEAR(m.intercept, 0.6, 0.1);
  EXPECT_NEAR(m.weight, 1.0, 1e-9);  // single member => δ̃ = 1
}

TEST_F(PredictionTest, RegressionQueryBigBallReturnsBothPieces) {
  auto s = model_->RegressionQuery(Query({1.0}, 5.0));
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->size(), 2u);
  double wsum = 0.0;
  for (const auto& m : *s) wsum += m.weight;
  EXPECT_NEAR(wsum, 1.0, 1e-9);
  // One piece has slope ≈ 2, the other ≈ −1.
  const double s0 = (*s)[0].slope[0];
  const double s1 = (*s)[1].slope[0];
  EXPECT_NEAR(std::max(s0, s1), 2.0, 0.2);
  EXPECT_NEAR(std::min(s0, s1), -1.0, 0.2);
}

TEST_F(PredictionTest, RegressionQueryCase3Extrapolates) {
  auto s = model_->RegressionQuery(Query({10.0}, 0.01));
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->size(), 1u);
  EXPECT_DOUBLE_EQ((*s)[0].weight, 0.0);  // extrapolation marker
  EXPECT_NEAR((*s)[0].slope[0], -1.0, 0.15);
}

TEST_F(PredictionTest, PredictValueMatchesLocalLine) {
  auto u = model_->PredictValue(Query({0.2}, 0.1), {0.3});
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR(*u, 1.0 + 2.0 * 0.1, 0.06);
}

TEST_F(PredictionTest, NearestOnlyModeUsesSinglePrototype) {
  // Same trained prototypes, different prediction policy via a round trip
  // through the serializer (configs are immutable on the model).
  std::ostringstream ss;
  ASSERT_TRUE(ModelSerializer::Save(*model_, &ss).ok());
  std::istringstream in(ss.str());
  auto loaded = ModelSerializer::Load(&in);
  ASSERT_TRUE(loaded.ok());
  auto y = loaded->PredictMean(Query({0.25}, 0.1));
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(*y, 1.0 + 2.0 * 0.05, 0.05);
}

TEST(LlmModelTest, EmptyModelPredictionFails) {
  LlmModel model(LlmConfig::ForDimension(2));
  EXPECT_EQ(model.PredictMean(Query({0.1, 0.1}, 0.1)).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(model.RegressionQuery(Query({0.1, 0.1}, 0.1)).ok());
  EXPECT_FALSE(model.PredictValue(Query({0.1, 0.1}, 0.1), {0.1, 0.1}).ok());
}

TEST(LlmModelTest, QueryWithNoFiniteDistanceIsInvalidArgument) {
  // A finite center so far out that every squared distance overflows to
  // +inf: the sweep finds no nearest prototype, and every path that needs
  // one refuses with a typed error instead of reading prototype -1.
  LlmModel model(LlmConfig::ForDimension(2, 0.25));
  ASSERT_TRUE(model.Observe(Query({0.2, 0.2}, 0.1), 1.0).ok());
  ASSERT_TRUE(model.Observe(Query({0.8, 0.8}, 0.1), 2.0).ok());
  ASSERT_EQ(model.num_prototypes(), 2u);

  const Query far({1e200, 1e200}, 0.1);
  Neighbourhood hood;
  model.Sweep(far, &hood);
  EXPECT_EQ(hood.nearest(), -1);
  EXPECT_TRUE(std::isinf(hood.nearest_distance()));
  EXPECT_EQ(model.PredictMean(far).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model.RegressionQuery(far).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model.Observe(far, 0.0).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model.num_prototypes(), 2u);
}

TEST(LlmModelTest, ParameterBytesScaleWithK) {
  LlmModel model(LlmConfig::ForDimension(2, 0.1));
  EXPECT_EQ(model.ParameterBytes(), 0);
  ASSERT_TRUE(model.Observe(Query({0.1, 0.1}, 0.1), 1.0).ok());
  const int64_t one = model.ParameterBytes();
  ASSERT_TRUE(model.Observe(Query({5.0, 5.0}, 0.1), 1.0).ok());
  EXPECT_EQ(model.ParameterBytes(), 2 * one);
}

// ---------- Serialization ----------

TEST(ModelIoTest, RoundTripPreservesEverything) {
  LlmConfig c = LlmConfig::ForDimension(3, 0.3, 0.02);
  c.seed_y_with_answer = true;
  LlmModel model(c);
  auto cfg = query::WorkloadConfig::Cube(3, -1.0, 1.0, 0.2, 0.05, 55);
  query::WorkloadGenerator gen(cfg);
  util::Rng rng(56);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(model.Observe(gen.Next(), rng.Gaussian()).ok());
  }
  model.Freeze();

  std::ostringstream ss;
  ASSERT_TRUE(ModelSerializer::Save(model, &ss).ok());
  std::istringstream in(ss.str());
  auto loaded = ModelSerializer::Load(&in);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->num_prototypes(), model.num_prototypes());
  EXPECT_EQ(loaded->observations(), model.observations());
  EXPECT_TRUE(loaded->frozen());
  EXPECT_EQ(loaded->config().d, model.config().d);
  EXPECT_DOUBLE_EQ(loaded->config().vigilance, model.config().vigilance);

  // Bit-exact prototypes and identical predictions.
  for (int k = 0; k < model.num_prototypes(); ++k) {
    const auto& a = model.prototypes()[static_cast<size_t>(k)];
    const auto& b = loaded->prototypes()[static_cast<size_t>(k)];
    EXPECT_EQ(a.w.center, b.w.center);
    EXPECT_EQ(a.w.theta, b.w.theta);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.b_x, b.b_x);
    EXPECT_EQ(a.b_theta, b.b_theta);
    EXPECT_EQ(a.wins, b.wins);
  }
  for (int i = 0; i < 50; ++i) {
    const Query q = gen.Next();
    EXPECT_DOUBLE_EQ(*model.PredictMean(q), *loaded->PredictMean(q));
  }
}

TEST(ModelIoTest, GarbageStreamRejected) {
  std::istringstream in("definitely not a model");
  EXPECT_FALSE(ModelSerializer::Load(&in).ok());
}

TEST(ModelIoTest, WrongVersionRejected) {
  std::istringstream in("qreg-llm-model 999\n");
  EXPECT_EQ(ModelSerializer::Load(&in).status().code(),
            util::StatusCode::kNotImplemented);
}

TEST(ModelIoTest, TruncatedStreamRejected) {
  LlmModel model(LlmConfig::ForDimension(2));
  ASSERT_TRUE(model.Observe(Query({0.1, 0.1}, 0.1), 1.0).ok());
  std::ostringstream ss;
  ASSERT_TRUE(ModelSerializer::Save(model, &ss).ok());
  const std::string full = ss.str();
  std::istringstream in(full.substr(0, full.size() / 2));
  EXPECT_FALSE(ModelSerializer::Load(&in).ok());
}

// A saved model with three prototypes, as text.
std::string SavedModelText() {
  LlmModel model(LlmConfig::ForDimension(2));
  for (double x : {0.0, 5.0, 10.0}) {
    EXPECT_TRUE(model.Observe(Query({x, x}, 0.1), x).ok());
  }
  EXPECT_EQ(model.num_prototypes(), 3);
  std::ostringstream ss;
  EXPECT_TRUE(ModelSerializer::Save(model, &ss).ok());
  return ss.str();
}

// `text` with the value of header field `key` replaced by `value`.
std::string WithField(std::string text, const std::string& key,
                      const std::string& value) {
  const size_t at = text.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key;
  const size_t begin = at + key.size() + 2;
  return text.replace(begin, text.find('\n', begin) - begin, value);
}

util::StatusCode LoadCode(const std::string& text) {
  std::istringstream in(text);
  return ModelSerializer::Load(&in).status().code();
}

TEST(ModelIoTest, CorruptHeaderIsATypedErrorNotACrash) {
  const std::string text = SavedModelText();
  ASSERT_EQ(LoadCode(text), util::StatusCode::kOk);
  // Negative counts and out-of-range enum values.
  const std::vector<std::pair<std::string, std::string>> corrupt = {
      {"prototypes", "-1"}, {"d", "-1"},       {"observations", "-5"},
      {"schedule", "7"},    {"schedule", "-1"}, {"prediction", "9"}};
  for (const auto& [key, value] : corrupt) {
    EXPECT_EQ(LoadCode(WithField(text, key, value)),
              util::StatusCode::kInvalidArgument)
        << key << " " << value;
  }
  // Counts larger than the stream: the loader runs out of values before it
  // allocates for them.
  EXPECT_EQ(LoadCode(WithField(text, "prototypes", "2000000000")),
            util::StatusCode::kIoError);
  EXPECT_EQ(LoadCode(WithField(text, "d", "4000000000000000000")),
            util::StatusCode::kIoError);
  // A negative win count on a prototype line.
  std::string negative_wins = text;
  const size_t last_space = negative_wins.rfind(' ');
  negative_wins.replace(last_space + 1, std::string::npos, "-3\n");
  EXPECT_EQ(LoadCode(negative_wins), util::StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, EveryProperPrefixFailsAsTruncated) {
  const std::string text = SavedModelText();
  const size_t magic = std::string("qreg-llm-model").size();
  for (size_t len = 0; len < text.size(); ++len) {
    // A prefix shorter than the magic word is not a model stream at all;
    // any longer one is a truncated model.
    EXPECT_EQ(LoadCode(text.substr(0, len)),
              len < magic ? util::StatusCode::kInvalidArgument
                          : util::StatusCode::kIoError)
        << "prefix of " << len << " of " << text.size() << " bytes";
  }
  EXPECT_EQ(LoadCode(text), util::StatusCode::kOk);
}

TEST(ModelIoTest, FileRoundTrip) {
  LlmModel model(LlmConfig::ForDimension(2));
  ASSERT_TRUE(model.Observe(Query({0.1, 0.1}, 0.1), 1.0).ok());
  const std::string path = testing::TempDir() + "/qreg_model_test.txt";
  ASSERT_TRUE(ModelSerializer::SaveToFile(model, path).ok());
  auto loaded = ModelSerializer::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_prototypes(), 1);
  EXPECT_FALSE(ModelSerializer::LoadFromFile("/no/such/file.txt").ok());
}

// ---------- Trainer ----------

class TrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<storage::Table>(2);
    util::Rng rng(61);
    for (int i = 0; i < 20000; ++i) {
      std::vector<double> x{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      ASSERT_TRUE(table_->Append(x, 0.5 + 0.3 * x[0] - 0.2 * x[1]).ok());
    }
    index_ = std::make_unique<storage::KdTree>(*table_);
    engine_ = std::make_unique<query::ExactEngine>(*table_, *index_);
  }

  std::unique_ptr<storage::Table> table_;
  std::unique_ptr<storage::KdTree> index_;
  std::unique_ptr<query::ExactEngine> engine_;
};

TEST_F(TrainerTest, ConvergesAndFreezes) {
  LlmModel model(LlmConfig::ForDimension(2, 0.25));
  TrainerConfig tc;
  tc.max_pairs = 50000;
  tc.min_pairs = 200;
  Trainer trainer(*engine_, tc);
  auto cfg = query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.15, 0.03, 71);
  query::WorkloadGenerator gen(cfg);
  auto report = trainer.Train(&gen, &model);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  EXPECT_LE(report->final_gamma, model.config().gamma);
  EXPECT_GT(report->pairs_used, 0);
  EXPECT_GT(report->num_prototypes, 0);
  EXPECT_TRUE(model.frozen());
  // Most of the training time goes to exact query execution (paper: 99.62%).
  EXPECT_GT(report->QueryExecFraction(), 0.5);
}

TEST_F(TrainerTest, SkipsEmptySubspaces) {
  LlmModel model(LlmConfig::ForDimension(2, 0.25));
  TrainerConfig tc;
  tc.max_pairs = 100;
  tc.min_pairs = 100000;  // never converge
  Trainer trainer(*engine_, tc);
  // Half the query volume lies far outside the data cube.
  auto cfg = query::WorkloadConfig::Cube(2, 0.0, 3.0, 0.05, 0.001, 73);
  query::WorkloadGenerator gen(cfg);
  auto report = trainer.Train(&gen, &model);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->pairs_skipped, 0);
  EXPECT_EQ(report->pairs_used, 100);
}

TEST_F(TrainerTest, GammaTraceRecorded) {
  LlmModel model(LlmConfig::ForDimension(2, 0.25));
  TrainerConfig tc;
  tc.max_pairs = 500;
  tc.min_pairs = 1000;  // don't converge; exercise tracing
  tc.trace_every = 100;
  Trainer trainer(*engine_, tc);
  auto cfg = query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.15, 0.03, 79);
  query::WorkloadGenerator gen(cfg);
  auto report = trainer.Train(&gen, &model);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->gamma_trace.size(), 5u);
  EXPECT_EQ(report->gamma_trace[0].first, 100);
  EXPECT_EQ(report->gamma_trace[4].first, 500);
}

TEST_F(TrainerTest, TrainFromPairsMatchesOnlineTraining) {
  auto cfg = query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.15, 0.03, 83);
  query::WorkloadGenerator gen(cfg);
  std::vector<query::QueryAnswer> pairs;
  for (int i = 0; i < 2000; ++i) {
    const Query q = gen.Next();
    auto mean = engine_->MeanValue(q);
    if (mean.ok()) pairs.push_back({q, mean->mean});
  }

  TrainerConfig tc;
  tc.max_pairs = 100000;
  tc.min_pairs = static_cast<int64_t>(pairs.size()) + 1;  // no early stop
  Trainer trainer(*engine_, tc);

  LlmModel m1(LlmConfig::ForDimension(2, 0.25));
  auto r1 = trainer.TrainFromPairs(pairs, &m1);
  ASSERT_TRUE(r1.ok());

  LlmModel m2(LlmConfig::ForDimension(2, 0.25));
  for (const auto& p : pairs) ASSERT_TRUE(m2.Observe(p.q, p.y).ok());

  ASSERT_EQ(m1.num_prototypes(), m2.num_prototypes());
  for (int k = 0; k < m1.num_prototypes(); ++k) {
    EXPECT_EQ(m1.prototypes()[static_cast<size_t>(k)].y,
              m2.prototypes()[static_cast<size_t>(k)].y);
  }
}

// ---------- Lookahead training == serial training ----------

// The serial trainer's stream, replayed on a copy of a generator: draw one
// query, scan it, keep it when its subspace is non-empty. drawn[i] counts
// the queries drawn through pairs[i].
struct SerialReplay {
  std::vector<query::QueryAnswer> pairs;
  std::vector<int64_t> drawn;
};

SerialReplay ReplaySerial(const query::ExactEngine& engine,
                          query::WorkloadGenerator gen, int64_t max_pairs) {
  SerialReplay replay;
  int64_t drawn = 0;
  while (static_cast<int64_t>(replay.pairs.size()) < max_pairs) {
    const query::Query q = gen.Next();
    ++drawn;
    auto mean = engine.MeanValue(q);
    if (!mean.ok()) continue;
    replay.pairs.push_back({q, mean->mean});
    replay.drawn.push_back(drawn);
  }
  return replay;
}

std::string ModelBytes(const LlmModel& model) {
  std::ostringstream os;
  EXPECT_TRUE(ModelSerializer::Save(model, &os).ok());
  return os.str();
}

// Trains with Trainer::Train on pools of 0, 1 and 3 workers (0 = the serial
// loop, otherwise lookahead windows) and with TrainFromPairs over serially
// computed answers, and requires the same model bytes, the same report
// counters and Γ trace, and the caller's generator left exactly where the
// serial trainer leaves it, for every pool.
void ExpectTrainMatchesSerial(const query::ExactEngine& engine,
                              const TrainerConfig& tc,
                              const query::WorkloadConfig& workload,
                              TrainingReport* out = nullptr) {
  const LlmConfig llm = LlmConfig::ForDimension(2, 0.25);
  Trainer trainer(engine, tc);

  const SerialReplay replay =
      ReplaySerial(engine, query::WorkloadGenerator(workload), tc.max_pairs);
  LlmModel serial_model(llm);
  auto serial = trainer.TrainFromPairs(replay.pairs, &serial_model);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->pairs_used, 0);
  // The serial trainer drew exactly the queries through its last pair.
  const int64_t drawn = replay.drawn[static_cast<size_t>(serial->pairs_used) - 1];

  for (size_t workers : {0, 1, 3}) {
    SCOPED_TRACE(::testing::Message() << workers << " pool workers");
    util::ThreadPool pool(workers);
    LlmModel model(llm);
    query::WorkloadGenerator gen(workload);
    auto report = trainer.Train(&gen, &model, &pool);
    ASSERT_TRUE(report.ok()) << report.status();

    ASSERT_EQ(report->pairs_used, serial->pairs_used);
    EXPECT_EQ(ModelBytes(model), ModelBytes(serial_model));
    EXPECT_EQ(model.frozen(), serial_model.frozen());
    EXPECT_EQ(report->converged, serial->converged);
    EXPECT_EQ(report->final_gamma, serial->final_gamma);
    EXPECT_EQ(report->num_prototypes, serial->num_prototypes);
    EXPECT_EQ(report->gamma_trace, serial->gamma_trace);
    EXPECT_EQ(report->pairs_skipped, drawn - serial->pairs_used);
    query::WorkloadGenerator serial_gen(workload);
    for (int64_t i = 0; i < drawn; ++i) serial_gen.Next();
    EXPECT_EQ(gen.Next(), serial_gen.Next());
    if (out != nullptr) *out = std::move(report).value();
  }
}

TEST_F(TrainerTest, LookaheadMatchesSerialOnFixedBudget) {
  TrainerConfig tc;
  tc.max_pairs = 1000;    // Several windows, the last one clamped.
  tc.min_pairs = 100000;  // never converge
  tc.trace_every = 100;
  TrainingReport report;
  ExpectTrainMatchesSerial(
      *engine_, tc, query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.15, 0.03, 79),
      &report);
  EXPECT_EQ(report.pairs_used, 1000);
  EXPECT_EQ(report.gamma_trace.size(), 10u);
}

TEST_F(TrainerTest, LookaheadMatchesSerialWhenConvergingMidWindow) {
  TrainerConfig tc;
  tc.max_pairs = 5000;
  tc.min_pairs = 200;
  tc.trace_every = 50;
  TrainingReport report;
  ExpectTrainMatchesSerial(
      *engine_, tc, query::WorkloadConfig::Cube(2, 0.0, 1.0, 0.15, 0.03, 71),
      &report);
  // Convergence stopped training inside a window: the scans read ahead of
  // the converging pair must leak into neither the model nor the counters.
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.pairs_used, tc.max_pairs);
}

TEST_F(TrainerTest, LookaheadMatchesSerialWithEmptySubspaces) {
  TrainerConfig tc;
  tc.max_pairs = 600;
  tc.min_pairs = 100000;  // never converge
  TrainingReport report;
  ExpectTrainMatchesSerial(
      *engine_, tc, query::WorkloadConfig::Cube(2, 0.0, 3.0, 0.05, 0.001, 73),
      &report);
  EXPECT_GT(report.pairs_skipped, 0);
  EXPECT_EQ(report.pairs_used, 600);
}


// ---------- One sweep vs the straightforward loops ----------
//
// The reference below is the per-function code the one-pass kernel
// replaced: separate loops over the prototypes for the nearest prototype,
// the overlap set and the δ weights, with δ computed as Definition 6's
// predicate followed by a second L2 distance. Every output of the kernel
// must match it bit for bit.

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double RefDegreeOfOverlap(const Query& a, const Query& b) {
  const storage::LpNorm l2 = storage::LpNorm::L2();
  const double theta_sum = a.theta + b.theta;
  if (!(l2.Distance2(a.center.data(), b.center.data(), a.dimension()) <=
        theta_sum * theta_sum)) {
    return 0.0;
  }
  const double center_dist =
      l2.Distance(a.center.data(), b.center.data(), a.dimension());
  if (theta_sum <= 0.0) return 0.0;
  const double ratio =
      std::max(center_dist, std::fabs(a.theta - b.theta)) / theta_sum;
  return std::clamp(1.0 - ratio, 0.0, 1.0);
}

double RefSlopeScale(const LlmModel& m, const Prototype& p) {
  if (m.config().slope_shrinkage <= 0.0) return 1.0;
  const double n = static_cast<double>(p.wins);
  return n / (n + m.config().slope_shrinkage);
}

int32_t RefNearestPrototype(const LlmModel& m, const Query& q) {
  int32_t best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < m.prototypes().size(); ++k) {
    const double d2 = query::QueryDistanceSquared(q, m.prototypes()[k].w);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int32_t>(k);
    }
  }
  return best;
}

double RefNearestPrototypeDistance(const LlmModel& m, const Query& q) {
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const Prototype& p : m.prototypes()) {
    best_d2 = std::min(best_d2, query::QueryDistanceSquared(q, p.w));
  }
  return std::sqrt(best_d2);
}

std::vector<int32_t> RefOverlapSet(const LlmModel& m, const Query& q) {
  std::vector<int32_t> overlap;
  for (size_t k = 0; k < m.prototypes().size(); ++k) {
    if (RefDegreeOfOverlap(q, m.prototypes()[k].w) > 0.0) {
      overlap.push_back(static_cast<int32_t>(k));
    }
  }
  return overlap;
}

double RefWeighted(const LlmModel& m, const Query& q,
                   const std::vector<int32_t>& overlap,
                   const std::vector<double>* x) {
  double delta_sum = 0.0;
  std::vector<double> deltas(overlap.size(), 0.0);
  for (size_t i = 0; i < overlap.size(); ++i) {
    deltas[i] = RefDegreeOfOverlap(
        q, m.prototypes()[static_cast<size_t>(overlap[i])].w);
    delta_sum += deltas[i];
  }
  double out = 0.0;
  for (size_t i = 0; i < overlap.size(); ++i) {
    const Prototype& p = m.prototypes()[static_cast<size_t>(overlap[i])];
    const double f = x != nullptr ? p.PredictData(*x, RefSlopeScale(m, p))
                                  : p.PredictQuery(q, RefSlopeScale(m, p));
    out += (deltas[i] / delta_sum) * f;
  }
  return out;
}

// Algorithm 2 (x == nullptr) or Eq. 14 at x.
double RefPredict(const LlmModel& m, const Query& q,
                  const std::vector<double>* x) {
  const std::vector<int32_t> overlap = RefOverlapSet(m, q);
  if (m.config().prediction == PredictionMode::kNearestOnly ||
      overlap.empty()) {
    const Prototype& p =
        m.prototypes()[static_cast<size_t>(RefNearestPrototype(m, q))];
    return x != nullptr ? p.PredictData(*x, RefSlopeScale(m, p))
                        : p.PredictQuery(q, RefSlopeScale(m, p));
  }
  return RefWeighted(m, q, overlap, x);
}

std::vector<LocalLinearModel> RefRegressionQuery(const LlmModel& m,
                                                 const Query& q) {
  std::vector<LocalLinearModel> s;
  const std::vector<int32_t> overlap = RefOverlapSet(m, q);
  if (overlap.empty() ||
      m.config().prediction == PredictionMode::kNearestOnly) {
    const int32_t j = RefNearestPrototype(m, q);
    const Prototype& p = m.prototypes()[static_cast<size_t>(j)];
    s.push_back(p.ToDataModel(j, 0.0, RefSlopeScale(m, p)));
    return s;
  }
  double delta_sum = 0.0;
  std::vector<double> deltas(overlap.size(), 0.0);
  for (size_t i = 0; i < overlap.size(); ++i) {
    deltas[i] = RefDegreeOfOverlap(
        q, m.prototypes()[static_cast<size_t>(overlap[i])].w);
    delta_sum += deltas[i];
  }
  for (size_t i = 0; i < overlap.size(); ++i) {
    const Prototype& p = m.prototypes()[static_cast<size_t>(overlap[i])];
    s.push_back(
        p.ToDataModel(overlap[i], deltas[i] / delta_sum, RefSlopeScale(m, p)));
  }
  return s;
}

void ExpectSameModels(const std::vector<LocalLinearModel>& got,
                      const std::vector<LocalLinearModel>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].prototype_id, want[i].prototype_id) << where;
    EXPECT_EQ(Bits(got[i].intercept), Bits(want[i].intercept)) << where;
    EXPECT_EQ(Bits(got[i].weight), Bits(want[i].weight)) << where;
    ASSERT_EQ(got[i].slope.size(), want[i].slope.size()) << where;
    for (size_t j = 0; j < got[i].slope.size(); ++j) {
      EXPECT_EQ(Bits(got[i].slope[j]), Bits(want[i].slope[j])) << where;
    }
  }
}

// Every sweep-backed output of `m` at `q` against the reference loops.
void ExpectMatchesReference(const LlmModel& m, const Query& q,
                            const std::string& label) {
  const std::string where = label + " at " + q.ToString();
  EXPECT_EQ(Bits(m.NearestPrototypeDistance(q)),
            Bits(RefNearestPrototypeDistance(m, q)))
      << where;
  const std::vector<int32_t> overlap = RefOverlapSet(m, q);

  Neighbourhood hood;
  m.Sweep(q, &hood);
  EXPECT_EQ(hood.nearest(), RefNearestPrototype(m, q)) << where;
  EXPECT_EQ(Bits(hood.nearest_distance()),
            Bits(RefNearestPrototypeDistance(m, q)))
      << where;
  ASSERT_EQ(hood.overlap_size(), overlap.size()) << where;
  for (size_t i = 0; i < overlap.size(); ++i) {
    EXPECT_EQ(hood.overlap_index(i), overlap[i]) << where;
    EXPECT_EQ(Bits(hood.overlap_delta(i)),
              Bits(RefDegreeOfOverlap(
                  q, m.prototypes()[static_cast<size_t>(overlap[i])].w)))
        << where;
  }

  const double want_mean = RefPredict(m, q, nullptr);
  auto mean = m.PredictMean(q);
  ASSERT_TRUE(mean.ok()) << where;
  EXPECT_EQ(Bits(*mean), Bits(want_mean)) << where;
  auto mean_hood = m.PredictMean(q, hood);
  ASSERT_TRUE(mean_hood.ok()) << where;
  EXPECT_EQ(Bits(*mean_hood), Bits(want_mean)) << where;

  const std::vector<LocalLinearModel> want_s = RefRegressionQuery(m, q);
  auto s = m.RegressionQuery(q);
  ASSERT_TRUE(s.ok()) << where;
  ExpectSameModels(*s, want_s, where);
  auto s_hood = m.RegressionQuery(q, hood);
  ASSERT_TRUE(s_hood.ok()) << where;
  ExpectSameModels(*s_hood, want_s, where);

  std::vector<double> x = q.center;
  for (double& v : x) v += 0.01;
  for (const std::vector<double>* at : {&q.center, &std::as_const(x)}) {
    auto u = m.PredictValue(q, *at);
    ASSERT_TRUE(u.ok()) << where;
    EXPECT_EQ(Bits(*u), Bits(RefPredict(m, q, at))) << where;
  }
}

// In-region workload queries, far-away ones (empty overlap set), and balls
// large enough to overlap most of the codebook.
void ExpectMatchesReferenceOnWorkload(const LlmModel& m,
                                      const std::string& label,
                                      uint64_t seed) {
  const size_t d = m.config().d;
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(d, 0.0, 1.0, 0.1, 0.05, seed));
  util::Rng rng(seed + 1);
  for (int i = 0; i < 150; ++i) {
    ExpectMatchesReference(m, gen.Next(), label + " in-region");
  }
  for (int i = 0; i < 20; ++i) {
    std::vector<double> c(d);
    for (double& v : c) v = rng.Uniform(3.0, 6.0);
    const Query far(c, rng.Uniform(0.01, 0.2));
    Neighbourhood hood;
    m.Sweep(far, &hood);
    ASSERT_EQ(hood.overlap_size(), 0u) << label;
    ExpectMatchesReference(m, far, label + " outside");
  }
  for (int i = 0; i < 10; ++i) {
    std::vector<double> c(d);
    for (double& v : c) v = rng.Uniform();
    ExpectMatchesReference(m, Query(c, rng.Uniform(0.5, 1.5)),
                           label + " wide");
  }
}

LlmModel TrainOnCube(LlmConfig c, int pairs, uint64_t seed) {
  LlmModel model(c);
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(c.d, 0.0, 1.0, 0.1, 0.05, seed));
  util::Rng rng(seed + 7);
  for (int i = 0; i < pairs; ++i) {
    const Query q = gen.Next();
    double y = 0.0;
    for (double v : q.center) y += std::sin(3.0 * v);
    EXPECT_TRUE(model.Observe(q, y + 0.05 * rng.Gaussian()).ok());
  }
  return model;
}

TEST(SweepReferenceTest, VigilanceGrownModelsMatchBitForBit) {
  for (size_t d : {1, 2, 3, 4, 9}) {
    const LlmModel m =
        TrainOnCube(LlmConfig::ForDimension(d, d == 9 ? 0.15 : 0.08), 3000,
                    100 + d);
    ASSERT_GT(m.num_prototypes(), 1);
    ExpectMatchesReferenceOnWorkload(m, "d=" + std::to_string(d), 200 + d);
  }
}

TEST(SweepReferenceTest, AblationModelsMatchBitForBit) {
  LlmConfig fixed = LlmConfig::ForDimension(2, 0.1);
  fixed.fixed_k = 40;
  ExpectMatchesReferenceOnWorkload(TrainOnCube(fixed, 2000, 11), "fixed-K", 12);

  LlmConfig nearest = LlmConfig::ForDimension(2, 0.1);
  nearest.prediction = PredictionMode::kNearestOnly;
  ExpectMatchesReferenceOnWorkload(TrainOnCube(nearest, 2000, 13), "nearest",
                                   14);

  LlmConfig unshrunk = LlmConfig::ForDimension(3, 0.1);
  unshrunk.slope_shrinkage = 0.0;
  ExpectMatchesReferenceOnWorkload(TrainOnCube(unshrunk, 2000, 15),
                                   "no-shrinkage", 16);
}

TEST(SweepReferenceTest, ReloadedObservedAndReplasticizedModelsMatch) {
  LlmModel m = TrainOnCube(LlmConfig::ForDimension(2, 0.06), 2000, 21);
  std::stringstream ss;
  ASSERT_TRUE(ModelSerializer::Save(m, &ss).ok());
  auto loaded = ModelSerializer::Load(&ss);
  ASSERT_TRUE(loaded.ok());
  ExpectMatchesReferenceOnWorkload(*loaded, "reloaded", 22);

  // Updates move the winners' rows and spawns add rows.
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, -0.5, 1.5, 0.1, 0.05, 23));
  const int32_t before = m.num_prototypes();
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(m.Observe(gen.Next(), 0.5).ok());
  ASSERT_GT(m.num_prototypes(), before);
  ExpectMatchesReferenceOnWorkload(m, "observed", 24);

  m.ResetPlasticity(2);
  ExpectMatchesReferenceOnWorkload(m, "replasticized", 25);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(m.Observe(gen.Next(), -0.5).ok());
  ExpectMatchesReferenceOnWorkload(m, "observed after reset", 26);
}

TEST(SweepReferenceTest, ManyOverlapsSpillPastTheInlineBuffer) {
  const LlmModel m = TrainOnCube(LlmConfig::ForDimension(1, 0.01), 4000, 31);
  const Query wide({0.5}, 1.0);
  Neighbourhood hood;
  m.Sweep(wide, &hood);
  ASSERT_GT(hood.overlap_size(), Neighbourhood::kInlineOverlaps);
  ExpectMatchesReference(m, wide, "spill");
  ExpectMatchesReferenceOnWorkload(m, "d=1 fine", 32);
}

TEST(SweepReferenceTest, TouchingBallsAndTiedDistancesMatch) {
  // A hand-placed codebook with exactly representable coordinates: the
  // first three distinct queries seed a fixed-K model.
  LlmConfig c = LlmConfig::ForDimension(2, 0.1);
  c.fixed_k = 3;
  LlmModel m(c);
  ASSERT_TRUE(m.Observe(Query({0.25, 0.5}, 0.25), 1.0).ok());
  ASSERT_TRUE(m.Observe(Query({0.75, 0.5}, 0.25), 2.0).ok());
  ASSERT_TRUE(m.Observe(Query({0.5, 2.0}, 0.125), 3.0).ok());
  ASSERT_EQ(m.num_prototypes(), 3);

  // Balls that just touch prototype 2: s = (θ + θ_2)² exactly, so A holds
  // and δ = 0 keeps it out of W(q).
  const Query touch({0.5, 2.0 - 0.375}, 0.25);
  EXPECT_EQ(query::DegreeOfOverlap(touch, m.prototypes()[2].w), 0.0);
  ExpectMatchesReference(m, touch, "touching");

  // Equidistant from prototypes 0 and 1: the first index wins.
  const Query tie({0.5, 0.5}, 0.25);
  Neighbourhood hood;
  m.Sweep(tie, &hood);
  EXPECT_EQ(hood.nearest(), 0);
  ExpectMatchesReference(m, tie, "tie");
  const Query tie_apart({0.5, 0.5}, 0.01);  // Overlaps both, tied nearest.
  ExpectMatchesReference(m, tie_apart, "tie with overlap");

  // Overlapping nothing: Case 3 extrapolates the nearest prototype.
  const Query none({0.5, 1.25}, 0.01);
  m.Sweep(none, &hood);
  EXPECT_EQ(hood.overlap_size(), 0u);
  ExpectMatchesReference(m, none, "empty overlap");
}

}  // namespace
}  // namespace core
}  // namespace qreg

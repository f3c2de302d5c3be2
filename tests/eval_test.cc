// Unit tests for src/eval metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "eval/metrics.h"

namespace qreg {
namespace eval {
namespace {

TEST(RmseTest, PerfectPredictionIsZero) {
  EXPECT_DOUBLE_EQ(Rmse({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(RmseTest, KnownValue) {
  // errors: 1, -1 -> mse 1 -> rmse 1
  EXPECT_DOUBLE_EQ(Rmse({1, 2}, {0, 3}), 1.0);
  // errors: 3, 4 -> mse 12.5
  EXPECT_DOUBLE_EQ(Rmse({3, 4}, {0, 0}), std::sqrt(12.5));
}

TEST(RmseTest, AccumulatorMatchesBatch) {
  RmseAccumulator acc;
  acc.Add(1, 0);
  acc.Add(2, 3);
  acc.Add(5, 5);
  EXPECT_EQ(acc.count(), 3);
  EXPECT_DOUBLE_EQ(acc.Rmse(), Rmse({1, 2, 5}, {0, 3, 5}));
  acc.Reset();
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.Rmse(), 0.0);
}

TEST(FvuTest, PerfectFitIsZeroUnexplained) {
  EXPECT_DOUBLE_EQ(Fvu({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(FvuTest, MeanPredictorHasFvuOne) {
  // Predicting the mean of the actuals leaves exactly TSS unexplained.
  std::vector<double> actual{1, 2, 3, 4};
  std::vector<double> mean_pred(4, 2.5);
  EXPECT_DOUBLE_EQ(Fvu(actual, mean_pred), 1.0);
}

TEST(FvuTest, WorseThanMeanExceedsOne) {
  std::vector<double> actual{1, 2, 3, 4};
  std::vector<double> bad(4, 100.0);
  EXPECT_GT(Fvu(actual, bad), 1.0);
}

TEST(FvuTest, ConstantActualsEdgeCases) {
  // TSS = 0 with SSR = 0: define FVU = 0 (perfect).
  EXPECT_DOUBLE_EQ(Fvu({2, 2}, {2, 2}), 0.0);
  // TSS = 0 with SSR > 0: +inf.
  EXPECT_TRUE(std::isinf(Fvu({2, 2}, {3, 3})));
}

TEST(FvuTest, AccumulatorMatchesBatch) {
  FvuAccumulator acc;
  std::vector<double> a{1, 5, 2, 8};
  std::vector<double> p{2, 4, 2, 7};
  for (size_t i = 0; i < a.size(); ++i) acc.Add(a[i], p[i]);
  EXPECT_NEAR(acc.Fvu(), Fvu(a, p), 1e-12);
  EXPECT_NEAR(acc.CoD(), 1.0 - Fvu(a, p), 1e-12);
}

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(PercentileTest, KnownQuantiles) {
  std::vector<double> v{4, 1, 3, 2, 5};  // sorted: 1 2 3 4 5
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 75), 7.5);
}

}  // namespace
}  // namespace eval
}  // namespace qreg

// Unit tests for src/util: Status/Result, Rng, Format, TablePrinter, env
// knobs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/env.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace qreg {
namespace util {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dimension");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dimension");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad dimension");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 12; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, UnavailableFactoryCarriesCode) {
  const Status s = Status::Unavailable("going away");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "going away");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status(), Status::OK());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailingOp() { return Status::IoError("disk"); }

Status UsesReturnNotOk() {
  QREG_RETURN_NOT_OK(FailingOp());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_EQ(UsesReturnNotOk().code(), StatusCode::kIoError);
}

Result<int> GivesSeven() { return 7; }

Result<int> UsesAssignOrReturn() {
  QREG_ASSIGN_OR_RETURN(int v, GivesSeven());
  return v + 1;
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto r = UsesAssignOrReturn();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 8);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(RngTest, UniformIntBoundsAndCoverage) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    counts[static_cast<size_t>(v)]++;
  }
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, DeriveSeedsDistinct) {
  auto seeds = DeriveSeeds(42, 16);
  ASSERT_EQ(seeds.size(), 16u);
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) EXPECT_NE(seeds[i], seeds[j]);
  }
}

// ---------- string_util ----------

TEST(StringUtilTest, FormatBasics) {
  EXPECT_EQ(Format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(Format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(Format("empty"), "empty");
}

// ---------- TablePrinter ----------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22.5"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Header columns are aligned: "value" appears at the same offset in both
  // data rows' columns.
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, NumericRowFormatting) {
  TablePrinter t({"x"});
  t.AddNumericRow({0.123456789}, 3);
  EXPECT_EQ(t.rows()[0][0], "0.123");
}

// ---------- env ----------

TEST(EnvTest, Int64ParseAndDefault) {
  ::setenv("QREG_TEST_INT", "123", 1);
  EXPECT_EQ(GetEnvInt64("QREG_TEST_INT", 5), 123);
  ::unsetenv("QREG_TEST_INT");
  EXPECT_EQ(GetEnvInt64("QREG_TEST_INT", 5), 5);
  ::setenv("QREG_TEST_INT", "garbage", 1);
  EXPECT_EQ(GetEnvInt64("QREG_TEST_INT", 5), 5);
  ::unsetenv("QREG_TEST_INT");
}

TEST(EnvTest, DoubleParseAndDefault) {
  ::setenv("QREG_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("QREG_TEST_DBL", 1.0), 2.5);
  ::unsetenv("QREG_TEST_DBL");
  EXPECT_DOUBLE_EQ(GetEnvDouble("QREG_TEST_DBL", 1.0), 1.0);
}

TEST(EnvTest, BoolTruthyValues) {
  ::setenv("QREG_TEST_BOOL", "1", 1);
  EXPECT_TRUE(GetEnvBool("QREG_TEST_BOOL", false));
  ::setenv("QREG_TEST_BOOL", "true", 1);
  EXPECT_TRUE(GetEnvBool("QREG_TEST_BOOL", false));
  ::setenv("QREG_TEST_BOOL", "0", 1);
  EXPECT_FALSE(GetEnvBool("QREG_TEST_BOOL", true));
  ::unsetenv("QREG_TEST_BOOL");
  EXPECT_TRUE(GetEnvBool("QREG_TEST_BOOL", true));
}

// ---------- timer ----------

TEST(TimerTest, StopwatchMeasuresNonNegative) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GE(sw.ElapsedNanos(), 0);
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

// ---------- logging ----------

TEST(LoggingTest, LevelFilteringIsMonotonic) {
  const LogLevel prev = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  // Nothing to assert on stderr output here; exercise the path.
  QREG_LOG_INFO << "suppressed";
  QREG_LOG_ERROR << "emitted";
  SetMinLogLevel(prev);
  SUCCEED();
}

}  // namespace
}  // namespace util
}  // namespace qreg

// Unit + property tests for src/linalg: Matrix, Cholesky, Householder QR,
// and both OLS paths (streaming accumulator and batch QR).

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/ols.h"
#include "linalg/qr.h"
#include "util/rng.h"

namespace qreg {
namespace linalg {
namespace {

// ---------- Matrix ----------

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, IdentityAndMatMul) {
  Matrix i3 = Matrix::Identity(3);
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 10}});
  EXPECT_DOUBLE_EQ(m.MatMul(i3).MaxAbsDiff(m), 0.0);
  EXPECT_DOUBLE_EQ(i3.MatMul(m).MaxAbsDiff(m), 0.0);
}

TEST(MatrixTest, MatMulKnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t.Transpose().MaxAbsDiff(m), 0.0);
}

TEST(MatrixTest, MatVecAndTransposeMatVec) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  auto y = m.MatVec({1.0, -1.0});
  EXPECT_EQ(y, (std::vector<double>{-1.0, -1.0, -1.0}));
  auto z = m.TransposeMatVec({1.0, 1.0, 1.0});
  EXPECT_EQ(z, (std::vector<double>{9.0, 12.0}));
}

TEST(MatrixTest, RowColAccessors) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.Row(1), (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(m.Col(0), (std::vector<double>{1.0, 3.0}));
}

// ---------- Cholesky ----------

TEST(CholeskyTest, FactorsKnownSpdMatrix) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  // L L^T == A
  Matrix rec = l->MatMul(l->Transpose());
  EXPECT_LT(rec.MaxAbsDiff(a), 1e-12);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_EQ(CholeskyFactor(a).status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_EQ(CholeskyFactor(a).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  Matrix a = Matrix::FromRows({{4, 2, 0}, {2, 5, 1}, {0, 1, 3}});
  const std::vector<double> x_true{1.0, -2.0, 0.5};
  const std::vector<double> b = a.MatVec(x_true);
  auto x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-12);
}

TEST(CholeskyTest, RegularizedSolveHandlesSingular) {
  // Rank-1 matrix: plain Cholesky fails, regularized succeeds.
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  EXPECT_FALSE(CholeskySolve(a, {1.0, 1.0}).ok());
  auto x = CholeskySolveRegularized(a, {1.0, 1.0});
  ASSERT_TRUE(x.ok());
  // The regularized solution still nearly satisfies the (consistent) system.
  EXPECT_NEAR((*x)[0] + (*x)[1], 1.0, 1e-3);
}

TEST(CholeskyTest, RandomSpdRoundTrip) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(6));
    Matrix g(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) g(i, j) = rng.Gaussian();
    }
    // A = G G^T + I is SPD.
    Matrix a = g.MatMul(g.Transpose());
    for (size_t i = 0; i < n; ++i) a(i, i) += 1.0;
    std::vector<double> x_true(n);
    for (size_t i = 0; i < n; ++i) x_true[i] = rng.Gaussian();
    auto x = CholeskySolve(a, a.MatVec(x_true));
    ASSERT_TRUE(x.ok());
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-9);
  }
}

// ---------- QR ----------

TEST(QrTest, ExactSolveSquareSystem) {
  Matrix a = Matrix::FromRows({{2, 1}, {1, 3}});
  const std::vector<double> x_true{3.0, -1.0};
  auto x = QrLeastSquares(a, a.MatVec(x_true));
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], -1.0, 1e-12);
}

TEST(QrTest, OverdeterminedLeastSquares) {
  // y = 2x + 1 with exact data: residual must be ~0.
  Matrix a = Matrix::FromRows({{1, 0}, {1, 1}, {1, 2}, {1, 3}});
  std::vector<double> b{1, 3, 5, 7};
  auto x = QrLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(QrTest, MinimizesResidualOnNoisyData) {
  util::Rng rng(31);
  const size_t n = 200;
  Matrix a(n, 3);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = rng.Uniform(-1, 1);
    a(i, 2) = rng.Uniform(-1, 1);
    b[i] = 0.5 - 2.0 * a(i, 1) + 0.25 * a(i, 2) + rng.Gaussian(0.0, 0.01);
  }
  auto x = QrLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 0.5, 0.01);
  EXPECT_NEAR((*x)[1], -2.0, 0.01);
  EXPECT_NEAR((*x)[2], 0.25, 0.01);
}

TEST(QrTest, RankDeficientMapsFreeCoordinatesToZero) {
  // Second column duplicates the first: one coefficient family; solver
  // should return a finite solution with the redundant coordinate zeroed.
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  std::vector<double> b{2, 4, 6};
  auto x = QrLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  const double pred = (*x)[0] + (*x)[1];  // effective slope on the shared column
  EXPECT_NEAR(pred, 2.0, 1e-9);
}

TEST(QrTest, UnderdeterminedRejected) {
  Matrix a(1, 3);
  EXPECT_FALSE(QrLeastSquares(a, {1.0}).ok());
}

TEST(QrTest, RhsSizeMismatchRejected) {
  Matrix a(3, 2);
  EXPECT_EQ(QrLeastSquares(a, {1.0}).status().code(),
            util::StatusCode::kInvalidArgument);
}

// ---------- OLS ----------

TEST(OlsTest, FitRecoversExactLinearModel) {
  util::Rng rng(41);
  const size_t n = 100, d = 3;
  Matrix x(n, d);
  std::vector<double> u(n);
  const std::vector<double> slope{1.5, -0.5, 2.0};
  const double intercept = 0.75;
  for (size_t i = 0; i < n; ++i) {
    double s = intercept;
    for (size_t j = 0; j < d; ++j) {
      x(i, j) = rng.Uniform(0, 1);
      s += slope[j] * x(i, j);
    }
    u[i] = s;
  }
  auto fit = FitOls(x, u);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept, intercept, 1e-10);
  for (size_t j = 0; j < d; ++j) EXPECT_NEAR(fit->slope[j], slope[j], 1e-10);
  EXPECT_NEAR(fit->FVU(), 0.0, 1e-12);
  EXPECT_NEAR(fit->CoD(), 1.0, 1e-12);
}

TEST(OlsTest, AccumulatorMatchesBatchFit) {
  util::Rng rng(43);
  const size_t n = 500, d = 4;
  Matrix x(n, d);
  std::vector<double> u(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x(i, j) = rng.Uniform(0, 1);
    u[i] = rng.Gaussian(0.0, 1.0) + 2.0 * x(i, 0) - x(i, 2);
  }
  auto batch = FitOls(x, u);
  ASSERT_TRUE(batch.ok());

  OlsAccumulator acc(d);
  for (size_t i = 0; i < n; ++i) acc.Add(x.RowPtr(i), u[i]);
  auto stream = acc.Solve();
  ASSERT_TRUE(stream.ok());

  EXPECT_NEAR(stream->intercept, batch->intercept, 1e-8);
  for (size_t j = 0; j < d; ++j) EXPECT_NEAR(stream->slope[j], batch->slope[j], 1e-8);
  EXPECT_NEAR(stream->ssr, batch->ssr, 1e-6 * (1.0 + batch->ssr));
  EXPECT_NEAR(stream->tss, batch->tss, 1e-6 * (1.0 + batch->tss));
}

TEST(OlsTest, MergeEqualsSinglePass) {
  util::Rng rng(47);
  const size_t d = 2;
  OlsAccumulator whole(d), part1(d), part2(d);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const double u = 1.0 + x[0] - 3.0 * x[1] + rng.Gaussian(0, 0.1);
    whole.Add(x, u);
    (i % 2 == 0 ? part1 : part2).Add(x, u);
  }
  ASSERT_TRUE(part1.Merge(part2).ok());
  auto a = whole.Solve();
  auto b = part1.Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->intercept, b->intercept, 1e-10);
  EXPECT_NEAR(a->slope[0], b->slope[0], 1e-10);
  EXPECT_NEAR(a->ssr, b->ssr, 1e-8);
}

TEST(OlsTest, MergeDimensionMismatchRejected) {
  OlsAccumulator a(2), b(3);
  EXPECT_EQ(a.Merge(b).code(), util::StatusCode::kInvalidArgument);
}

TEST(OlsTest, EmptyAccumulatorFails) {
  OlsAccumulator acc(2);
  EXPECT_EQ(acc.Solve().status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(OlsTest, SinglePointDegenerateButFinite) {
  OlsAccumulator acc(2);
  acc.Add({0.5, 0.5}, 3.0);
  auto fit = acc.Solve();
  ASSERT_TRUE(fit.ok());
  // With one observation the fit should pass (approximately) through it.
  EXPECT_NEAR(fit->Predict({0.5, 0.5}), 3.0, 1e-3);
}

TEST(OlsTest, PredictUsesInterceptAndSlope) {
  OlsFit fit;
  fit.intercept = 1.0;
  fit.slope = {2.0, -1.0};
  EXPECT_DOUBLE_EQ(fit.Predict({1.0, 1.0}), 2.0);
}

TEST(OlsTest, FvuGreaterThanOneForBadFit) {
  // A constant-zero "fit" on data with non-zero mean has SSR > TSS.
  OlsFit fit;
  fit.ssr = 10.0;
  fit.tss = 4.0;
  EXPECT_GT(fit.FVU(), 1.0);
  EXPECT_LT(fit.CoD(), 0.0);
}

TEST(OlsTest, ResetClearsState) {
  OlsAccumulator acc(1);
  acc.Add({1.0}, 2.0);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0);
  EXPECT_FALSE(acc.Solve().ok());
}

// Parameterized property: the accumulator recovers planted linear models at
// several dimensions and sample sizes.
class OlsRecoveryTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OlsRecoveryTest, RecoversPlantedCoefficients) {
  const int d = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  util::Rng rng(1000 + static_cast<uint64_t>(d * 31 + n));
  std::vector<double> slope(static_cast<size_t>(d));
  for (auto& s : slope) s = rng.Uniform(-2, 2);
  const double intercept = rng.Uniform(-1, 1);

  OlsAccumulator acc(static_cast<size_t>(d));
  std::vector<double> x(static_cast<size_t>(d));
  for (int i = 0; i < n; ++i) {
    double u = intercept;
    for (int j = 0; j < d; ++j) {
      x[static_cast<size_t>(j)] = rng.Uniform(0, 1);
      u += slope[static_cast<size_t>(j)] * x[static_cast<size_t>(j)];
    }
    acc.Add(x, u);
  }
  auto fit = acc.Solve();
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept, intercept, 1e-7);
  for (int j = 0; j < d; ++j) {
    EXPECT_NEAR(fit->slope[static_cast<size_t>(j)], slope[static_cast<size_t>(j)],
                1e-7);
  }
  EXPECT_NEAR(fit->CoD(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSizes, OlsRecoveryTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(50, 200, 1000)));

}  // namespace
}  // namespace linalg
}  // namespace qreg

// Unit tests for src/linalg: views, owning matrices, dense ops, and the
// small SPD solver that backs the ALS search.

#include <gtest/gtest.h>

#include "src/linalg/matrix.h"
#include "src/linalg/ops.h"

namespace fmm {
namespace {

TEST(MatView, BlockSelectsSubmatrix) {
  Matrix m(4, 6);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 6; ++j) m(i, j) = 10.0 * i + j;
  ConstMatView b = m.view().block(1, 2, 2, 3);
  EXPECT_EQ(b.rows(), 2);
  EXPECT_EQ(b.cols(), 3);
  EXPECT_EQ(b.stride(), 6);
  EXPECT_DOUBLE_EQ(b(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(b(1, 2), 24.0);
}

TEST(MatView, NestedBlocksCompose) {
  Matrix m(8, 8);
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 8; ++j) m(i, j) = 8.0 * i + j;
  MatView outer = m.view().block(2, 2, 6, 6);
  MatView inner = outer.block(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ(inner(0, 0), m(3, 3));
  EXPECT_DOUBLE_EQ(inner(1, 1), m(4, 4));
}

TEST(Matrix, StridedStorage) {
  Matrix m(3, 4, 10);  // padded rows
  EXPECT_EQ(m.stride(), 10);
  m.fill(1.0);
  EXPECT_DOUBLE_EQ(m(2, 3), 1.0);
}

TEST(Matrix, CloneIsDeep) {
  Matrix a = Matrix::random(5, 5, 99);
  Matrix b = a.clone();
  b(0, 0) += 1.0;
  EXPECT_NE(a(0, 0), b(0, 0));
}

TEST(Matrix, RandomIsDeterministicPerSeed) {
  Matrix a = Matrix::random(4, 4, 7);
  Matrix b = Matrix::random(4, 4, 7);
  EXPECT_EQ(max_abs_diff(a.view(), b.view()), 0.0);
  Matrix c = Matrix::random(4, 4, 8);
  EXPECT_GT(max_abs_diff(a.view(), c.view()), 0.0);
}

TEST(Ops, MaxAbsDiff) {
  Matrix a = Matrix::zero(3, 3), b = Matrix::zero(3, 3);
  b(1, 2) = -0.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 0.5);
}

TEST(Ops, RelErrorFro) {
  Matrix a(2, 2), b(2, 2);
  b.fill(1.0);
  a.fill(1.0);
  a(0, 0) = 1.1;
  const double e = rel_error_fro(a.view(), b.view());
  EXPECT_NEAR(e, 0.1 / 2.0, 1e-12);  // ||a-b||_F = 0.1, ||b||_F = 2
}

TEST(SpdSolver, SolvesDiagonalSystem) {
  std::vector<double> g = {4, 0, 0, 9};  // diag(4, 9)
  std::vector<double> rhs = {8, 27};     // one rhs column
  ASSERT_TRUE(solve_spd_inplace(g, 2, rhs, 1));
  EXPECT_NEAR(rhs[0], 2.0, 1e-9);
  EXPECT_NEAR(rhs[1], 3.0, 1e-9);
}

TEST(SpdSolver, SolvesDenseSpdWithMultipleRhs) {
  // G = M^T M for M = [[1,2],[3,4]] -> G = [[10,14],[14,20]].
  std::vector<double> g = {10, 14, 14, 20};
  // Solve G X = B with B chosen so X = [[1,0],[0,1]] -> B = G.
  std::vector<double> rhs = {10, 14, 14, 20};
  ASSERT_TRUE(solve_spd_inplace(g, 2, rhs, 2));
  EXPECT_NEAR(rhs[0], 1.0, 1e-8);
  EXPECT_NEAR(rhs[1], 0.0, 1e-8);
  EXPECT_NEAR(rhs[2], 0.0, 1e-8);
  EXPECT_NEAR(rhs[3], 1.0, 1e-8);
}

TEST(SpdSolver, SurvivesSemidefiniteGramViaJitter) {
  // Rank-1 Gram: jitter must keep Cholesky alive.
  std::vector<double> g = {1, 1, 1, 1};
  std::vector<double> rhs = {1, 1};
  EXPECT_TRUE(solve_spd_inplace(g, 2, rhs, 1));
}

}  // namespace
}  // namespace fmm

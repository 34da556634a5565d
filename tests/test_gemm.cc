// GEMM driver tests: the fused 5-loop engine against the naive reference,
// across shapes, strides, blocking configs, thread counts, and with
// weighted multi-operand lists (the FMM building block), plus the
// prepacked-B~ form of the fused multiply.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/gemm/fused.h"
#include "src/gemm/gemm.h"
#include "src/gemm/pack.h"
#include "src/linalg/matrix.h"
#include "src/linalg/ops.h"
#include "src/util/prng.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

using test::expect_gemm_matches_ref;
using test::tol_classical;

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesReference) {
  auto [m, n, k] = GetParam();
  expect_gemm_matches_ref(m, n, k, GemmConfig{}, 1000 + m + 31 * n + 77 * k);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(8, 6, 4),
                      std::make_tuple(16, 12, 8), std::make_tuple(5, 3, 2),
                      std::make_tuple(7, 13, 11), std::make_tuple(64, 64, 64),
                      std::make_tuple(100, 100, 100),
                      std::make_tuple(97, 101, 89),
                      std::make_tuple(128, 1, 128),
                      std::make_tuple(1, 128, 128),
                      std::make_tuple(128, 128, 1),
                      std::make_tuple(300, 200, 150),
                      std::make_tuple(257, 255, 513)));

TEST(Gemm, LargerThanAllCacheBlocks) {
  // Exercise all five loops: m > mc, k > kc, n > nc.
  GemmConfig cfg;
  cfg.mc = 32;
  cfg.kc = 24;
  cfg.nc = 36;
  expect_gemm_matches_ref(131, 117, 103, cfg, 42);
}

TEST(Gemm, SingleThreadMatches) {
  GemmConfig cfg;
  cfg.num_threads = 1;
  expect_gemm_matches_ref(150, 140, 130, cfg, 43);
}

TEST(Gemm, ManyThreadsMatch) {
  GemmConfig cfg;
  cfg.num_threads = 8;
  expect_gemm_matches_ref(200, 180, 160, cfg, 44);
}

TEST(Gemm, AccumulatesIntoExistingC) {
  Matrix a = Matrix::random(20, 10, 1);
  Matrix b = Matrix::random(10, 15, 2);
  Matrix c = Matrix::zero(20, 15);
  gemm(c.view(), a.view(), b.view());
  gemm(c.view(), a.view(), b.view());
  Matrix d = Matrix::zero(20, 15);
  ref_gemm(d.view(), a.view(), b.view());
  ref_gemm(d.view(), a.view(), b.view());
  EXPECT_LE(max_abs_diff(c.view(), d.view()), 1e-11);
}

TEST(Gemm, WorksOnStridedViews) {
  // Operate on interior blocks of larger parents.
  Matrix pa = Matrix::random(50, 60, 5);
  Matrix pb = Matrix::random(60, 70, 6);
  Matrix pc = Matrix::zero(50, 70);
  ConstMatView a = pa.view().block(3, 4, 30, 20);
  ConstMatView b = pb.view().block(7, 9, 20, 40);
  MatView c = pc.view().block(5, 6, 30, 40);
  gemm(c, a, b);
  Matrix want = Matrix::zero(30, 40);
  ref_gemm(want.view(), a, b);
  EXPECT_LE(max_abs_diff(c, want.view()), 1e-12 * 20);
}

TEST(FusedMultiply, WeightedATerms) {
  // C += (A0 - A1) * B  via a two-term A list.
  const index_t m = 24, n = 18, k = 12;
  Matrix big = Matrix::random(2 * m, k, 7);
  Matrix b = Matrix::random(k, n, 8);
  Matrix c = Matrix::zero(m, n);
  LinTerm at[2] = {{big.data(), 1.0}, {big.data() + m * big.stride(), -1.0}};
  LinTerm bt{b.data(), 1.0};
  OutTerm ct{c.data(), 1.0};
  GemmWorkspace ws;
  fused_multiply(m, n, k, at, 2, big.stride(), &bt, 1, b.stride(), &ct, 1,
                 c.stride(), ws, GemmConfig{});
  // Reference: form the sum explicitly.
  Matrix s = Matrix::zero(m, k);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < k; ++j) s(i, j) = big(i, j) - big(m + i, j);
  Matrix want = Matrix::zero(m, n);
  ref_gemm(want.view(), s.view(), b.view());
  EXPECT_LE(max_abs_diff(c.view(), want.view()), 1e-12 * k);
}

TEST(FusedMultiply, WeightedBTermsAndMultiC) {
  // C0 += 1.0 * M, C1 -= 1.0 * M with M = A * (B0 + 0.5 B1).
  const index_t m = 16, n = 12, k = 10;
  Matrix a = Matrix::random(m, k, 9);
  Matrix bigb = Matrix::random(2 * k, n, 10);
  Matrix c0 = Matrix::zero(m, n), c1 = Matrix::zero(m, n);
  LinTerm at{a.data(), 1.0};
  LinTerm bt[2] = {{bigb.data(), 1.0}, {bigb.data() + k * bigb.stride(), 0.5}};
  OutTerm ct[2] = {{c0.data(), 1.0}, {c1.data(), -1.0}};
  GemmWorkspace ws;
  fused_multiply(m, n, k, &at, 1, a.stride(), bt, 2, bigb.stride(), ct, 2,
                 c0.stride(), ws, GemmConfig{});
  Matrix s = Matrix::zero(k, n);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j) s(i, j) = bigb(i, j) + 0.5 * bigb(k + i, j);
  Matrix want = Matrix::zero(m, n);
  ref_gemm(want.view(), a.view(), s.view());
  EXPECT_LE(max_abs_diff(c0.view(), want.view()), 1e-12 * k);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(c1(i, j), -c0(i, j), 1e-13);
}

TEST(FusedMultiply, DegenerateDimensionsAreNoOps) {
  Matrix a = Matrix::random(4, 4, 1);
  Matrix c = Matrix::random(4, 4, 2);
  Matrix before = c.clone();
  LinTerm at{a.data(), 1.0};
  OutTerm ct{c.data(), 1.0};
  GemmWorkspace ws;
  // k = 0: nothing to accumulate.
  fused_multiply(4, 4, 0, &at, 1, 4, &at, 1, 4, &ct, 1, 4, ws, GemmConfig{});
  EXPECT_EQ(max_abs_diff(c.view(), before.view()), 0.0);
  // m = 0 and n = 0: no output region.
  fused_multiply(0, 4, 4, &at, 1, 4, &at, 1, 4, &ct, 1, 4, ws, GemmConfig{});
  fused_multiply(4, 0, 4, &at, 1, 4, &at, 1, 4, &ct, 1, 4, ws, GemmConfig{});
  EXPECT_EQ(max_abs_diff(c.view(), before.view()), 0.0);
}

// C += (A0 - 0.5 A1)(B0 + 2 B1) into two targets, once packing B~ inside
// fused_multiply and once from a B~ that pack_b prepacked at mR for the
// whole k x n sum: the two must agree bit for bit.
template <typename T>
void expect_prepacked_b_matches(index_t m, index_t n, index_t k, int threads,
                                int mc, int nc, bool want_jr_parallel) {
  GemmConfig cfg;
  cfg.num_threads = threads;
  cfg.mc = mc;
  cfg.kc = 64;
  cfg.nc = nc;
  const BlockingParams bp = resolve_blocking(cfg, DTypeOf<T>::value);
  ASSERT_LE(k, bp.kc);
  ASSERT_EQ(choose_loop_mode(n, bp.mc, bp.mr, threads).jr_parallel,
            want_jr_parallel);
  Xoshiro256 rng(static_cast<std::uint64_t>(m * 1000 + n * 10 + threads));
  auto random = [&](index_t elems) {
    std::vector<T> v(static_cast<std::size_t>(elems));
    for (T& e : v) e = static_cast<T>(rng.uniform(-1, 1));
    return v;
  };
  const std::vector<T> a = random(2 * m * k), b = random(2 * k * n);
  const LinTermT<T> a_terms[2] = {{a.data(), 1.0}, {a.data() + m * k, -0.5}};
  const LinTermT<T> b_terms[2] = {{b.data(), 1.0}, {b.data() + k * n, 2.0}};
  std::vector<T> b_packed(static_cast<std::size_t>(round_up(n, bp.mr) * k));
  pack_b<T>(b_terms, 2, n, k, n, bp.mr, b_packed.data());

  for (const bool accumulate : {true, false}) {
    SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                 " threads=" + std::to_string(threads) +
                 " accumulate=" + std::to_string(accumulate));
    const std::vector<T> c0 = random(2 * m * n);
    std::vector<T> packing = c0, prepacked = c0;
    for (std::vector<T>* c : {&packing, &prepacked}) {
      const OutTermT<T> c_terms[2] = {{c->data(), 1.0},
                                      {c->data() + m * n, -1.0}};
      GemmWorkspaceT<T> ws;
      fused_multiply<T>(m, n, k, a_terms, 2, k, b_terms, 2, n, c_terms, 2, n,
                        ws, cfg, accumulate,
                        c == &prepacked ? b_packed.data() : nullptr);
    }
    EXPECT_EQ(std::memcmp(packing.data(), prepacked.data(),
                          packing.size() * sizeof(T)),
              0);
    EXPECT_NE(std::memcmp(packing.data(), c0.data(), c0.size() * sizeof(T)),
              0);
  }
}

template <typename T>
void expect_prepacked_b_cases() {
  const GemmConfig dflt;
  const BlockingParams bp = resolve_blocking(dflt, DTypeOf<T>::value);
  // n % mR != 0 everywhere: the last B~ panel is a zero-padded edge
  // panel.  nc = 2 nR makes j_c take several steps on any host.
  const index_t edge = 2 * bp.mr + 3;
  const int nc = 2 * bp.nr;
  // i_c loop, serial, several m_C tiles.
  expect_prepacked_b_matches<T>(70, edge, 50, 1, bp.mr, nc, false);
  expect_prepacked_b_matches<T>(70, edge, 50, 1, 0, 0, false);
  // i_c loop at 4 threads.
  expect_prepacked_b_matches<T>(70, 12 * bp.mr + 1, 50, 4, bp.mr, nc, false);
  // j_r mode: n <= mR cannot feed 4 threads from the i_c loop.
  expect_prepacked_b_matches<T>(70, bp.mr - 1, 50, 4, 0, nc, true);
  expect_prepacked_b_matches<T>(70, bp.mr - 1, 50, 4, 0, 0, true);
}

TEST(FusedMultiply, PrepackedBMatchesPackingBitwise) {
  expect_prepacked_b_cases<double>();
  expect_prepacked_b_cases<float>();
}

TEST(Gemm, WorkspaceReuseAcrossShapes) {
  GemmWorkspace ws;
  GemmConfig cfg;
  for (auto [m, n, k] : {std::tuple<int, int, int>{30, 40, 50},
                         std::tuple<int, int, int>{100, 20, 10},
                         std::tuple<int, int, int>{7, 7, 7}}) {
    Matrix a = Matrix::random(m, k, m);
    Matrix b = Matrix::random(k, n, n);
    Matrix c = Matrix::zero(m, n);
    gemm(c.view(), a.view(), b.view(), ws, cfg);
    Matrix d = Matrix::zero(m, n);
    ref_gemm(d.view(), a.view(), b.view());
    EXPECT_LE(max_abs_diff(c.view(), d.view()), tol_classical(k));
  }
}

}  // namespace
}  // namespace fmm

// Threading tests: determinism and correctness of the data-parallel
// execution (TaskPool regions) across thread counts, for GEMM and all FMM
// variants.

#include <gtest/gtest.h>

#include <thread>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/linalg/ops.h"
#include "src/util/timer.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

Matrix run_fmm(const Plan& plan, int threads, index_t m, index_t n, index_t k) {
  test::RandomProblem p = test::random_problem(m, n, k, 7, /*zero_c=*/true);
  GemmConfig cfg;
  cfg.num_threads = threads;
  EXPECT_TRUE(
      default_engine().multiply(plan, p.c.view(), p.a.view(), p.b.view(), cfg)
          .ok());
  return std::move(p.c);
}

TEST(Parallel, GemmIsDeterministicAcrossThreadCounts) {
  // The ic-loop parallelization never splits a dot product, so results are
  // bitwise identical for any thread count.
  Matrix a = Matrix::random(200, 300, 1);
  Matrix b = Matrix::random(300, 150, 2);
  Matrix c1 = Matrix::zero(200, 150);
  Matrix c8 = Matrix::zero(200, 150);
  GemmConfig cfg1, cfg8;
  cfg1.num_threads = 1;
  cfg8.num_threads = 8;
  gemm(c1.view(), a.view(), b.view(), cfg1);
  gemm(c8.view(), a.view(), b.view(), cfg8);
  EXPECT_EQ(max_abs_diff(c1.view(), c8.view()), 0.0);
}

class ParallelVariant : public ::testing::TestWithParam<Variant> {};

TEST_P(ParallelVariant, BitwiseIdenticalAcrossThreadCounts) {
  const Plan plan = make_plan({catalog::best(2, 2, 2)}, GetParam());
  const Matrix c1 = run_fmm(plan, 1, 129, 131, 127);
  for (int threads : {2, 4, 8}) {
    const Matrix ct = run_fmm(plan, threads, 129, 131, 127);
    EXPECT_EQ(max_abs_diff(c1.view(), ct.view()), 0.0)
        << variant_name(GetParam()) << " with " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ParallelVariant,
                         ::testing::Values(Variant::kNaive, Variant::kAB,
                                           Variant::kABC),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return variant_name(info.param);
                         });

TEST(Parallel, TwoLevelHybridManyThreads) {
  const Plan plan = make_plan(
      {catalog::best(2, 2, 2), catalog::best(3, 3, 3)}, Variant::kABC);
  const Matrix c1 = run_fmm(plan, 1, 6 * 31, 6 * 29, 6 * 30);
  const Matrix cn = run_fmm(plan, resolve_threads(GemmConfig{}), 6 * 31,
                            6 * 29, 6 * 30);
  EXPECT_EQ(max_abs_diff(c1.view(), cn.view()), 0.0);
}

TEST(Parallel, OversubscribedThreadsStillCorrect) {
  // More threads than ic-blocks: some threads idle, result unchanged.
  GemmConfig cfg;
  cfg.num_threads = 16;
  cfg.mc = 96;  // 2 blocks for m=150 -> 14 idle threads
  Matrix a = Matrix::random(150, 100, 3);
  Matrix b = Matrix::random(100, 120, 4);
  Matrix c = Matrix::zero(150, 120);
  gemm(c.view(), a.view(), b.view(), cfg);
  Matrix d = Matrix::zero(150, 120);
  ref_gemm(d.view(), a.view(), b.view());
  EXPECT_LE(max_abs_diff(c.view(), d.view()), 1e-10);
}

TEST(Parallel, JrParallelModeKicksInForShortM) {
  // m smaller than threads*mc forces the 2nd-loop-parallel mode with the
  // cooperatively packed shared A-tile; results must stay bitwise equal to
  // the single-thread run.
  GemmConfig cfg1, cfgN;
  cfg1.num_threads = 1;
  cfgN.num_threads = 16;  // 16 threads, but only ceil(100/96)=2 ic blocks
  Matrix a = Matrix::random(100, 500, 9);
  Matrix b = Matrix::random(500, 900, 10);
  Matrix c1 = Matrix::zero(100, 900);
  Matrix cN = Matrix::zero(100, 900);
  gemm(c1.view(), a.view(), b.view(), cfg1);
  gemm(cN.view(), a.view(), b.view(), cfgN);
  EXPECT_EQ(max_abs_diff(c1.view(), cN.view()), 0.0);
}

TEST(Parallel, OverwriteModeMatchesZeroThenAccumulate) {
  // fused_multiply(accumulate=false) into a garbage buffer must equal
  // zero-fill + accumulate, across both parallel modes and k > kc.
  for (int threads : {1, 8}) {
    GemmConfig cfg;
    cfg.num_threads = threads;
    Matrix a = Matrix::random(64, 600, 11);  // k=600 > kc: 3 k-blocks
    Matrix b = Matrix::random(600, 72, 12);
    Matrix dirty(64, 72);
    dirty.fill(1e33);  // poison: must be fully overwritten
    Matrix clean = Matrix::zero(64, 72);
    GemmWorkspace ws;
    LinTerm at{a.data(), 1.0};
    LinTerm bt{b.data(), 1.0};
    OutTerm od{dirty.data(), 1.0};
    OutTerm oc{clean.data(), 1.0};
    fused_multiply(64, 72, 600, &at, 1, a.stride(), &bt, 1, b.stride(), &od,
                   1, dirty.stride(), ws, cfg, /*accumulate=*/false);
    fused_multiply(64, 72, 600, &at, 1, a.stride(), &bt, 1, b.stride(), &oc,
                   1, clean.stride(), ws, cfg, /*accumulate=*/true);
    EXPECT_EQ(max_abs_diff(dirty.view(), clean.view()), 0.0)
        << "threads=" << threads;
  }
}

TEST(Parallel, OverwriteModeWithZeroKClearsTargets) {
  GemmConfig cfg;
  Matrix c(8, 8);
  c.fill(5.0);
  GemmWorkspace ws;
  Matrix a = Matrix::random(8, 4, 1);
  LinTerm at{a.data(), 1.0};
  OutTerm ct{c.data(), 1.0};
  fused_multiply(8, 8, 0, &at, 1, 4, &at, 1, 4, &ct, 1, c.stride(), ws, cfg,
                 /*accumulate=*/false);
  EXPECT_EQ(max_abs(c.view()), 0.0);
}

TEST(Parallel, OverwriteModeAcrossMultipleJcStripes) {
  // n > nc: every jc stripe sees its own pc == 0 block; the overwrite
  // logic must clear each stripe exactly once.
  GemmConfig cfg;
  cfg.nc = 12;  // tiny (rounded up to the tile width): force many jc stripes
  cfg.num_threads = 4;
  Matrix a = Matrix::random(32, 300, 21);
  Matrix b = Matrix::random(300, 96, 22);
  Matrix dirty(32, 96);
  dirty.fill(-4e44);
  GemmWorkspace ws;
  LinTerm at{a.data(), 1.0};
  LinTerm bt{b.data(), 1.0};
  OutTerm ot{dirty.data(), 1.0};
  fused_multiply(32, 96, 300, &at, 1, a.stride(), &bt, 1, b.stride(), &ot, 1,
                 dirty.stride(), ws, cfg, /*accumulate=*/false);
  Matrix want = Matrix::zero(32, 96);
  ref_gemm(want.view(), a.view(), b.view());
  EXPECT_LE(max_abs_diff(dirty.view(), want.view()), 1e-11);
}

TEST(Parallel, SpeedupOnLargeProblem) {
  // Weak guarantee (CI boxes vary): 8 threads at least 2x faster than 1.
  // Meaningless on boxes with too few cores to show a 2x.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have " << hw;
  }
  const index_t s = 1536;
  Matrix a = Matrix::random(s, s, 5);
  Matrix b = Matrix::random(s, s, 6);
  Matrix c = Matrix::zero(s, s);
  GemmWorkspace ws;
  GemmConfig cfg1, cfg8;
  cfg1.num_threads = 1;
  cfg8.num_threads = 8;
  gemm(c.view(), a.view(), b.view(), ws, cfg1);  // warm
  Timer t1;
  gemm(c.view(), a.view(), b.view(), ws, cfg1);
  const double s1 = t1.seconds();
  gemm(c.view(), a.view(), b.view(), ws, cfg8);  // warm
  Timer t8;
  gemm(c.view(), a.view(), b.view(), ws, cfg8);
  const double s8 = t8.seconds();
  EXPECT_LT(s8, s1 / 2.0);
}

}  // namespace
}  // namespace fmm

// Threading tests: determinism and correctness of the data-parallel
// execution (TaskPool regions) across thread counts, for GEMM and all FMM
// variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/gemm/fused.h"
#include "src/linalg/ops.h"
#include "src/util/prng.h"
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
  // The i_c loop splits C's columns: 5 mR-wide column blocks cannot feed
  // half of 16 threads even after the m_C shrink, so the 2nd-loop-parallel
  // mode with the cooperatively packed shared B~ tile runs; results must
  // stay bitwise equal to the single-thread run.
  GemmConfig cfg1, cfgN;
  cfg1.num_threads = 1;
  cfgN.num_threads = 16;
  const BlockingParams bp = resolve_blocking(cfgN);
  const index_t m = 900, n = 5 * bp.mr, k = 500;
  EXPECT_TRUE(choose_loop_mode(n, bp.mc, bp.mr, 16).jr_parallel);
  Matrix a = Matrix::random(m, k, 9);
  Matrix b = Matrix::random(k, n, 10);
  Matrix c1 = Matrix::zero(m, n);
  Matrix cN = Matrix::zero(m, n);
  gemm(c1.view(), a.view(), b.view(), cfg1);
  gemm(cN.view(), a.view(), b.view(), cfgN);
  EXPECT_EQ(max_abs_diff(c1.view(), cN.view()), 0.0);
}

TEST(Parallel, LoopModeBalancesColumnBlocksOverTheTeam) {
  // m_C shrinks to the narrowest mR multiple that covers n in as many
  // rounds of `threads` blocks as m_C needs.  A 4-thread call on
  // n = 2880 at m_C = 512 used to run 6 blocks (5 x 512 + 320) in two
  // rounds, the second leaving half the team idle.
  struct Case {
    index_t n, mc;
    int mr, threads;
    index_t want_mc, want_blocks;
  };
  const Case cases[] = {
      {2880, 512, 16, 4, 368, 8},  // 2 full rounds
      {2880, 512, 8, 4, 360, 8},
      {4320, 512, 16, 4, 368, 12},  // 9 blocks -> 3 full rounds
      {2048, 512, 16, 4, 512, 4},   // already balanced
      {100, 512, 16, 4, 32, 4},     // fewer blocks than threads
      {2880, 512, 16, 1, 512, 6},   // one thread: m_C as resolved
      {40, 512, 16, 16, 16, 3},     // j_r mode
  };
  for (const Case& c : cases) {
    const LoopMode mode = choose_loop_mode(c.n, c.mc, c.mr, c.threads);
    SCOPED_TRACE("n=" + std::to_string(c.n) + " mr=" + std::to_string(c.mr) +
                 " threads=" + std::to_string(c.threads));
    EXPECT_EQ(mode.mc, c.want_mc);
    EXPECT_EQ(ceil_div(c.n, mode.mc), c.want_blocks);
    EXPECT_EQ(mode.jr_parallel, c.threads == 16);
  }
  // Never wider than m_C, always an mR multiple, and never more rounds.
  for (index_t n = 1; n <= 3000; n += 7) {
    for (int threads : {2, 3, 4, 8}) {
      const LoopMode mode = choose_loop_mode(n, 512, 16, threads);
      EXPECT_LE(mode.mc, 512);
      EXPECT_EQ(mode.mc % 16, 0);
      EXPECT_LE(ceil_div(ceil_div(n, mode.mc), threads),
                ceil_div(ceil_div(n, 512), threads));
    }
  }
  // An empty C (n = 0) keeps m_C: no rounds to balance.
  EXPECT_EQ(choose_loop_mode(0, 512, 16, 4).mc, 512);
}

TEST(Parallel, OverwriteModeMatchesZeroThenAccumulate) {
  // fused_multiply(accumulate=false) into a garbage buffer must equal
  // zero-fill + accumulate, serially, in i_c mode (2 threads) and in j_r
  // mode (16 threads: 5 mR-wide column blocks), with k > kc.
  for (int threads : {1, 2, 16}) {
    GemmConfig cfg;
    cfg.num_threads = threads;
    const BlockingParams bp = resolve_blocking(cfg);
    const index_t m = 64, n = 5 * bp.mr, k = 600;  // k=600 > kc: k-blocks
    EXPECT_EQ(choose_loop_mode(n, bp.mc, bp.mr, threads).jr_parallel,
              threads == 16);
    Matrix a = Matrix::random(m, k, 11);
    Matrix b = Matrix::random(k, n, 12);
    Matrix dirty(m, n);
    dirty.fill(1e33);  // poison: must be fully overwritten
    Matrix clean = Matrix::zero(m, n);
    GemmWorkspace ws;
    LinTerm at{a.data(), 1.0};
    LinTerm bt{b.data(), 1.0};
    OutTerm od{dirty.data(), 1.0};
    OutTerm oc{clean.data(), 1.0};
    fused_multiply(m, n, k, &at, 1, a.stride(), &bt, 1, b.stride(), &od, 1,
                   dirty.stride(), ws, cfg, /*accumulate=*/false);
    fused_multiply(m, n, k, &at, 1, a.stride(), &bt, 1, b.stride(), &oc, 1,
                   clean.stride(), ws, cfg, /*accumulate=*/true);
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
  // m > nc: j_c walks C's rows, and every jc stripe sees its own pc == 0
  // block; the overwrite logic must clear each stripe exactly once.
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

// One kernel's guard-band check: plain gemm and a 3-target weighted
// fused_multiply write into interior views of a sentinel-filled parent.
// The views carry fringes in both directions (m % nR != 0, n % mR != 0);
// 1 and 2 threads run the i_c mode, 16 the j_r mode.  Inside the views
// the result matches ref_gemm; outside, every element keeps its sentinel
// bits.
template <typename T>
void expect_views_exact(const KernelInfo& kern) {
  SCOPED_TRACE(std::string(kern.name) + " " + dtype_name(kern.dtype));
  const index_t m = 3 * kern.nr + 1;
  const index_t n = 4 * kern.mr + 3;
  const index_t k = 150;  // three k_C = 64 blocks
  const index_t g = 3;    // guard width around every view
  const index_t rows = m + 2 * g;
  const index_t ldc = 3 * (n + g) + g;  // three views side by side
  const T sentinel = T(-7.25);
  // Operand sums reach 1.5 in magnitude, so products reach 2.25.
  const double tol = 4 * (sizeof(T) == sizeof(double)
                              ? test::tol_classical(k)
                              : test::tol_classical_f32(k));

  Xoshiro256 rng(kern.mr * 100 + kern.nr);
  auto random_vec = [&](index_t size) {
    std::vector<T> v(static_cast<std::size_t>(size));
    for (T& x : v) x = static_cast<T>(rng.uniform(-1, 1));
    return v;
  };
  // A_0 | A_1 (lda = 2k) and B_0 | B_1 (ldb = 2n), each pair side by side.
  const std::vector<T> a = random_vec(m * 2 * k);
  const std::vector<T> b = random_vec(k * 2 * n);
  const LinTermT<T> a_terms[2] = {{a.data(), 1.0}, {a.data() + k, -0.5}};
  const LinTermT<T> b_terms[2] = {{b.data(), 1.0}, {b.data() + n, 0.5}};
  const double w[3] = {1.0, -1.0, 0.5};

  // References: A_0 B_0 (gemm) and (A_0 - A_1 / 2)(B_0 + B_1 / 2) (fused).
  std::vector<T> sum_a(static_cast<std::size_t>(m * k));
  std::vector<T> sum_b(static_cast<std::size_t>(k * n));
  for (index_t i = 0; i < m; ++i)
    for (index_t p = 0; p < k; ++p)
      sum_a[i * k + p] = a[i * 2 * k + p] + T(-0.5) * a[i * 2 * k + k + p];
  for (index_t p = 0; p < k; ++p)
    for (index_t j = 0; j < n; ++j)
      sum_b[p * n + j] = b[p * 2 * n + j] + T(0.5) * b[p * 2 * n + n + j];
  std::vector<T> prod_gemm(static_cast<std::size_t>(m * n), T(0));
  std::vector<T> prod_fused(static_cast<std::size_t>(m * n), T(0));
  ref_gemm(MatViewT<T>(prod_gemm.data(), m, n, n),
           ConstMatViewT<T>(a.data(), m, k, 2 * k),
           ConstMatViewT<T>(b.data(), k, n, 2 * n));
  ref_gemm(MatViewT<T>(prod_fused.data(), m, n, n),
           ConstMatViewT<T>(sum_a.data(), m, k, k),
           ConstMatViewT<T>(sum_b.data(), k, n, n));

  // Which view (i, j) of the parent lies in, or -1 for the guard band.
  auto view_of = [&](index_t i, index_t j) {
    if (i < g || i >= g + m) return -1;
    for (int v = 0; v < 3; ++v) {
      const index_t j0 = g + v * (n + g);
      if (j >= j0 && j < j0 + n) return v;
    }
    return -1;
  };

  GemmWorkspaceT<T> ws;
  for (int threads : {1, 2, 16}) {
    GemmConfig cfg;
    cfg.num_threads = threads;
    cfg.kernel = &kern;
    cfg.kc = 64;
    const BlockingParams bp = resolve_blocking(cfg, kern.dtype);
    EXPECT_EQ(choose_loop_mode(n, bp.mc, bp.mr, threads).jr_parallel,
              threads == 16);
    // (views written, accumulate): plain gemm, then the fused multiply.
    const std::pair<int, bool> cases[] = {{1, true}, {3, true}, {3, false}};
    for (const auto& [views, accumulate] : cases) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " views=" + std::to_string(views) +
                   " accumulate=" + std::to_string(accumulate));
      std::vector<T> parent(static_cast<std::size_t>(rows * ldc), sentinel);
      for (index_t i = 0; i < rows; ++i)
        for (index_t j = 0; j < ldc; ++j)
          if (const int v = view_of(i, j); v >= 0 && v < views)
            parent[i * ldc + j] = static_cast<T>(rng.uniform(-1, 1));
      const std::vector<T> before = parent;
      T* view0 = parent.data() + g * ldc + g;
      if (views == 1) {
        gemm(MatViewT<T>(view0, m, n, ldc),
             ConstMatViewT<T>(a.data(), m, k, 2 * k),
             ConstMatViewT<T>(b.data(), k, n, 2 * n), ws, cfg);
      } else {
        OutTermT<T> c_terms[3];
        for (int v = 0; v < 3; ++v) c_terms[v] = {view0 + v * (n + g), w[v]};
        fused_multiply<T>(m, n, k, a_terms, 2, 2 * k, b_terms, 2, 2 * n,
                          c_terms, 3, ldc, ws, cfg, accumulate);
      }
      const std::vector<T>& prod = views == 1 ? prod_gemm : prod_fused;
      double max_err = 0.0;
      int guard_changed = 0;
      for (index_t i = 0; i < rows; ++i) {
        for (index_t j = 0; j < ldc; ++j) {
          const T got = parent[i * ldc + j];
          const int v = view_of(i, j);
          if (v < 0 || v >= views) {
            guard_changed += std::memcmp(&got, &sentinel, sizeof(T)) != 0;
            continue;
          }
          const index_t jv = j - g - v * (n + g);
          const double want =
              (accumulate ? static_cast<double>(before[i * ldc + j]) : 0.0) +
              (views == 1 ? 1.0 : w[v]) * prod[(i - g) * n + jv];
          max_err = std::max(max_err, std::abs(got - want));
        }
      }
      EXPECT_LE(max_err, tol);
      EXPECT_EQ(guard_changed, 0);
    }
  }
}

TEST(Parallel, FringeTilesWriteExactlyTheirViews) {
  for (const KernelInfo& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    if (kern.dtype == DType::kF64) {
      expect_views_exact<double>(kern);
    } else {
      expect_views_exact<float>(kern);
    }
  }
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
  const auto run1 = [&] { gemm(c.view(), a.view(), b.view(), ws, cfg1); };
  const auto run8 = [&] { gemm(c.view(), a.view(), b.view(), ws, cfg8); };
  run1();  // warm
  // A process started after an idle spell can run its first second or so
  // of wide regions at single-core speed (the cores it lands on come up
  // slowly), and the timed window below fits inside that second; so keep
  // an 8-wide region busy for 1.5 s first.
  const Timer warm;
  while (warm.seconds() < 1.5) run8();
  // Best of 3 per width, the widths alternating, so a burst of load from
  // elsewhere on the host slows one run of each rather than decides the
  // comparison.
  double s1 = 1e300, s8 = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    s1 = std::min(s1, best_time_of(1, run1));
    s8 = std::min(s8, best_time_of(1, run8));
  }
  EXPECT_LT(s8, s1 / 2.0) << "s1 " << s1 << " s, s8 " << s8 << " s";
}

}  // namespace
}  // namespace fmm

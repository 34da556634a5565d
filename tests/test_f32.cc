// Single-precision serving path (ISSUE: element type as a runtime plan
// property): the f32 kernel family end-to-end through gemm, every Engine
// entry point (explicit plan, auto, item/strided batches, recursive
// descent), and the strict per-dtype keying of the executor cache, choice
// cache, history store and calibration cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/arch/calibrate.h"
#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/recursive.h"
#include "src/gemm/gemm.h"
#include "src/gemm/kernel.h"
#include "src/linalg/ops.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

using test::FloatMat;
using test::random_problem;
using test::random_problem_f32;
using test::RandomProblem;
using test::RandomProblemF32;
using test::tol_classical_f32;
using test::tol_for;
using test::tol_for_f32;
using test::ScopedEnv;

Plan one_level_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

Plan two_level_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2), catalog::best(2, 2, 2)}, v);
}

void expect_bitwise_equal_f32(const FloatMat& x, const FloatMat& y) {
  ASSERT_EQ(x.rows, y.rows);
  ASSERT_EQ(x.cols, y.cols);
  EXPECT_EQ(std::memcmp(x.data.data(), y.data.data(),
                        x.data.size() * sizeof(float)),
            0);
}

// --------------------------------------------------------------------------
// Registry equivalence: every supported f32 kernel drives a full gemm to
// the same answer as the f32 reference, at shapes with edge tiles.
// --------------------------------------------------------------------------

TEST(F32Gemm, EveryF32KernelMatchesReference) {
  for (const KernelInfo& kern : kernel_registry()) {
    if (kern.dtype != DType::kF32 || !kern.supported()) continue;
    GemmConfig cfg;
    cfg.kernel = &kern;
    cfg.num_threads = 1;
    const index_t m = 37, n = 29, k = 41;  // prime-ish: edge tiles everywhere
    RandomProblemF32 p = random_problem_f32(m, n, k, 7, /*zero_c=*/true);
    gemm(p.c.view(), p.a.cview(), p.b.cview(), cfg);
    ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
    EXPECT_LE(max_abs_diff(p.c.cview(), p.want.cview()), tol_classical_f32(k))
        << kern.name;
  }
}

TEST(F32Gemm, PlanPinnedF32KernelIsHonored) {
  const Plan base = one_level_plan();
  const index_t m = 52, n = 44, k = 36;
  for (const KernelInfo& kern : kernel_registry()) {
    if (kern.dtype != DType::kF32 || !kern.supported()) continue;
    Plan plan = base;
    plan.kernel = &kern;
    RandomProblemF32 p = random_problem_f32(m, n, k, 17);
    ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
    ASSERT_TRUE(
        default_engine().multiply(plan, p.c.view(), p.a.cview(), p.b.cview())
            .ok());
    EXPECT_LE(max_abs_diff(p.c.cview(), p.want.cview()), tol_for_f32(k, 1))
        << kern.name;
  }
}

// --------------------------------------------------------------------------
// Engine end-to-end.
// --------------------------------------------------------------------------

TEST(F32Engine, ExplicitPlanMatchesReference) {
  Engine engine;
  for (int levels = 1; levels <= 2; ++levels) {
    const Plan plan = levels == 1 ? one_level_plan() : two_level_plan();
    const index_t m = 96, n = 88, k = 72;
    RandomProblemF32 p = random_problem_f32(m, n, k, 100 + levels);
    ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
    const Status st = engine.multiply(plan, p.c.view(), p.a.cview(), p.b.cview());
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_LE(max_abs_diff(p.c.cview(), p.want.cview()),
              tol_for_f32(k, levels))
        << plan.name();
  }
}

TEST(F32Engine, AutoPathSelectsAndReports) {
  Engine engine;
  const index_t m = 64, n = 64, k = 64;
  RandomProblemF32 p = random_problem_f32(m, n, k, 5);
  ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
  std::shared_ptr<const AutoChoice> executed;
  const Status st = engine.multiply(p.c.view(), p.a.cview(), p.b.cview(),
                                    &executed);
  ASSERT_TRUE(st.ok()) << st.to_string();
  ASSERT_NE(executed, nullptr);
  EXPECT_FALSE(executed->description.empty());
  EXPECT_LE(max_abs_diff(p.c.cview(), p.want.cview()), tol_for_f32(k, 2));

  // choice_for at the f32 dtype agrees with what ran.
  const AutoChoice c = engine.choice_for(m, n, k, DType::kF32);
  EXPECT_EQ(c.use_gemm, executed->use_gemm);
}

TEST(F32Engine, AllVariantsMatchReference) {
  Engine engine;
  const index_t m = 80, n = 76, k = 68;
  for (Variant v : {Variant::kABC, Variant::kAB, Variant::kNaive}) {
    const Plan plan = one_level_plan(v);
    RandomProblemF32 p = random_problem_f32(m, n, k, 200 + static_cast<int>(v));
    ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
    ASSERT_TRUE(
        engine.multiply(plan, p.c.view(), p.a.cview(), p.b.cview()).ok());
    EXPECT_LE(max_abs_diff(p.c.cview(), p.want.cview()), tol_for_f32(k, 1))
        << plan.name();
  }
}

TEST(F32Engine, ItemBatchIncludingCrossShape) {
  Engine engine;
  const Plan plan = one_level_plan();
  std::vector<RandomProblemF32> probs;
  probs.push_back(random_problem_f32(40, 40, 40, 301));
  probs.push_back(random_problem_f32(40, 40, 40, 302));
  probs.push_back(random_problem_f32(56, 32, 48, 303));  // second shape group
  std::vector<BatchItemF32> items;
  for (auto& p : probs) {
    ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
    items.push_back({p.c.view(), p.a.cview(), p.b.cview()});
  }
  const Status st = engine.multiply(plan, BatchSpec::items(items));
  ASSERT_TRUE(st.ok()) << st.to_string();
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_LE(max_abs_diff(probs[i].c.cview(), probs[i].want.cview()),
              tol_for_f32(48, 1))
        << "item " << i;
  }
}

TEST(F32Engine, StridedBatchMatchesPerItemReference) {
  Engine engine;
  const index_t m = 32, n = 28, k = 36;
  const std::size_t count = 5;
  FloatMat a = FloatMat::random(static_cast<index_t>(count) * m, k, 401);
  FloatMat b = FloatMat::random(static_cast<index_t>(count) * k, n, 402);
  FloatMat c = FloatMat::zero(static_cast<index_t>(count) * m, n);
  StridedBatchF32 sb;
  sb.m = m;
  sb.n = n;
  sb.k = k;
  sb.count = count;
  sb.c = c.data.data();
  sb.a = a.data.data();
  sb.b = b.data.data();
  sb.stride_c = m * n;
  sb.stride_a = m * k;
  sb.stride_b = k * n;
  ASSERT_TRUE(engine.multiply(BatchSpec::strided(sb)).ok());
  for (std::size_t i = 0; i < count; ++i) {
    FloatMat want = FloatMat::zero(m, n);
    ConstMatViewF32 ai(a.data.data() + i * sb.stride_a, m, k, k);
    ConstMatViewF32 bi(b.data.data() + i * sb.stride_b, k, n, n);
    ref_gemm(want.view(), ai, bi);
    ConstMatViewF32 ci(c.data.data() + i * sb.stride_c, m, n, n);
    EXPECT_LE(max_abs_diff(ci, want.cview()), tol_for_f32(k, 2))
        << "item " << i;
  }
}

TEST(F32Engine, AsyncSubmitMatchesSynchronousBits) {
  Engine engine;
  const Plan plan = one_level_plan();
  const index_t m = 64, n = 64, k = 64;
  RandomProblemF32 p = random_problem_f32(m, n, k, 501);
  RandomProblemF32 q = p;  // identical operands and C seed
  ASSERT_TRUE(
      engine.multiply(plan, p.c.view(), p.a.cview(), p.b.cview()).ok());
  TaskFuture f = engine.submit(plan, q.c.view(), q.a.cview(), q.b.cview());
  f.wait();
  ASSERT_TRUE(f.status().ok());
  expect_bitwise_equal_f32(p.c, q.c);
}

// --------------------------------------------------------------------------
// Recursive descent, f32: the task graph on a pool is bitwise identical to
// the same graph run inline (the same determinism contract the f64 suite
// checks).
// --------------------------------------------------------------------------

TEST(F32Recursive, GraphBitwiseMatchesSequentialOracle) {
  const Plan plan = one_level_plan();
  const index_t n = 60;
  const index_t cutoff = 16;
  RandomProblemF32 p = random_problem_f32(n, n, n, 23);
  BufferPool buffers;
  GemmConfig cfg;
  cfg.num_threads = 1;

  auto make_ctx = [&](TaskPool* pool) {
    RecursiveExecF32 ctx;
    ctx.pool = pool;
    ctx.buffers = &buffers;
    ctx.cutoff = cutoff;
    ctx.leaf = [cfg](const Plan* leaf_plan, MatViewF32 c, ConstMatViewF32 a,
                     ConstMatViewF32 b) {
      ASSERT_EQ(leaf_plan, nullptr);  // one level fully consumed
      gemm(c, a, b, cfg);
    };
    return ctx;
  };

  // Inline (no pool): the same graph run on this thread in submission
  // order.
  FloatMat c_inline = p.c.clone();
  const TaskFuture inline_run = submit_recursive(
      make_ctx(nullptr), plan, c_inline.view(), p.a.cview(), p.b.cview());
  ASSERT_TRUE(inline_run.done());
  ASSERT_TRUE(inline_run.status().ok());

  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FloatMat c = p.c.clone();
    TaskPool pool(workers);
    RecursiveExecF32 ctx = make_ctx(&pool);
    TaskFuture f =
        submit_recursive(ctx, plan, c.view(), p.a.cview(), p.b.cview());
    f.wait();
    ASSERT_TRUE(f.status().ok());
    expect_bitwise_equal_f32(c, c_inline);
  }

  // And the answer is actually right.
  ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
  EXPECT_LE(max_abs_diff(c_inline.cview(), p.want.cview()),
            tol_for_f32(n, 1));
}

TEST(F32Recursive, EngineDescentMatchesReference) {
  Engine::Options o;
  o.recurse_cutoff = 20;
  Engine engine(o);
  const Plan plan = two_level_plan();
  const index_t n = 96;
  RandomProblemF32 p = random_problem_f32(n, n, n, 31);
  ref_gemm(p.want.view(), p.a.cview(), p.b.cview());
  const auto runs0 = engine.stats().recursive_runs;
  ASSERT_TRUE(
      engine.multiply(plan, p.c.view(), p.a.cview(), p.b.cview()).ok());
  EXPECT_EQ(engine.stats().recursive_runs, runs0 + 1);
  EXPECT_LE(max_abs_diff(p.c.cview(), p.want.cview()), tol_for_f32(n, 2));
}

// --------------------------------------------------------------------------
// Per-dtype keying: the same plan and shape served at both precisions must
// never share an executor, a cached choice, or a history row.
// --------------------------------------------------------------------------

TEST(MixedDtype, ExecutorCacheNeverCrossesDtypes) {
  Engine engine;
  const Plan plan = one_level_plan();
  const index_t m = 64, n = 64, k = 64;
  RandomProblem pd = random_problem(m, n, k, 601);
  RandomProblemF32 pf = random_problem_f32(m, n, k, 602);

  ASSERT_TRUE(
      engine.multiply(plan, pd.c.view(), pd.a.view(), pd.b.view()).ok());
  auto s1 = engine.stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);

  // Same plan, same shape, other dtype: a compile, not a hit.
  ASSERT_TRUE(
      engine.multiply(plan, pf.c.view(), pf.a.cview(), pf.b.cview()).ok());
  auto s2 = engine.stats();
  EXPECT_EQ(s2.misses, 2u);
  EXPECT_EQ(s2.hits, 0u);

  // Repeats of each hit their own entry.
  ASSERT_TRUE(
      engine.multiply(plan, pd.c.view(), pd.a.view(), pd.b.view()).ok());
  ASSERT_TRUE(
      engine.multiply(plan, pf.c.view(), pf.a.cview(), pf.b.cview()).ok());
  auto s3 = engine.stats();
  EXPECT_EQ(s3.misses, 2u);
  EXPECT_EQ(s3.hits, 2u);
}

// A descent that stops above the leaf cutoff hands the remaining level to
// a cached executor leaf.  The child plan must keep the request's dtype:
// the f32 leaf executor once landed under an f64 key, and a later f64
// request of the leaf shape then ran it as an FmmExecutorT<double>.
TEST(MixedDtype, RecursivePlanLeavesKeepTheirDtype) {
  Engine::Options o;
  o.recurse_cutoff = 50;     // 96 -> one step -> 48^3 one-level plan leaves
  o.config.num_threads = 1;  // the leaves' config, so a 48^3 call keys alike
  Engine engine(o);
  const index_t n = 96, leaf = 48;
  RandomProblemF32 pf = random_problem_f32(n, n, n, 611);
  ASSERT_TRUE(engine
                  .multiply(two_level_plan(), pf.c.view(), pf.a.cview(),
                            pf.b.cview())
                  .ok());
  EXPECT_EQ(engine.stats().recursive_runs, 1u);
  ref_gemm(pf.want.view(), pf.a.cview(), pf.b.cview());
  EXPECT_LE(max_abs_diff(pf.c.cview(), pf.want.cview()), tol_for_f32(n, 2));

  const Engine::CacheStats before = engine.stats();
  RandomProblem pd = random_problem(leaf, leaf, leaf, 612);
  ASSERT_TRUE(engine
                  .multiply(one_level_plan(), pd.c.view(), pd.a.view(),
                            pd.b.view())
                  .ok());
  const Engine::CacheStats after = engine.stats();
  EXPECT_EQ(after.misses, before.misses + 1);  // its own f64 executor
  EXPECT_EQ(after.hits, before.hits);
  ref_gemm(pd.want.view(), pd.a.view(), pd.b.view());
  EXPECT_LE(max_abs_diff(pd.c.view(), pd.want.view()), tol_for(leaf, 1));
}

TEST(MixedDtype, ChoiceCacheIsPerDtype) {
  Engine engine;
  const index_t m = 72, n = 72, k = 72;
  (void)engine.choice_handle(m, n, k);
  (void)engine.choice_handle(m, n, k, DType::kF32);
  auto s = engine.stats();
  EXPECT_EQ(s.choice_misses, 2u);  // two distinct cache rows
  (void)engine.choice_handle(m, n, k);
  (void)engine.choice_handle(m, n, k, DType::kF32);
  s = engine.stats();
  EXPECT_EQ(s.choice_misses, 2u);
  EXPECT_EQ(s.choice_hits, 2u);
}

TEST(MixedDtype, HistoryKeysAreDtypeQualified) {
  Engine engine;
  Plan plan = one_level_plan();
  const index_t m = 64, n = 64, k = 64;
  plan.dtype = DType::kF64;
  const HistoryKey k64 = engine.history_key(plan, m, n, k);
  plan.dtype = DType::kF32;
  const HistoryKey k32 = engine.history_key(plan, m, n, k);
  EXPECT_NE(k64.footprint, k32.footprint);
  EXPECT_NE(k64.kernel, k32.kernel);  // per-dtype kernel cache keys
  EXPECT_EQ(k32.kernel.rfind("f32:", 0), 0u) << k32.kernel;
}

TEST(MixedDtype, PlanNameAndExecutionIdentityCarryDtype) {
  Plan p64 = one_level_plan();
  Plan p32 = p64;
  p32.dtype = DType::kF32;
  EXPECT_FALSE(same_execution(p64, p32));
  EXPECT_NE(p64.name(), p32.name());
  EXPECT_NE(p32.name().find("f32"), std::string::npos);
}

// --------------------------------------------------------------------------
// Calibration: per-dtype rows in the persisted rate cache.
// --------------------------------------------------------------------------

TEST(F32Calibration, PerDtypeRowsInCacheFile) {
  const std::string path = testing::TempDir() + "fmm_calib_f32_rows.txt";
  std::remove(path.c_str());
  ScopedEnv file("FMM_CALIB_CACHE", path.c_str());
  ScopedEnv enabled("FMM_CALIBRATE", nullptr);
  arch::calibration_reset_for_testing();

  const KernelInfo* p64 = find_kernel("portable", DType::kF64);
  const KernelInfo* p32 = find_kernel("portable", DType::kF32);
  ASSERT_NE(p64, nullptr);
  ASSERT_NE(p32, nullptr);
  EXPECT_GT(arch::kernel_gflops(*p64), 0.0);
  EXPECT_GT(arch::kernel_gflops(*p32), 0.0);

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  bool saw_f64 = false, saw_f32 = false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string cpu, key;
    iss >> cpu >> key;
    if (key == "portable") saw_f64 = true;
    if (key == "f32:portable") saw_f32 = true;
  }
  EXPECT_TRUE(saw_f64);
  EXPECT_TRUE(saw_f32);

  std::remove(path.c_str());
  arch::calibration_reset_for_testing();
}

TEST(F32Calibration, ModelParamsDifferPerDtype) {
  // The f32 defaults must reflect the doubled lane width — the auto path
  // would otherwise rank f32 kernels with f64 costs.
  const ModelParams d64 = default_model_params(DType::kF64);
  const ModelParams d32 = default_model_params(DType::kF32);
  EXPECT_LT(d32.tau_a, d64.tau_a);
  EXPECT_LT(d32.tau_b, d64.tau_b);
}

}  // namespace
}  // namespace fmm

// Task-recursive multi-level execution (src/core/recursive.h): the
// BufferPool allocator, the descent predicate and cutoff resolution, the
// determinism contract (the graph on a pool of any worker count == the
// same graph run inline with no pool, bitwise), failures (every descent
// ends with its first failure's Status), peeling/degenerate shapes under
// recursion, and the nested-call / slot-pool regressions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/recursive.h"
#include "src/gemm/gemm.h"
#include "src/model/perf_model.h"
#include "tests/test_support.h"

// RecursiveFailure.DescendingPrepAllocationFailureResolvesTheGraph asks for
// a 16 TiB buffer on purpose.  The sanitizer allocators abort on such a
// request unless told to fail it; a failed allocation returns null, which
// AlignedBuffer turns into std::bad_alloc as in an uninstrumented build.
extern "C" __attribute__((used, visibility("default"))) const char*
__asan_default_options() {
  return "allocator_may_return_null=1";
}
extern "C" __attribute__((used, visibility("default"))) const char*
__tsan_default_options() {
  return "allocator_may_return_null=1";
}

namespace fmm {
namespace {

using test::degenerate_shapes;
using test::random_problem;
using test::RandomProblem;
using test::tol_for;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

Plan one_level_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

Plan two_level_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2), catalog::best(2, 2, 2)}, v);
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        static_cast<std::size_t>(x.rows() * x.cols()) *
                            sizeof(double)),
            0);
}

// A standalone RecursiveExec whose leaves are plain serial GEMMs — no
// Engine, no executor cache — for the pooled-vs-inline oracle tests.
// Only valid for plans fully consumed by the descent (child == nullptr at
// every leaf).
RecursiveExec gemm_leaf_ctx(TaskPool* pool, BufferPool* buffers,
                            index_t cutoff) {
  RecursiveExec ctx;
  ctx.pool = pool;
  ctx.buffers = buffers;
  ctx.cutoff = cutoff;
  ctx.leaf = [](const Plan* plan, MatView c, ConstMatView a, ConstMatView b) {
    ASSERT_EQ(plan, nullptr) << "descent did not consume every level";
    static thread_local GemmWorkspace ws;
    GemmConfig cfg;
    cfg.num_threads = 1;
    gemm(c, a, b, ws, cfg);
  };
  return ctx;
}

// ---------------------------------------------------------------------------
// BufferPool.
// ---------------------------------------------------------------------------

TEST(RecursiveBufferPool, LeaseRoundTripAndReuse) {
  BufferPool pool;
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.outstanding(), 0u);
  {
    BufferPool::Lease a = pool.acquire(100);
    BufferPool::Lease b = pool.acquire(50);
    EXPECT_TRUE(a.engaged());
    EXPECT_NE(a.data(), nullptr);
    EXPECT_EQ(pool.outstanding(), 2u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_buffers(), 2u);
  const std::size_t peak = pool.peak_bytes();
  EXPECT_GE(peak, 150 * sizeof(double));

  // A request the 100-element buffer satisfies must reuse it (and prefer
  // it over nothing): no new allocation, peak unchanged.
  {
    BufferPool::Lease c = pool.acquire(80);
    EXPECT_EQ(pool.free_buffers(), 1u);
    EXPECT_EQ(pool.peak_bytes(), peak);
  }
  EXPECT_EQ(pool.free_buffers(), 2u);

  // A request nothing satisfies allocates instead of blocking.
  BufferPool::Lease big = pool.acquire(1000);
  EXPECT_TRUE(big.engaged());
  EXPECT_EQ(pool.free_buffers(), 2u);
  EXPECT_GT(pool.peak_bytes(), peak);
}

TEST(RecursiveBufferPool, ResetReturnsEarlyAndMoveTransfers) {
  BufferPool pool;
  BufferPool::Lease a = pool.acquire(16);
  BufferPool::Lease b = std::move(a);
  EXPECT_FALSE(a.engaged());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(b.engaged());
  EXPECT_EQ(pool.outstanding(), 1u);
  b.reset();
  EXPECT_FALSE(b.engaged());
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_buffers(), 1u);
  b.reset();  // idempotent
  EXPECT_EQ(pool.free_buffers(), 1u);
}

// ---------------------------------------------------------------------------
// Descent predicate and cutoff resolution.
// ---------------------------------------------------------------------------

TEST(RecursiveCutoff, ShouldRecursePredicate) {
  const Plan plan = one_level_plan();
  EXPECT_TRUE(should_recurse(plan, 64, 64, 64, 32));
  // Every dimension must be strictly above the cutoff...
  EXPECT_FALSE(should_recurse(plan, 64, 64, 64, 64));
  EXPECT_FALSE(should_recurse(plan, 64, 32, 64, 32));
  // ...the cutoff positive...
  EXPECT_FALSE(should_recurse(plan, 64, 64, 64, 0));
  // ...and the outermost level must have a non-empty interior (<3,3,3> at
  // m = 2 clears the cutoff but cannot form a quadrant grid).
  const Plan plan3 = make_plan({catalog::best(3, 3, 3)}, Variant::kABC);
  EXPECT_FALSE(should_recurse(plan3, 2, 64, 64, 1));
  EXPECT_TRUE(should_recurse(plan3, 64, 64, 64, 32));
  EXPECT_TRUE(should_recurse(plan, 3, 64, 64, 2));  // 1-wide quadrants OK
  // A rank-1 step (conventional GEMM) never descends: one product and no
  // sums, so a descent would only add a copy.
  for (index_t cutoff : {1, 2, 32, 63}) {
    EXPECT_FALSE(should_recurse(test::gemm_plan(), 64, 64, 64, cutoff))
        << cutoff;
  }
}

// Conventional GEMM runs as the <1,1,1> plan: an explicit call with it
// runs flat above the cutoff, exactly like the auto call that picks GEMM.
TEST(RecursiveCutoff, RankOnePlanRunsFlatLikeTheAutoCall) {
  Engine::Options o;
  o.recurse_cutoff = 32;
  o.history = false;
  Engine e(o);
  const index_t n = 128;
  ASSERT_TRUE(e.choice_for(n, n, n).use_gemm);
  RandomProblem p = random_problem(n, n, n, 43);
  Matrix c_auto = p.c.clone();
  ASSERT_TRUE(
      e.multiply(test::gemm_plan(), p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_EQ(e.stats().recursive_runs, 0u);
  ASSERT_TRUE(e.multiply(c_auto.view(), p.a.view(), p.b.view()).ok());
  EXPECT_EQ(e.stats().recursive_runs, 0u);
  expect_bitwise_equal(p.c, c_auto);
}

TEST(RecursiveCutoff, OptionsBeatEnvBeatsDefault) {
  ScopedEnv env("FMM_RECURSE_CUTOFF", "555");
  {
    Engine::Options o;
    o.recurse_cutoff = 777;
    Engine e(o);
    EXPECT_EQ(e.recurse_cutoff(), 777);
  }
  {
    Engine e;  // Options 0 defers to the env
    EXPECT_EQ(e.recurse_cutoff(), 555);
  }
  {
    Engine::Options o;
    o.recurse_cutoff = -1;  // explicit disable beats the env
    Engine e(o);
    EXPECT_EQ(e.recurse_cutoff(), 0);
  }
}

TEST(RecursiveCutoff, EnvZeroDisablesUnsetUsesModelDefault) {
  {
    ScopedEnv env("FMM_RECURSE_CUTOFF", "0");
    Engine e;
    EXPECT_EQ(e.recurse_cutoff(), 0);
  }
  {
    ScopedEnv env("FMM_RECURSE_CUTOFF", nullptr);
    Engine e;
    EXPECT_EQ(e.recurse_cutoff(),
              recommended_recurse_cutoff(arch::cache_topology()));
  }
}

TEST(RecursiveCutoff, RecommendedCutoffTracksL3AndClamps) {
  arch::CacheTopology topo;
  topo.l3_bytes = 25 * (1L << 20);  // the paper's Ivy Bridge slice
  const index_t ivy = recommended_recurse_cutoff(topo);
  EXPECT_EQ(ivy, 1024);  // sqrt(25 MiB / 24) ~ 1045, floored to 64
  topo.l3_bytes = 1L << 20;
  EXPECT_EQ(recommended_recurse_cutoff(topo), 256);  // lower clamp
  topo.l3_bytes = 1L << 30;
  EXPECT_EQ(recommended_recurse_cutoff(topo), 4096);  // upper clamp
  topo.l3_bytes = 0;  // unknown: 8 MiB assumption
  const index_t unknown = recommended_recurse_cutoff(topo);
  EXPECT_EQ(unknown % 64, 0);
  EXPECT_GE(unknown, 256);
  EXPECT_LE(unknown, 1024);
}

// ---------------------------------------------------------------------------
// Correctness and the determinism contract.
// ---------------------------------------------------------------------------

// With the cutoff at the problem size no descent happens: the engine runs
// the flat executor and the result is bitwise identical to a
// descent-disabled engine.
TEST(RecursiveExecution, CutoffAtProblemSizeIsBitwiseFlat) {
  const Plan plan = two_level_plan();
  const index_t n = 64;
  RandomProblem p = random_problem(n, n, n, 42);
  Matrix c_flat = p.c.clone();

  Engine::Options ro;
  ro.recurse_cutoff = n;  // min(m, n, k) > cutoff is false: flat path
  Engine recursive(ro);
  ASSERT_TRUE(recursive.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_EQ(recursive.stats().recursive_runs, 0u);

  Engine::Options fo;
  fo.recurse_cutoff = -1;
  Engine flat(fo);
  ASSERT_TRUE(flat.multiply(plan, c_flat.view(), p.a.view(), p.b.view()).ok());
  expect_bitwise_equal(p.c, c_flat);
}

TEST(RecursiveExecution, DescentMatchesReferenceTwoLevel) {
  const Plan plan = two_level_plan();
  Engine::Options o;
  o.recurse_cutoff = 20;  // 96 -> 48 -> GEMM leaves at 24
  o.workers = 4;
  Engine e(o);
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 7);
  ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_GE(e.stats().recursive_runs, 1u);
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(n, 2));
}

// Flat and recursive execution associate the per-level sums differently,
// so they agree to tolerance (bitwise identity holds only without descent).
TEST(RecursiveExecution, FlatVsRecursiveWithinTolerance) {
  const Plan plan = two_level_plan();
  const index_t n = 88;
  RandomProblem p = random_problem(n, n, n, 11);
  Matrix c_flat = p.c.clone();

  Engine::Options ro;
  ro.recurse_cutoff = 20;
  Engine recursive(ro);
  ASSERT_TRUE(recursive.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_GE(recursive.stats().recursive_runs, 1u);

  Engine::Options fo;
  fo.recurse_cutoff = -1;
  Engine flat(fo);
  ASSERT_TRUE(flat.multiply(plan, c_flat.view(), p.a.view(), p.b.view()).ok());
  EXPECT_LE(max_abs_diff(p.c.view(), c_flat.view()), tol_for(n, 2));
}

// The core contract: the task graph produces bitwise-identical results
// across worker counts, across runs, and run inline with no pool.
TEST(RecursiveExecution, BitwiseDeterministicAcrossSchedules) {
  const Plan plan = one_level_plan();
  const index_t n = 60;  // 60 -> 30 GEMM leaves
  const index_t cutoff = 16;
  RandomProblem p = random_problem(n, n, n, 23);
  BufferPool buffers;

  // Inline (no pool): the same graph run on this thread in submission
  // order.
  Matrix c_inline = p.c.clone();
  const TaskFuture inline_run =
      submit_recursive(gemm_leaf_ctx(nullptr, &buffers, cutoff), plan,
                       c_inline.view(), p.a.view(), p.b.view());
  ASSERT_TRUE(inline_run.done());
  ASSERT_TRUE(inline_run.status().ok());

  for (int workers : {1, 2, 8}) {
    for (int rep = 0; rep < 2; ++rep) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " rep=" + std::to_string(rep));
      Matrix c = p.c.clone();
      TaskPool pool(workers);
      RecursiveExec ctx = gemm_leaf_ctx(&pool, &buffers, cutoff);
      TaskFuture f =
          submit_recursive(ctx, plan, c.view(), p.a.view(), p.b.view());
      f.wait();
      ASSERT_TRUE(f.status().ok());
      expect_bitwise_equal(c, c_inline);
    }
  }

  // And the answer is actually right.
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(c_inline.view(), p.want.view()), tol_for(n, 1));
}

// ---------------------------------------------------------------------------
// Failures: every descent ends with a Status.
// ---------------------------------------------------------------------------

template <typename T>
RecursiveExecT<T> throwing_leaf_ctx(TaskPool* pool, BufferPool* buffers,
                                    index_t cutoff) {
  RecursiveExecT<T> ctx;
  ctx.pool = pool;
  ctx.buffers = buffers;
  ctx.cutoff = cutoff;
  ctx.leaf = [](const Plan*, MatViewT<T>, ConstMatViewT<T>,
                ConstMatViewT<T>) { throw std::runtime_error("leaf failed"); };
  return ctx;
}

// The graph resolves with the same Status on a pool of any worker count
// as inline (no pool), and returns every lease.
template <typename T>
void expect_throwing_leaf_fails_descent(const Plan& plan, index_t n,
                                        index_t cutoff) {
  const std::vector<T> a(static_cast<std::size_t>(n * n), T(1));
  const std::vector<T> b = a;
  std::vector<T> c(a.size(), T(0));
  const MatViewT<T> cv(c.data(), n, n, n);
  const ConstMatViewT<T> av(a.data(), n, n, n), bv(b.data(), n, n, n);
  BufferPool buffers;
  const TaskFuture inline_run = submit_recursive(
      throwing_leaf_ctx<T>(nullptr, &buffers, cutoff), plan, cv, av, bv);
  ASSERT_TRUE(inline_run.done());
  const Status inline_st = inline_run.status();
  ASSERT_FALSE(inline_st.ok());
  EXPECT_EQ(buffers.outstanding(), 0u);
  for (int workers : {1, 4}) {
    TaskPool pool(workers);
    const Status graph =
        submit_recursive(throwing_leaf_ctx<T>(&pool, &buffers, cutoff), plan,
                         cv, av, bv)
            .status();
    EXPECT_EQ(graph.code(), inline_st.code()) << graph.to_string();
    EXPECT_EQ(graph.message(), inline_st.message());
    pool.wait_all();
  }
  EXPECT_EQ(buffers.outstanding(), 0u);
}

TEST(RecursiveFailure, ThrowingLeafFailsTheDescent) {
  // One level (the products are leaves) and two levels (a failed child
  // graph resolves its product in the parent), in f64 and f32.
  for (const Plan& plan : {one_level_plan(), two_level_plan()}) {
    SCOPED_TRACE(plan.name());
    expect_throwing_leaf_fails_descent<double>(plan, 96, 20);
    expect_throwing_leaf_fails_descent<float>(plan, 96, 20);
  }
}

// A descending product whose prep cannot allocate M_r fails the graph
// instead of leaving it unresolved, and every lease comes back.
TEST(RecursiveFailure, DescendingPrepAllocationFailureResolvesTheGraph) {
  // Two <2,2,2> levels at cutoff 1: the top node's products descend, and
  // each M_r asks for (m / 2) x (n / 2) = 2^42 elements.  A and B are four
  // columns / rows wide (64 MiB each in f32); C is never touched, so 16
  // elements back it.
  const Plan plan = two_level_plan();
  const index_t m = index_t{1} << 22, n = m, k = 4;
  const std::vector<float> a(static_cast<std::size_t>(m * k), 1.0f);
  const std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
  std::vector<float> c(16, 0.0f);
  BufferPool buffers;
  TaskPool pool(2);
  RecursiveExecF32 ctx;
  ctx.pool = &pool;
  ctx.buffers = &buffers;
  ctx.cutoff = 1;
  ctx.leaf = [](const Plan*, MatViewF32, ConstMatViewF32, ConstMatViewF32) {
    ADD_FAILURE() << "no product gets as far as a leaf";
  };
  const Status st =
      submit_recursive(ctx, plan, MatViewF32(c.data(), m, n, n),
                       ConstMatViewF32(a.data(), m, k, k),
                       ConstMatViewF32(b.data(), k, n, n))
          .status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
  EXPECT_NE(st.message().find("bad_alloc"), std::string::npos)
      << st.to_string();
  pool.wait_all();
  EXPECT_EQ(buffers.outstanding(), 0u);
}

// A leaf functor whose copy constructor throws once `copies_left` runs
// out.  Every build_node copies its ctx, leaf included, so an armed copy
// fails the build of a child graph inside a descending prep.
struct ThrowingCopyLeaf {
  std::shared_ptr<std::atomic<int>> copies_left;

  explicit ThrowingCopyLeaf(std::shared_ptr<std::atomic<int>> left)
      : copies_left(std::move(left)) {}
  ThrowingCopyLeaf(const ThrowingCopyLeaf& o) : copies_left(o.copies_left) {
    if (copies_left->fetch_sub(1) <= 0) {
      throw std::runtime_error("leaf copy failed");
    }
  }
  void operator()(const Plan*, MatView c, ConstMatView a,
                  ConstMatView b) const {
    GemmConfig serial;
    serial.num_threads = 1;
    gemm(c, a, b, serial);
  }
};

// A throw while a descending prep builds its child graph fails that
// product, and the graph still resolves with every lease back — queued
// and inline, whichever child build is the first to throw.
TEST(RecursiveFailure, ThrowingChildBuildResolvesTheGraph) {
  const Plan plan = two_level_plan();  // 64 -> 32^3 products -> 16^3 leaves
  const index_t n = 64;
  RandomProblem p = random_problem(n, n, n, 41);
  // The top node's copy is the first of `allowed`; each child build copies
  // once more.
  auto submit = [&](TaskPool* pool, BufferPool* buffers, int allowed,
                    Matrix& c) {
    auto copies_left = std::make_shared<std::atomic<int>>(1 << 30);
    RecursiveExec ctx;
    ctx.pool = pool;
    ctx.buffers = buffers;
    ctx.cutoff = 8;
    ctx.leaf = ThrowingCopyLeaf(copies_left);
    copies_left->store(allowed);
    return submit_recursive(ctx, plan, c.view(), p.a.view(), p.b.view());
  };
  for (int allowed : {1, 2, 3}) {
    SCOPED_TRACE("allowed copies " + std::to_string(allowed));
    // Queued first, polled against a deadline: a graph that never resolves
    // fails here instead of hanging, and its pool and buffers are leaked on
    // purpose (their blocked tasks would wait forever in a destructor).
    {
      auto buffers = std::make_unique<BufferPool>();
      auto pool = std::make_unique<TaskPool>(2);
      Matrix c = p.c.clone();
      const TaskFuture f = submit(pool.get(), buffers.get(), allowed, c);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!f.done() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!f.done()) {
        (void)pool.release();
        (void)buffers.release();
        FAIL() << "the graph never resolved";
      }
      pool->wait_all();
      EXPECT_FALSE(f.status().ok());
      EXPECT_EQ(buffers->outstanding(), 0u);
    }
    // Inline: the caller walks the same graph.
    BufferPool buffers;
    Matrix c = p.c.clone();
    const TaskFuture f = submit(nullptr, &buffers, allowed, c);
    ASSERT_TRUE(f.done());
    EXPECT_FALSE(f.status().ok());
    EXPECT_NE(f.status().message().find("leaf copy failed"), std::string::npos)
        << f.status().to_string();
    EXPECT_EQ(buffers.outstanding(), 0u);
  }
}

// Nested synchronous multiply from a TaskPool worker runs the graph inline
// on that worker — same bits as the host-thread graph, no deadlock.
TEST(RecursiveNested, OnWorkerSequentialMatchesHostGraph) {
  const Plan plan = two_level_plan();
  Engine::Options o;
  o.recurse_cutoff = 20;
  o.workers = 2;
  Engine e(o);
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 31);
  Matrix c_nested = p.c.clone();

  ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());

  TaskPool tp(1);  // a foreign pool: its worker still counts as "on worker"
  Status nested_st;
  TaskFuture f = tp.submit([&] {
    nested_st = e.multiply(plan, c_nested.view(), p.a.view(), p.b.view());
  });
  f.wait();
  ASSERT_TRUE(f.status().ok());
  ASSERT_TRUE(nested_st.ok());
  expect_bitwise_equal(p.c, c_nested);
}

// A nested descent runs inline on the calling worker, so it starts none of
// the engine's own workers.  The engine's pool registers "pool.tasks" in
// the engine's metrics when it starts: before any host-thread call the key
// must be absent.
TEST(RecursiveNested, OnWorkerDescentStartsNoEnginePool) {
  const Plan plan = one_level_plan();
  Engine::Options o;
  o.workers = 8;
  o.recurse_cutoff = 64;
  o.history = false;
  Engine e(o);
  const index_t n = 256;  // one <2,2,2> step: 128^3 GEMM leaves
  RandomProblem p = random_problem(n, n, n, 37);
  Matrix c_host = p.c.clone();

  TaskPool tp(1);
  Status nested_st;
  TaskFuture f = tp.submit([&] {
    nested_st = e.multiply(plan, p.c.view(), p.a.view(), p.b.view());
  });
  ASSERT_TRUE(f.status().ok());
  ASSERT_TRUE(nested_st.ok()) << nested_st.to_string();
  EXPECT_EQ(e.stats().recursive_runs, 1u);
  EXPECT_EQ(e.metrics_report_json().find("\"pool.tasks\""),
            std::string::npos);

  // The same call from a host thread starts the pool and gives the same
  // bits.
  ASSERT_TRUE(e.multiply(plan, c_host.view(), p.a.view(), p.b.view()).ok());
  EXPECT_EQ(e.stats().recursive_runs, 2u);
  EXPECT_NE(e.metrics_report_json().find("\"pool.tasks\""),
            std::string::npos);
  expect_bitwise_equal(p.c, c_host);
}

// ---------------------------------------------------------------------------
// Peeling and degenerate shapes under recursion.
// ---------------------------------------------------------------------------

TEST(RecursiveExecution, NonDivisibleDimsPeelAtEveryLevel) {
  Engine::Options o;
  o.recurse_cutoff = 10;
  Engine e(o);
  const Plan plan2 = two_level_plan();
  const Plan plan1 = one_level_plan();
  struct Shape {
    index_t m, n, k;
  };
  for (const Shape& s : {Shape{97, 89, 101}, Shape{65, 97, 33},
                         Shape{47, 47, 47}, Shape{96, 95, 94}}) {
    RandomProblem p = random_problem(s.m, s.n, s.k, 1000 + s.m);
    ASSERT_TRUE(e.multiply(plan2, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(s.k, 2))
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;

    RandomProblem q = random_problem(s.m, s.n, s.k, 2000 + s.m);
    ASSERT_TRUE(e.multiply(plan1, q.c.view(), q.a.view(), q.b.view()).ok());
    ref_gemm(q.want.view(), q.a.view(), q.b.view());
    EXPECT_LE(max_abs_diff(q.c.view(), q.want.view()), tol_for(s.k, 1))
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
  EXPECT_GE(e.stats().recursive_runs, 8u);
}

// The task-parallel shape classes — hybrid levels, a high-rank algorithm,
// fringes on every side, and a problem too small for the quadrant grid —
// through the Engine's recursive descent, across leaf cutoffs and worker
// counts.  Accumulation order follows the cutoff, so tolerance, not bitwise.
void expect_descent_matches_ref(const Plan& plan, index_t m, index_t n,
                                index_t k, int workers, std::uint64_t seed,
                                bool descends) {
  for (long long cutoff : {1, 2, 8, 40}) {
    Engine::Options o;
    o.recurse_cutoff = cutoff;
    o.workers = workers;
    Engine e(o);
    RandomProblem p = random_problem(m, n, k, seed + cutoff);
    ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()),
              tol_for(k, plan.num_levels()))
        << plan.name() << " at m=" << m << " n=" << n << " k=" << k
        << " cutoff=" << cutoff << " workers=" << workers;
    EXPECT_EQ(e.stats().recursive_runs, descends ? 1u : 0u)
        << plan.name() << " cutoff=" << cutoff;
  }
}

TEST(TaskDriver, FringeSizes) {
  const Plan p = make_plan({catalog::best(2, 2, 2)}, Variant::kNaive);
  expect_descent_matches_ref(p, 97, 101, 89, 4, 7, /*descends=*/true);
}

TEST(TaskDriver, TwoLevelHybrid) {
  const Plan p = make_plan(
      {catalog::best(2, 2, 2), catalog::best(2, 3, 2)}, Variant::kNaive);
  expect_descent_matches_ref(p, 123, 119, 131, 8, 9, /*descends=*/true);
}

TEST(TaskDriver, HighRankAlgorithm) {
  const Plan p = make_plan({catalog::best(3, 6, 3)}, Variant::kNaive);
  expect_descent_matches_ref(p, 60, 60, 120, 8, 11, /*descends=*/true);
}

TEST(TaskDriver, TinyProblemFullyPeeled) {
  const Plan p = make_plan({catalog::best(3, 3, 3)}, Variant::kNaive);
  expect_descent_matches_ref(p, 2, 2, 2, 4, 13, /*descends=*/false);
}

TEST(RecursiveExecution, OneWideQuadrantsAndDegenerateShapes) {
  Engine::Options o;
  o.recurse_cutoff = 2;  // aggressively recurse even tiny shapes
  Engine e(o);
  const Plan plan = one_level_plan();

  // k = 3 above cutoff 2: ks = 1 quadrants, GEMM leaves with k = 1.
  {
    RandomProblem p = random_problem(18, 18, 3, 5);
    ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(3, 1));
  }

  // Degenerate 0/1-dim shapes route around the descent entirely.
  for (const auto& s : degenerate_shapes()) {
    RandomProblem p = random_problem(s[0], s[1], s[2], 90 + s[0]);
    ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(s[2], 1))
        << "m=" << s[0] << " n=" << s[1] << " k=" << s[2];
  }
}

// ---------------------------------------------------------------------------
// Workspace-slot pool under nested execution (an explicit slots = 1).
// ---------------------------------------------------------------------------

// An engine pinned to one workspace slot per executor still completes a
// descent with concurrent leaf tasks: the leaves honour the one slot and
// take turns on it, but nothing waits on a lease it could never get.
TEST(RecursiveSlots, SingleSlotEngineCompletesRecursion) {
  const Plan plan = two_level_plan();
  Engine::Options o;
  o.slots = 1;
  o.workers = 4;
  o.recurse_cutoff = 20;
  Engine e(o);
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 13);
  ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_GE(e.stats().recursive_runs, 1u);
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(n, 2));
}

}  // namespace
}  // namespace fmm

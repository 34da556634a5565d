// Engine async surface: submit(...) mirroring every multiply(...) form.
// Covers bitwise equivalence with the synchronous paths (single, item
// batch, cross-shape fan-out, strided), immediate resolution of invalid
// requests, wait_all, nested use from foreign task-pool workers (the
// inline path), destruction with tasks in flight, and concurrent submit
// hammering against a tiny executor cache so completions race evictions
// (the TSan CI leg runs every EngineAsync* suite).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/task_pool.h"
#include "src/linalg/ops.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

Plan strassen_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.rows() * a.cols()) == 0;
}

// ---------------------------------------------------------------------------
// Single-multiply submits.
// ---------------------------------------------------------------------------

TEST(EngineAsyncSingle, BitwiseMatchesSynchronousMultiply) {
  const Plan plan = strassen_plan();
  Engine engine;
  const index_t n = 96;
  Matrix a = Matrix::random(n, n, 1), b = Matrix::random(n, n, 2);
  Matrix c_sync = Matrix::zero(n, n), c_async = Matrix::zero(n, n);

  ASSERT_TRUE(engine.multiply(plan, c_sync.view(), a.view(), b.view()).ok());
  TaskFuture f = engine.submit(plan, c_async.view(), a.view(), b.view());
  ASSERT_TRUE(f.valid());
  ASSERT_TRUE(f.status().ok());
  EXPECT_TRUE(bitwise_equal(c_sync, c_async));
}

TEST(EngineAsyncSingle, AutoPathSubmit) {
  Engine engine;
  const index_t n = 64;
  Matrix a = Matrix::random(n, n, 3), b = Matrix::random(n, n, 4);
  Matrix c_sync = Matrix::zero(n, n), c_async = Matrix::zero(n, n);
  std::shared_ptr<const AutoChoice> sync_choice, async_choice;
  ASSERT_TRUE(
      engine.multiply(c_sync.view(), a.view(), b.view(), &sync_choice).ok());
  ASSERT_TRUE(engine.submit(c_async.view(), a.view(), b.view(), &async_choice)
                  .status()
                  .ok());
  EXPECT_TRUE(bitwise_equal(c_sync, c_async));
  // The async form reports the decision it executed, like the sync one.
  ASSERT_NE(async_choice, nullptr);
  EXPECT_EQ(async_choice->description, sync_choice->description);
}

TEST(EngineAsyncSingle, PerCallConfigSubmit) {
  const Plan plan = strassen_plan();
  Engine engine;
  GemmConfig serial;
  serial.num_threads = 1;
  const index_t n = 80;
  Matrix a = Matrix::random(n, n, 5), b = Matrix::random(n, n, 6);
  Matrix c_sync = Matrix::zero(n, n), c_async = Matrix::zero(n, n);
  ASSERT_TRUE(
      engine.multiply(plan, c_sync.view(), a.view(), b.view(), serial).ok());
  ASSERT_TRUE(engine.submit(plan, c_async.view(), a.view(), b.view(), serial)
                  .status()
                  .ok());
  EXPECT_TRUE(bitwise_equal(c_sync, c_async));
}

TEST(EngineAsyncSingle, InvalidShapeResolvesImmediately) {
  const Plan plan = strassen_plan();
  Engine engine;
  Matrix a = Matrix::random(32, 16, 7), b = Matrix::random(32, 32, 8);
  Matrix c = Matrix::zero(32, 32);
  // k mismatch: a is 32x16, b is 32x32.
  TaskFuture f = engine.submit(plan, c.view(), a.view(), b.view());
  ASSERT_TRUE(f.valid());
  EXPECT_TRUE(f.done());  // resolved before any task ran
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidShape);
}

TEST(EngineAsyncSingle, PlanCopiedSubmitOutlivesCallersPlan) {
  Engine engine;
  const index_t n = 64;
  Matrix a = Matrix::random(n, n, 9), b = Matrix::random(n, n, 10);
  Matrix c_sync = Matrix::zero(n, n), c_async = Matrix::zero(n, n);
  {
    const Plan plan = strassen_plan();
    ASSERT_TRUE(engine.multiply(plan, c_sync.view(), a.view(), b.view()).ok());
  }
  TaskFuture f;
  {
    const Plan plan = strassen_plan();
    f = engine.submit(plan, c_async.view(), a.view(), b.view());
    // plan dies here; the submit copied it.
  }
  ASSERT_TRUE(f.status().ok());
  EXPECT_TRUE(bitwise_equal(c_sync, c_async));
}

// ---------------------------------------------------------------------------
// Batch submits.
// ---------------------------------------------------------------------------

TEST(EngineAsyncBatch, CrossShapeFanOutBitwise) {
  const Plan plan = strassen_plan();
  Engine engine;
  const std::vector<index_t> sizes = {32, 48, 64, 96};  // 4 shape groups
  constexpr int kPerGroup = 3;

  std::vector<Matrix> as, bs, cs_sync, cs_async;
  std::vector<BatchItem> items;
  // Interleave the shapes round-robin so grouping has work to do.
  for (int rep = 0; rep < kPerGroup; ++rep) {
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      const index_t s = sizes[g];
      const int id = rep * static_cast<int>(sizes.size()) + static_cast<int>(g);
      as.push_back(Matrix::random(s, s, 100 + 2 * id));
      bs.push_back(Matrix::random(s, s, 101 + 2 * id));
      cs_sync.push_back(Matrix::zero(s, s));
      cs_async.push_back(Matrix::zero(s, s));
    }
  }
  for (std::size_t i = 0; i < as.size(); ++i) {
    ASSERT_TRUE(
        engine.multiply(plan, cs_sync[i].view(), as[i].view(), bs[i].view())
            .ok());
    items.push_back({cs_async[i].view(), as[i].view(), bs[i].view()});
  }

  TaskFuture f = engine.submit(plan, BatchSpec::items(items));
  ASSERT_TRUE(f.status().ok());
  for (std::size_t i = 0; i < as.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(cs_sync[i], cs_async[i])) << "item " << i;
  }
  // One executor per shape group was compiled and cached.
  EXPECT_GE(engine.stats().entries, sizes.size());
}

TEST(EngineAsyncBatch, ItemArrayCopiedMayDieAfterSubmit) {
  const Plan plan = strassen_plan();
  Engine engine;
  const index_t n = 64;
  constexpr int kItems = 4;
  std::vector<Matrix> as, bs, cs_sync, cs_async;
  for (int i = 0; i < kItems; ++i) {
    as.push_back(Matrix::random(n, n, 300 + 2 * i));
    bs.push_back(Matrix::random(n, n, 301 + 2 * i));
    cs_sync.push_back(Matrix::zero(n, n));
    cs_async.push_back(Matrix::zero(n, n));
    ASSERT_TRUE(
        engine.multiply(plan, cs_sync.back().view(), as.back().view(),
                        bs.back().view())
            .ok());
  }
  TaskFuture f;
  {
    std::vector<BatchItem> items;
    for (int i = 0; i < kItems; ++i) {
      items.push_back({cs_async[static_cast<std::size_t>(i)].view(),
                       as[static_cast<std::size_t>(i)].view(),
                       bs[static_cast<std::size_t>(i)].view()});
    }
    f = engine.submit(plan, BatchSpec::items(items));
    // items dies here; the submit copied it (the views stay alive).
  }
  ASSERT_TRUE(f.status().ok());
  for (int i = 0; i < kItems; ++i) {
    EXPECT_TRUE(bitwise_equal(cs_sync[static_cast<std::size_t>(i)],
                              cs_async[static_cast<std::size_t>(i)]));
  }
}

TEST(EngineAsyncBatch, StridedSubmitBitwise) {
  const Plan plan = strassen_plan();
  Engine engine;
  const index_t n = 48;
  constexpr std::size_t kCount = 5;
  // One shared B (batch stride 0), contiguous A and C blocks.
  Matrix a = Matrix::random(static_cast<index_t>(kCount) * n, n, 400);
  Matrix b = Matrix::random(n, n, 401);
  Matrix c_sync = Matrix::zero(static_cast<index_t>(kCount) * n, n);
  Matrix c_async = Matrix::zero(static_cast<index_t>(kCount) * n, n);

  StridedBatch sb;
  sb.m = n;
  sb.n = n;
  sb.k = n;
  sb.count = kCount;
  sb.a = a.data();
  sb.b = b.data();
  sb.stride_a = n * a.stride();
  sb.stride_b = 0;  // shared B
  sb.c = c_sync.data();
  sb.stride_c = n * c_sync.stride();
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());

  sb.c = c_async.data();
  sb.stride_c = n * c_async.stride();
  TaskFuture f = engine.submit(plan, BatchSpec::strided(sb));
  ASSERT_TRUE(f.status().ok());
  EXPECT_TRUE(bitwise_equal(c_sync, c_async));
}

TEST(EngineAsyncBatch, EmptyBatchResolvesOk) {
  const Plan plan = strassen_plan();
  Engine engine;
  std::vector<BatchItem> items;
  TaskFuture f = engine.submit(plan, BatchSpec::items(items));
  EXPECT_TRUE(f.done());
  EXPECT_TRUE(f.status().ok());
}

TEST(EngineAsyncBatch, AliasedOutputsRejectedImmediately) {
  const Plan plan = strassen_plan();
  Engine engine;
  const index_t n = 32;
  Matrix a0 = Matrix::random(n, n, 500), b0 = Matrix::random(n, n, 501);
  Matrix a1 = Matrix::random(n, n, 502), b1 = Matrix::random(n, n, 503);
  Matrix c = Matrix::zero(n, n);
  std::vector<BatchItem> items = {{c.view(), a0.view(), b0.view()},
                                  {c.view(), a1.view(), b1.view()}};
  TaskFuture f = engine.submit(plan, BatchSpec::items(items));
  EXPECT_TRUE(f.done());
  EXPECT_EQ(f.status().code(), StatusCode::kAliasing);
}

TEST(EngineAsyncBatch, InvalidItemReportsIndexImmediately) {
  const Plan plan = strassen_plan();
  Engine engine;
  const index_t n = 32;
  Matrix a0 = Matrix::random(n, n, 510), b0 = Matrix::random(n, n, 511);
  Matrix bad_a = Matrix::random(n, n / 2, 512);
  Matrix c0 = Matrix::zero(n, n), c1 = Matrix::zero(n, n);
  std::vector<BatchItem> items = {{c0.view(), a0.view(), b0.view()},
                                  {c1.view(), bad_a.view(), b0.view()}};
  TaskFuture f = engine.submit(plan, BatchSpec::items(items));
  EXPECT_TRUE(f.done());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidShape);
  EXPECT_NE(f.status().to_string().find("item 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// wait_all and nested (inline) execution.
// ---------------------------------------------------------------------------

TEST(EngineAsyncWaitAll, DrainsEverySubmit) {
  const Plan plan = strassen_plan();
  Engine engine;
  const index_t n = 64;
  constexpr int kSubmits = 12;
  std::vector<Matrix> as, bs, cs;
  std::vector<TaskFuture> fs;
  for (int i = 0; i < kSubmits; ++i) {
    as.push_back(Matrix::random(n, n, 600 + 2 * i));
    bs.push_back(Matrix::random(n, n, 601 + 2 * i));
    cs.push_back(Matrix::zero(n, n));
    fs.push_back(engine.submit(plan, cs.back().view(), as.back().view(),
                               bs.back().view()));
  }
  engine.wait_all();
  for (auto& f : fs) {
    EXPECT_TRUE(f.done());
    EXPECT_TRUE(f.status().ok());
  }
}

TEST(EngineAsyncNested, MultiplyFromForeignPoolWorkerRunsInline) {
  // A synchronous multiply from inside a task of some *other* pool must
  // execute inline (never deadlock waiting for pool capacity), even when
  // that pool has a single fully-busy worker.
  const Plan plan = strassen_plan();
  Engine engine;
  const index_t n = 64;
  Matrix a = Matrix::random(n, n, 700), b = Matrix::random(n, n, 701);
  Matrix c_sync = Matrix::zero(n, n), c_task = Matrix::zero(n, n);
  ASSERT_TRUE(engine.multiply(plan, c_sync.view(), a.view(), b.view()).ok());

  TaskPool pool(1);
  TaskFuture f = pool.submit([&] {
    return engine.multiply(plan, c_task.view(), a.view(), b.view());
  });
  ASSERT_TRUE(f.status().ok());
  EXPECT_TRUE(bitwise_equal(c_sync, c_task));
}

// ---------------------------------------------------------------------------
// Lifecycle and concurrency.
// ---------------------------------------------------------------------------

TEST(EngineAsyncLifecycle, DestructionDrainsPendingSubmits) {
  const Plan plan = strassen_plan();
  const index_t n = 96;
  constexpr int kSubmits = 8;
  std::vector<Matrix> as, bs, cs, refs;
  for (int i = 0; i < kSubmits; ++i) {
    as.push_back(Matrix::random(n, n, 800 + 2 * i));
    bs.push_back(Matrix::random(n, n, 801 + 2 * i));
    cs.push_back(Matrix::zero(n, n));
    refs.push_back(Matrix::zero(n, n));
  }
  std::vector<TaskFuture> fs;
  {
    Engine engine;
    for (int i = 0; i < kSubmits; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      ASSERT_TRUE(
          engine.multiply(plan, refs[s].view(), as[s].view(), bs[s].view())
              .ok());
      fs.push_back(
          engine.submit(plan, cs[s].view(), as[s].view(), bs[s].view()));
    }
    // No wait: the destructor must drain, not drop or crash.
  }
  for (int i = 0; i < kSubmits; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    ASSERT_TRUE(fs[s].done());
    EXPECT_TRUE(fs[s].status().ok());
    EXPECT_TRUE(bitwise_equal(refs[s], cs[s]));
  }
}

TEST(EngineAsyncConcurrency, HammerSubmitsAcrossShapesWithEviction) {
  // Tiny executor cache: concurrent submits across more shapes than
  // entries force constant eviction/recompile while tasks run.
  const Plan plan = strassen_plan();
  Engine::Options opts;
  opts.cache_capacity = 2;
  opts.shards = 1;
  opts.config.num_threads = 1;
  Engine engine(opts);

  const std::vector<index_t> sizes = {16, 24, 32, 48, 64};
  // Per-shape references computed synchronously up front.
  std::vector<Matrix> ref_a, ref_b, ref_c;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    const index_t s = sizes[g];
    ref_a.push_back(Matrix::random(s, s, 900 + 2 * static_cast<int>(g)));
    ref_b.push_back(Matrix::random(s, s, 901 + 2 * static_cast<int>(g)));
    ref_c.push_back(Matrix::zero(s, s));
    ASSERT_TRUE(
        engine.multiply(plan, ref_c[g].view(), ref_a[g].view(), ref_b[g].view())
            .ok());
  }

  constexpr int kThreads = 4;
  const int iters = test::fuzz_iters(6);
  std::atomic<int> failures{0};
  std::vector<std::thread> hosts;
  for (int t = 0; t < kThreads; ++t) {
    hosts.emplace_back([&, t] {
      for (int it = 0; it < iters; ++it) {
        const std::size_t g =
            static_cast<std::size_t>(t + it) % sizes.size();
        const index_t s = sizes[g];
        Matrix c = Matrix::zero(s, s);
        TaskFuture f =
            engine.submit(plan, c.view(), ref_a[g].view(), ref_b[g].view());
        if (!f.status().ok() || !bitwise_equal(c, ref_c[g])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& h : hosts) h.join();
  EXPECT_EQ(failures.load(), 0);
  const Engine::CacheStats st = engine.stats();
  EXPECT_LE(st.entries, engine.cache_capacity());
  EXPECT_GT(st.evictions, 0u);  // the cache really churned
}

TEST(EngineAsyncConcurrency, ConcurrentMixedBatchSubmits) {
  const Plan plan = strassen_plan();
  Engine::Options opts;
  opts.config.num_threads = 1;
  Engine engine(opts);
  const std::vector<index_t> sizes = {32, 48, 64, 80};

  constexpr int kThreads = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> hosts;
  for (int t = 0; t < kThreads; ++t) {
    hosts.emplace_back([&, t] {
      std::vector<Matrix> as, bs, cs, refs;
      std::vector<BatchItem> items;
      for (std::size_t g = 0; g < sizes.size(); ++g) {
        const index_t s = sizes[g];
        const int id = t * 16 + static_cast<int>(g);
        as.push_back(Matrix::random(s, s, 1000 + 2 * id));
        bs.push_back(Matrix::random(s, s, 1001 + 2 * id));
        cs.push_back(Matrix::zero(s, s));
        refs.push_back(Matrix::zero(s, s));
      }
      for (std::size_t g = 0; g < sizes.size(); ++g) {
        if (!engine
                 .multiply(plan, refs[g].view(), as[g].view(), bs[g].view())
                 .ok()) {
          failures.fetch_add(1);
        }
        items.push_back({cs[g].view(), as[g].view(), bs[g].view()});
      }
      TaskFuture f = engine.submit(plan, BatchSpec::items(items));
      if (!f.status().ok()) failures.fetch_add(1);
      for (std::size_t g = 0; g < sizes.size(); ++g) {
        if (!bitwise_equal(refs[g], cs[g])) failures.fetch_add(1);
      }
    });
  }
  for (auto& h : hosts) h.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace fmm

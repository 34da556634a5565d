// Engine async surface: submit(...) mirroring every multiply(...) form.
// Covers bitwise equivalence with the synchronous paths (single, item
// batch, cross-shape fan-out, strided), immediate resolution of invalid
// requests, wait_all, nested use from foreign task-pool workers (the
// inline path), every front-door form from a host thread and from a pool
// worker (same bits, same Status, one request sample), destruction with
// tasks in flight, concurrent submit hammering against a tiny executor
// cache so completions race evictions, and one compile per cache key under
// a burst or a failing compile (the TSan CI leg runs every Engine* suite).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/task_pool.h"
#include "src/linalg/ops.h"
#include "tests/test_support.h"

// The allocation-failure rows of EngineFrontDoor ask for a 512 TiB buffer
// on purpose.  The sanitizer allocators abort on such a request unless
// told to fail it; a failed allocation returns null, which AlignedBuffer
// turns into std::bad_alloc as in an uninstrumented build.
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
// One request path: every front-door form, from a host thread (queued) and
// from a pool worker (inline), in both element types.  Each row must give
// the host thread's bits and Status on the worker, record exactly one
// sample in its request histogram, and one engine.exec.gflops sample per
// shape group executed.
// ---------------------------------------------------------------------------

enum class Form {
  kExplicit,
  kAuto,
  kItems,
  kItemsCross,
  kItemsSharedB,
  kStrided,
  kStridedSharedB,
  kDescent,
  kFailSingle,
  kFailBatch,
  kFailCross,
};

struct FormRow {
  const char* name;
  Form form;
  const char* histogram;     // the request histogram of the one sample
  std::uint64_t executions;  // engine.exec.gflops samples
  bool fails;                // kInvalidArgument from std::bad_alloc
};

constexpr FormRow kFormRows[] = {
    {"explicit single", Form::kExplicit, "engine.request.explicit", 1, false},
    {"auto single", Form::kAuto, "engine.request.auto", 1, false},
    {"items, one shape", Form::kItems, "engine.request.batch", 1, false},
    {"items, cross-shape", Form::kItemsCross, "engine.request.batch", 3,
     false},
    {"items, shared B", Form::kItemsSharedB, "engine.request.batch", 1, false},
    {"strided", Form::kStrided, "engine.request.batch", 1, false},
    {"strided, stride_b 0", Form::kStridedSharedB, "engine.request.batch", 1,
     false},
    // <2,2,2>^2 at 256^3 with cutoff 128: one level descends, and its seven
    // 128^3 products run as cached one-level executors.
    {"descent", Form::kDescent, "engine.request.explicit", 7, false},
    {"failing single", Form::kFailSingle, "engine.request.explicit", 0, true},
    {"failing batch", Form::kFailBatch, "engine.request.batch", 0, true},
    {"cross-shape, one group fails", Form::kFailCross, "engine.request.batch",
     1, true},
};

// 2^24 x 2^24 x 2 over 16-element buffers: compiling its AB executor asks
// for a 512 TiB M_r buffer (beyond any address space), which throws
// std::bad_alloc before any operand is touched.
constexpr index_t kHuge = index_t{1} << 24;

template <typename T>
std::vector<T> seeded(std::size_t n, std::uint64_t seed) {
  std::vector<T> v(n);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (T& e : v) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    e = static_cast<T>(static_cast<double>((x >> 11) & 0xfffff) / 1048576.0 -
                       0.5);
  }
  return v;
}

template <typename T>
struct FormRun {
  Status status;
  std::vector<std::vector<T>> c;  // every C buffer after the call
  std::uint64_t explicit_samples = 0, auto_samples = 0, batch_samples = 0;
  std::uint64_t executions = 0;
  std::vector<T> alone;  // kFailCross: its 64^3 item multiplied on its own
};

// One row on a fresh engine, from this host thread or from the worker of
// a foreign single-worker pool.
template <typename T>
FormRun<T> run_form(Form form, bool on_worker) {
  Engine::Options opts;
  opts.workers = 2;
  opts.recurse_cutoff = 128;
  Engine engine(opts);
  engine.metrics().set_enabled(true);
  const Plan abc = strassen_plan();
  const Plan ab = strassen_plan(Variant::kAB);
  const FmmAlgorithm& s222 = catalog::best(2, 2, 2);
  const Plan two_level = make_plan({s222, s222}, Variant::kABC);

  // Operands: one square problem per listed size.
  std::vector<std::vector<T>> as, bs;
  FormRun<T> run;
  auto problems = [&](std::initializer_list<index_t> sizes) {
    std::uint64_t seed = 1;
    for (index_t s : sizes) {
      const std::size_t elems = static_cast<std::size_t>(s * s);
      as.push_back(seeded<T>(elems, seed++));
      bs.push_back(seeded<T>(elems, seed++));
      run.c.push_back(seeded<T>(elems, seed++));
    }
  };
  auto item = [&](std::size_t i, index_t s) {
    const T* b = form == Form::kItemsSharedB ? bs.front().data() : bs[i].data();
    return BatchItemT<T>{MatViewT<T>(run.c[i].data(), s, s, s),
                         ConstMatViewT<T>(as[i].data(), s, s, s),
                         ConstMatViewT<T>(b, s, s, s)};
  };
  auto huge = [&] {
    as.push_back(seeded<T>(16, 90));
    bs.push_back(seeded<T>(16, 91));
    run.c.push_back(seeded<T>(16, 92));
    return BatchItemT<T>{MatViewT<T>(run.c.back().data(), kHuge, kHuge, kHuge),
                         ConstMatViewT<T>(as.back().data(), kHuge, 2, 2),
                         ConstMatViewT<T>(bs.back().data(), 2, kHuge, kHuge)};
  };
  std::vector<BatchItemT<T>> items;
  StridedBatchT<T> sb;
  switch (form) {
    case Form::kExplicit:
    case Form::kAuto:
      problems({64});
      items.push_back(item(0, 64));
      break;
    case Form::kFailSingle:
    case Form::kFailBatch:
      items.push_back(huge());
      break;
    case Form::kItems:
    case Form::kItemsSharedB:
      problems({64, 64, 64});
      for (std::size_t i = 0; i < 3; ++i) items.push_back(item(i, 64));
      break;
    case Form::kItemsCross:
      problems({64, 96, 64, 48});
      items = {item(0, 64), item(1, 96), item(2, 64), item(3, 48)};
      break;
    case Form::kFailCross:
      problems({64});
      items.push_back(item(0, 64));
      items.push_back(huge());
      break;
    case Form::kStrided:
    case Form::kStridedSharedB: {
      const index_t s = 64;
      const std::size_t count = 4;
      as.push_back(seeded<T>(count * s * s, 1));
      bs.push_back(seeded<T>(count * s * s, 2));
      run.c.push_back(seeded<T>(count * s * s, 3));
      sb.m = sb.n = sb.k = s;
      sb.count = count;
      sb.c = run.c[0].data();
      sb.a = as[0].data();
      sb.b = bs[0].data();
      sb.stride_c = sb.stride_a = s * s;
      sb.stride_b = form == Form::kStridedSharedB ? 0 : s * s;
      break;
    }
    case Form::kDescent:
      problems({256});
      items.push_back(item(0, 256));
      break;
  }

  auto call = [&]() -> Status {
    const BatchItemT<T>& it = items.empty() ? BatchItemT<T>{} : items.front();
    switch (form) {
      case Form::kExplicit:
        return engine.multiply(abc, it.c, it.a, it.b);
      case Form::kAuto:
        return engine.multiply(it.c, it.a, it.b);
      case Form::kDescent:
        return engine.multiply(two_level, it.c, it.a, it.b);
      case Form::kFailSingle:
        return engine.multiply(ab, it.c, it.a, it.b);
      case Form::kItems:
      case Form::kItemsSharedB:
        return engine.multiply(abc, BatchSpec::items(items));
      case Form::kItemsCross:
        return engine.multiply(BatchSpec::items(items));
      case Form::kFailBatch:
      case Form::kFailCross:
        return engine.multiply(ab, BatchSpec::items(items));
      case Form::kStrided:
        return engine.multiply(BatchSpec::strided(sb));
      case Form::kStridedSharedB:
        return engine.multiply(abc, BatchSpec::strided(sb));
    }
    return Status::error(StatusCode::kInvalidArgument, "unknown form");
  };
  if (on_worker) {
    TaskPool pool(1);
    pool.submit([&] { run.status = call(); }).wait();
  } else {
    run.status = call();
  }
  obs::MetricsRegistry& m = engine.metrics();
  run.explicit_samples = m.histogram("engine.request.explicit").count();
  run.auto_samples = m.histogram("engine.request.auto").count();
  run.batch_samples = m.histogram("engine.request.batch").count();
  run.executions = m.histogram("engine.exec.gflops").count();
  if (form == Form::kFailCross) {
    run.alone = seeded<T>(64 * 64, 3);  // C_0 before the call
    const BatchItemT<T>& it = items.front();
    EXPECT_TRUE(engine
                    .multiply(ab, MatViewT<T>(run.alone.data(), 64, 64, 64),
                              it.a, it.b)
                    .ok());
  }
  return run;
}

template <typename T>
void check_form_rows(const char* dtype) {
  for (const FormRow& row : kFormRows) {
    const FormRun<T> host = run_form<T>(row.form, /*on_worker=*/false);
    const FormRun<T> worker = run_form<T>(row.form, /*on_worker=*/true);
    for (const FormRun<T>* run : {&host, &worker}) {
      SCOPED_TRACE(std::string(row.name) + ", " + dtype + ", " +
                   (run == &host ? "host thread" : "pool worker"));
      if (row.fails) {
        EXPECT_EQ(run->status.code(), StatusCode::kInvalidArgument)
            << run->status.to_string();
        EXPECT_NE(run->status.message().find("bad_alloc"), std::string::npos)
            << run->status.to_string();
      } else {
        EXPECT_TRUE(run->status.ok()) << run->status.to_string();
      }
      EXPECT_EQ(run->status.to_string(), host.status.to_string());
      ASSERT_EQ(run->c.size(), host.c.size());
      for (std::size_t i = 0; i < host.c.size(); ++i) {
        EXPECT_EQ(std::memcmp(run->c[i].data(), host.c[i].data(),
                              host.c[i].size() * sizeof(T)),
                  0)
            << "C buffer " << i;
      }
      auto samples = [&](const char* histogram) -> std::uint64_t {
        return std::string(row.histogram) == histogram ? 1 : 0;
      };
      EXPECT_EQ(run->explicit_samples, samples("engine.request.explicit"));
      EXPECT_EQ(run->auto_samples, samples("engine.request.auto"));
      EXPECT_EQ(run->batch_samples, samples("engine.request.batch"));
      EXPECT_EQ(run->executions, row.executions);
      if (row.form == Form::kFailCross) {
        // Every group runs: the item next to the failing one holds the
        // bits it gets when multiplied on its own.
        EXPECT_EQ(std::memcmp(run->c[0].data(), run->alone.data(),
                              run->alone.size() * sizeof(T)),
                  0);
      }
    }
  }
}

TEST(EngineFrontDoor, EveryFormFromHostThreadAndPoolWorker) {
  check_form_rows<double>("f64");
  check_form_rows<float>("f32");
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

// ---------------------------------------------------------------------------
// Executor cache: one compile per key.
// ---------------------------------------------------------------------------

TEST(EngineAsyncCache, BurstOnANewKeyCompilesItOnce) {
  // Eight submits at once for a key nobody has compiled, on a 4-worker
  // engine whose pool is already running: the key compiles once and every
  // request runs its executor.  Each round adds one key, so compilations
  // (misses) stay equal to entries + evictions.
  const Plan plan = strassen_plan();
  Engine::Options opts;
  opts.workers = 4;
  opts.config.num_threads = 1;
  Engine engine(opts);
  {
    Matrix a = Matrix::random(16, 16, 1), b = Matrix::random(16, 16, 2);
    Matrix c = Matrix::zero(16, 16);
    ASSERT_TRUE(engine.multiply(plan, c.view(), a.view(), b.view()).ok());
  }
  constexpr int kRounds = 20;
  constexpr int kSubmits = 8;
  const index_t n = 96, max_m = n + 2 * kRounds;
  const Matrix a = Matrix::random(max_m, n, 3), b = Matrix::random(n, n, 4);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const index_t m = n + 2 * round;
    std::vector<Matrix> cs;
    for (int i = 0; i < kSubmits; ++i) cs.push_back(Matrix::zero(m, n));
    std::vector<TaskFuture> fs;
    for (Matrix& c : cs) {
      fs.push_back(
          engine.submit(plan, c.view(), a.view().block(0, 0, m, n), b.view()));
    }
    for (std::size_t i = 0; i < fs.size(); ++i) {
      EXPECT_TRUE(fs[i].status().ok()) << fs[i].status().to_string();
      EXPECT_TRUE(bitwise_equal(cs[i], cs[0])) << "request " << i;
    }
    const Engine::CacheStats st = engine.stats();
    ASSERT_EQ(st.misses, st.entries + st.evictions);
  }
}

TEST(EngineAsyncCache, FailingCompileFailsEachRequestAndNeverHangs) {
  // Two requests in a row whose AB executor cannot be allocated (kHuge):
  // each compiles, fails with the allocation failure, and resolves.  The
  // second must not wait on the entry the first left behind, and the key
  // holds one cache entry however often it fails.  Polled against a
  // deadline; a hung engine is leaked (its blocked task would wait forever
  // in the destructor).
  auto engine = std::make_unique<Engine>();
  const Plan ab = strassen_plan(Variant::kAB);
  std::vector<double> a(16, 1.0), b(16, 1.0), c(16, 0.0);
  const MatView cv(c.data(), kHuge, kHuge, kHuge);
  const ConstMatView av(a.data(), kHuge, 2, 2), bv(b.data(), 2, kHuge, kHuge);
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const TaskFuture f = engine->submit(ab, cv, av, bv);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!f.done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!f.done()) {
      (void)engine.release();
      FAIL() << "the request never resolved";
    }
    EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(f.status().message().find("bad_alloc"), std::string::npos)
        << f.status().to_string();
  }
  const Engine::CacheStats st = engine->stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.entries, 1u);
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

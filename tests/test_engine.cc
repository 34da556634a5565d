// fmm::Engine — the unified serving session API.  Covers the executor
// cache (hit/miss/eviction accounting, LRU policy, the FMM_ENGINE_CACHE
// env knob), explicit-plan and auto paths sharing compiled executors,
// cross-shape and strided batches (bitwise equivalence with per-call
// execution), Status error paths (shape mismatch, bad strides, aliasing),
// and concurrent multi-shape hammering from host threads (the TSan CI leg
// runs the EngineConcurrency suite).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/gemm/gemm.h"
#include "src/linalg/ops.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

Plan strassen_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

Engine::Options small_cache_options(std::size_t cap) {
  Engine::Options opts;
  opts.cache_capacity = cap;
  return opts;
}

// ---------------------------------------------------------------------------
// Explicit-plan path: correctness and cache accounting.
// ---------------------------------------------------------------------------

TEST(EngineExplicit, MatchesReference) {
  Engine engine;
  const Plan plan = strassen_plan();
  for (index_t s : {48, 64, 101}) {
    test::RandomProblem p = test::random_problem(s, s, s, 7);
    ASSERT_TRUE(engine.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(s))
        << "s=" << s;
  }
}

TEST(EngineExplicit, BitwiseIdenticalToDirectExecutor) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 96;
  test::RandomProblem p = test::random_problem(s, s, s, 11);
  Matrix c_direct = p.c.clone();
  ASSERT_TRUE(engine.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  FmmExecutor exec(plan, s, s, s, engine.config());
  exec.run(c_direct.view(), p.a.view(), p.b.view());
  EXPECT_EQ(max_abs_diff(p.c.view(), c_direct.view()), 0.0);
}

TEST(EngineCache, HitMissEvictionAccounting) {
  Engine engine(small_cache_options(/*cap=*/2));
  ASSERT_EQ(engine.cache_capacity(), 2u);
  const Plan plan = strassen_plan();
  const index_t shapes[3] = {32, 40, 48};
  Matrix a = Matrix::random(64, 64, 1), b = Matrix::random(64, 64, 2);
  Matrix c = Matrix::zero(64, 64);
  auto run_shape = [&](index_t s) {
    ASSERT_TRUE(engine
                    .multiply(plan, c.view().block(0, 0, s, s),
                              a.view().block(0, 0, s, s),
                              b.view().block(0, 0, s, s))
                    .ok());
  };

  run_shape(shapes[0]);  // miss
  run_shape(shapes[1]);  // miss
  run_shape(shapes[0]);  // hit
  run_shape(shapes[1]);  // hit
  auto s1 = engine.stats();
  EXPECT_EQ(s1.misses, 2u);
  EXPECT_EQ(s1.hits, 2u);
  EXPECT_EQ(s1.evictions, 0u);
  EXPECT_EQ(s1.entries, 2u);

  run_shape(shapes[2]);  // miss + eviction (cap 2)
  auto s2 = engine.stats();
  EXPECT_EQ(s2.misses, 3u);
  EXPECT_EQ(s2.evictions, 1u);
  EXPECT_EQ(s2.entries, 2u);

  // LRU policy: shapes[0] was touched after shapes[1]... both were touched
  // in order 0,1,0,1 — so shapes[0] is the LRU and must have been evicted;
  // shapes[1] must still hit.
  run_shape(shapes[1]);
  auto s3 = engine.stats();
  EXPECT_EQ(s3.hits, s2.hits + 1);
  EXPECT_EQ(s3.misses, s2.misses);
}

TEST(EngineCache, DistinctPlansCoefficientsAndConfigsKeySeparately) {
  Engine engine(small_cache_options(/*cap=*/8));
  const index_t s = 40;
  test::RandomProblem p = test::random_problem(s, s, s, 3, /*zero_c=*/true);

  ASSERT_TRUE(
      engine.multiply(strassen_plan(), p.c.view(), p.a.view(), p.b.view())
          .ok());
  // Same dims, different coefficients (Winograd): distinct entry.
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(make_plan({make_winograd()}, Variant::kABC),
                            p.c.view(), p.a.view(), p.b.view())
                  .ok());
  // Same plan, different variant: distinct entry.
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(strassen_plan(Variant::kAB), p.c.view(),
                            p.a.view(), p.b.view())
                  .ok());
  // Same plan, per-call config override: distinct entry.
  GemmConfig two;
  two.num_threads = 2;
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(strassen_plan(), p.c.view(), p.a.view(),
                            p.b.view(), two)
                  .ok());
  auto st = engine.stats();
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.entries, 4u);

  // Every key re-requested is a hit.
  p.c.set_zero();
  ASSERT_TRUE(
      engine.multiply(strassen_plan(), p.c.view(), p.a.view(), p.b.view())
          .ok());
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(strassen_plan(), p.c.view(), p.a.view(),
                            p.b.view(), two)
                  .ok());
  auto st2 = engine.stats();
  EXPECT_EQ(st2.misses, 4u);
  EXPECT_GE(st2.hits, 2u);
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(s));
}

TEST(EngineCache, EnvKnobSetsDefaultCapacity) {
  ASSERT_EQ(setenv("FMM_ENGINE_CACHE", "3", /*overwrite=*/1), 0);
  {
    Engine engine;
    EXPECT_EQ(engine.cache_capacity(), 3u);
  }
  for (const char* junk : {"not-a-number", "junk", "3junk", "-1", "0"}) {
    ASSERT_EQ(setenv("FMM_ENGINE_CACHE", junk, 1), 0);
    Engine engine;  // invalid value: warn and fall back to the default
    EXPECT_EQ(engine.cache_capacity(), Engine::kDefaultCacheCapacity)
        << "FMM_ENGINE_CACHE=" << junk;
  }
  ASSERT_EQ(unsetenv("FMM_ENGINE_CACHE"), 0);
  Engine::Options explicit_cap;
  explicit_cap.cache_capacity = 5;
  Engine engine(explicit_cap);
  EXPECT_EQ(engine.cache_capacity(), 5u);
}

// ---------------------------------------------------------------------------
// Status error paths.
// ---------------------------------------------------------------------------

TEST(EngineStatus, ShapeMismatchIsRecoverable) {
  Engine engine;
  const Plan plan = strassen_plan();
  Matrix a = Matrix::random(32, 48, 1);
  Matrix b = Matrix::random(40, 32, 2);  // k mismatch: A is 32x48, B 40x32
  Matrix c = Matrix::zero(32, 32);
  const Status st = engine.multiply(plan, c.view(), a.view(), b.view());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape);
  EXPECT_NE(st.message().find("conform"), std::string::npos) << st.to_string();
  // Nothing was written.
  EXPECT_EQ(max_abs_diff(c.view(), Matrix::zero(32, 32).view()), 0.0);
}

TEST(EngineStatus, NonConformingBIsRejected) {
  Engine engine;
  const Plan plan = strassen_plan();
  Matrix a = Matrix::random(32, 32, 1), b = Matrix::random(32, 32, 2);
  Matrix c = Matrix::zero(32, 32);
  const Status st = engine.multiply(plan, c.view(), a.view(),
                                    ConstMatView(b.data(), 32, 16, 16));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape);  // 32x16 B cannot conform
}

TEST(EngineStatus, OutputAliasingInputIsRejected) {
  Engine engine;
  const Plan plan = strassen_plan();
  Matrix a = Matrix::random(32, 32, 1), b = Matrix::random(32, 32, 2);
  const Status st =
      engine.multiply(plan, a.view(), a.view(), b.view());  // C is A
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAliasing);
}

TEST(EngineStatus, BatchWithOneBadItemComputesNothing) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 32;
  Matrix a = Matrix::random(s, s, 1), b = Matrix::random(s, s, 2);
  Matrix c0 = Matrix::zero(s, s), c1 = Matrix::zero(s, s);
  Matrix bad_b = Matrix::random(s + 1, s, 3);  // wrong k for item 1
  std::vector<BatchItem> items = {
      {c0.view(), a.view(), b.view()},
      {c1.view(), a.view(), bad_b.view()},
  };
  const Status st = engine.multiply(plan, BatchSpec::items(items));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape);
  EXPECT_NE(st.message().find("item 1"), std::string::npos) << st.to_string();
  // Validation precedes arithmetic: the good item was not executed either.
  EXPECT_EQ(max_abs_diff(c0.view(), Matrix::zero(s, s).view()), 0.0);
}

TEST(EngineStatus, DuplicateBatchOutputIsRejected) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 32;
  Matrix a = Matrix::random(s, s, 1), b = Matrix::random(s, s, 2);
  Matrix c = Matrix::zero(s, s);
  std::vector<BatchItem> items = {
      {c.view(), a.view(), b.view()},
      {c.view(), a.view(), b.view()},  // same C twice: silently racy
  };
  const Status st = engine.multiply(plan, BatchSpec::items(items));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAliasing);
}

TEST(EngineStatus, StridedBatchBadStridesAreRecoverable) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 32;
  Matrix a(3 * s, s), b(s, s), c(3 * s, s);
  a.fill_random(1);
  b.fill_random(2);
  c.set_zero();

  StridedBatch sb;
  sb.m = sb.n = sb.k = s;
  sb.count = 3;
  sb.c = c.data();
  sb.a = a.data();
  sb.b = b.data();
  sb.stride_a = s * s;
  sb.stride_b = 0;

  // stride_c == 0 with count > 1: every item would write the same C.
  sb.stride_c = 0;
  Status st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAliasing);

  // 0 < stride_c < n: adjacent C items overlap.
  sb.stride_c = s - 1;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // stride_c == n with a dense ldc and m > 1: item 1 starts inside item
  // 0's second row — neither stacked nor interleaved, must be rejected.
  sb.stride_c = s;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // stride_c < n with a padded ldc: the items fit inside the row span but
  // consecutive row segments overlap — not a valid interleaved layout.
  sb.ldc = 4 * s;
  sb.stride_c = s / 2;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);
  sb.ldc = 0;

  // Row stride smaller than the row length.
  sb.stride_c = s * s;
  sb.ldc = s - 4;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // Negative batch stride.
  sb.ldc = 0;
  sb.stride_a = -1;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // All strides fixed: the same descriptor now runs.
  sb.stride_a = s * s;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_TRUE(st.ok()) << st.to_string();
}

// ---------------------------------------------------------------------------
// Batches: cross-shape grouping and the strided layout.
// ---------------------------------------------------------------------------

TEST(EngineBatch, CrossShapeBatchMatchesPerCallBitwise) {
  const Plan plan = strassen_plan();
  // Interleaved shapes; each group must land on one cached executor and
  // match per-call execution bitwise.
  const index_t shapes[3] = {40, 64, 96};
  const int per_shape = 3;
  std::vector<Matrix> as, bs, cs, ws;
  std::vector<BatchItem> items;
  for (int i = 0; i < 3 * per_shape; ++i) {
    const index_t s = shapes[i % 3];
    as.push_back(Matrix::random(s, s, 100 + static_cast<std::uint64_t>(i)));
    bs.push_back(Matrix::random(s, s, 200 + static_cast<std::uint64_t>(i)));
    cs.push_back(Matrix::zero(s, s));
    ws.push_back(Matrix::zero(s, s));
  }
  for (int i = 0; i < 3 * per_shape; ++i) {
    items.push_back({cs[static_cast<std::size_t>(i)].view(),
                     as[static_cast<std::size_t>(i)].view(),
                     bs[static_cast<std::size_t>(i)].view()});
  }

  // Reference: per-call through a second engine (run_batch is bitwise
  // identical to run per item; engine single calls use run).
  Engine ref_engine;
  for (int i = 0; i < 3 * per_shape; ++i) {
    ASSERT_TRUE(ref_engine
                    .multiply(plan, ws[static_cast<std::size_t>(i)].view(),
                              as[static_cast<std::size_t>(i)].view(),
                              bs[static_cast<std::size_t>(i)].view())
                    .ok());
  }

  Engine engine;
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::items(items)).ok());
  for (int i = 0; i < 3 * per_shape; ++i) {
    EXPECT_EQ(max_abs_diff(cs[static_cast<std::size_t>(i)].view(),
                           ws[static_cast<std::size_t>(i)].view()),
              0.0)
        << "item " << i;
  }
  // One executor per distinct shape, not per item.
  EXPECT_EQ(engine.stats().entries, 3u);
}

TEST(EngineBatch, StridedRoundTripMatchesPerItemViews) {
  const Plan plan = strassen_plan();
  const index_t s = 64;
  const std::size_t count = 8;
  const index_t item = s * s;
  Matrix a(static_cast<index_t>(count) * s, s);
  Matrix c(static_cast<index_t>(count) * s, s);
  Matrix cw(static_cast<index_t>(count) * s, s);
  Matrix b = Matrix::random(s, s, 5);
  a.fill_random(6);
  c.fill_random(7);
  std::memcpy(cw.data(), c.data(),
              static_cast<std::size_t>(count) *
                  static_cast<std::size_t>(item) * sizeof(double));

  Engine view_engine;
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    const index_t off = static_cast<index_t>(i) * item;
    items.push_back({MatView(cw.data() + off, s, s, s),
                     ConstMatView(a.data() + off, s, s, s), b.view()});
  }
  ASSERT_TRUE(view_engine.multiply(plan, BatchSpec::items(items)).ok());

  Engine engine;
  StridedBatch sb;
  sb.m = sb.n = sb.k = s;
  sb.count = count;
  sb.c = c.data();
  sb.a = a.data();
  sb.b = b.data();
  sb.stride_c = item;
  sb.stride_a = item;
  sb.stride_b = 0;  // shared B — the prepacked fast path
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());

  EXPECT_EQ(max_abs_diff(c.view(), cw.view()), 0.0);
}

TEST(EngineBatch, InterleavedColumnLayout) {
  // Items interleaved inside one row-major buffer: item i occupies columns
  // [i*n, (i+1)*n) of a (m x count*n) matrix — batch stride n, row stride
  // count*n.  The strided expansion must serve this without copies.
  const Plan plan = strassen_plan();
  const index_t s = 48;
  const std::size_t count = 4;
  const index_t ld = static_cast<index_t>(count) * s;
  Matrix a(s, ld), c(s, ld), cw(s, ld);
  Matrix b = Matrix::random(s, s, 9);
  a.fill_random(10);
  c.set_zero();
  cw.set_zero();

  Engine engine;
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    const index_t off = static_cast<index_t>(i) * s;
    items.push_back({MatView(cw.data() + off, s, s, ld),
                     ConstMatView(a.data() + off, s, s, ld), b.view()});
  }
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::items(items)).ok());

  StridedBatch sb;
  sb.m = sb.n = sb.k = s;
  sb.count = count;
  sb.c = c.data();
  sb.a = a.data();
  sb.b = b.data();
  sb.ldc = ld;
  sb.lda = ld;
  sb.stride_c = s;
  sb.stride_a = s;
  sb.stride_b = 0;
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());
  EXPECT_EQ(max_abs_diff(c.view(), cw.view()), 0.0);
}

TEST(EngineBatch, EmptyBatchesAreOk) {
  Engine engine;
  const Plan plan = strassen_plan();
  EXPECT_TRUE(engine.multiply(plan, BatchSpec()).ok());
  EXPECT_TRUE(engine.multiply(plan, BatchSpec::items(static_cast<const BatchItem*>(nullptr), 0)).ok());
  StridedBatch sb;
  sb.m = sb.n = sb.k = 32;
  EXPECT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());
  EXPECT_EQ(engine.stats().entries, 0u);  // nothing compiled
  // Two 0x5 items over null C and A data: an empty C writes nothing, so
  // the items are distinct outputs whatever their pointers.
  const Matrix b = Matrix::random(4, 5, 3);
  const BatchItem empty{MatView(nullptr, 0, 5, 5),
                        ConstMatView(nullptr, 0, 4, 4), b.view()};
  const BatchItem two_empty[2] = {empty, empty};
  EXPECT_TRUE(engine.multiply(plan, BatchSpec::items(two_empty, 2)).ok());
}

TEST(EngineBatch, EmptyItemsCompileNothing) {
  // Items whose C is empty do no arithmetic, so, like an empty strided
  // batch, they compile and cache no executor, on the explicit and the
  // auto path; beside a non-empty item they leave its group alone.
  Engine engine;
  const Plan plan = strassen_plan();
  const Matrix b = Matrix::random(4, 5, 3);
  const BatchItem empty{MatView(nullptr, 0, 5, 5),
                        ConstMatView(nullptr, 0, 4, 4), b.view()};
  const BatchItem two_empty[2] = {empty, empty};
  const Engine::CacheStats before = engine.stats();
  EXPECT_TRUE(engine.multiply(plan, BatchSpec::items(two_empty, 2)).ok());
  EXPECT_TRUE(engine.multiply(BatchSpec::items(two_empty, 2)).ok());
  const Engine::CacheStats after = engine.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.choice_misses, before.choice_misses);

  const Matrix a = Matrix::random(6, 4, 4);
  Matrix c = Matrix::zero(6, 5);
  Matrix want = Matrix::zero(6, 5);
  ref_gemm(want.view(), a.view(), b.view());
  const BatchItem mixed[2] = {empty, {c.view(), a.view(), b.view()}};
  EXPECT_TRUE(engine.multiply(plan, BatchSpec::items(mixed, 2)).ok());
  EXPECT_EQ(engine.stats().entries, before.entries + 1);
  EXPECT_EQ(engine.stats().misses, before.misses + 1);
  EXPECT_LE(max_abs_diff(c.view(), want.view()), 1e-12);
}

// ---------------------------------------------------------------------------
// Auto path.
// ---------------------------------------------------------------------------

TEST(EngineAuto, MatchesReference) {
  Engine engine;  // literature-default model parameters (no calibration)
  for (index_t s : {64, 200}) {
    test::RandomProblem p = test::random_problem(s, s, s, 21);
    ASSERT_TRUE(engine.multiply(p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), 1e-10 * s) << s;
  }
}

TEST(EngineAuto, ChoiceCacheIsBoundedWithLru) {
  Engine::Options opts;
  opts.cache_capacity = 1;  // the choice cache holds 8x the executors
  Engine engine(opts);
  ASSERT_EQ(engine.choice_capacity(), 8u);
  (void)engine.choice_for(512, 512, 512);  // miss
  for (index_t i = 1; i < 8; ++i) {
    (void)engine.choice_for(512, 512, 512 + 64 * i);  // 7 more misses
  }
  (void)engine.choice_for(512, 512, 512);  // hit: the oldest is now the MRU
  auto s1 = engine.stats();
  EXPECT_EQ(s1.choice_misses, 8u);
  EXPECT_EQ(s1.choice_hits, 1u);
  EXPECT_EQ(s1.choice_entries, 8u);

  (void)engine.choice_for(2048, 2048, 256);  // miss + eviction
  auto s2 = engine.stats();
  EXPECT_EQ(s2.choice_misses, 9u);
  EXPECT_EQ(s2.choice_evictions, 1u);
  EXPECT_EQ(s2.choice_entries, 8u);

  // 512^3 was more recently used than 512x512x576: it must still be
  // cached, and the evicted least-recently-used shape must not.
  (void)engine.choice_for(512, 512, 512);
  auto s3 = engine.stats();
  EXPECT_EQ(s3.choice_hits, s2.choice_hits + 1);
  (void)engine.choice_for(512, 512, 576);
  EXPECT_EQ(engine.stats().choice_misses, s3.choice_misses + 1);
}

TEST(EngineAuto, AutoAndExplicitShareCompiledExecutors) {
  // Whatever plan the auto path picks for a shape (GEMM's is <1,1,1>), an
  // explicit call with that same plan must hit the same cache entry — one
  // compile.
  Engine engine;
  const AutoChoice choice = engine.choice_for(704, 704, 704);
  test::RandomProblem p = test::random_problem(704, 704, 704, 33);
  ASSERT_TRUE(engine.multiply(p.c.view(), p.a.view(), p.b.view()).ok());
  const auto after_auto = engine.stats();
  ASSERT_TRUE(
      engine.multiply(*choice.plan, p.c.view(), p.a.view(), p.b.view()).ok());
  const auto after_explicit = engine.stats();
  EXPECT_EQ(after_explicit.misses, after_auto.misses);  // no second compile
  EXPECT_GE(after_explicit.hits, after_auto.hits + 1);
}

// Conventional GEMM is the rank-1 <1,1,1> plan (paper §3): a shape the
// model gives to GEMM runs through the executor cache like any other plan,
// with gemm()'s bits, as a single and as shared-B batches.
template <typename T>
void expect_gemm_choice_runs_as_plan() {
  constexpr DType kDt = DTypeOf<T>::value;
  Engine engine;
  const index_t s = 64;
  ASSERT_TRUE(engine.choice_for(s, s, s, kDt).use_gemm);
  Plan rank1 = test::gemm_plan();
  rank1.dtype = kDt;

  const std::size_t elems = static_cast<std::size_t>(s * s);
  auto random = [&](std::size_t count, std::uint64_t seed) {
    std::vector<T> v(count * elems);
    std::uint64_t x = seed;
    for (T& e : v) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      e = static_cast<T>(static_cast<double>(x >> 40) / 16777216.0 - 0.5);
    }
    return v;
  };
  auto view = [&](std::vector<T>& v, std::size_t i) {
    return MatViewT<T>(v.data() + i * elems, s, s, s);
  };
  const GemmConfig cfg = engine.config();

  // Singles: the first call per (shape, dtype) compiles, the second hits.
  std::vector<T> a = random(1, 1), b = random(1, 2), c = random(1, 3);
  std::vector<T> want = c;
  const Engine::CacheStats before = engine.stats();
  std::shared_ptr<const AutoChoice> executed;
  ASSERT_TRUE(engine.multiply(view(c, 0), view(a, 0), view(b, 0), &executed)
                  .ok());
  const Engine::CacheStats first = engine.stats();
  EXPECT_EQ(first.misses, before.misses + 1);
  ASSERT_TRUE(executed->use_gemm);
  ASSERT_TRUE(executed->plan.has_value());
  EXPECT_TRUE(same_execution(*executed->plan, rank1));
  ASSERT_TRUE(engine.multiply(view(c, 0), view(a, 0), view(b, 0)).ok());
  const Engine::CacheStats second = engine.stats();
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.hits, first.hits + 1);
  gemm(view(want, 0), view(a, 0), view(b, 0), cfg);
  gemm(view(want, 0), view(a, 0), view(b, 0), cfg);
  EXPECT_EQ(std::memcmp(c.data(), want.data(), elems * sizeof(T)), 0);

  // Batches sharing one B — as items and as stride_b = 0 — against one
  // gemm() per item.
  const std::size_t count = 4;
  std::vector<T> as = random(count, 4), cs = random(count, 5);
  std::vector<T> cs_strided = cs, wants = cs;
  std::vector<BatchItemT<T>> items;
  for (std::size_t i = 0; i < count; ++i) {
    items.push_back({view(cs, i), view(as, i), view(b, 0)});
    gemm(view(wants, i), view(as, i), view(b, 0), cfg);
  }
  ASSERT_TRUE(engine.multiply(BatchSpec::items(items)).ok());
  EXPECT_EQ(std::memcmp(cs.data(), wants.data(), cs.size() * sizeof(T)), 0);
  StridedBatchT<T> sb;
  sb.m = sb.n = sb.k = s;
  sb.count = count;
  sb.c = cs_strided.data();
  sb.a = as.data();
  sb.b = b.data();
  sb.stride_c = sb.stride_a = s * s;
  sb.stride_b = 0;
  ASSERT_TRUE(engine.multiply(BatchSpec::strided(sb)).ok());
  EXPECT_EQ(std::memcmp(cs_strided.data(), wants.data(),
                        cs_strided.size() * sizeof(T)),
            0);
  EXPECT_EQ(engine.stats().misses, first.misses);  // one executor throughout
}

TEST(EngineAuto, GemmChoiceRunsThroughTheExecutorCache) {
  {
    SCOPED_TRACE("f64");
    expect_gemm_choice_runs_as_plan<double>();
  }
  {
    SCOPED_TRACE("f32");
    expect_gemm_choice_runs_as_plan<float>();
  }
}

// ---------------------------------------------------------------------------
// Concurrency: host threads hammering one engine with mixed shapes (the
// TSan CI leg's target).
// ---------------------------------------------------------------------------

TEST(EngineConcurrency, MultiShapeHammeringFromHostThreads) {
  // Small capacity forces eviction churn while other threads still hold
  // shared_ptr references to evicted executors.
  Engine::Options opts;
  opts.config.num_threads = 1;  // host threads are the concurrency under test
  opts.cache_capacity = 3;
  Engine engine(opts);
  const Plan plan = strassen_plan();

  const index_t shapes[4] = {40, 48, 56, 64};
  Matrix as[4], bs[4], wants[4];
  for (int i = 0; i < 4; ++i) {
    const index_t s = shapes[i];
    as[i] = Matrix::random(s, s, 300 + static_cast<std::uint64_t>(i));
    bs[i] = Matrix::random(s, s, 400 + static_cast<std::uint64_t>(i));
    wants[i] = Matrix::zero(s, s);
    ref_gemm(wants[i].view(), as[i].view(), bs[i].view());
  }

  const int n_threads = 4, iters = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < iters; ++it) {
        const int i = (t + it) % 4;
        const index_t s = shapes[i];
        Matrix c = Matrix::zero(s, s);
        const Status st =
            engine.multiply(plan, c.view(), as[i].view(), bs[i].view());
        if (!st.ok() ||
            max_abs_diff(c.view(), wants[i].view()) > test::tol_for(s)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto st = engine.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(n_threads * iters));
  EXPECT_LE(st.entries, engine.cache_capacity());
}

TEST(EngineConcurrency, ConcurrentMixedBatchAndSingleCalls) {
  Engine::Options opts;
  opts.config.num_threads = 2;
  Engine engine(opts);
  const Plan plan = strassen_plan();
  const index_t s1 = 48, s2 = 64;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      const index_t s = (t % 2 == 0) ? s1 : s2;
      Matrix a = Matrix::random(s, s, 500 + static_cast<std::uint64_t>(t));
      Matrix b = Matrix::random(s, s, 600 + static_cast<std::uint64_t>(t));
      Matrix want = Matrix::zero(s, s);
      ref_gemm(want.view(), a.view(), b.view());
      for (int it = 0; it < 3; ++it) {
        if (t == 0) {
          // Batch of 4 items sharing B against singles from other threads.
          std::vector<Matrix> cs;
          std::vector<BatchItem> items;
          for (int i = 0; i < 4; ++i) cs.push_back(Matrix::zero(s, s));
          for (int i = 0; i < 4; ++i) {
            items.push_back({cs[static_cast<std::size_t>(i)].view(), a.view(),
                             b.view()});
          }
          if (!engine.multiply(plan, BatchSpec::items(items)).ok()) {
            failures.fetch_add(1);
            continue;
          }
          for (const auto& c : cs) {
            if (max_abs_diff(c.view(), want.view()) > test::tol_for(s)) {
              failures.fetch_add(1);
            }
          }
        } else {
          Matrix c = Matrix::zero(s, s);
          if (!engine.multiply(plan, c.view(), a.view(), b.view()).ok() ||
              max_abs_diff(c.view(), want.view()) > test::tol_for(s)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace fmm

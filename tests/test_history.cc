// Online performance model tests: PerfHistory aggregation/confidence/
// revision semantics, footprint and shape-bucket keying, persistence
// (round-trip, foreign-model preservation, corrupt-file fallback), and the
// Engine integration — observations recorded by real executions, the
// measured-overrides-analytic choice flip with bitwise-identical results,
// persistence across two Engine lifetimes, Options-vs-env knob precedence,
// and thread-safety under concurrent submit hammering (the EngineHistory
// suite name keeps these on the TSan CI leg's filter).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/arch/calibrate.h"
#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/model/history.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

Plan strassen_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

HistoryKey test_key(std::uint64_t fp = 0x1234, int bucket = 20) {
  HistoryKey k;
  k.footprint = fp;
  k.mb = k.nb = k.kb = bucket;
  k.kernel = "portable";
  k.threads = 1;
  return k;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

using test::ScopedEnv;

// ---------------------------------------------------------------------------
// Shape buckets and footprints.
// ---------------------------------------------------------------------------

TEST(PerfHistoryTest, ShapeBucketExactForSmallDims) {
  for (int d = 0; d <= 16; ++d) {
    EXPECT_EQ(shape_bucket(d), d) << d;
  }
}

TEST(PerfHistoryTest, ShapeBucketMonotoneNondecreasing) {
  int prev = shape_bucket(1);
  for (index_t d = 2; d <= 100000; d = d < 200 ? d + 1 : d + d / 7) {
    const int b = shape_bucket(d);
    EXPECT_GE(b, prev) << "d=" << d;
    prev = b;
  }
}

TEST(PerfHistoryTest, ShapeBucketFloorIsLeftInverse) {
  for (index_t d : {17, 31, 100, 255, 256, 1000, 1024, 4097, 65536}) {
    const int b = shape_bucket(d);
    EXPECT_EQ(shape_bucket(shape_bucket_floor(b)), b) << "d=" << d;
    EXPECT_LE(shape_bucket_floor(b), d) << "d=" << d;
  }
}

TEST(PerfHistoryTest, NearbyLargeShapesShareABucket) {
  // The point of bucketing: a 1000-request warms the 1024-neighborhood.
  EXPECT_EQ(shape_bucket(1000), shape_bucket(1023));
  // ...but far-apart sizes stay distinct.
  EXPECT_NE(shape_bucket(1000), shape_bucket(2000));
}

TEST(PerfHistoryTest, PlanFootprintsDistinguishPlans) {
  const std::uint64_t s_abc = plan_footprint(strassen_plan(Variant::kABC));
  const std::uint64_t s_ab = plan_footprint(strassen_plan(Variant::kAB));
  const std::uint64_t wino =
      plan_footprint(make_plan({make_winograd()}, Variant::kABC));
  const std::uint64_t two_level = plan_footprint(
      make_uniform_plan(catalog::best(2, 2, 2), 2, Variant::kABC));
  EXPECT_NE(s_abc, s_ab);        // variant is part of the footprint
  EXPECT_NE(s_abc, wino);        // coefficients are part of the footprint
  EXPECT_NE(s_abc, two_level);   // level structure is part of the footprint
  // Stable across calls (persistable).
  EXPECT_EQ(s_abc, plan_footprint(strassen_plan(Variant::kABC)));
}

// ---------------------------------------------------------------------------
// Aggregation and confidence gating.
// ---------------------------------------------------------------------------

TEST(PerfHistoryTest, WelfordMeanAndVariance) {
  PerfHistory h;
  const HistoryKey key = test_key();
  for (double g : {10.0, 12.0, 14.0}) h.record(key, g);
  const auto stats = h.lookup(key);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->count, 3u);
  EXPECT_NEAR(stats->mean, 12.0, 1e-12);
  EXPECT_NEAR(stats->variance(), 4.0, 1e-12);  // sample variance of {10,12,14}
  EXPECT_EQ(h.observations(), 3u);
  EXPECT_EQ(h.size(), 1u);
}

TEST(PerfHistoryTest, NonFiniteAndNonPositiveRatesDropped) {
  PerfHistory h;
  const HistoryKey key = test_key();
  h.record(key, 0.0);
  h.record(key, -5.0);
  h.record(key, std::numeric_limits<double>::infinity());
  h.record(key, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(h.lookup(key).has_value());
  EXPECT_EQ(h.observations(), 0u);
}

TEST(PerfHistoryTest, ConfidenceRequiresCountAndBoundedSpread) {
  PerfHistory::Tuning t;
  t.min_observations = 4;
  t.max_rel_stddev = 0.25;
  PerfHistory h(t);
  const HistoryKey key = test_key();
  for (int i = 0; i < 3; ++i) {
    h.record(key, 50.0);
    EXPECT_FALSE(h.confident_gflops(key).has_value()) << "obs " << i + 1;
  }
  h.record(key, 50.0);
  const auto g = h.confident_gflops(key);
  ASSERT_TRUE(g.has_value());
  EXPECT_NEAR(*g, 50.0, 1e-12);

  // A wildly noisy key never clears the gate.
  const HistoryKey noisy = test_key(0x999);
  for (int i = 0; i < 16; ++i) h.record(noisy, i % 2 == 0 ? 5.0 : 100.0);
  EXPECT_FALSE(h.confident_gflops(noisy).has_value());
}

TEST(PerfHistoryTest, RevisionBumpsOnFirstConfidenceAndDrift) {
  PerfHistory::Tuning t;
  t.min_observations = 2;
  t.drift_fraction = 0.10;
  PerfHistory h(t);
  const HistoryKey key = test_key();

  const std::uint64_t r0 = h.revision();
  h.record(key, 40.0);
  EXPECT_EQ(h.revision(), r0);  // not yet confident: no decision can flip
  h.record(key, 40.0);
  const std::uint64_t r1 = h.revision();
  EXPECT_GT(r1, r0);  // first crossed the gate

  // Small drift: no bump.  (Mean moves 40 -> ~40.0x)
  h.record(key, 40.5);
  EXPECT_EQ(h.revision(), r1);

  // Large sustained drift: the published mean is off by > drift_fraction.
  for (int i = 0; i < 60; ++i) h.record(key, 80.0);
  EXPECT_GT(h.revision(), r1);
}

TEST(PerfHistoryTest, ClearDropsEverythingAndBumpsRevision) {
  PerfHistory h;
  h.record(test_key(), 10.0);
  const std::uint64_t r = h.revision();
  h.clear();
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.observations(), 0u);
  EXPECT_FALSE(h.lookup(test_key()).has_value());
  EXPECT_GT(h.revision(), r);
}

TEST(PerfHistoryTest, SnapshotIsSortedAndFormats) {
  PerfHistory h;
  h.record(test_key(0xbbb, 21), 20.0);
  h.record(test_key(0xaaa, 20), 10.0);
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_LT(snap[0].key.footprint, snap[1].key.footprint);
  const std::string line = PerfHistory::format_entry(snap[0]);
  EXPECT_NE(line.find("portable"), std::string::npos);
  EXPECT_NE(line.find("aaa"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------

TEST(HistoryPersistence, MissingFileLoadsFreshStore) {
  PerfHistory h;
  const Status st = h.load(temp_path("fmm_hist_missing.txt"));
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(h.size(), 0u);
}

TEST(HistoryPersistence, RoundTripPreservesAggregates) {
  const std::string path = temp_path("fmm_hist_roundtrip.txt");
  std::remove(path.c_str());

  PerfHistory h1;
  const HistoryKey k1 = test_key(0x111, 20);
  const HistoryKey k2 = test_key(0x222, 25);
  for (double g : {30.0, 31.0, 29.0}) h1.record(k1, g);
  h1.record(k2, 55.5);
  ASSERT_TRUE(h1.save(path).ok());

  PerfHistory h2;
  const Status st = h2.load(path);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(h2.size(), 2u);
  EXPECT_EQ(h2.observations(), 4u);
  const auto s1 = h2.lookup(k1);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->count, 3u);
  EXPECT_NEAR(s1->mean, 30.0, 1e-12);
  EXPECT_NEAR(s1->variance(), 1.0, 1e-9);
  const auto s2 = h2.lookup(k2);
  ASSERT_TRUE(s2.has_value());
  EXPECT_NEAR(s2->mean, 55.5, 1e-12);
  std::remove(path.c_str());
}

TEST(HistoryPersistence, SavePreservesForeignCpuRows) {
  const std::string path = temp_path("fmm_hist_foreign.txt");
  const std::string foreign =
      "some_other_cpu_model 00000000deadbeef 1 2 3 portable 1 5 10 0";
  {
    std::ofstream out(path);
    out << "# fmm-history v1\n" << foreign << "\n";
  }
  PerfHistory h;
  h.record(test_key(), 42.0);
  ASSERT_TRUE(h.save(path).ok());
  const std::string content = slurp(path);
  EXPECT_NE(content.find(foreign), std::string::npos)
      << "foreign row dropped:\n"
      << content;
  EXPECT_NE(content.find(arch::calibration_cpu_key()), std::string::npos);

  // Loading that file back here ignores the foreign row.
  PerfHistory h2;
  EXPECT_TRUE(h2.load(path).ok());
  EXPECT_EQ(h2.size(), 1u);
  std::remove(path.c_str());
}

TEST(HistoryPersistence, BadHeaderDegradesToEmptyWithCorruptData) {
  const std::string path = temp_path("fmm_hist_badheader.txt");
  {
    std::ofstream out(path);
    out << "# fmm-history v999\nwhatever\n";
  }
  PerfHistory h;
  h.record(test_key(), 5.0);  // pre-existing state must not survive a load
  const Status st = h.load(path);
  EXPECT_EQ(st.code(), StatusCode::kCorruptData) << st.to_string();
  EXPECT_EQ(h.size(), 0u);
  std::remove(path.c_str());
}

TEST(HistoryPersistence, MalformedRowDegradesToEmptyWithCorruptData) {
  const std::string path = temp_path("fmm_hist_badrow.txt");
  {
    std::ofstream out(path);
    out << "# fmm-history v1\n"
        << arch::calibration_cpu_key()
        << " zzzz not-a-number 2 3 portable 1 5 10 0\n";
  }
  PerfHistory h;
  const Status st = h.load(path);
  EXPECT_EQ(st.code(), StatusCode::kCorruptData) << st.to_string();
  EXPECT_EQ(h.size(), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine integration.  Suite name contains "Engine" so the TSan CI leg's
// test filter picks these up.
// ---------------------------------------------------------------------------

TEST(EngineHistory, ExecutionsRecordObservations) {
  Engine engine;
  ASSERT_TRUE(engine.history_enabled());
  const index_t s = 64;
  const Plan plan = strassen_plan();
  test::RandomProblem p = test::random_problem(s, s, s, 5);
  ASSERT_TRUE(engine.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  const auto stats = engine.stats();
  EXPECT_GE(stats.history_observations, 1u);
  EXPECT_GE(stats.history_keys, 1u);
  // The observation landed under the documented key.
  const auto rec = engine.history().lookup(engine.history_key(plan, s, s, s));
  ASSERT_TRUE(rec.has_value());
  EXPECT_GE(rec->count, 1u);
  EXPECT_GT(rec->mean, 0.0);
}

TEST(EngineHistory, AutoGemmPathRecordsUnderGemmKey) {
  Engine engine;
  const index_t s = 64;  // small: the model picks gemm
  test::RandomProblem p = test::random_problem(s, s, s, 6);
  std::shared_ptr<const AutoChoice> executed;
  ASSERT_TRUE(
      engine.multiply(p.c.view(), p.a.view(), p.b.view(), &executed).ok());
  ASSERT_TRUE(executed->use_gemm);
  // GEMM runs as the <1,1,1> plan and records under that plan's key.
  EXPECT_EQ(engine.history_key(*executed->plan, s, s, s),
            engine.history_key(test::gemm_plan(), s, s, s));
  const auto rec =
      engine.history().lookup(engine.history_key(*executed->plan, s, s, s));
  ASSERT_TRUE(rec.has_value());
  EXPECT_GE(rec->count, 1u);
}

TEST(EngineHistory, DisabledEngineRecordsNothing) {
  Engine::Options opts;
  opts.history = false;
  Engine engine(opts);
  EXPECT_FALSE(engine.history_enabled());
  const index_t s = 64;
  test::RandomProblem p = test::random_problem(s, s, s, 7);
  ASSERT_TRUE(
      engine.multiply(strassen_plan(), p.c.view(), p.a.view(), p.b.view())
          .ok());
  ASSERT_TRUE(engine.multiply(p.c.view(), p.a.view(), p.b.view()).ok());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.history_observations, 0u);
  EXPECT_EQ(stats.history_keys, 0u);
  EXPECT_EQ(stats.history_hits, 0u);
}

TEST(EngineHistory, SkewedHistoryFlipsChoiceWithBitwiseIdenticalResults) {
  Engine engine;
  PerfHistory::Tuning tuning;
  tuning.min_observations = 3;
  engine.history().set_tuning(tuning);
  const index_t s = 64;

  // Cold: the analytic model picks gemm at this size (cached decision).
  const AutoChoice cold = engine.choice_for(s, s, s);
  ASSERT_TRUE(cold.use_gemm);
  EXPECT_FALSE(cold.measured);

  // Inject confident observations painting gemm as pathologically slow at
  // this shape.  The third record crosses the gate and bumps the revision,
  // which lazily invalidates the cached cold decision.
  const HistoryKey gemm_key = engine.history_key(test::gemm_plan(), s, s, s);
  for (int i = 0; i < 3; ++i) engine.history().record(gemm_key, 0.01);

  const AutoChoice hot = engine.choice_for(s, s, s);
  EXPECT_FALSE(hot.use_gemm) << "measured-slow gemm must lose the ranking";
  ASSERT_TRUE(hot.plan.has_value());
  const auto stats = engine.stats();
  EXPECT_GE(stats.history_hits, 1u);
  EXPECT_GE(stats.history_overrides, 1u);

  // The flipped decision is served from the cache on repeat lookups.
  const AutoChoice again = engine.choice_for(s, s, s);
  EXPECT_EQ(again.use_gemm, hot.use_gemm);
  EXPECT_EQ(again.description, hot.description);

  // Results stay bitwise identical to an explicit-plan run of the plan the
  // auto path flipped to (same cached executor, same arithmetic).
  test::RandomProblem p = test::random_problem(s, s, s, 9);
  Matrix c_explicit = p.c.clone();
  ASSERT_TRUE(engine.multiply(p.c.view(), p.a.view(), p.b.view()).ok());
  ASSERT_TRUE(
      engine.multiply(*hot.plan, c_explicit.view(), p.a.view(), p.b.view())
          .ok());
  EXPECT_EQ(max_abs_diff(p.c.view(), c_explicit.view()), 0.0);

  // And the result is still correct.
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(s));
}

TEST(EngineHistory, PersistsAcrossTwoEngineLifetimes) {
  const std::string path = temp_path("fmm_hist_lifetimes.txt");
  std::remove(path.c_str());
  HistoryKey key;
  {
    Engine::Options opts;
    opts.history_path = path;
    Engine e1(opts);
    EXPECT_TRUE(e1.history_load_status().ok());
    key = e1.history_key(test::gemm_plan(), 96, 96, 96);
    for (int i = 0; i < 20; ++i) e1.history().record(key, 50.0);
  }  // destructor saves

  Engine::Options opts;
  opts.history_path = path;
  Engine e2(opts);
  EXPECT_TRUE(e2.history_load_status().ok())
      << e2.history_load_status().to_string();
  const auto rec = e2.history().lookup(key);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->count, 20u);
  EXPECT_NEAR(rec->mean, 50.0, 1e-9);
  std::remove(path.c_str());
}

TEST(EngineHistory, ExplicitSaveHistoryRoundTrips) {
  const std::string path = temp_path("fmm_hist_explicit_save.txt");
  std::remove(path.c_str());
  Engine::Options opts;
  opts.history_path = path;
  Engine e1(opts);
  e1.history().record(e1.history_key(test::gemm_plan(), 128, 128, 128), 33.0);
  ASSERT_TRUE(e1.save_history().ok());

  PerfHistory h;
  ASSERT_TRUE(h.load(path).ok());
  EXPECT_EQ(h.size(), 1u);
  std::remove(path.c_str());
}

TEST(EngineHistory, SaveHistoryWithoutPathIsInvalidArgument) {
  Engine engine;
  ASSERT_TRUE(engine.history_path().empty());
  EXPECT_EQ(engine.save_history().code(), StatusCode::kInvalidArgument);
}

TEST(EngineHistory, CorruptHistoryFileDegradesToEmptyStore) {
  const std::string path = temp_path("fmm_hist_corrupt.txt");
  {
    std::ofstream out(path);
    out << "this is not a history file\n";
  }
  Engine::Options opts;
  opts.history_path = path;
  Engine engine(opts);
  EXPECT_EQ(engine.history_load_status().code(), StatusCode::kCorruptData);
  EXPECT_EQ(engine.history().size(), 0u);
  // The engine still serves traffic.
  const index_t s = 48;
  test::RandomProblem p = test::random_problem(s, s, s, 13);
  EXPECT_TRUE(
      engine.multiply(strassen_plan(), p.c.view(), p.a.view(), p.b.view())
          .ok());
  std::remove(path.c_str());
}

TEST(EngineHistory, OptionsBeatEnvBeatDefaults) {
  {
    ScopedEnv env("FMM_WORKERS", "3");
    Engine from_env;
    EXPECT_EQ(from_env.workers(), 3);
    Engine::Options opts;
    opts.workers = 2;
    Engine from_opts(opts);
    EXPECT_EQ(from_opts.workers(), 2);
  }
  {
    ScopedEnv env("FMM_HISTORY", "0");
    Engine from_env;
    EXPECT_FALSE(from_env.history_enabled());
    Engine::Options opts;
    opts.history = true;
    Engine from_opts(opts);
    EXPECT_TRUE(from_opts.history_enabled());
  }
  {
    const std::string env_path = temp_path("fmm_hist_env_path.txt");
    const std::string opt_path = temp_path("fmm_hist_opt_path.txt");
    ScopedEnv env("FMM_HISTORY_CACHE", env_path.c_str());
    Engine::Options off;
    off.history = false;  // path resolution only; no load/save side effects
    Engine from_env(off);
    EXPECT_EQ(from_env.history_path(), env_path);
    Engine::Options opts;
    opts.history = false;
    opts.history_path = opt_path;
    Engine from_opts(opts);
    EXPECT_EQ(from_opts.history_path(), opt_path);
  }
}

TEST(EngineHistory, ConcurrentRecordRankAndSubmitHammering) {
  Engine engine;
  PerfHistory::Tuning tuning;
  tuning.min_observations = 2;
  engine.history().set_tuning(tuning);
  const Plan plan = strassen_plan();
  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<test::RandomProblem> problems;
      std::vector<TaskFuture> futures;
      problems.reserve(kIters);
      futures.reserve(kIters);
      for (int i = 0; i < kIters; ++i) {
        const index_t s = 48 + 16 * (i % 2);
        problems.push_back(test::random_problem(
            s, s, s, static_cast<std::uint64_t>(100 * t + i)));
        test::RandomProblem& p = problems.back();
        // Alternate explicit-plan and auto submits; hammer the store and
        // the ranking from the same threads.
        if (i % 2 == 0) {
          futures.push_back(
              engine.submit(plan, p.c.view(), p.a.view(), p.b.view()));
        } else {
          futures.push_back(engine.submit(p.c.view(), p.a.view(), p.b.view()));
        }
        engine.history().record(engine.history_key(test::gemm_plan(), s, s, s),
                                10.0 + i % 3);
        (void)engine.history().snapshot();
        (void)engine.stats();
        (void)engine.choice_for(s, s, s);
      }
      for (auto& f : futures) {
        if (!f.status().ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = engine.stats();
  EXPECT_GT(stats.history_observations, 0u);
  EXPECT_GT(stats.history_keys, 0u);
  // Each thread recorded kIters observations by hand plus the executions'.
  EXPECT_GE(engine.history().observations(),
            static_cast<std::uint64_t>(kThreads * kIters));
}

}  // namespace
}  // namespace fmm

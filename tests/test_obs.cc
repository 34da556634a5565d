// src/obs — the observability layer.  Covers the log-scale histogram's
// bucket and percentile math, the trace ring's drop-oldest overflow
// policy, the disabled-tracing zero-event guarantee, concurrent
// multi-thread recording through both subsystems, and the coherence of
// Engine::metrics_report() with CacheStats under eviction churn (the TSan
// CI leg runs the Obs* suites).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

using obs::Histogram;

// ---------------------------------------------------------------------------
// Histogram bucket math.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketIndexWithinBounds) {
  for (double v : {1e-12, 0.001, 0.004, 1.0, 7.5, 1e3, 1e6, 1e12}) {
    const int i = Histogram::bucket_index(v);
    ASSERT_GE(i, 0) << "v=" << v;
    ASSERT_LT(i, Histogram::kBuckets) << "v=" << v;
  }
  // Non-positive values clamp into the lowest bucket.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-3.0), 0);
  // Beyond-range values clamp to the extreme buckets.
  EXPECT_EQ(Histogram::bucket_index(1e-9), 0);
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kBuckets - 1);
}

TEST(ObsHistogram, BucketRangesContainTheirValues) {
  // Every in-range value lands in a bucket whose [lo, hi) contains it.
  for (double v = 0.005; v < 1e8; v *= 1.7) {
    const int i = Histogram::bucket_index(v);
    EXPECT_GE(v, Histogram::bucket_lo(i)) << "v=" << v;
    EXPECT_LT(v, Histogram::bucket_hi(i)) << "v=" << v;
  }
  // Buckets tile the range with no gaps: hi(i) == lo(i+1).
  for (int i = 0; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_hi(i), Histogram::bucket_lo(i + 1));
  }
}

TEST(ObsHistogram, ConstantObservationsGiveExactPercentiles) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(7.0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, 7000.0);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  // The bucket midpoint clamps to the observed [min, max] == {7}.
  EXPECT_DOUBLE_EQ(s.p50, 7.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(ObsHistogram, PercentilesTrackTheDistribution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  // Quarter-octave buckets are ~19% wide; the estimate must land inside
  // the bucket containing the true quantile.
  EXPECT_GE(s.p50, Histogram::bucket_lo(Histogram::bucket_index(500.0)));
  EXPECT_LT(s.p50, Histogram::bucket_hi(Histogram::bucket_index(500.0)));
  EXPECT_GE(s.p95, Histogram::bucket_lo(Histogram::bucket_index(950.0)));
  EXPECT_LE(s.p99, 1000.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(ObsHistogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Sum of t+1 for t in [0, kThreads) times kPerThread.
  EXPECT_DOUBLE_EQ(s.sum, kPerThread * (kThreads * (kThreads + 1)) / 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(kThreads));
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(ObsMetrics, InstrumentAddressesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("requests");
  obs::Gauge& g1 = reg.gauge("level");
  obs::Histogram& h1 = reg.histogram("latency", "us");
  // Force vector growth, then re-look-up.
  for (int i = 0; i < 64; ++i) {
    reg.counter("c" + std::to_string(i));
    reg.gauge("g" + std::to_string(i));
    reg.histogram("h" + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("requests"), &c1);
  EXPECT_EQ(&reg.gauge("level"), &g1);
  EXPECT_EQ(&reg.histogram("latency"), &h1);
}

TEST(ObsMetrics, ReportsCarryRecordedValues) {
  obs::MetricsRegistry reg;
  reg.counter("hits").add(41);
  reg.counter("hits").add();
  reg.gauge("entries").set(-3);
  for (int i = 0; i < 10; ++i) reg.histogram("lat", "us").record(64.0);

  const std::string text = reg.report_text();
  EXPECT_NE(text.find("hits"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("entries"), std::string::npos);
  EXPECT_NE(text.find("lat (us)"), std::string::npos);

  const std::string json = reg.report_json();
  EXPECT_NE(json.find("\"hits\":42"), std::string::npos);
  EXPECT_NE(json.find("\"entries\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"us\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace ring buffers.
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(ObsTrace, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::trace_enabled());
  obs::trace_complete("x", "test", 0, 100);
  obs::trace_instant("x", "test");
  obs::trace_flow_start("x", "test", 1, 0);
  obs::trace_flow_end("x", "test", 1, 0);
  obs::trace_counter("x", "test", 5);
  {
    obs::TraceScope scope("x", "test");
    EXPECT_FALSE(scope.active());
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, RingOverflowDropsOldest) {
  constexpr std::size_t kCap = 16;
  ASSERT_EQ(obs::trace_begin("", kCap), 1);
  for (int i = 0; i < 40; ++i) {
    char arg[16];
    std::snprintf(arg, sizeof(arg), "e%d", i);
    obs::trace_complete("span", "test", static_cast<std::uint64_t>(i) * 1000,
                        static_cast<std::uint64_t>(i) * 1000 + 10, arg);
  }
  EXPECT_EQ(obs::trace_event_count(), kCap);
  EXPECT_EQ(obs::trace_dropped(), 40u - kCap);

  const std::string path = "test_obs_overflow_trace.json";
  ASSERT_TRUE(obs::trace_write(path).ok());
  const std::string body = slurp(path);
  std::remove(path.c_str());
  // The newest events survive, the oldest were overwritten.
  EXPECT_NE(body.find("\"e39\""), std::string::npos);
  EXPECT_NE(body.find("\"e24\""), std::string::npos);
  EXPECT_EQ(body.find("\"e23\""), std::string::npos);
  EXPECT_EQ(body.find("\"e0\""), std::string::npos);
  obs::trace_end();  // "" path: discards
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTrace, BeginEndRefcounts) {
  EXPECT_EQ(obs::trace_begin(""), 1);
  EXPECT_EQ(obs::trace_begin("ignored_second_path.json"), 2);
  EXPECT_EQ(obs::trace_path(), "");  // first caller's path wins
  obs::trace_end();
  EXPECT_TRUE(obs::trace_enabled());  // still one participant
  obs::trace_end();
  EXPECT_FALSE(obs::trace_enabled());
}

TEST(ObsTrace, ConcurrentRecordingWritesValidTrace) {
  ASSERT_EQ(obs::trace_begin(""), 1);
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      char name[32];
      std::snprintf(name, sizeof(name), "recorder %d", t);
      obs::trace_thread_name(name);
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceScope scope("work", "test");
        ASSERT_TRUE(scope.active());
        scope.set_argf("t=%d i=%d", t, i);
      }
      obs::trace_instant("done", "test");
      obs::trace_flow_start("dep", "test", static_cast<std::uint64_t>(t) + 1,
                            obs::now_ns());
      obs::trace_flow_end("dep", "test", static_cast<std::uint64_t>(t) + 1,
                          obs::now_ns());
    });
  }
  for (auto& th : threads) th.join();
  // Default ring capacity is far above this volume: nothing dropped.
  EXPECT_EQ(obs::trace_event_count(),
            static_cast<std::size_t>(kThreads) * (kSpans + 3));
  EXPECT_EQ(obs::trace_dropped(), 0u);

  const std::string path = "test_obs_concurrent_trace.json";
  ASSERT_TRUE(obs::trace_write(path).ok());
  const std::string body = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(body.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(body.find("recorder 0"), std::string::npos);
  EXPECT_NE(body.find("recorder 3"), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(body.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(body.find("dropped_events"), std::string::npos);
  obs::trace_end();
}

// ---------------------------------------------------------------------------
// Engine metrics integration.
// ---------------------------------------------------------------------------

TEST(ObsEngineMetrics, ReportCoherentUnderEvictionChurn) {
  Engine::Options opts;
  opts.cache_capacity = 2;  // three shapes force LRU churn
  Engine engine(opts);
  const Plan plan = make_plan({catalog::best(2, 2, 2)}, Variant::kABC);
  for (int round = 0; round < 3; ++round) {
    for (index_t s : {32, 48, 64}) {
      test::RandomProblem p = test::random_problem(s, s, s, 13 + round);
      ASSERT_TRUE(
          engine.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    }
  }

  const Engine::CacheStats stats = engine.stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // stats() is a view over the registry counters: the same numbers must
  // appear in the JSON report.
  const std::string json = engine.metrics_report_json();
  EXPECT_NE(json.find("\"engine.cache.hits\":" + std::to_string(stats.hits)),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"engine.cache.misses\":" + std::to_string(stats.misses)),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"engine.cache.evictions\":" +
                      std::to_string(stats.evictions)),
            std::string::npos)
      << json;
  // refresh_gauges() ran: live-entry gauges match the stats view.
  EXPECT_NE(json.find("\"engine.cache.entries\":" +
                      std::to_string(stats.entries)),
            std::string::npos)
      << json;
  // Request latency was recorded on the explicit path.
  EXPECT_NE(json.find("\"engine.request.explicit\""), std::string::npos);
  const std::string text = engine.metrics_report();
  EXPECT_NE(text.find("engine.cache.misses"), std::string::npos);
}

TEST(ObsEngineMetrics, MetricsOptionDisablesLatencyCapture) {
  Engine engine;
  engine.metrics().set_enabled(false);
  EXPECT_FALSE(engine.metrics().enabled());
  const Plan plan = make_plan({catalog::best(2, 2, 2)}, Variant::kABC);
  test::RandomProblem p = test::random_problem(48, 48, 48, 5);
  ASSERT_TRUE(engine.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  // Capture-gated histograms stay empty; always-on counters still count.
  EXPECT_EQ(engine.metrics().histogram("engine.request.explicit").count(), 0u);
  EXPECT_EQ(engine.stats().misses, 1u);
}

}  // namespace
}  // namespace fmm

#pragma once

// Serving metrics — counters, gauges, and log-scale latency histograms.
//
// Where tracing (trace.h) answers "where did *this* request's time go",
// metrics answer "how is the fleet doing": cheap always-on aggregates a
// serving process can dump on demand.  A MetricsRegistry holds named
// instruments with stable addresses — callers look an instrument up once
// (by name, under a lock) and then record through the returned reference
// forever:
//
//   * Counter — monotonically increasing u64 (requests, cache hits);
//   * Gauge   — settable i64 level (live cache entries, pool bytes);
//   * Histogram — fixed-bucket log2-scale distribution with p50/p95/p99
//     extraction, for request latency, queue wait, GFLOP/s, batch sizes.
//
// Histograms aggregate thread-locally: each recording thread is assigned
// one of a small set of bucket-array stripes, so concurrent recorders
// touch disjoint cache lines and a record() is a couple of relaxed atomic
// adds — no lock, no contended line.  Buckets are quarter-octave (four
// per power of two, ~19% wide) spanning 2^-8 .. 2^28, which covers
// nanosecond-scale waits through multi-minute runs when recording in
// microseconds; percentiles interpolate geometrically within the bucket
// and clamp to the observed min/max.
//
// The registry carries an `enabled` flag (one relaxed load) so call sites
// with non-trivial capture cost (clock reads on the request path) can be
// switched off: Engine wires it to FMM_METRICS, and
// Engine::metrics().set_enabled() overrides it.  Counters that replaced
// pre-existing always-on statistics (CacheStats) ignore the flag — they
// cost what the old atomics cost.
//
// Snapshot coherence: report_text()/report_json() read each instrument
// atomically per value but not atomically across instruments — a report
// taken under load is a consistent-enough view, never a torn value.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fmm {
namespace obs {

class Counter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  // Four buckets per octave over [2^kMinExp, 2^kMaxExp).
  static constexpr int kMinExp = -8;
  static constexpr int kMaxExp = 28;
  static constexpr int kBuckets = (kMaxExp - kMinExp) * 4;
  static constexpr int kStripes = 8;

  // Records one observation (values <= 0 clamp into the lowest bucket).
  // Lock-free: two relaxed atomic adds on this thread's stripe plus a
  // min/max refresh.
  void record(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  };
  Snapshot snapshot() const;

  std::uint64_t count() const;
  // The quantile (q in [0, 1]) from the bucketized distribution:
  // geometric interpolation within the containing bucket, clamped to the
  // observed [min, max].  0 when empty.
  double percentile(double q) const;

  // The bucket an observation of `v` lands in (exposed for unit tests).
  static int bucket_index(double v);
  // The half-open value range [lo, hi) bucket `i` covers.
  static double bucket_lo(int i);
  static double bucket_hi(int i);

 private:
  struct Stripe {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  static int stripe_index();

  Stripe stripes_[kStripes];
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_min_max_{false};
};

// A named-instrument registry.  Lookup registers on first use and returns
// a reference with a stable address (instruments are never removed);
// reports list instruments in registration order.  All methods are
// thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // `unit` is a display hint ("us", "GFLOP/s", ...); the first
  // registration's unit sticks.
  Histogram& histogram(const std::string& name, const std::string& unit = "");

  // The recording gate for call sites whose *capture* costs something
  // (clock reads); one relaxed load.  Instruments themselves stay live —
  // a disabled registry still serves lookups and reports.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Human-readable dump: counters, gauges, then histograms with
  // count/mean/p50/p95/p99.
  std::string report_text() const;
  // The same content as one JSON object:
  //   {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}
  std::string report_json() const;

 private:
  struct NamedCounter {
    std::string name;
    Counter c;
  };
  struct NamedGauge {
    std::string name;
    Gauge g;
  };
  struct NamedHistogram {
    std::string name;
    std::string unit;
    Histogram h;
  };

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  // unique_ptr elements: lookup returns stable addresses across growth.
  std::vector<std::unique_ptr<NamedCounter>> counters_;
  std::vector<std::unique_ptr<NamedGauge>> gauges_;
  std::vector<std::unique_ptr<NamedHistogram>> histograms_;
};

}  // namespace obs
}  // namespace fmm

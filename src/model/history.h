#pragma once

// History-based online performance model (the StarPU history-perfmodel
// idea, adapted to plans): every execution that flows through the Engine
// reports its wall time, keyed by a *footprint* — the plan's coefficient
// fingerprint, the bucketed problem shape, the resolved micro-kernel, and
// the resolved thread count.  Observations aggregate as a running
// mean/variance of effective GFLOP/s (Welford), and once a key has enough
// observations with bounded spread, the measured rate overrides the
// analytic model's prediction in the auto path's ranking.  The analytic
// model (src/model/perf_model.h) remains the cold-start prior and the
// tie-breaker; history closes the loop the ROADMAP calls open.
//
// Shape bucketing: exact small dims, then eight sub-buckets per power-of-two
// octave above 16, so shapes within ~12% of each other share observations
// (a 1000 x 1000 x 1000 request warms the 1024-neighborhood key) while the
// fringe-sensitive small sizes never alias.
//
// Persistence mirrors FMM_CALIB_CACHE: a versioned text file keyed by the
// sanitized CPU model string, one aggregate per line, loaded on Engine
// construction and saved on destruction (or explicitly).  A corrupt or
// version-mismatched file degrades to an empty store with a reportable
// Status — never a crash, never a partial load.
//
// Thread-safety: every method may be called concurrently; one internal
// mutex (record() is a handful of arithmetic ops under it — contention is
// only measurable under adversarial hammering, and correctness wins).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/plan.h"
#include "src/util/status.h"

namespace fmm {

// Stable 64-bit fingerprint of everything the arithmetic of a plan depends
// on: variant, flattened dims, and the U/V/W coefficient bit patterns.
// Process-stable (no pointers, no addresses), so it can key a persisted
// file across runs.  Collisions merely merge two plans' observations.
std::uint64_t plan_footprint(const Plan& plan);

// Dimension -> bucket id: exact for d <= 16, then 8 sub-buckets per octave.
int shape_bucket(index_t d);
// Smallest dimension mapping to `bucket` (diagnostics / snapshot printing).
index_t shape_bucket_floor(int bucket);

struct HistoryKey {
  std::uint64_t footprint = 0;  // plan_footprint, dtype-salted
  int mb = 0, nb = 0, kb = 0;  // shape_bucket(m/n/k)
  std::string kernel;          // resolved micro-kernel name
  int threads = 1;             // resolved thread count

  friend bool operator==(const HistoryKey& a, const HistoryKey& b) {
    return a.footprint == b.footprint && a.mb == b.mb && a.nb == b.nb &&
           a.kb == b.kb && a.threads == b.threads && a.kernel == b.kernel;
  }
  friend bool operator!=(const HistoryKey& a, const HistoryKey& b) {
    return !(a == b);
  }
};

struct HistoryKeyHash {
  std::size_t operator()(const HistoryKey& k) const;
};

// Welford aggregate over effective GFLOP/s observations.
struct HistoryStats {
  std::uint64_t count = 0;
  double mean = 0.0;  // GFLOP/s
  double m2 = 0.0;    // sum of squared deviations

  double variance() const { return count > 1 ? m2 / double(count - 1) : 0.0; }
  double stddev() const;
  double rel_stddev() const;  // stddev / mean (0 when mean == 0)
};

class PerfHistory {
 public:
  struct Tuning {
    // Observations before a key's measured rate may override the model.
    std::uint64_t min_observations = 10;
    // Maximum relative stddev for a key to count as confident (noisy keys
    // — frequency scaling, co-tenancy — keep deferring to the model).
    double max_rel_stddev = 0.25;
    // Confident-mean drift (fraction) that re-publishes the key: cached
    // choices made against the old mean are invalidated.
    double drift_fraction = 0.10;
  };

  PerfHistory() = default;
  explicit PerfHistory(const Tuning& tuning) : tuning_(tuning) {}

  // One execution observed: `gflops` = useful flops / wall seconds / 1e9.
  // Non-finite and non-positive rates are dropped.
  void record(const HistoryKey& key, double gflops);

  // The raw aggregate, if any observation exists for the key.
  std::optional<HistoryStats> lookup(const HistoryKey& key) const;

  // The measured rate, only once the key passes the confidence gate
  // (count >= min_observations and rel_stddev <= max_rel_stddev).
  std::optional<double> confident_gflops(const HistoryKey& key) const;

  // Bumps whenever a decision made earlier could now come out differently:
  // a key first crosses the confidence gate, or a confident key's mean
  // drifts beyond drift_fraction.  Consumers cache the revision alongside
  // derived decisions and treat a mismatch as a stale entry.
  std::uint64_t revision() const {
    return revision_.load(std::memory_order_acquire);
  }

  std::uint64_t observations() const {
    return observations_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;  // distinct keys
  void clear();              // drops every aggregate (revision bumps)

  struct Entry {
    HistoryKey key;
    HistoryStats stats;
    bool confident = false;
  };
  // Every aggregate, sorted by (footprint, buckets, kernel, threads) so
  // output is deterministic.  For observability; not a hot path.
  std::vector<Entry> snapshot() const;
  // "fp=<hex> m~<dim> n~<dim> k~<dim> kernel thr=N count mean +/- sd".
  static std::string format_entry(const Entry& e);

  // --- Persistence --------------------------------------------------------
  // File format (text, line-oriented):
  //   # fmm-history v1
  //   <cpu-model> <fp-hex> <mb> <nb> <kb> <kernel> <threads> <count> <mean> <m2>
  //
  // load(): replaces the store with the file's rows for *this* machine's
  // CPU model (other models' rows are ignored here, preserved by save()).
  // A missing file is OK (fresh store); an unreadable file is kIOError; a
  // bad header or any malformed row degrades to an EMPTY store and returns
  // kCorruptData — a half-loaded history is worse than none.
  //
  // save(): read-merge-rewrite.  Rows of other CPU models are carried over
  // verbatim; this machine's rows are replaced by the current aggregates.
  // Concurrent engines saving to one path are last-writer-wins per machine.
  Status load(const std::string& path);
  Status save(const std::string& path) const;

  const Tuning& tuning() const { return tuning_; }
  // Replace the tuning (call before observations accumulate: existing
  // aggregates keep their data but re-gate under the new thresholds).
  void set_tuning(const Tuning& tuning);

 private:
  struct Node {
    HistoryStats stats;
    bool confident = false;
    double published_mean = 0.0;  // mean at the last revision bump
  };

  mutable std::mutex mu_;
  std::unordered_map<HistoryKey, Node, HistoryKeyHash> map_;
  Tuning tuning_;
  std::atomic<std::uint64_t> revision_{1};
  std::atomic<std::uint64_t> observations_{0};
};

}  // namespace fmm

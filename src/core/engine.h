#pragma once

// fmm::Engine — the one public handle for serving FMM traffic.
//
// One Engine amortizes every per-shape cost across a request stream that
// may mix shapes, plans, element types and host threads:
//
//   * a bounded, LRU-evicting **executor cache** under one mutex, keyed by
//     (plan — exact coefficient compare, m/n/k, requested GemmConfig).
//     Explicit-plan and auto-selected calls share the same cache, so a
//     shape served both ways compiles exactly one executor, and
//     concurrent first requests for a key wait for its one compile.  Hits
//     perform zero allocation; hit/miss/eviction counts are exposed via
//     stats().  Capacity comes from Options or the FMM_ENGINE_CACHE env.
//
//   * an **explicit-plan path** (multiply(plan, C, A, B)) and an **auto
//     path** (multiply(C, A, B)) that delegates shape -> algorithm choice
//     to the performance model, with a bounded LRU per-shape choice cache.
//
//   * **batches** described by BatchSpec: per-item views, a strided or
//     interleaved layout (base pointer + batch stride per operand, expanded
//     on the fly — no view array is materialized), and cross-shape batches
//     which Engine groups by (m, n, k) and fans out to one cached executor
//     per shape.
//
//   * **recoverable errors**: every entry point validates the request and
//     returns a Status instead of asserting, so a serving process survives
//     a malformed request.  Validation runs before any arithmetic — a batch
//     with one bad item computes nothing.
//
//   * an **online performance model**: every execution's wall time is
//     recorded into a footprint-keyed history store (src/model/history.h)
//     through the executor timing hook — conventional GEMM included, which
//     runs as the rank-1 <1,1,1> plan; once a key has enough low-variance
//     observations the measured GFLOP/s overrides the analytic model in
//     the auto path's ranking (the model stays the cold-start prior and
//     tie-breaker), and cached choices invalidate when an override could
//     flip.  Optionally persisted across processes (FMM_HISTORY_CACHE /
//     Options::history_path), keyed by CPU model like FMM_CALIB_CACHE.
//
//   * an **async surface**: submit(...) mirrors every multiply(...) form
//     and returns a TaskFuture<Status> immediately (validation still runs
//     synchronously — a malformed request resolves before any task is
//     queued).  Work runs on the engine's TaskPool (task_pool.h); a
//     cross-shape item batch fans out as one task per shape group, and a
//     shape above the recursion cutoff as a descent's task graph.
//     multiply() itself is submit + wait.  Every form takes one path: a
//     validated request builds its tasks once, and they go where the
//     engine decides once per request — queued on its pool from a host
//     thread, inline (TaskPool::submit_to with no pool) on any pool's
//     worker, for a task body doing a nested synchronous multiply (a task
//     blocking on another task's future could deadlock a fully busy pool,
//     and the engine's own pool is never started for it).  Every group
//     runs either way, the request's Status is the first failing group's
//     in arrival order (an allocation failure included), and each request
//     records one latency sample / span where it completes.
//
// Thread-safety: every public method may be called from any number of host
// threads concurrently.  Executor run() concurrency is the slot-pool story
// from executor.h; each cache here is one mutex.
//
//   Engine engine;                                    // process defaults
//   engine.multiply(plan, C, A, B);                   // explicit plan
//   engine.multiply(C, A, B);                         // model-selected
//   engine.multiply(plan, BatchSpec::items(items));   // batch (any shapes)
//   engine.multiply(plan, BatchSpec::strided(sb));    // strided layout
//   TaskFuture f = engine.submit(plan, C, A, B);      // async; f.status()
//   engine.wait_all();                                // drain every submit

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/core/executor.h"
#include "src/core/recursive.h"
#include "src/core/task_pool.h"
#include "src/model/history.h"
#include "src/model/selector.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace fmm {

// The auto path's per-shape decision.  Conventional GEMM is the family's
// rank-1 member (paper §3): when it wins, `plan` is the <1,1,1> ABC plan,
// so every decision executes as a plan through a cached executor.
struct AutoChoice {
  bool use_gemm = true;      // conventional GEMM won the model ranking
  std::optional<Plan> plan;  // always engaged: what runs
  double predicted_seconds = 0.0;
  std::string description;   // "gemm" or the plan name
  // True when the winner's predicted_seconds came from the measured
  // history (confident observations) rather than the analytic model; the
  // measured rate is then in measured_gflops.
  bool measured = false;
  double measured_gflops = 0.0;
};

// One batch of multiplies, in one of two layouts:
//
//   items(...)   — an array of {C, A, B} view triples.  Shapes may differ
//                  per item (a cross-shape batch); Engine groups items by
//                  shape and runs each group through one cached executor.
//   strided(...) — one base pointer + batch stride per operand
//                  (StridedBatch, executor.h); a single shape, expanded
//                  index-by-index without materializing views.
//
// Both layouts exist for both element types (BatchItem / StridedBatch for
// double, BatchItemF32 / StridedBatchF32 for float); the factories record
// the element type and Engine::multiply dispatches on dtype().  A batch is
// homogeneous in element type — mixed-precision traffic is separate calls.
//
// BatchSpec does not own the views or buffers; they must outlive the call.
class BatchSpec {
 public:
  BatchSpec() = default;

  template <typename T>
  static BatchSpec items(const BatchItemT<T>* items, std::size_t count) {
    BatchSpec s;
    s.items_ = items;
    s.count_ = count;
    s.dtype_ = DTypeOf<T>::value;
    return s;
  }
  template <typename T>
  static BatchSpec items(const std::vector<BatchItemT<T>>& v) {
    return items(v.data(), v.size());
  }
  template <typename T>
  static BatchSpec strided(const StridedBatchT<T>& sb) {
    BatchSpec s;
    s.strided_ = sb;
    s.is_strided_ = true;
    s.count_ = sb.count;
    s.dtype_ = DTypeOf<T>::value;
    return s;
  }

  DType dtype() const { return dtype_; }
  bool is_strided() const { return is_strided_; }
  std::size_t size() const { return count_; }
  // Typed accessors; valid only when dtype() matches T.
  template <typename T>
  const BatchItemT<T>* items_as() const {
    return static_cast<const BatchItemT<T>*>(items_);
  }
  template <typename T>
  const StridedBatchT<T>& strided_as() const {
    return std::get<StridedBatchT<T>>(strided_);
  }

 private:
  const void* items_ = nullptr;
  std::size_t count_ = 0;
  std::variant<StridedBatch, StridedBatchF32> strided_;
  bool is_strided_ = false;
  DType dtype_ = DType::kF64;
};

class Engine {
 public:
  // The engine never calibrates on its own: it ranks with literature-
  // default model parameters until calibrate() is called.  Metrics capture
  // follows FMM_METRICS (metrics().set_enabled() overrides it), and the
  // calibration rate cache follows FMM_CALIB_CACHE.
  struct Options {
    // Base configuration for every multiply that does not pass its own
    // (threads, blocking overrides, pinned kernel).
    GemmConfig config;
    // Every knob below resolves with explicit-Options > environment >
    // default precedence: a non-zero / non-empty / engaged value here wins
    // outright, 0 / empty / nullopt defers to the named env variable, and
    // an unset env falls back to the built-in default.

    // Executor-cache capacity (entries), the engine's memory budget for
    // compiled executors.  0 = FMM_ENGINE_CACHE env, else
    // kDefaultCacheCapacity.  The auto path's choice cache holds 8x as
    // many decisions.
    std::size_t cache_capacity = 0;
    // Workspace slots per compiled executor (FmmExecutor's `slots`): how
    // many callers one executor serves at once without queueing.  0 = one
    // per engine worker (up to 64), or the executor's thread count when
    // that is larger, so concurrent requests, descent leaves and nested
    // calls never wait on one another's lease.  A value > 0 is used as is,
    // descent leaves included.
    int slots = 0;
    // Worker threads for the async submit path (multiply() is submit +
    // wait, so these serve the synchronous calls too).  0 = FMM_WORKERS
    // env, else hardware concurrency.  The pool is created lazily by the
    // first request from a host thread (a request from any pool's worker
    // runs inline and starts none).  These are all the engine's threads: a
    // multiply with config.num_threads > 1 forks its data-parallel loops
    // onto helper tasks of this pool, so serving engines that fan out
    // batches usually pair several workers with num_threads = 1.
    int workers = 0;
    // Online performance model (src/model/history.h).  history: engaged
    // value wins, nullopt = FMM_HISTORY env flag, default on.  A measured
    // rate overrides the analytic ranking once its key has
    // history().tuning().min_observations observations (10;
    // history().set_tuning() changes it).
    std::optional<bool> history;
    // Persistence file for the history store: loaded in the constructor,
    // saved in the destructor (and by save_history()).  Empty =
    // FMM_HISTORY_CACHE env; empty everywhere = in-memory only.
    std::string history_path;
    // Task-recursive descent cutoff (src/core/recursive.h): multiplies
    // whose every dimension exceeds the cutoff expand one fast-algorithm
    // level into TaskPool tasks and recurse, handing each product below
    // the cutoff to a cached serial executor leaf.  > 0 = that leaf size;
    // 0 = FMM_RECURSE_CUTOFF env (where 0 disables), else the analytic
    // default from the detected cache topology
    // (recommended_recurse_cutoff); < 0 disables descent entirely.
    long long recurse_cutoff = 0;
    // Tracing (src/obs/trace.h): non-empty joins the process-wide trace
    // session and the Chrome trace-event JSON is written to this path when
    // the last participating engine is destroyed (the first participant's
    // path wins).  Empty = FMM_TRACE env; empty everywhere = no tracing
    // (cost: one relaxed atomic load per instrumented site).
    std::string trace_path;
  };

  struct CacheStats {
    std::uint64_t hits = 0;        // executor-cache hits
    std::uint64_t misses = 0;      // executor compilations
    std::uint64_t evictions = 0;   // executors LRU-evicted
    std::size_t entries = 0;       // cached keys (see executor_for)
    std::uint64_t choice_hits = 0;
    std::uint64_t choice_misses = 0;
    std::uint64_t choice_evictions = 0;
    std::size_t choice_entries = 0;
    // Online performance model (all 0 when history is disabled):
    std::uint64_t history_observations = 0;  // timings recorded
    std::size_t history_keys = 0;            // distinct footprint keys
    std::uint64_t history_hits = 0;      // rankings that used measured data
    std::uint64_t history_overrides = 0; // rankings where measured flipped
                                         // the analytic winner
    std::uint64_t recursive_runs = 0;    // multiplies that descended into
                                         // the task-recursive path
  };

  static constexpr std::size_t kDefaultCacheCapacity = 32;

  Engine();  // default Options
  explicit Engine(const Options& opts);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Single requests ----------------------------------------------------
  // C += A * B.  The element type T (double or float; instantiated in
  // engine.cc) is deduced from C alone: A and B are non-deduced, so
  // writable views bind there too.  Element type is a runtime plan
  // property: the call stamps DTypeOf<T> on its copy of the plan, so one
  // Plan value may serve both precisions while the executor cache, choice
  // cache and history keys stay strictly per-dtype.
  //
  // Explicit plan, through the cached executor for (plan, shape, config).
  // `cfg` replaces the engine's config for this call (and keys the cache
  // alongside the plan and shape).
  template <typename T>
  Status multiply(const Plan& plan, MatViewT<T> c,
                  NonDeduced<ConstMatViewT<T>> a,
                  NonDeduced<ConstMatViewT<T>> b,
                  const std::optional<GemmConfig>& cfg = std::nullopt);
  // Auto path: the model-selected algorithm for the shape (cached
  // per-shape decision; compiled executors shared with the explicit path).
  // A non-null `executed` receives the decision this call executed (a
  // shared snapshot from the same single cache lookup the execution uses,
  // so it is exactly what ran); it is left untouched when validation
  // rejects the request.
  template <typename T>
  Status multiply(MatViewT<T> c, NonDeduced<ConstMatViewT<T>> a,
                  NonDeduced<ConstMatViewT<T>> b,
                  std::shared_ptr<const AutoChoice>* executed = nullptr);

  // --- Batches ------------------------------------------------------------
  // Every item through the one plan; cross-shape item batches are grouped
  // by shape, one cached executor per group.  The BatchSpec carries its
  // element type, so these serve every precision.
  Status multiply(const Plan& plan, const BatchSpec& batch,
                  const std::optional<GemmConfig>& cfg = std::nullopt);
  // Auto-selected per shape group.
  Status multiply(const BatchSpec& batch);

  // --- Async surface ------------------------------------------------------
  // Every submit mirrors a multiply form: validation runs now (an invalid
  // request returns an already-resolved future), the arithmetic runs on
  // the engine's task pool (inline when called from any pool's worker, in
  // which case the future has resolved on return), and the future
  // resolves when it finishes.
  // Operand buffers — and a non-null `executed` — must stay alive and
  // untouched until then; the Plan and any item array are copied, so
  // *they* need not outlive the call.  A cross-shape item batch fans out
  // one task per shape group and the returned future resolves when the
  // whole batch is done, with the first failing group's Status in arrival
  // order.  Results are bitwise identical to the synchronous forms.
  template <typename T>
  TaskFuture submit(const Plan& plan, MatViewT<T> c,
                    NonDeduced<ConstMatViewT<T>> a,
                    NonDeduced<ConstMatViewT<T>> b,
                    const std::optional<GemmConfig>& cfg = std::nullopt);
  template <typename T>
  TaskFuture submit(MatViewT<T> c, NonDeduced<ConstMatViewT<T>> a,
                    NonDeduced<ConstMatViewT<T>> b,
                    std::shared_ptr<const AutoChoice>* executed = nullptr);
  TaskFuture submit(const Plan& plan, const BatchSpec& batch,
                    const std::optional<GemmConfig>& cfg = std::nullopt);
  TaskFuture submit(const BatchSpec& batch);
  // Blocks until every task this engine has submitted (from any thread)
  // has finished.
  void wait_all();

  // --- Auto-path inspection / control -------------------------------------
  // The decision multiply() would take for a shape (computed and cached on
  // first use), ranked within `dtype`'s kernel family under its own model
  // parameters.  Returned by value: the underlying cache entry may be
  // evicted at any time.
  AutoChoice choice_for(index_t m, index_t n, index_t k,
                        DType dtype = DType::kF64);
  // Allocation-free-on-hit variant: a shared snapshot of the cached
  // decision (stays valid across eviction; never null).  The hot-path form
  // for callers that query per call.
  std::shared_ptr<const AutoChoice> choice_handle(index_t m, index_t n,
                                                  index_t k,
                                                  DType dtype = DType::kF64);
  // Measure machine parameters for the model (~1 s, once; both element
  // types).  Clears the choice cache — decisions made under the old
  // parameters are stale.  Returns the calibration-cache file status
  // (arch::calibration_file_status()): the parameters are always updated
  // best-effort, a non-OK Status means the *persisted* rate cache is not
  // working.
  Status calibrate();
  // The model parameters the auto path ranks `dtype` requests with.
  ModelParams params(DType dtype = DType::kF64) const;

  // --- Online performance model -------------------------------------------
  // The history store: measured per-(plan, shape-bucket, kernel, threads)
  // rates recorded by every execution this engine runs (see
  // src/model/history.h).  Exposed mutable so tests and tools can inject
  // or clear observations; all engine bookkeeping is internal.
  PerfHistory& history() { return history_; }
  const PerfHistory& history() const { return history_; }
  bool history_enabled() const { return history_enabled_; }
  // Persist the store to the configured history path now (the destructor
  // also saves).  kInvalidArgument when no path is configured, kIOError on
  // write failure.
  Status save_history();
  // The Status of the constructor's history load: OK (loaded or no file),
  // kIOError (unreadable), or kCorruptData (bad version/row — the store
  // started empty).
  Status history_load_status() const { return history_load_status_; }
  // The footprint key an execution of `plan` at (m, n, k) under this
  // engine's config records under — for tests and tools that pre-seed or
  // inspect the store.  Conventional GEMM's is its <1,1,1> plan's
  // (AutoChoice::plan).
  HistoryKey history_key(const Plan& plan, index_t m, index_t n,
                         index_t k) const;

  // --- Observability -------------------------------------------------------
  // The engine's metrics registry: counters (cache traffic, recursive
  // descents), gauges (live entries), and latency / throughput histograms.
  // Exposed mutable so hosts can hang their own instruments off it.  Its
  // enabled() flag (FMM_METRICS, default on; set_enabled() overrides)
  // gates the call sites whose *capture* costs something (clock reads for
  // the latency / queue-wait histograms); counters are always on.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  // Refreshes the level gauges (cache entries, history keys, buffer-pool
  // footprint) and dumps every instrument; the text form is what
  // examples/serving.cpp prints, the JSON form is one parseable object.
  std::string metrics_report();
  std::string metrics_report_json();

  // --- Introspection ------------------------------------------------------
  CacheStats stats() const;
  std::size_t cache_capacity() const { return cache_cap_; }
  std::size_t choice_capacity() const { return 8 * cache_cap_; }
  // Resolved async worker count (0 = pool default: hardware concurrency).
  int workers() const { return workers_; }
  // Resolved task-recursive leaf cutoff (0 = descent disabled).
  index_t recurse_cutoff() const { return recurse_cutoff_; }
  const GemmConfig& config() const { return cfg_; }
  const std::string& history_path() const { return history_path_; }

 private:
  struct Compiled;
  struct Entry;
  struct ChoiceEntry;
  enum class RequestPath { kExplicit, kAuto, kBatch };
  struct RequestInfo;
  template <typename T>
  struct Request;

  // The compiled executor for (plan, m, n, k, cfg).  A new key is inserted
  // (with LRU eviction) before it compiles, and compiles once: concurrent
  // requests for it wait for that compile, not for other keys.  Never
  // fails; allocation failures throw, fail only the compiling request, and
  // leave the key cached but empty, so its next request compiles again.
  // The cache entry stores the executor type-erased; the plan's dtype
  // (part of the key) discriminates, so a hit always casts back to the
  // type it was compiled as.  Callers pass a plan already stamped with
  // DTypeOf<T>::value.
  template <typename T>
  std::shared_ptr<FmmExecutorT<T>> executor_for(const Plan& plan, index_t m,
                                                index_t n, index_t k,
                                                const GemmConfig& cfg);
  // submit_single / submit_batch validate a request and hand it to
  // dispatch (a single request that descends builds its task graph
  // instead); every multiply/submit form lands in one of them.
  template <typename T>
  TaskFuture submit_single(const Plan* plan, MatViewT<T> c, ConstMatViewT<T> a,
                           ConstMatViewT<T> b, const GemmConfig& cfg,
                           std::shared_ptr<const AutoChoice>* executed);
  template <typename T>
  TaskFuture submit_batch(const Plan* plan, const BatchSpec& batch,
                          const GemmConfig& cfg);
  // Runs every shape group of a validated request through run_group, as
  // one task per group plus, for several groups, a finalizer, submitted to
  // request_pool().  Every group runs, the first failing group's Status
  // (arrival order) is the request's, and the request's one observation is
  // recorded where it completes.
  template <typename T>
  TaskFuture dispatch(std::shared_ptr<const Request<T>> req);
  // The one execution body: shape group `g` of `req` through the cached
  // executor of its plan — the request's, or the auto choice's (stored
  // through req.executed).  Throws on allocation failure.
  template <typename T>
  void run_group(const Request<T>& req, std::size_t g);
  // Where a request's tasks go, decided once per request: nullptr (inline,
  // TaskPool::submit_to) when the caller is any pool's worker, else the
  // engine's pool, started on first use.
  TaskPool* request_pool();
  // The pool/leaf/buffer/cutoff bundle a descent of `plan` runs with under
  // `cfg`, its tasks going to `target` (request_pool()): leaves execute
  // serially through the executor cache (plain GEMM for nullptr plans and
  // fringes).  The plan's pinned kernel, if any, replaces the config's for
  // every leaf, GEMM leaves and fringes included.
  template <typename T>
  RecursiveExecT<T> recursive_ctx(const Plan& plan, const GemmConfig& cfg,
                                  TaskPool* target);
  void ensure_plan_space_locked();
  // The footprint key an execution of `plan` at (m, n, k) records under
  // `cfg`: the dtype-salted footprint, the shape buckets, and the kernel
  // and thread count the executor freezes (the plan's pinned kernel
  // overrides the config's).  history_key() is its public spelling.  The
  // executor hook and the auto path's ranking both key through it, so a
  // confident rate is read back under the key it was recorded under.
  HistoryKey history_key_for(const Plan& plan, index_t m, index_t n,
                             index_t k, const GemmConfig& cfg) const;
  // The consumer behind the executor timing hook, the one execution
  // observer: history (under `hkey` when non-null), the GFLOP/s and
  // batch-size histograms, and the "executor.run" trace span.
  void observe_execution(const ExecObservation& o, const HistoryKey* hkey);
  // Request-level observation.  request_start() is the capture gate: the
  // submit-time clock read happens only when tracing or metrics capture is
  // on (0 otherwise, and observe_request is then a no-op).  The span /
  // latency sample covers queue wait + execution per path.
  std::uint64_t request_start() const;
  void observe_request(const RequestInfo& r);
  // Recomputes the level gauges a report should show current (cache and
  // choice entries, history size, recursive buffer-pool footprint).
  void refresh_gauges();

  GemmConfig cfg_;
  int slots_ = 0;  // Options::slots (0: derived per executor_for compile)
  int workers_ = 0;
  std::size_t cache_cap_ = 0;  // executor entries

  // Observability.  The registry owns every counter the old CacheStats
  // atomics became (stats() reads them back); the pointers below are
  // resolved once in the constructor and never change.  owns_trace_ marks
  // an engine that joined the refcounted trace session.
  obs::MetricsRegistry metrics_;
  bool owns_trace_ = false;
  obs::Histogram* lat_explicit_ = nullptr;  // request latency per path (us)
  obs::Histogram* lat_auto_ = nullptr;
  obs::Histogram* lat_batch_ = nullptr;
  obs::Histogram* exec_gflops_ = nullptr;  // effective GFLOP/s per execution
  obs::Histogram* batch_items_ = nullptr;  // items per multi-item batch

  // The executor cache.
  mutable std::mutex cache_mu_;
  std::vector<Entry> cache_;
  // The async pool, created on first use by a host thread's request
  // (double-checked through pool_ptr_ so the hot path is one acquire
  // load).
  std::mutex pool_mu_;
  std::unique_ptr<TaskPool> pool_;
  std::atomic<TaskPool*> pool_ptr_{nullptr};
  std::atomic<std::uint64_t> tick_{1};
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;

  // Auto path: plan space built lazily (the explicit path never pays for
  // it), model parameters, bounded per-shape choice cache.  params_gen_
  // bumps on every calibrate(); a choice computed under an older
  // generation is served once but never cached (the clear in calibrate()
  // must not be undone by an in-flight ranking).
  mutable std::mutex choice_mu_;
  bool space_built_ = false;
  std::vector<Plan> space_;
  ModelParams params_;                                     // f64
  ModelParams params_f32_ = default_model_params(DType::kF32);
  std::uint64_t params_gen_ = 0;
  std::vector<ChoiceEntry> choices_;
  obs::Counter* choice_hits_ = nullptr;
  obs::Counter* choice_misses_ = nullptr;
  obs::Counter* choice_evictions_ = nullptr;

  // Online performance model: the store itself, the resolved knobs (fixed
  // at construction), and the ranking counters.
  // Task-recursive descent: resolved cutoff, the S/T/M intermediate
  // allocator shared by every descent this engine runs, and the count of
  // multiplies that took the recursive path.
  index_t recurse_cutoff_ = 0;
  BufferPool recurse_buffers_;
  obs::Counter* recursive_runs_ = nullptr;

  PerfHistory history_;
  bool history_enabled_ = true;
  std::string history_path_;
  Status history_load_status_;
  obs::Counter* history_hits_ = nullptr;
  obs::Counter* history_overrides_ = nullptr;
};

// The process-default Engine (default Options), for callers that need no
// configuration of their own.  Constructed on first use, never destroyed
// before program exit.
Engine& default_engine();

}  // namespace fmm

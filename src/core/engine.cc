#include "src/core/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>

#include "src/arch/cache_info.h"
#include "src/arch/calibrate.h"
#include "src/gemm/fused.h"
#include "src/gemm/gemm.h"
#include "src/model/perf_model.h"
#include "src/obs/trace.h"
#include "src/util/env.h"

namespace fmm {
namespace {

// ---------------------------------------------------------------------------
// Key hashing.  Equality is exact (same_execution + field compares); the
// hash only prunes the cache scan, so collisions are harmless.
// ---------------------------------------------------------------------------

std::size_t hash_combine(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::size_t key_hash(const Plan& plan, index_t m, index_t n, index_t k,
                     const GemmConfig& cfg) {
  // The plan's arithmetic (variant, dims, coefficients) through the
  // history store's own fingerprint.
  std::size_t h = static_cast<std::size_t>(plan_footprint(plan));
  h = hash_combine(h, static_cast<std::size_t>(plan.dtype));
  h = hash_combine(h, std::hash<const void*>{}(plan.kernel));
  h = hash_combine(h, static_cast<std::size_t>(m));
  h = hash_combine(h, static_cast<std::size_t>(n));
  h = hash_combine(h, static_cast<std::size_t>(k));
  h = hash_combine(h, static_cast<std::size_t>(cfg.mc));
  h = hash_combine(h, static_cast<std::size_t>(cfg.kc));
  h = hash_combine(h, static_cast<std::size_t>(cfg.nc));
  h = hash_combine(h, static_cast<std::size_t>(cfg.num_threads));
  h = hash_combine(h, std::hash<const void*>{}(cfg.kernel));
  return h;
}

// ---------------------------------------------------------------------------
// Request validation.  Cheap exact checks only: base-pointer aliasing is
// detected, partial overlaps of distinct blocks remain the caller's
// responsibility (blocks of one parent matrix are legitimate operands).
// ---------------------------------------------------------------------------

std::string shape_str(index_t m, index_t n, index_t k) {
  return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " k=" + std::to_string(k);
}

// The history footprint salt per element type: 0 for f64 keeps every
// pre-existing persisted key unchanged; f32 keys can never collide with
// the f64 key of the same plan and shape.
constexpr std::uint64_t dtype_history_salt(DType dtype) {
  return dtype == DType::kF32 ? 0x6633326b65797aull : 0;
}

// Element type is a plan property: a request stamps its dtype on its copy
// of the plan and drops a pinned kernel of the other dtype, so one Plan
// value serves both precisions without cross-dtype cache hits.
void stamp_dtype(Plan& plan, DType dtype) {
  plan.dtype = dtype;
  if (plan.kernel != nullptr && plan.kernel->dtype != dtype) {
    plan.kernel = nullptr;
  }
}

template <typename T>
Status validate_triple(MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b) {
  if (c.rows() < 0 || c.cols() < 0 || a.rows() < 0 || a.cols() < 0 ||
      b.rows() < 0 || b.cols() < 0) {
    return Status::error(StatusCode::kInvalidShape,
                         "negative operand dimension");
  }
  if (a.rows() != c.rows() || b.cols() != c.cols() || a.cols() != b.rows()) {
    return Status::error(
        StatusCode::kInvalidShape,
        "operands do not conform: C " + std::to_string(c.rows()) + "x" +
            std::to_string(c.cols()) + ", A " + std::to_string(a.rows()) +
            "x" + std::to_string(a.cols()) + ", B " +
            std::to_string(b.rows()) + "x" + std::to_string(b.cols()));
  }
  if (c.stride() < c.cols() || a.stride() < a.cols() ||
      b.stride() < b.cols()) {
    return Status::error(StatusCode::kInvalidStride,
                         "row stride smaller than the row length");
  }
  if (!c.empty() && c.data() == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null C data");
  }
  if (!a.empty() && a.data() == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null A data");
  }
  if (!b.empty() && b.data() == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null B data");
  }
  if (!c.empty() && (static_cast<const T*>(c.data()) == a.data() ||
                     static_cast<const T*>(c.data()) == b.data())) {
    return Status::error(StatusCode::kAliasing,
                         "C aliases an input operand");
  }
  return Status{};
}

// Validates a strided descriptor whose dense row-stride defaults are
// already filled in (BatchAccessT's constructor).
template <typename T>
Status validate_strided(const StridedBatchT<T>& sb) {
  if (sb.m < 0 || sb.n < 0 || sb.k < 0) {
    return Status::error(StatusCode::kInvalidShape,
                         "negative batch dimension: " +
                             shape_str(sb.m, sb.n, sb.k));
  }
  if (sb.ldc < sb.n || sb.lda < sb.k || sb.ldb < sb.n) {
    return Status::error(StatusCode::kInvalidStride,
                         "row stride smaller than the row length");
  }
  if (sb.stride_c < 0 || sb.stride_a < 0 || sb.stride_b < 0) {
    return Status::error(StatusCode::kInvalidStride,
                         "negative batch stride");
  }
  if (sb.count == 0) return Status{};
  const bool c_nonempty = sb.m > 0 && sb.n > 0;
  if (c_nonempty && sb.c == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null C base pointer");
  }
  if (sb.m > 0 && sb.k > 0 && sb.a == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null A base pointer");
  }
  if (sb.k > 0 && sb.n > 0 && sb.b == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null B base pointer");
  }
  if (c_nonempty && sb.count > 1) {
    if (sb.stride_c == 0) {
      return Status::error(StatusCode::kAliasing,
                           "stride_c == 0: every item writes the same C");
    }
    // The C items must be provably disjoint.  Two layouts are: stacked
    // (each item's whole m-row footprint precedes the next base) and
    // interleaved (items side by side within one row span — consecutive
    // row segments disjoint, and all of them inside the parent row, so
    // row r of every item lives in row r of the parent).  Anything in
    // between — e.g. stride_c == n with a dense ldc and m > 1, where item
    // 1 starts inside item 0's second row — overlaps and would race.
    const bool stacked = sb.stride_c >= (sb.m - 1) * sb.ldc + sb.n;
    const bool interleaved =
        sb.stride_c >= sb.n &&
        static_cast<index_t>(sb.count - 1) * sb.stride_c + sb.n <= sb.ldc;
    if (!stacked && !interleaved) {
      return Status::error(
          StatusCode::kInvalidStride,
          "stride_c describes overlapping C items (want stacked: stride_c >= "
          "(m-1)*ldc + n, or interleaved: (count-1)*stride_c + n <= ldc)");
    }
  }
  if (c_nonempty && (static_cast<const T*>(sb.c) == sb.a ||
                     static_cast<const T*>(sb.c) == sb.b)) {
    return Status::error(StatusCode::kAliasing,
                         "C base aliases an input base");
  }
  return Status{};
}

// Conventional GEMM as a plan: the rank-1 <1,1,1> ABC algorithm, the R = 1
// member of the family (paper §3).  Its one-term lists are gemm()'s own, so
// its executor computes gemm()'s bits; no pinned kernel, so it runs the
// config's kernel as gemm() does.
Plan gemm_plan(DType dtype) {
  static const Plan rank1 =
      make_plan({make_classical(1, 1, 1)}, Variant::kABC);
  Plan plan = rank1;
  plan.dtype = dtype;
  return plan;
}

// The descent's GEMM workspace, for its fringes and for products with no
// levels left (shapes that would otherwise churn the executor cache):
// grow-only packing buffers, reusable across engines but never across
// concurrent callers — exactly what thread_local provides.  One workspace
// per element type per thread.
template <typename T>
GemmWorkspaceT<T>& gemm_workspace() {
  static thread_local GemmWorkspaceT<T> ws;
  return ws;
}

// Evicts the least-recently-used entry (smallest tick) by copying the back
// entry over it.  Shared by the executor and choice caches; entry types
// need a `tick` member.  Callers hold the cache's mutex and bump their own
// eviction counter.
template <typename Entry>
void evict_lru(std::vector<Entry>& entries) {
  auto lru = std::min_element(
      entries.begin(), entries.end(),
      [](const Entry& x, const Entry& y) { return x.tick < y.tick; });
  *lru = entries.back();
  entries.pop_back();
}

std::size_t env_cache_capacity() {
  const std::optional<long> v = parse_env_long(
      "FMM_ENGINE_CACHE", 1, std::numeric_limits<long>::max());
  return v.has_value() ? static_cast<std::size_t>(*v)
                       : Engine::kDefaultCacheCapacity;
}

int env_workers() {
  // 0 = hardware concurrency (the TaskPool default).
  return static_cast<int>(parse_env_long("FMM_WORKERS", 1, 4096).value_or(0));
}

std::string env_history_path() {
  const char* path = std::getenv("FMM_HISTORY_CACHE");
  return path != nullptr ? std::string(path) : std::string();
}

std::string env_trace_path() {
  const char* path = std::getenv("FMM_TRACE");
  return path != nullptr ? std::string(path) : std::string();
}

index_t env_recurse_cutoff() {
  // Explicit 0 disables descent; unset falls back to the analytic default
  // for the detected cache topology.
  const std::optional<long> v =
      parse_env_long("FMM_RECURSE_CUTOFF", 0, 1L << 30);
  if (v.has_value()) return static_cast<index_t>(*v);
  return recommended_recurse_cutoff(arch::cache_topology());
}

}  // namespace

// ---------------------------------------------------------------------------
// Cache structures.
// ---------------------------------------------------------------------------

// One cached compiled executor.  `plan` and `cfg` are the *requested* key
// values (the executor itself records the resolved kernel/blocking).  The
// entry is inserted before its executor is compiled; `compiled` is where
// the executor lands, shared so that a request keeps it across an
// eviction.  The executor is stored type-erased (FmmExecutorT<double> or
// <float>); the plan's dtype — compared by same_execution, part of the
// key — says which, so a hit always casts back to the type it was
// compiled as.
struct Engine::Compiled {
  std::mutex mu;               // held by the request compiling `exec`
  std::shared_ptr<void> exec;  // null until a compile succeeds
};

struct Engine::Entry {
  std::size_t hash = 0;
  Plan plan;
  index_t m = 0, n = 0, k = 0;
  GemmConfig cfg;
  std::shared_ptr<Compiled> compiled;
  std::uint64_t tick = 0;
};

struct Engine::ChoiceEntry {
  // (m, n, k, dtype): the auto decision is per element type, so f32 and
  // f64 requests for one shape can never share (or evict into) each
  // other's cached choice.
  std::array<index_t, 4> key{};
  std::shared_ptr<const AutoChoice> choice;
  std::uint64_t tick = 0;
  // History revision the decision was computed under; a hit with a stale
  // revision re-ranks (lazy invalidation when an override could flip).
  std::uint64_t hrev = 0;
};

// What a request's one observation records (observe_request).
struct Engine::RequestInfo {
  RequestPath path = RequestPath::kBatch;
  index_t m = 0, n = 0, k = 0;  // 0x0x0 marks a cross-shape batch
  std::size_t count = 0;        // multiplies
  std::uint64_t t0 = 0;         // request_start()
};

// One validated request, shared by every task that serves it.  The plan is
// copied once and stamped with the request's element type (empty on the
// auto path); the item views are copied contiguous per shape group.  So
// neither the caller's plan nor its item array need outlive an async
// submit.
template <typename T>
struct Engine::Request : Engine::RequestInfo {
  struct Group {
    index_t m = 0, n = 0, k = 0;
    BatchAccessT<T> batch;
  };

  Request(const Plan* p, const GemmConfig& c) : cfg(c) {
    if (p != nullptr) {
      plan = *p;
      if (plan->dtype != DTypeOf<T>::value) {
        stamp_dtype(*plan, DTypeOf<T>::value);
      }
    }
  }

  std::optional<Plan> plan;
  GemmConfig cfg;
  std::shared_ptr<const AutoChoice>* executed = nullptr;  // single auto
  std::vector<BatchItemT<T>> items;
  std::vector<Group> groups;
};

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(const Options& opts)
    : cfg_(opts.config), slots_(opts.slots), workers_(opts.workers) {
  // Instruments resolve first: everything below may bump a counter.  The
  // names are stable API — tools parse metrics_report_json().
  hits_ = &metrics_.counter("engine.cache.hits");
  misses_ = &metrics_.counter("engine.cache.misses");
  evictions_ = &metrics_.counter("engine.cache.evictions");
  choice_hits_ = &metrics_.counter("engine.choice.hits");
  choice_misses_ = &metrics_.counter("engine.choice.misses");
  choice_evictions_ = &metrics_.counter("engine.choice.evictions");
  history_hits_ = &metrics_.counter("engine.history.hits");
  history_overrides_ = &metrics_.counter("engine.history.overrides");
  recursive_runs_ = &metrics_.counter("engine.recursive.runs");
  lat_explicit_ = &metrics_.histogram("engine.request.explicit", "us");
  lat_auto_ = &metrics_.histogram("engine.request.auto", "us");
  lat_batch_ = &metrics_.histogram("engine.request.batch", "us");
  exec_gflops_ = &metrics_.histogram("engine.exec.gflops", "GFLOP/s");
  batch_items_ = &metrics_.histogram("engine.exec.batch_items", "items");
  metrics_.set_enabled(parse_env_flag("FMM_METRICS", true));

  // Tracing: join the refcounted process-wide session; the file is written
  // when the last participant is destroyed (first participant's path wins).
  const std::string trace_path =
      !opts.trace_path.empty() ? opts.trace_path : env_trace_path();
  if (!trace_path.empty()) {
    obs::trace_begin(trace_path);
    owns_trace_ = true;
  }

  // Every knob: explicit Options > environment > default.
  if (workers_ <= 0) workers_ = env_workers();
  cache_cap_ =
      opts.cache_capacity > 0 ? opts.cache_capacity : env_cache_capacity();

  history_enabled_ = opts.history.has_value()
                         ? *opts.history
                         : parse_env_flag("FMM_HISTORY", true);
  history_path_ =
      !opts.history_path.empty() ? opts.history_path : env_history_path();
  if (history_enabled_ && !history_path_.empty()) {
    history_load_status_ = history_.load(history_path_);
  }

  if (opts.recurse_cutoff > 0) {
    recurse_cutoff_ = static_cast<index_t>(opts.recurse_cutoff);
  } else if (opts.recurse_cutoff == 0) {
    recurse_cutoff_ = env_recurse_cutoff();
  }  // negative: descent disabled, recurse_cutoff_ stays 0
}

Engine::~Engine() {
  // Drain in-flight submits before any member is torn down; the pool's own
  // destructor then joins the (now idle) workers.
  if (pool_) pool_->wait_all();
  if (history_enabled_ && !history_path_.empty()) {
    const Status st = history_.save(history_path_);
    if (!st.ok()) {
      std::fprintf(stderr, "fmm: history save failed: %s\n",
                   st.to_string().c_str());
    }
  }
  // Last participant out writes the trace file (workers are idle by now,
  // so their final spans are already recorded).
  if (owns_trace_) obs::trace_end();
}

TaskPool* Engine::request_pool() {
  if (TaskPool::on_worker_thread()) return nullptr;
  if (TaskPool* p = pool_ptr_.load(std::memory_order_acquire)) return p;
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (!pool_) {
    pool_ = std::make_unique<TaskPool>(workers_);
    // Attach the queue-wait instruments before the pool is published: no
    // task can observe a half-wired pool.
    pool_->set_metrics(&metrics_);
    pool_ptr_.store(pool_.get(), std::memory_order_release);
  }
  return pool_.get();
}

void Engine::wait_all() {
  if (TaskPool* p = pool_ptr_.load(std::memory_order_acquire)) p->wait_all();
}

Engine& default_engine() {
  static Engine* engine = new Engine();  // never destroyed: executors may
  return *engine;                        // be running at static teardown
}

// ---------------------------------------------------------------------------
// Executor cache.
// ---------------------------------------------------------------------------

template <typename T>
std::shared_ptr<FmmExecutorT<T>> Engine::executor_for(const Plan& plan,
                                                      index_t m, index_t n,
                                                      index_t k,
                                                      const GemmConfig& cfg) {
  assert(plan.dtype == DTypeOf<T>::value);
  const std::size_t hash = key_hash(plan, m, n, k, cfg);
  std::shared_ptr<Compiled> compiled;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    for (Entry& e : cache_) {
      if (e.hash == hash && e.m == m && e.n == n && e.k == k &&
          e.cfg == cfg && same_execution(e.plan, plan)) {
        e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
        compiled = e.compiled;
        break;
      }
    }
    if (compiled == nullptr) {
      if (cache_.size() >= cache_cap_) {
        evict_lru(cache_);
        evictions_->add();
      }
      Entry e;
      e.hash = hash;
      e.plan = plan;
      e.m = m;
      e.n = n;
      e.k = k;
      e.cfg = cfg;
      e.compiled = compiled = std::make_shared<Compiled>();
      e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
      cache_.push_back(std::move(e));
    }
  }

  // Each key compiles once: the first request to take the entry's mutex
  // compiles, and the others for that key wait there (other keys proceed
  // under their own entries).  A compile that throws fails only its own
  // request and leaves `exec` null, so the next request for the key,
  // waiting or later, compiles again.
  std::lock_guard<std::mutex> lk(compiled->mu);
  if (compiled->exec != nullptr) {
    hits_->add();
    if (obs::trace_enabled()) {
      obs::trace_instant("engine.cache.hit", "engine");
    }
    // shared_ptr copy: no allocation.  The dtype key match guarantees
    // the erased pointer is an FmmExecutorT<T>.
    return std::static_pointer_cast<FmmExecutorT<T>>(compiled->exec);
  }
  misses_->add();
  if (obs::trace_enabled()) {
    obs::trace_instant("engine.cache.miss", "engine");
  }
  // One workspace slot per engine worker unless Options::slots says
  // otherwise: concurrent requests, leaf tasks and nested descents never
  // queue behind one another's lease.  Never fewer than the executor's own
  // default (its thread count).  An idle slot's packing buffers are never
  // touched, so they cost no resident memory.
  const int slots =
      slots_ > 0 ? slots_
                 : std::max(std::min(TaskPool::worker_count(workers_), 64),
                            resolve_threads(cfg));
  auto exec = std::make_shared<FmmExecutorT<T>>(plan, m, n, k, cfg, slots);

  // Observation hook, installed before the executor is published
  // (set_timing_hook is not synchronized against in-flight runs).
  // The one hook feeds history, metrics, and tracing (observe_execution)
  // under a history key fixed at compile time.  One hook invocation = one
  // observation (a batch counts its items), so effective GFLOP/s is
  // items * flops / seconds.
  std::optional<HistoryKey> hkey;
  if (history_enabled_ && m > 0 && n > 0 && k > 0) {
    hkey = history_key_for(plan, m, n, k, cfg);
  }
  exec->set_timing_hook([this, hkey](const ExecObservation& o) {
    observe_execution(o, hkey.has_value() ? &*hkey : nullptr);
  });
  compiled->exec = exec;
  return exec;
}

// ---------------------------------------------------------------------------
// Auto path: plan space, choice cache, calibration.
// ---------------------------------------------------------------------------

void Engine::ensure_plan_space_locked() {
  if (space_built_) return;
  space_ = default_plan_space({Variant::kABC, Variant::kAB, Variant::kNaive},
                              /*max_levels=*/2);
  space_built_ = true;
}

std::shared_ptr<const AutoChoice> Engine::choice_handle(index_t m, index_t n,
                                                        index_t k,
                                                        DType dtype) {
  const std::array<index_t, 4> key{m, n, k, static_cast<index_t>(dtype)};
  // The history revision this decision is computed under, captured before
  // the cache scan: observations recorded during ranking bump it, which
  // marks our own insert stale — correct, the data changed under us.
  const std::uint64_t hrev = history_enabled_ ? history_.revision() : 0;
  ModelParams params;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    for (ChoiceEntry& e : choices_) {
      if (e.key == key && e.hrev == hrev) {
        e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
        choice_hits_->add();
        return e.choice;
      }
    }
    ensure_plan_space_locked();
    params = dtype == DType::kF32 ? params_f32_ : params_;
    gen = params_gen_;
  }

  // Rank outside the lock: the model evaluation over the whole space is
  // the expensive part, and space_ is immutable once built.  Conventional
  // GEMM — the <1,1,1> plan, priced by its own model — leads the
  // candidates, so it holds every tie.
  choice_misses_->add();
  auto choice = std::make_shared<AutoChoice>();
  std::vector<Candidate> ranked =
      rank_by_model(m, n, k, space_, params, cfg_, dtype);
  Candidate gemm;
  gemm.plan = gemm_plan(dtype);
  gemm.predicted_seconds = predict_gemm_time(m, n, k, cfg_, params, dtype);
  ranked.insert(ranked.begin(), std::move(gemm));

  // The model's own pick: GEMM unless the fastest plan beats it.
  const std::size_t analytic_winner =
      ranked.size() > 1 &&
              ranked[1].predicted_seconds < ranked[0].predicted_seconds
          ? 1
          : 0;

  // History overlay: each candidate's decision time is the measured rate
  // once its key is confident, the analytic prediction otherwise.  The
  // scan keeps the candidate order as tie-breaker (strict <), so with no
  // confident data this reproduces the analytic winner exactly.
  std::size_t winner = 0;
  double best_time = 0.0;
  bool best_measured = false;
  double best_gflops = 0.0;
  bool consulted = false;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    double t = ranked[i].predicted_seconds;
    bool measured = false;
    double gf = 0.0;
    if (history_enabled_ && flops > 0.0) {
      if (auto g =
              history_.confident_gflops(history_key(ranked[i].plan, m, n, k))) {
        t = flops / (*g * 1e9);
        measured = true;
        gf = *g;
        consulted = true;
      }
    }
    if (i == 0 || t < best_time) {
      best_time = t;
      winner = i;
      best_measured = measured;
      best_gflops = gf;
    }
  }
  if (consulted) {
    history_hits_->add();
    if (winner != analytic_winner) {
      history_overrides_->add();
    }
  }

  choice->predicted_seconds = best_time;
  choice->measured = best_measured;
  choice->measured_gflops = best_gflops;
  choice->use_gemm = winner == 0;
  choice->plan = std::move(ranked[winner].plan);
  choice->description = choice->use_gemm ? "gemm" : choice->plan->name();

  std::lock_guard<std::mutex> lk(choice_mu_);
  for (ChoiceEntry& e : choices_) {
    if (e.key == key) {
      e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
      // Racing insert at the same or a newer revision: keep the incumbent
      // so every caller shares one snapshot.  Ours refreshes a stale one.
      if (e.hrev >= hrev) return e.choice;
      e.choice = choice;
      e.hrev = hrev;
      return choice;
    }
  }
  // A calibrate() ran while this thread was ranking: the decision was made
  // under stale parameters.  Serve it (it is a valid algorithm, just
  // possibly suboptimal) but do not cache it past the clear.
  if (gen != params_gen_) return choice;
  if (choices_.size() >= choice_capacity()) {
    evict_lru(choices_);
    choice_evictions_->add();
  }
  ChoiceEntry e;
  e.key = key;
  e.choice = choice;
  e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
  e.hrev = hrev;
  choices_.push_back(std::move(e));
  return choice;
}

AutoChoice Engine::choice_for(index_t m, index_t n, index_t k, DType dtype) {
  return *choice_handle(m, n, k, dtype);
}

Status Engine::calibrate() {
  ModelParams measured = fmm::calibrate(cfg_);
  ModelParams measured_f32 = fmm::calibrate(cfg_, DType::kF32);
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    params_ = measured;
    params_f32_ = measured_f32;
    // Decisions made under the old parameters are stale; the generation
    // bump also stops in-flight rankings from re-inserting one.
    ++params_gen_;
    choices_.clear();
  }
  // The parameters above are already installed regardless: a broken rate
  // cache only costs persistence, not correctness.
  return arch::calibration_file_status();
}

ModelParams Engine::params(DType dtype) const {
  std::lock_guard<std::mutex> lk(choice_mu_);
  return dtype == DType::kF32 ? params_f32_ : params_;
}

// ---------------------------------------------------------------------------
// The request path: synchronous validation, then the request's tasks — the
// shape groups' execution body, or a descent's graph — submitted where
// request_pool() says: queued on the engine's pool, or inline on a pool
// worker (a task blocking on another task's future could deadlock a fully
// busy pool, so nested calls never wait on the queue).
// ---------------------------------------------------------------------------

template <typename T>
void Engine::run_group(const Request<T>& req, std::size_t g) {
  const typename Request<T>::Group& grp = req.groups[g];
  const Plan* plan = req.plan.has_value() ? &*req.plan : nullptr;
  std::shared_ptr<const AutoChoice> choice;
  if (plan == nullptr) {
    choice = choice_handle(grp.m, grp.n, grp.k, DTypeOf<T>::value);
    if (req.executed != nullptr) *req.executed = choice;
    plan = &*choice->plan;
  }
  executor_for<T>(*plan, grp.m, grp.n, grp.k, req.cfg)->run_batch(grp.batch);
}

template <typename T>
TaskFuture Engine::dispatch(std::shared_ptr<const Request<T>> req) {
  TaskPool* const target = request_pool();
  const std::size_t groups = req->groups.size();
  if (groups == 1) {
    return TaskPool::submit_to(target, [this, req] {
      Status st = run_guarded([&] {
        run_group(*req, 0);
        return Status{};
      });
      observe_request(*req);
      return st;
    });
  }
  // Cross-shape fan-out: one task per shape group (each hits its own cached
  // executor), plus a finalizer after all of them — the request's
  // completion site.
  std::vector<TaskFuture> parts;
  parts.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    parts.push_back(
        TaskPool::submit_to(target, [this, req, g] { run_group(*req, g); }));
  }
  TaskOptions fin{parts};
  return TaskPool::submit_to(
      target,
      [this, req, parts = std::move(parts)] {
        observe_request(*req);
        for (const TaskFuture& part : parts) {
          if (!part.status().ok()) return part.status();
        }
        return Status{};
      },
      std::move(fin));
}

template <typename T>
RecursiveExecT<T> Engine::recursive_ctx(const Plan& plan,
                                        const GemmConfig& cfg,
                                        TaskPool* target) {
  RecursiveExecT<T> ctx;
  ctx.pool = target;
  ctx.buffers = &recurse_buffers_;
  ctx.cutoff = recurse_cutoff_;
  // Leaves run serially — the node's task fan-out is the parallelism — and
  // share the executor cache (a slot per engine worker) with every other
  // path.  The plan's pinned kernel is resolved once here, as FmmExecutor
  // does, so the GEMM leaves and fringes run on it like the plan leaves do.
  GemmConfig leaf_cfg = plan_config(plan, cfg);
  leaf_cfg.num_threads = 1;
  ctx.leaf = [this, leaf_cfg](const Plan* leaf_plan, MatViewT<T> c,
                              ConstMatViewT<T> a, ConstMatViewT<T> b) {
    if (leaf_plan == nullptr) {
      gemm(c, a, b, gemm_workspace<T>(), leaf_cfg);
      return;
    }
    executor_for<T>(*leaf_plan, c.rows(), c.cols(), a.cols(), leaf_cfg)
        ->run(c, a, b);
  };
  return ctx;
}

template <typename T>
TaskFuture Engine::submit_single(const Plan* plan, MatViewT<T> c,
                                 ConstMatViewT<T> a, ConstMatViewT<T> b,
                                 const GemmConfig& cfg,
                                 std::shared_ptr<const AutoChoice>* executed) {
  Status st = validate_triple(c, a, b);
  if (!st.ok()) return TaskFuture::ready(std::move(st));
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  auto req = std::make_shared<Request<T>>(plan, cfg);
  // Request observation starts after validation (a rejected request is not
  // traffic) and follows the work wherever it runs: the span / latency
  // sample is recorded where the request completes, covering queue wait.
  req->path = plan != nullptr ? RequestPath::kExplicit : RequestPath::kAuto;
  req->m = m;
  req->n = n;
  req->k = k;
  req->count = 1;
  req->t0 = request_start();
  req->executed = executed;
  if (recurse_cutoff_ > 0 && std::min({m, n, k}) > recurse_cutoff_) {
    // Large shape: resolve the plan now (for the auto path the ranking is
    // noise next to an out-of-cutoff multiply) so the recursive task graph
    // can be built host-side instead of inside a queued task.
    const Plan* rplan = req->plan.has_value() ? &*req->plan : nullptr;
    std::shared_ptr<const AutoChoice> choice;
    if (rplan == nullptr) {
      choice = choice_handle(m, n, k, DTypeOf<T>::value);
      rplan = &*choice->plan;
    }
    if (should_recurse(*rplan, m, n, k, recurse_cutoff_)) {
      if (executed != nullptr && choice) *executed = choice;
      recursive_runs_->add();
      // The graph goes where the request's tasks go (inline, it has run by
      // the time submit_recursive returns).  Its top node is built here,
      // outside any task, so a throw while building it is the request's
      // Status as a task's throw would be.
      TaskPool* const target = request_pool();
      TaskFuture graph;
      const Status built = run_guarded([&] {
        graph = submit_recursive<T>(recursive_ctx<T>(*rplan, cfg, target),
                                    *rplan, c, a, b);
        return Status{};
      });
      if (!built.ok()) graph = TaskFuture::ready(built);
      // The request completes when the graph does: a task after the
      // graph's future records the observation and resolves with the
      // graph's Status.
      return TaskPool::submit_to(
          target,
          [this, req, graph] {
            observe_request(*req);
            return graph.status();
          },
          TaskOptions{{graph}});
    }
    // The plan does not qualify (conventional GEMM, rank 1, never does):
    // fall through to the flat path, which re-resolves the cached choice.
  }
  req->items.push_back({c, a, b});
  req->groups.push_back({m, n, k, BatchAccessT<T>(req->items.data(), 1)});
  return dispatch<T>(std::move(req));
}

template <typename T>
TaskFuture Engine::submit_batch(const Plan* plan, const BatchSpec& batch,
                                const GemmConfig& cfg) {
  auto req = std::make_shared<Request<T>>(plan, cfg);
  req->path = RequestPath::kBatch;
  req->count = batch.size();

  if (batch.is_strided()) {
    const BatchAccessT<T> acc(batch.strided_as<T>());
    const StridedBatchT<T>& sb = acc.strided();
    Status st = validate_strided(sb);
    if (!st.ok()) return TaskFuture::ready(std::move(st));
    if (sb.count == 0 || sb.m == 0 || sb.n == 0) {
      return TaskFuture::ready(Status{});
    }
    req->m = sb.m;
    req->n = sb.n;
    req->k = sb.k;
    req->t0 = request_start();
    req->groups.push_back({sb.m, sb.n, sb.k, acc});
    return dispatch<T>(std::move(req));
  }

  const BatchItemT<T>* items = batch.items_as<T>();
  const std::size_t count = batch.size();
  if (count == 0) return TaskFuture::ready(Status{});
  if (items == nullptr) {
    return TaskFuture::ready(Status::error(StatusCode::kInvalidArgument,
                                           "null item array with count > 0"));
  }
  // Validate the whole batch before any arithmetic: one malformed item
  // rejects the request with nothing queued and nothing partially written.
  for (std::size_t i = 0; i < count; ++i) {
    Status st = validate_triple(items[i].c, items[i].a, items[i].b);
    if (!st.ok()) {
      return TaskFuture::ready(Status::error(
          st.code(), "item " + std::to_string(i) + ": " + st.message()));
    }
  }
  if (!distinct_outputs(BatchAccessT<T>(items, count))) {
    return TaskFuture::ready(Status::error(
        StatusCode::kAliasing, "two batch items write the same C"));
  }
  req->t0 = request_start();

  // Group by (m, n, k) in order of first appearance.  The copy keeps each
  // group's items contiguous and in arrival order.  An item whose C is
  // empty (m or n = 0) does no arithmetic and joins no group, as an empty
  // strided batch returns above: no executor is compiled for it.
  constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
  std::vector<std::size_t> group_of(count, kNoGroup);
  for (std::size_t i = 0; i < count; ++i) {
    const index_t m = items[i].c.rows(), n = items[i].c.cols(),
                  k = items[i].a.cols();
    if (m == 0 || n == 0) continue;
    std::size_t g = 0;
    while (g < req->groups.size() &&
           !(req->groups[g].m == m && req->groups[g].n == n &&
             req->groups[g].k == k)) {
      ++g;
    }
    if (g == req->groups.size()) req->groups.push_back({m, n, k, {}});
    group_of[i] = g;
  }
  if (req->groups.empty()) return TaskFuture::ready(Status{});
  req->items.reserve(count);  // no reallocation: the accessors point in
  for (std::size_t g = 0; g < req->groups.size(); ++g) {
    const std::size_t first = req->items.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (group_of[i] == g) req->items.push_back(items[i]);
    }
    req->groups[g].batch = BatchAccessT<T>(req->items.data() + first,
                                           req->items.size() - first);
  }
  if (req->groups.size() == 1) {
    req->m = req->groups[0].m;
    req->n = req->groups[0].n;
    req->k = req->groups[0].k;
  }
  return dispatch<T>(std::move(req));
}

// ---------------------------------------------------------------------------
// Public entry points: multiply is submit + wait (one execution path).
// ---------------------------------------------------------------------------

template <typename T>
Status Engine::multiply(const Plan& plan, MatViewT<T> c,
                        NonDeduced<ConstMatViewT<T>> a,
                        NonDeduced<ConstMatViewT<T>> b,
                        const std::optional<GemmConfig>& cfg) {
  return submit(plan, c, a, b, cfg).status();
}

template <typename T>
Status Engine::multiply(MatViewT<T> c, NonDeduced<ConstMatViewT<T>> a,
                        NonDeduced<ConstMatViewT<T>> b,
                        std::shared_ptr<const AutoChoice>* executed) {
  // `executed` stays valid for the task's lifetime because this call waits.
  return submit(c, a, b, executed).status();
}

Status Engine::multiply(const Plan& plan, const BatchSpec& batch,
                        const std::optional<GemmConfig>& cfg) {
  return submit(plan, batch, cfg).status();
}

Status Engine::multiply(const BatchSpec& batch) {
  return submit(batch).status();
}

template <typename T>
TaskFuture Engine::submit(const Plan& plan, MatViewT<T> c,
                          NonDeduced<ConstMatViewT<T>> a,
                          NonDeduced<ConstMatViewT<T>> b,
                          const std::optional<GemmConfig>& cfg) {
  return submit_single<T>(&plan, c, a, b, cfg ? *cfg : cfg_, nullptr);
}

template <typename T>
TaskFuture Engine::submit(MatViewT<T> c, NonDeduced<ConstMatViewT<T>> a,
                          NonDeduced<ConstMatViewT<T>> b,
                          std::shared_ptr<const AutoChoice>* executed) {
  return submit_single<T>(nullptr, c, a, b, cfg_, executed);
}

TaskFuture Engine::submit(const Plan& plan, const BatchSpec& batch,
                          const std::optional<GemmConfig>& cfg) {
  const GemmConfig& run_cfg = cfg ? *cfg : cfg_;
  return batch.dtype() == DType::kF32
             ? submit_batch<float>(&plan, batch, run_cfg)
             : submit_batch<double>(&plan, batch, run_cfg);
}

TaskFuture Engine::submit(const BatchSpec& batch) {
  return batch.dtype() == DType::kF32
             ? submit_batch<float>(nullptr, batch, cfg_)
             : submit_batch<double>(nullptr, batch, cfg_);
}

// The single-request front door, for both element types.
template Status Engine::multiply<double>(const Plan&, MatView, ConstMatView,
                                         ConstMatView,
                                         const std::optional<GemmConfig>&);
template Status Engine::multiply<float>(const Plan&, MatViewF32,
                                        ConstMatViewF32, ConstMatViewF32,
                                        const std::optional<GemmConfig>&);
template Status Engine::multiply<double>(MatView, ConstMatView, ConstMatView,
                                         std::shared_ptr<const AutoChoice>*);
template Status Engine::multiply<float>(MatViewF32, ConstMatViewF32,
                                        ConstMatViewF32,
                                        std::shared_ptr<const AutoChoice>*);
template TaskFuture Engine::submit<double>(const Plan&, MatView, ConstMatView,
                                           ConstMatView,
                                           const std::optional<GemmConfig>&);
template TaskFuture Engine::submit<float>(const Plan&, MatViewF32,
                                          ConstMatViewF32, ConstMatViewF32,
                                          const std::optional<GemmConfig>&);
template TaskFuture Engine::submit<double>(MatView, ConstMatView, ConstMatView,
                                           std::shared_ptr<const AutoChoice>*);
template TaskFuture Engine::submit<float>(MatViewF32, ConstMatViewF32,
                                          ConstMatViewF32,
                                          std::shared_ptr<const AutoChoice>*);

// ---------------------------------------------------------------------------
// Online performance model plumbing.
// ---------------------------------------------------------------------------

HistoryKey Engine::history_key_for(const Plan& plan, index_t m, index_t n,
                                   index_t k, const GemmConfig& cfg) const {
  HistoryKey key;
  key.footprint = plan_footprint(plan) ^ dtype_history_salt(plan.dtype);
  key.mb = shape_bucket(m);
  key.nb = shape_bucket(n);
  key.kb = shape_bucket(k);
  key.kernel = kernel_cache_key(
      *resolve_blocking(plan_config(plan, cfg), plan.dtype).kernel);
  key.threads = resolve_threads(cfg);
  return key;
}

HistoryKey Engine::history_key(const Plan& plan, index_t m, index_t n,
                               index_t k) const {
  return history_key_for(plan, m, n, k, cfg_);
}

void Engine::observe_execution(const ExecObservation& o,
                               const HistoryKey* hkey) {
  const double item_flops = 2.0 * static_cast<double>(o.m) *
                            static_cast<double>(o.n) *
                            static_cast<double>(o.k);
  double gflops = 0.0;
  if (o.seconds > 0.0 && item_flops > 0.0) {
    gflops =
        static_cast<double>(o.items) * item_flops / o.seconds * 1e-9;
    if (hkey != nullptr) history_.record(*hkey, gflops);
  }
  if (metrics_.enabled()) {
    if (gflops > 0.0) exec_gflops_->record(gflops);
    if (o.items > 1) batch_items_->record(static_cast<double>(o.items));
  }
  if (obs::trace_enabled()) {
    // The hook fires right after the timed window closes, so "now" is the
    // span's end to timer precision.
    const std::uint64_t end = obs::now_ns();
    const std::uint64_t dur =
        o.seconds > 0.0 ? static_cast<std::uint64_t>(o.seconds * 1e9) : 0;
    char arg[47];
    std::snprintf(arg, sizeof(arg), "%s %s %lldx%lldx%lld i=%zu", o.kernel,
                  dtype_name(o.dtype), static_cast<long long>(o.m),
                  static_cast<long long>(o.n), static_cast<long long>(o.k),
                  o.items);
    obs::trace_complete("executor.run", "executor", end > dur ? end - dur : 0,
                        end, arg);
  }
}

std::uint64_t Engine::request_start() const {
  return (obs::trace_enabled() || metrics_.enabled()) ? obs::now_ns() : 0;
}

void Engine::observe_request(const RequestInfo& r) {
  if (r.t0 == 0) return;  // neither tracing nor metrics capture was on
  const std::uint64_t end = obs::now_ns();
  if (metrics_.enabled()) {
    obs::Histogram* h = r.path == RequestPath::kExplicit ? lat_explicit_
                        : r.path == RequestPath::kAuto   ? lat_auto_
                                                         : lat_batch_;
    h->record(static_cast<double>(end - r.t0) * 1e-3);  // ns -> us
  }
  if (obs::trace_enabled()) {
    const char* name = r.path == RequestPath::kExplicit
                           ? "engine.request.explicit"
                       : r.path == RequestPath::kAuto ? "engine.request.auto"
                                                      : "engine.request.batch";
    char arg[47];
    std::snprintf(arg, sizeof(arg), "%lldx%lldx%lld items=%zu",
                  static_cast<long long>(r.m), static_cast<long long>(r.n),
                  static_cast<long long>(r.k), r.count);
    obs::trace_complete(name, "engine", r.t0, end, arg);
  }
}

Status Engine::save_history() {
  if (history_path_.empty()) {
    return Status::error(StatusCode::kInvalidArgument,
                         "no history path configured (Options::history_path "
                         "or FMM_HISTORY_CACHE)");
  }
  return history_.save(history_path_);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

Engine::CacheStats Engine::stats() const {
  // Compatibility view over the metrics registry: the counters moved
  // there, the shape of this struct did not.
  CacheStats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.evictions = evictions_->value();
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    s.entries = cache_.size();
  }
  s.choice_hits = choice_hits_->value();
  s.choice_misses = choice_misses_->value();
  s.choice_evictions = choice_evictions_->value();
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    s.choice_entries = choices_.size();
  }
  s.history_observations = history_.observations();
  s.history_keys = history_.size();
  s.history_hits = history_hits_->value();
  s.history_overrides = history_overrides_->value();
  s.recursive_runs = recursive_runs_->value();
  return s;
}

void Engine::refresh_gauges() {
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    metrics_.gauge("engine.cache.entries")
        .set(static_cast<std::int64_t>(cache_.size()));
  }
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    metrics_.gauge("engine.choice.entries")
        .set(static_cast<std::int64_t>(choices_.size()));
  }
  metrics_.gauge("engine.history.keys")
      .set(static_cast<std::int64_t>(history_.size()));
  metrics_.gauge("engine.history.observations")
      .set(static_cast<std::int64_t>(history_.observations()));
  metrics_.gauge("engine.recurse.free_buffers")
      .set(static_cast<std::int64_t>(recurse_buffers_.free_buffers()));
  metrics_.gauge("engine.recurse.outstanding")
      .set(static_cast<std::int64_t>(recurse_buffers_.outstanding()));
  metrics_.gauge("engine.recurse.peak_bytes")
      .set(static_cast<std::int64_t>(recurse_buffers_.peak_bytes()));
}

std::string Engine::metrics_report() {
  refresh_gauges();
  return metrics_.report_text();
}

std::string Engine::metrics_report_json() {
  refresh_gauges();
  return metrics_.report_json();
}

}  // namespace fmm

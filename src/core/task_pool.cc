#include "src/core/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace fmm {
namespace {

thread_local TaskPool* tls_pool = nullptr;
// Set when this worker's last task was a region helper.
thread_local bool tls_helped = false;

// How long a worker that has just helped a region polls for the next task
// before it sleeps.  A data-parallel multiply forks its regions back to
// back, and waking a sleeping thread costs tens of microseconds (more on a
// virtual CPU) per helper per region.  Other idle workers sleep at once,
// leaving the cores to the threads that feed the pool.
constexpr std::chrono::microseconds kHelperSpin{100};

// The pool host threads fork their regions onto.  The host thread is a
// region's first participant, so hardware concurrency minus one workers
// make a full-width team without a spare thread to wake.  Never destroyed:
// a region may run from any static destructor, and its idle workers end
// with the process.
TaskPool& host_pool() {
  static TaskPool* const pool = new TaskPool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return *pool;
}

// Raises a (loop << 32 | count) word to `base` unless a participant
// already has.
void advance_to(std::atomic<std::uint64_t>& word, std::uint64_t base) {
  std::uint64_t v = word.load(std::memory_order_acquire);
  while (v < base && !word.compare_exchange_weak(v, base,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fork-join regions.  One loop is open at a time: for_each returns only
// once its loop has completed, so loops complete in order.  Both loop words
// pack (loop number << 32 | count) and only grow, so a participant reads
// the state of any loop, however late it arrives, from the loop number.
// ---------------------------------------------------------------------------

struct Team::Region {
  static constexpr std::uint32_t kClosed = 1u << 31;
  static constexpr std::uint64_t kCount = (std::uint64_t{1} << 32) - 1;

  Region(RegionFn b, const void* c) : body(b), ctx(c) {}

  RegionFn body;
  const void* ctx;  // valid while the region is open
  std::atomic<int> next_slot{1};
  // Helpers inside the body, plus kClosed once the caller has left it.
  std::atomic<std::uint32_t> members{0};
  // The open loop and its next unclaimed index.
  std::atomic<std::uint64_t> claim{0};
  // The open loop and how many of its indices have run.
  std::atomic<std::uint64_t> finished{0};

  void participate() noexcept {
    std::uint32_t m = members.load(std::memory_order_acquire);
    do {
      if ((m & kClosed) != 0) return;  // the region ended before we started
    } while (!members.compare_exchange_weak(m, m + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire));
    Team team(this, next_slot.fetch_add(1, std::memory_order_relaxed));
    body(ctx, team);
    members.fetch_sub(1, std::memory_order_release);
    tls_helped = true;
  }

  // Bars new helpers, then waits for the joined ones to leave the body.
  void close() noexcept {
    std::uint32_t m = members.fetch_or(kClosed, std::memory_order_acq_rel);
    while ((m & ~kClosed) != 0) {
      std::this_thread::yield();
      m = members.load(std::memory_order_acquire);
    }
  }
};

void Team::run_loop(std::int64_t n, LoopFn fn, const void* ctx) {
  assert(n >= 0 && static_cast<std::uint64_t>(n) <= Region::kCount);
  Region& r = *region_;
  const std::uint64_t loop = loops_++;
  const std::uint64_t base = loop << 32;
  // Open the loop unless a participant already has.  This participant saw
  // the previous loop complete, so none of its indices can still run;
  // `finished` moves first so no index of this loop counts against it.
  advance_to(r.finished, base);
  advance_to(r.claim, base);

  std::uint64_t c = r.claim.load(std::memory_order_acquire);
  while (c >> 32 == loop && static_cast<std::int64_t>(c & Region::kCount) < n) {
    if (!r.claim.compare_exchange_weak(c, c + 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      continue;
    }
    fn(ctx, static_cast<std::int64_t>(c & Region::kCount));
    r.finished.fetch_add(1, std::memory_order_acq_rel);
    c = r.claim.load(std::memory_order_acquire);
  }
  // Every word change is a read-modify-write, so this acquire load
  // synchronizes with every participant's fetch_add before it.
  while (r.finished.load(std::memory_order_acquire) <
         base + static_cast<std::uint64_t>(n)) {
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Future state: one mutex/cv pair per future keeps resolution independent of
// the pool lock (a waiter never contends with the scheduler).  The tasks
// waiting on a future hang off its state, so they go when it goes.
// ---------------------------------------------------------------------------

struct TaskFuture::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  // Tasks submitted after this future, each counting it in `blockers`.
  std::vector<std::shared_ptr<TaskPool::Task>> waiters;
  // Joins the trace's flow arrows from the producer to its dependents.
  const std::uint64_t id = next_id++;

  static inline std::atomic<std::uint64_t> next_id{1};
};

bool TaskFuture::done() const {
  assert(valid());
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->done;
}

void TaskFuture::wait() const {
  assert(valid());
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
}

const Status& TaskFuture::status() const {
  wait();
  return state_->status;
}

TaskFuture TaskFuture::ready(Status status) {
  TaskFuture f = pending();
  f.state_->status = std::move(status);
  f.state_->done = true;
  return f;
}

TaskFuture TaskFuture::pending() {
  TaskFuture f;
  f.state_ = std::make_shared<State>();
  return f;
}

void TaskFuture::resolve(Status status) const {
  assert(valid());
  // From a task body, `now` lies inside that task's run span, which then
  // anchors the arrow to the tasks this releases.
  if (TaskPool::resolve(*state_, std::move(status)) && obs::trace_enabled()) {
    obs::trace_flow_start("dep", "pool", state_->id, obs::now_ns());
  }
}

// ---------------------------------------------------------------------------
// Pool internals.
// ---------------------------------------------------------------------------

struct TaskPool::Task {
  std::function<Status()> fn;
  Impl* pool = nullptr;
  int priority = 0;
  std::uint64_t seq = 0;  // FIFO tie-break within a priority level
  // Unresolved dependencies, plus one while submit_impl registers them.
  std::atomic<std::size_t> blockers{1};
  std::shared_ptr<TaskFuture::State> state;
  // Observability (stamped only while tracing or metrics capture is on):
  // when the task last became *ready* (queued runnable, all deps met), and
  // the dependencies' ids for the trace's flow arrows.
  std::uint64_t enqueue_ns = 0;
  std::vector<std::uint64_t> trace_deps;
};

struct TaskPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  // workers: ready task or stop
  std::condition_variable done_cv;  // wait_all
  bool stop = false;
  std::uint64_t next_seq = 0;
  std::uint64_t outstanding = 0;  // submitted, not yet finished
  std::vector<std::shared_ptr<Task>> ready;  // max-heap (priority, FIFO)
  // ready.size(), for idle workers to poll without the lock.
  std::atomic<std::size_t> ready_count{0};

  // Observability instruments (set_metrics; read under mu when a task is
  // popped, so workers always see a consistent attachment).
  obs::MetricsRegistry* metrics = nullptr;
  obs::Histogram* queue_wait = nullptr;  // ready -> running (us)
  obs::Counter* tasks_run = nullptr;

  // Max-heap order: highest priority first, earliest submission within.
  static bool heap_less(const std::shared_ptr<Task>& a,
                        const std::shared_ptr<Task>& b) {
    if (a->priority != b->priority) return a->priority < b->priority;
    return a->seq > b->seq;
  }

  void push_ready_locked(std::shared_ptr<Task> t) {
    // The queue-wait clock starts when the task becomes runnable — here —
    // not at submission: a dependency-blocked task is not "waiting for a
    // worker" yet.
    if (obs::trace_enabled() ||
        (metrics != nullptr && metrics->enabled())) {
      t->enqueue_ns = obs::now_ns();
    }
    ready.push_back(std::move(t));
    std::push_heap(ready.begin(), ready.end(), heap_less);
    ready_count.store(ready.size(), std::memory_order_relaxed);
  }

  std::shared_ptr<Task> pop_ready_locked() {
    std::pop_heap(ready.begin(), ready.end(), heap_less);
    std::shared_ptr<Task> t = std::move(ready.back());
    ready.pop_back();
    ready_count.store(ready.size(), std::memory_order_relaxed);
    return t;
  }
};

bool TaskPool::resolve(TaskFuture::State& state, Status status) {
  std::vector<std::shared_ptr<Task>> waiters;
  {
    std::lock_guard<std::mutex> lk(state.mu);
    assert(!state.done && "task future resolved twice");
    state.status = std::move(status);
    state.done = true;
    waiters.swap(state.waiters);
  }
  state.cv.notify_all();
  const bool waited_on = !waiters.empty();
  for (std::shared_ptr<Task>& w : waiters) unblock(std::move(w));
  return waited_on;
}

void TaskPool::unblock(std::shared_ptr<Task> task) {
  if (--task->blockers != 0) return;
  Impl& impl = *task->pool;
  {
    std::lock_guard<std::mutex> lk(impl.mu);
    impl.push_ready_locked(std::move(task));
  }
  impl.work_cv.notify_one();
}

int TaskPool::worker_count(int workers) {
  return std::max(1, workers > 0 ? workers
                                 : static_cast<int>(
                                       std::thread::hardware_concurrency()));
}

TaskPool::TaskPool(int workers) : impl_(std::make_unique<Impl>()) {
  const int n = worker_count(workers);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  wait_all();
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::run_region(int width, Team::RegionFn body,
                          const void* ctx) {
  TaskPool& pool = tls_pool != nullptr ? *tls_pool : host_pool();
  // At most the pool's other workers can run helpers beside the caller.
  const int others = pool.workers() - (tls_pool != nullptr ? 1 : 0);
  const int helpers = std::min(width - 1, others);
  if (helpers <= 0) {
    Team team;
    body(ctx, team);
    return;
  }
  auto region = std::make_shared<Team::Region>(body, ctx);
  for (int i = 0; i < helpers; ++i) {
    TaskOptions opts;
    opts.priority = std::numeric_limits<int>::max();
    pool.submit([region] { region->participate(); }, std::move(opts));
  }
  Team team(region.get(), 0);
  body(ctx, team);
  region->close();
}

bool TaskPool::on_worker_thread() { return tls_pool != nullptr; }

void TaskPool::set_metrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->metrics = registry;
  impl_->queue_wait =
      registry != nullptr ? &registry->histogram("pool.queue_wait", "us")
                          : nullptr;
  impl_->tasks_run =
      registry != nullptr ? &registry->counter("pool.tasks") : nullptr;
}

TaskFuture TaskPool::submit_impl(std::function<Status()> fn,
                                 TaskOptions opts) {
  auto task = std::make_shared<Task>();
  task->fn = std::move(fn);
  task->pool = impl_.get();
  task->priority = opts.priority;
  task->state = std::make_shared<TaskFuture::State>();
  TaskFuture future;
  future.state_ = task->state;

  // The ids of the dependencies the task waits on are kept for the trace's
  // flow arrows only while recording — the hot path carries no extra
  // allocation otherwise.
  const bool tracing = obs::trace_enabled();
  for (const TaskFuture& dep : opts.after) {
    if (!dep.valid()) continue;
    TaskFuture::State& ds = *dep.state_;
    std::lock_guard<std::mutex> lk(ds.mu);
    if (!ds.done) {
      ds.waiters.push_back(task);
      ++task->blockers;
      if (tracing) task->trace_deps.push_back(ds.id);
    }
  }

  bool queued = false;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    task->seq = impl_->next_seq++;
    ++impl_->outstanding;
    // Drop the registration count.  A dependency resolving meanwhile could
    // not queue the task; whichever count drops last does.
    if (--task->blockers == 0) {
      impl_->push_ready_locked(std::move(task));
      queued = true;
    }
  }
  if (queued) impl_->work_cv.notify_one();
  return future;
}

void TaskPool::worker_loop(int index) {
  tls_pool = this;
  if (obs::trace_enabled()) {
    char nm[32];
    std::snprintf(nm, sizeof(nm), "worker %d", index);
    obs::trace_thread_name(nm);
  }
  std::unique_lock<std::mutex> lk(impl_->mu);
  for (;;) {
    // An idle gap is a span too: it is the signal "the graph starved this
    // worker", which a run-spans-only trace cannot show.
    std::uint64_t idle_start = 0;
    const bool helped = std::exchange(tls_helped, false);
    if (impl_->ready.empty() && !impl_->stop) {
      if (obs::trace_enabled()) idle_start = obs::now_ns();
      if (helped) {
        lk.unlock();
        const auto until = std::chrono::steady_clock::now() + kHelperSpin;
        while (impl_->ready_count.load(std::memory_order_relaxed) == 0 &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
        lk.lock();
      }
    }
    impl_->work_cv.wait(lk, [&] { return impl_->stop || !impl_->ready.empty(); });
    if (idle_start != 0 && obs::trace_enabled()) {
      obs::trace_complete("worker.idle", "pool", idle_start, obs::now_ns(),
                          "", index);
    }
    if (impl_->ready.empty()) {
      if (impl_->stop) return;
      continue;
    }
    std::shared_ptr<Task> task = impl_->pop_ready_locked();
    // Instrument attachment is read under the lock: a consistent snapshot
    // even if set_metrics races a draining pool.
    obs::Histogram* qw =
        (impl_->metrics != nullptr && impl_->metrics->enabled())
            ? impl_->queue_wait
            : nullptr;
    obs::Counter* tr = impl_->tasks_run;
    lk.unlock();

    const bool tracing = obs::trace_enabled();
    std::uint64_t run_start = 0;
    if (task->enqueue_ns != 0 && (tracing || qw != nullptr)) {
      run_start = obs::now_ns();
      if (qw != nullptr) {
        qw->record(static_cast<double>(run_start - task->enqueue_ns) * 1e-3);
      }
      if (tracing) {
        obs::trace_complete("task.wait", "pool", task->enqueue_ns, run_start,
                            "", index);
      }
    }
    if (tracing && run_start == 0) run_start = obs::now_ns();

    Status status = run_guarded(task->fn);
    task->fn = nullptr;  // release captures before dependents observe done
    if (tr != nullptr) tr->add();

    std::uint64_t run_end = 0;
    if (tracing && run_start != 0 && obs::trace_enabled()) {
      run_end = obs::now_ns();
      obs::trace_complete("task.run", "pool", run_start, run_end, "", index);
      // Flow arrows: each dependency this task consumed binds to this run
      // slice (timestamps inside the slice anchor the arrow endpoints);
      // the producing side is emitted at the producer's run end below.
      for (std::uint64_t dep : task->trace_deps) {
        obs::trace_flow_end("dep", "pool", dep, run_start);
      }
    }

    // The future resolves *before* its waiters are released: a dependent
    // task always observes its dependency's future done.
    if (resolve(*task->state, std::move(status)) && run_end != 0) {
      obs::trace_flow_start("dep", "pool", task->state->id, run_end);
    }
    task.reset();  // the future's state is now its handles' alone

    lk.lock();
    --impl_->outstanding;
    impl_->done_cv.notify_all();
  }
}

void TaskPool::wait_all() {
  // A worker draining its own pool inside a task would deadlock (it can
  // never finish the task it is running); the engine never does this, and
  // the assert catches anyone who tries.
  assert(tls_pool != this && "wait_all() from a task of the same pool");
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->done_cv.wait(lk, [&] { return impl_->outstanding == 0; });
}

}  // namespace fmm

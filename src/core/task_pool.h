#pragma once

// A small dependency-driven task runtime — the execution substrate for
// asynchronous serving (engine.h), the recursive descent (recursive.h) and
// dataflow examples.
//
// After StarPU (the system Benson & Ballard built their parallel FMM
// framework on, and the paper's §6 names as the task-parallel comparison):
// a *task* is a callable plus the futures it runs **after** and a
// **priority**.  Tasks whose dependencies have resolved sit in a priority
// FIFO (higher priority first, submission order breaking ties); a fixed set
// of std::thread workers drains it.  The same workers also carry the data
// parallelism inside one task: parallel_region() forks a team from the
// calling worker onto its own pool (paper §5.1's i_c-loop schedule runs on
// it), and a worker that has just helped a region polls ~100 us for the
// next one before it sleeps.
//
// Dependency rules — the one dependency handle is the TaskFuture that
// submit() returns:
//   * A task runs once every future in its `after` list has resolved,
//     whatever their Status.  A task that must not act on a failed input
//     reads that input's status() (resolved, so it does not block).
//   * A future that has already resolved (TaskFuture::ready included) is
//     met at once; an invalid (default-constructed) one is no dependency.
//   * A future resolves first, then releases the tasks waiting on it, so a
//     dependent always observes its dependencies done.
//   * TaskFuture::pending() is a future no task owns, settled exactly once
//     by resolve(): it stands in for work whose tasks are submitted later,
//     so a graph can be submitted in dependency order.  A task after a
//     pending future that is never resolved never runs (and wait_all()
//     waits for it).
//   * A future's state, its waiter list included, is freed with its last
//     handle: the pool keeps nothing per finished task.
//
// Queued or inline: submit_to(pool, fn, opts) is pool->submit(fn, opts),
// and with a null pool runs fn on the caller at submission.  A graph
// submitted in dependency order therefore runs two ways from the same code
// — on a pool's workers, or on its caller walking the tasks in submission
// order — with the same tasks, dependencies and per-task results.  The Engine
// runs a request inline when it is made from any pool's worker.
//
// Lifecycle: wait_all() blocks until every submitted task (including ones
// submitted by running tasks while draining) has finished.  The destructor
// wait_all()s then joins — destroying a pool with tasks in flight is safe
// and drains them.  Queued region helpers are tasks like any other:
// wait_all() covers them.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace fmm {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// fn()'s Status, with an exception escaping fn turned into kInvalidArgument
// ("task body threw: ...").  A task body that throws resolves its future
// with this Status, queued or inline (submit_to), so a task fails the same
// way wherever it runs.
template <typename F>
Status run_guarded(F&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string("task body threw: ") + e.what());
  } catch (...) {
    return Status::error(StatusCode::kInvalidArgument,
                         "task body threw a non-std exception");
  }
}

// The result handle of a submitted task: resolves exactly once, with the
// Status the task body returned (Status{} for void bodies, the error for
// bodies that threw).  Copyable; all copies share one state.  A
// default-constructed future is invalid.
class TaskFuture {
 public:
  TaskFuture() = default;

  bool valid() const { return state_ != nullptr; }
  // True once the task finished (non-blocking poll).
  bool done() const;
  // Blocks until the task finishes.
  void wait() const;
  // wait(), then the task's Status.
  const Status& status() const;

  // An already-resolved future (validation errors on the submit path).
  static TaskFuture ready(Status status);
  // A future no task owns; resolve() settles it.
  static TaskFuture pending();
  // Settles a pending() future and releases the tasks waiting on it.  Once
  // per pending future (a second call asserts); never on a task's future.
  void resolve(Status status) const;

 private:
  friend class TaskPool;
  struct State;
  std::shared_ptr<State> state_;
};

struct TaskOptions {
  std::vector<TaskFuture> after;  // must resolve before the task runs
  int priority = 0;               // higher runs earlier; FIFO within equal
};

// One participant's handle on a fork-join region (TaskPool::
// parallel_region): its slot and the region's worksharing loop.
class Team {
 public:
  // This participant's index in [0, width): 0 is the caller, helpers take
  // 1, 2, ... as they join.  Fixed for the whole region, so it can index
  // per-participant scratch.
  int slot() const { return slot_; }

  // Runs fn(i) for every i in [0, n) exactly once across the participants
  // that reach this loop, each claiming the next unclaimed index, and
  // returns once all n have run (the barrier that publishes their writes
  // to every participant).  Every participant meets the region's loops in
  // the same order; one that joins late passes through the loops that have
  // already completed.  A participant may skip the region's trailing
  // loops.  n < 2^32.
  template <typename F>
  void for_each(std::int64_t n, const F& fn) {
    if (region_ == nullptr) {
      for (std::int64_t i = 0; i < n; ++i) fn(i);
      return;
    }
    run_loop(
        n, [](const void* f, std::int64_t i) { (*static_cast<const F*>(f))(i); },
        &fn);
  }

 private:
  friend class TaskPool;
  struct Region;
  using LoopFn = void (*)(const void*, std::int64_t);
  using RegionFn = void (*)(const void*, Team&) noexcept;

  Team() = default;  // the width-1 team: loops run inline
  Team(Region* region, int slot) : region_(region), slot_(slot) {}
  void run_loop(std::int64_t n, LoopFn fn, const void* ctx);

  Region* region_ = nullptr;
  int slot_ = 0;
  std::uint64_t loops_ = 0;  // loops this participant has met
};

class TaskPool {
 public:
  // worker_count(workers) threads.
  explicit TaskPool(int workers = 0);
  // The threads TaskPool(workers) starts: `workers`, or hardware
  // concurrency for 0; at least 1.
  static int worker_count(int workers);
  // Drains every submitted task, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Submits a callable returning Status or void.  Runs as soon as a worker
  // is free and every future in opts.after has resolved.
  template <typename F>
  TaskFuture submit(F&& fn, TaskOptions opts = TaskOptions{}) {
    return submit_impl(as_status_fn(std::forward<F>(fn)), std::move(opts));
  }

  // The one spelling of "where a task goes": pool->submit(fn, opts), or,
  // when `pool` is null, fn run now on the calling thread under
  // run_guarded, returning its already-resolved future.  An inline run
  // requires every future in opts.after to have resolved (asserted in
  // debug builds) — a graph submitted in dependency order meets this, so
  // running it inline runs its tasks in submission order.  Inline runs
  // ignore the priority and record no pool spans, flows or metrics.
  template <typename F>
  static TaskFuture submit_to(TaskPool* pool, F&& fn,
                              TaskOptions opts = TaskOptions{}) {
    if (pool != nullptr) {
      return pool->submit(std::forward<F>(fn), std::move(opts));
    }
    assert(std::all_of(opts.after.begin(), opts.after.end(),
                       [](const TaskFuture& f) {
                         return !f.valid() || f.done();
                       }) &&
           "inline task submitted before its dependencies resolved");
    return TaskFuture::ready(run_guarded(as_status_fn(std::forward<F>(fn))));
  }

  // Blocks until no task is queued, blocked, or running (a task that
  // submits more work extends the wait — the drain covers the new tasks).
  void wait_all();

  // Attaches a metrics registry (src/obs/metrics.h): the pool then records
  // a per-task queue-wait histogram ("pool.queue_wait", ready -> running)
  // and a tasks-run counter ("pool.tasks").  Call before the pool is
  // shared — the engine wires this up before publishing its pool; not
  // synchronized against concurrently running tasks.  nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

  int workers() const { return static_cast<int>(threads_.size()); }

  // Fork-join: runs body(team) on the calling thread plus up to width - 1
  // helper tasks, queued at top priority on the pool the caller works for
  // (host threads share one lazily created process-wide pool of hardware
  // concurrency minus one workers).  Returns once every participant that
  // joined has left the body.  It never waits for a helper that has not
  // started: when every other worker is busy the caller runs the region
  // alone, and a helper that starts after the region has ended returns at
  // once.  Width <= 1 runs the body inline with no task and no allocation.
  // The body must not throw: an exception escaping it terminates the
  // process.
  template <typename F>
  static void parallel_region(int width, const F& body) {
    if (width <= 1) {
      Team team;
      body(team);
      return;
    }
    run_region(
        width,
        [](const void* b, Team& team) noexcept {
          (*static_cast<const F*>(b))(team);
        },
        &body);
  }

  // True when the calling thread is a worker of *any* TaskPool — the
  // engine then submits a request's tasks inline (submit_to with a null
  // pool) instead of queueing them: a task blocking on another task's
  // future could deadlock a fully busy pool.
  static bool on_worker_thread();

 private:
  friend class TaskFuture;
  struct Task;
  struct Impl;

  // A body returning void becomes one returning Status{}.
  template <typename F>
  static auto as_status_fn(F&& fn) {
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      return [f = std::forward<F>(fn)]() mutable {
        f();
        return Status{};
      };
    } else {
      return std::forward<F>(fn);
    }
  }

  static void run_region(int width, Team::RegionFn body, const void* ctx);
  // Publishes a future's Status, then releases the tasks waiting on it;
  // true when any was.
  static bool resolve(TaskFuture::State& state, Status status);
  // Drops one of the task's blocking counts; the last one queues it.
  static void unblock(std::shared_ptr<Task> task);

  TaskFuture submit_impl(std::function<Status()> fn, TaskOptions opts);
  void worker_loop(int index);

  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> threads_;
};

}  // namespace fmm

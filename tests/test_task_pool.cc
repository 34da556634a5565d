// TaskPool — the dependency-driven runtime under Engine::submit, the
// recursive descent and the fork-join regions under the fused loop nest.
// Covers execution and future resolution, future dependencies (pending,
// resolved, failed, fan-in, chains), the priority FIFO, destruction with
// tasks in flight, concurrent submission from many host threads, and
// parallel_region's loops, slots, late joiners and busy pools (the TSan CI
// leg runs every TaskPool* suite).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/task_pool.h"
#include "src/obs/metrics.h"

namespace fmm {
namespace {

// ---------------------------------------------------------------------------
// Basics: execution, futures, status propagation.
// ---------------------------------------------------------------------------

TEST(TaskPoolBasic, RunsTaskAndResolvesFuture) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskFuture f = pool.submit([&] { ran.fetch_add(1); });
  ASSERT_TRUE(f.valid());
  EXPECT_TRUE(f.status().ok());  // status() waits
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(f.done());
}

TEST(TaskPoolBasic, StatusReturningBodyPropagates) {
  TaskPool pool(1);
  TaskFuture ok = pool.submit([] { return Status{}; });
  TaskFuture bad = pool.submit(
      [] { return Status::error(StatusCode::kInvalidShape, "boom"); });
  EXPECT_TRUE(ok.status().ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidShape);
}

TEST(TaskPoolBasic, ThrowingBodyBecomesErrorStatus) {
  TaskPool pool(1);
  TaskFuture f =
      pool.submit([]() -> Status { throw std::runtime_error("kaput"); });
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(f.status().to_string().find("kaput"), std::string::npos);
}

TEST(TaskPoolBasic, ReadyFutureIsImmediatelyDone) {
  TaskFuture f = TaskFuture::ready(Status{});
  EXPECT_TRUE(f.valid());
  EXPECT_TRUE(f.done());
  EXPECT_TRUE(f.status().ok());
  TaskFuture invalid;
  EXPECT_FALSE(invalid.valid());
}

TEST(TaskPoolBasic, WaitAllDrainsEverything) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.wait_all();
  EXPECT_EQ(ran.load(), 64);
  pool.wait_all();  // idempotent on an empty pool
}

TEST(TaskPoolBasic, WorkerIndexIsStableAndInRange) {
  TaskPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  EXPECT_FALSE(TaskPool::on_worker_thread());
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] { EXPECT_TRUE(TaskPool::on_worker_thread()); });
  }
  pool.wait_all();
}

// ---------------------------------------------------------------------------
// Future dependencies.
// ---------------------------------------------------------------------------

TEST(TaskPoolDeps, DependentRunsAfterDependency) {
  TaskPool pool(4);
  std::atomic<int> stage{0};
  TaskFuture dep = pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stage.store(1);
  });
  TaskFuture f = pool.submit([&] {
    // The dependency fully finished before this task started.
    EXPECT_EQ(stage.load(), 1);
    stage.store(2);
  }, TaskOptions{{dep}});
  EXPECT_TRUE(f.status().ok());
  EXPECT_EQ(stage.load(), 2);
}

// A forward reference: the dependent is submitted after a pending future
// that stands in for work no task has been submitted for yet.
TEST(TaskPoolDeps, DependencySubmittedLater) {
  TaskPool pool(2);
  std::atomic<int> stage{0};
  TaskFuture later = TaskFuture::pending();
  TaskFuture f =
      pool.submit([&] { stage.fetch_add(10); }, TaskOptions{{later}});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(f.done());
  EXPECT_EQ(stage.load(), 0);
  pool.submit([&, later] {
    stage.fetch_add(1);
    later.resolve(Status{});
  });
  EXPECT_TRUE(f.status().ok());
  EXPECT_EQ(stage.load(), 11);
  EXPECT_TRUE(later.done());
}

TEST(TaskPoolDeps, CompletedTagSatisfiesImmediately) {
  // Futures that resolved before the dependent was submitted — a task's,
  // a pending one's and TaskFuture::ready's — are met at once.
  TaskPool pool(2);
  TaskFuture ran = pool.submit([] {});
  pool.wait_all();
  TaskFuture settled = TaskFuture::pending();
  settled.resolve(Status{});
  TaskFuture f = pool.submit([] {}, TaskOptions{{ran, settled,
                                                 TaskFuture::ready(Status{})}});
  EXPECT_TRUE(f.status().ok());
}

TEST(TaskPoolDeps, FailedDependencyStillReleasesItsDependents) {
  // The pool does not judge a dependency's Status: the dependent runs and
  // reads it.
  TaskPool pool(2);
  TaskFuture bad = pool.submit(
      [] { return Status::error(StatusCode::kInvalidShape, "bad input"); });
  TaskFuture thrown =
      pool.submit([]() -> Status { throw std::runtime_error("kaput"); });
  TaskFuture failed = TaskFuture::pending();
  failed.resolve(Status::error(StatusCode::kAliasing, "overlap"));
  TaskFuture fin = pool.submit(
      [bad, thrown, failed] {
        EXPECT_EQ(bad.status().code(), StatusCode::kInvalidShape);
        EXPECT_EQ(thrown.status().code(), StatusCode::kInvalidArgument);
        return failed.status();
      },
      TaskOptions{{bad, thrown, failed}});
  EXPECT_EQ(fin.status().code(), StatusCode::kAliasing);
}

TEST(TaskPoolDeps, FanInWaitsForEveryDependency) {
  TaskPool pool(4);
  constexpr int kDeps = 8;
  std::atomic<int> done{0};
  std::vector<TaskFuture> gates, deps;
  for (int i = 0; i < kDeps; ++i) {
    gates.push_back(TaskFuture::pending());
    deps.push_back(pool.submit(
        [&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          done.fetch_add(1);
        },
        TaskOptions{{gates.back()}}));
  }
  TaskFuture fin = pool.submit([&] {
    EXPECT_EQ(done.load(), kDeps);  // all dependencies fully ran
  }, TaskOptions{deps});
  // Open the gates in reverse: the last dependency to finish is the first.
  for (int i = kDeps - 1; i >= 0; --i) {
    gates[static_cast<std::size_t>(i)].resolve(Status{});
  }
  EXPECT_TRUE(fin.status().ok());
}

TEST(TaskPoolDeps, DependentObservesDependencyFutureResolved) {
  TaskPool pool(4);
  for (int round = 0; round < 50; ++round) {
    TaskFuture dep_future = pool.submit([] {});
    TaskFuture f = pool.submit([dep_future] {
      // The runtime resolves a task's future before releasing its
      // successors; a dependent must never observe it pending.
      EXPECT_TRUE(dep_future.done());
      EXPECT_TRUE(dep_future.status().ok());
    }, TaskOptions{{dep_future}});
    EXPECT_TRUE(f.status().ok());
  }
}

TEST(TaskPoolDeps, ChainRunsInOrder) {
  TaskPool pool(4);
  constexpr int kLen = 32;
  std::vector<int> order;
  std::mutex mu;
  TaskFuture prev;
  for (int i = 0; i < kLen; ++i) {
    TaskOptions o;
    if (prev.valid()) o.after = {prev};
    prev = pool.submit([&, i] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
    }, o);
  }
  prev.wait();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kLen));
  for (int i = 0; i < kLen; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// Priority FIFO.
// ---------------------------------------------------------------------------

TEST(TaskPoolPriority, HigherPriorityRunsFirstFifoWithin) {
  // One worker, held busy while the queue fills: the drain order then
  // exposes the scheduling policy exactly.
  TaskPool pool(1);
  std::atomic<bool> started{false}, release{false};
  pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();

  std::vector<int> order;
  std::mutex mu;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(id);
  };
  // Submission order: low(0), high(10), low(1), high(11), mid(20).
  TaskOptions lo, hi, mid;
  lo.priority = 0;
  hi.priority = 2;
  mid.priority = 1;
  pool.submit([&] { record(0); }, lo);
  pool.submit([&] { record(10); }, hi);
  pool.submit([&] { record(1); }, lo);
  pool.submit([&] { record(11); }, hi);
  pool.submit([&] { record(20); }, mid);
  release.store(true);
  pool.wait_all();
  // Priority descending, FIFO within a level.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 0, 1}));
}

// ---------------------------------------------------------------------------
// Destruction.
// ---------------------------------------------------------------------------

TEST(TaskPoolLifecycle, DestructionDrainsInFlightTasks) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      });
    }
    // No wait_all: the destructor must drain, not drop.
  }
  EXPECT_EQ(ran.load(), 32);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan food).
// ---------------------------------------------------------------------------

TEST(TaskPoolConcurrency, ManySubmittersSharedPool) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kThreads = 8, kPerThread = 200;
  std::vector<std::thread> hosts;
  for (int t = 0; t < kThreads; ++t) {
    hosts.emplace_back([&] {
      std::vector<TaskFuture> fs;
      for (int i = 0; i < kPerThread; ++i) {
        fs.push_back(pool.submit([&] { ran.fetch_add(1); }));
      }
      for (auto& f : fs) EXPECT_TRUE(f.status().ok());
    });
  }
  for (auto& h : hosts) h.join();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

TEST(TaskPoolConcurrency, ConcurrentChainsInterleave) {
  TaskPool pool(4);
  constexpr int kChains = 6, kLen = 40;
  std::vector<std::atomic<int>> progress(kChains);
  for (auto& p : progress) p.store(0);
  std::vector<std::thread> hosts;
  for (int c = 0; c < kChains; ++c) {
    hosts.emplace_back([&, c] {
      TaskFuture prev;
      for (int i = 0; i < kLen; ++i) {
        TaskOptions o;
        if (prev.valid()) o.after = {prev};
        prev = pool.submit([&, c, i] {
          // In-order execution within each chain.
          EXPECT_EQ(progress[static_cast<std::size_t>(c)].load(), i);
          progress[static_cast<std::size_t>(c)].store(i + 1);
        }, o);
      }
      prev.wait();
    });
  }
  for (auto& h : hosts) h.join();
  for (auto& p : progress) EXPECT_EQ(p.load(), kLen);
}

// ---------------------------------------------------------------------------
// Fork-join regions.
// ---------------------------------------------------------------------------

// Runs `loops` worksharing loops of sizes 0, 1, 2, ... (mod 97) in one
// region.  Loop l writes out[l][i] = out[l - 1][(i + 1) % n_{l-1}] + i, so
// every loop reads what other participants wrote in the loop before it.
// Returns whether every index ran exactly once with the right value; the
// slots that took part land in `slots`.
bool run_checked_region(int width, int loops, std::set<int>* slots) {
  auto size_of = [](int l) { return static_cast<std::int64_t>(l % 97); };
  std::vector<std::vector<long>> out(static_cast<std::size_t>(loops));
  std::vector<std::vector<std::atomic<int>>> runs(
      static_cast<std::size_t>(loops));
  for (int l = 0; l < loops; ++l) {
    out[static_cast<std::size_t>(l)].assign(
        static_cast<std::size_t>(size_of(l)), 0);
    runs[static_cast<std::size_t>(l)] =
        std::vector<std::atomic<int>>(static_cast<std::size_t>(size_of(l)));
  }
  std::mutex mu;
  TaskPool::parallel_region(width, [&](Team& team) {
    {
      std::lock_guard<std::mutex> lk(mu);
      EXPECT_TRUE(slots->insert(team.slot()).second) << "slot reused";
    }
    for (int l = 0; l < loops; ++l) {
      const std::size_t lu = static_cast<std::size_t>(l);
      team.for_each(size_of(l), [&](std::int64_t i) {
        const std::size_t iu = static_cast<std::size_t>(i);
        runs[lu][iu].fetch_add(1);
        long prev = 0;
        if (l > 0 && !out[lu - 1].empty()) {
          prev = out[lu - 1][(iu + 1) % out[lu - 1].size()];
        }
        out[lu][iu] = prev + i;
      });
    }
  });
  // The serial replay of the same recurrence.
  std::vector<long> want_prev;
  for (int l = 0; l < loops; ++l) {
    const std::size_t lu = static_cast<std::size_t>(l);
    std::vector<long> want(static_cast<std::size_t>(size_of(l)));
    for (std::size_t i = 0; i < want.size(); ++i) {
      const long prev =
          want_prev.empty() ? 0 : want_prev[(i + 1) % want_prev.size()];
      want[i] = prev + static_cast<long>(i);
      if (runs[lu][i].load() != 1 || out[lu][i] != want[i]) return false;
    }
    want_prev = std::move(want);
  }
  for (int slot : *slots) {
    if (slot < 0 || slot >= width) return false;
  }
  return true;
}

TEST(TaskPoolRegion, EveryIndexRunsOnceOnDistinctSlots) {
  // From a pool task (helpers on that pool) and from a host thread (the
  // process-wide pool).
  TaskPool pool(4);
  for (int width : {2, 4, 16}) {
    std::set<int> slots;
    bool ok = false;
    pool.submit([&] { ok = run_checked_region(width, 300, &slots); })
        .wait();
    EXPECT_TRUE(ok) << "width " << width;
    EXPECT_TRUE(slots.count(0)) << "the caller is slot 0";
    std::set<int> host_slots;
    EXPECT_TRUE(run_checked_region(width, 300, &host_slots))
        << "host, width " << width;
  }
}

TEST(TaskPoolRegion, CompletesOnTheCallerWhileEveryOtherWorkerWaits) {
  TaskPool pool(4);
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 3; ++i) {
    pool.submit([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (parked.load() < 3) std::this_thread::yield();
  std::set<int> slots;
  bool ok = false;
  TaskFuture region =
      pool.submit([&] { ok = run_checked_region(4, 200, &slots); });
  // The latch opens only after the region has returned.
  EXPECT_TRUE(region.status().ok());
  EXPECT_TRUE(ok);
  EXPECT_EQ(slots, std::set<int>{0});
  release.store(true);
  pool.wait_all();  // the queued helpers start now and find nothing to do
}

TEST(TaskPoolRegion, LateHelperPassesThroughCompletedLoops) {
  TaskPool pool(2);
  std::atomic<bool> parked{false}, release{false}, joined{false};
  pool.submit([&] {
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  constexpr int kLoops = 1200, kLate = 1000, kN = 64;
  std::vector<std::vector<int>> out(kLoops, std::vector<int>(kN, -1));
  std::atomic<int> helper_runs{0};
  pool.submit([&] {
        TaskPool::parallel_region(2, [&](Team& team) {
          if (team.slot() != 0) joined.store(true);
          for (int l = 0; l < kLoops; ++l) {
            team.for_each(kN, [&](std::int64_t i) {
              const int prev = l == 0 ? 0 : out[l - 1][(i + 1) % kN];
              out[l][i] = prev + 1;
              if (team.slot() != 0) helper_runs.fetch_add(1);
              // After kLate loops have completed, free the other worker,
              // and hold this index until the helper has run one of the
              // next loop's: it must have passed through all kLate.
              if (l == kLate && i == 0 && team.slot() == 0) {
                release.store(true);
                while (!joined.load()) std::this_thread::yield();
              }
              if (l == kLate + 1 && team.slot() == 0) {
                while (helper_runs.load() == 0) std::this_thread::yield();
              }
            });
          }
        });
      })
      .wait();
  EXPECT_TRUE(joined.load());
  EXPECT_GT(helper_runs.load(), 0);
  for (int l = 0; l < kLoops; ++l) {
    for (int i = 0; i < kN; ++i) ASSERT_EQ(out[l][i], l + 1) << l << "," << i;
  }
}

TEST(TaskPoolRegion, WidthOneSubmitsNoTask) {
  obs::MetricsRegistry metrics;
  TaskPool pool(2);
  pool.set_metrics(&metrics);
  const obs::Counter& tasks = metrics.counter("pool.tasks");
  int sum = 0;
  std::thread::id body_thread;
  pool.submit([&] {
        const std::thread::id caller = std::this_thread::get_id();
        TaskPool::parallel_region(1, [&](Team& team) {
          body_thread = std::this_thread::get_id();
          EXPECT_EQ(team.slot(), 0);
          team.for_each(10, [&](std::int64_t i) { sum += static_cast<int>(i); });
        });
        EXPECT_EQ(body_thread, caller);
      })
      .wait();
  pool.wait_all();
  EXPECT_EQ(sum, 45);
  EXPECT_EQ(tasks.value(), 1u);  // the outer task only
}

TEST(TaskPoolRegion, ConcurrentRegionsFromSeveralWorkersAllFinish) {
  TaskPool pool(4);
  constexpr int kRegions = 8;
  std::vector<TaskFuture> fs;
  std::vector<int> ok(kRegions, 0);
  for (int r = 0; r < kRegions; ++r) {
    fs.push_back(pool.submit([&ok, r] {
      std::set<int> slots;
      ok[static_cast<std::size_t>(r)] = run_checked_region(4, 150, &slots);
    }));
  }
  for (auto& f : fs) EXPECT_TRUE(f.status().ok());
  for (int r = 0; r < kRegions; ++r) EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << r;
}

}  // namespace
}  // namespace fmm

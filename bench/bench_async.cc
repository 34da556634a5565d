// Async serving: Engine::submit against the synchronous PR-5 paths on
// mixed-shape traffic.
//
//   mix      — one cross-shape batch (G shape groups interleaved
//              round-robin, K items per group) submitted as a single
//              BatchSpec.  multiply() runs the groups sequentially; the
//              async path fans every group out to its cached executor as
//              an independent task, so groups overlap across pool workers.
//   pipeline — G independent shared-B batches.  The synchronous loop
//              drains each batch before starting the next; submit() queues
//              all G and wait_all() drains them together, so one batch's
//              B~ packing overlaps another's items.
//
// The serving configuration is the interesting one: each multiply runs
// single-threaded (num_threads = 1) and all parallelism comes from the
// task pool fanning out across groups/batches — exactly how a server
// handles concurrent small requests.  The claim: on a multi-core host the
// async mix path is >= 1.2x the sequential group loop, with bitwise
// identical results per item.  On a single hardware thread the two paths
// collapse to the same schedule and the ratio sits at ~1.0.
//
// Reported numbers are aggregate effective GFLOPS (sum of 2*m*n*k over
// the items / time); higher is better.
//
// A second table tracks the online performance model: the same auto-path
// workload through a cold engine (empty history, analytic decisions only)
// and a warm engine that loaded the history file the cold run saved
// (--history-file).  The warm rows also report how many rankings consulted
// measured data (hist_hits) — on a warm start that count is the signal
// that the persisted model actually engaged.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"

using namespace fmm;
using namespace fmm::bench;

namespace {

// Operands for G shape groups of K square items each, interleaved
// round-robin so the mixed batch exercises arrival-order grouping.
struct MixedOperands {
  std::vector<Matrix> as, bs, cs;
  std::vector<BatchItem> items;
  double flops = 0;

  MixedOperands(const std::vector<index_t>& sizes, int per_group) {
    const int groups = static_cast<int>(sizes.size());
    for (int i = 0; i < per_group; ++i) {
      for (int g = 0; g < groups; ++g) {
        const index_t s = sizes[static_cast<std::size_t>(g)];
        as.push_back(Matrix::random(s, s, 200 + 7 * (i * groups + g)));
        bs.push_back(Matrix::random(s, s, 201 + 7 * (i * groups + g)));
        cs.push_back(Matrix::zero(s, s));
        flops += 2.0 * static_cast<double>(s) * s * s;
      }
    }
    for (std::size_t i = 0; i < cs.size(); ++i) {
      items.push_back({cs[i].view(), as[i].view(), bs[i].view()});
    }
  }

  void zero_outputs() {
    for (auto& c : cs) std::memset(c.data(), 0, sizeof(double) * c.rows() * c.cols());
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Options opts = parse_common(cli);
  const std::string history_file = cli.get_string(
      "history-file", "bench_history_cache.txt",
      "persistence file for the cold/warm online-model scenario");
  cli.finish();

  // Serving configuration: serial multiplies, pool-level parallelism.
  GemmConfig cfg;
  cfg.num_threads = 1;
  Engine::Options eopts;
  eopts.config = cfg;
  Engine engine(eopts);

  const Plan plan = make_plan({catalog::best(2, 2, 2)}, Variant::kABC);
  const std::vector<index_t> sizes =
      opts.smoke ? std::vector<index_t>{64, 96, 128, 160}
                 : std::vector<index_t>{64, 96, 128, 160, 192, 256};
  const std::vector<int> per_group =
      opts.smoke ? std::vector<int>{4} : std::vector<int>{4, 16};
  const int reps = opts.smoke ? 3 : std::max(3, opts.reps);

  std::printf("Async serving: submit() vs the sequential multiply() paths\n");
  std::printf("%s, %d shape groups, multiplies serial, pool workers = all "
              "cores\n", plan.name().c_str(), static_cast<int>(sizes.size()));
  std::printf("(aggregate effective GFLOPS; higher is better)\n\n");

  TablePrinter table({"scenario", "G", "K", "seq", "async", "async/seq"});
  bool bitwise_ok = true;
  double mix_speedup = 0;

  for (int kb : per_group) {
    // ---- mix: one cross-shape batch vs the sequential group loop -------
    MixedOperands mx(sizes, kb);

    // Reference: per-item synchronous multiplies (the bitwise baseline).
    MixedOperands ref(sizes, kb);
    for (const auto& it : ref.items) engine.multiply(plan, it.c, it.a, it.b);

    // Sequential PR-5 path: one multiply() per shape group, in order.
    const int groups = static_cast<int>(sizes.size());
    auto run_seq = [&] {
      for (int g = 0; g < groups; ++g) {
        std::vector<BatchItem> group;
        for (std::size_t i = static_cast<std::size_t>(g); i < mx.items.size();
             i += static_cast<std::size_t>(groups)) {
          group.push_back(mx.items[i]);
        }
        engine.multiply(plan, BatchSpec::items(group));
      }
    };
    mx.zero_outputs();
    run_seq();
    const double t_seq = best_time_of(reps, [&] {
      mx.zero_outputs();
      run_seq();
    });

    // Async path: the whole mixed batch in one submit; the engine fans the
    // shape groups out as independent tasks.
    mx.zero_outputs();
    TaskFuture f = engine.submit(plan, BatchSpec::items(mx.items));
    if (!f.status().ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   f.status().to_string().c_str());
      return 1;
    }
    for (std::size_t i = 0; i < mx.cs.size(); ++i) {
      const Matrix& got = mx.cs[i];
      const Matrix& want = ref.cs[i];
      if (std::memcmp(got.data(), want.data(),
                      sizeof(double) * got.rows() * got.cols()) != 0) {
        bitwise_ok = false;
      }
    }
    const double t_async = best_time_of(reps, [&] {
      mx.zero_outputs();
      engine.submit(plan, BatchSpec::items(mx.items)).status();
    });

    mix_speedup = t_seq / t_async;
    table.add_row({"mix", TablePrinter::fmt((long long)groups),
                   TablePrinter::fmt((long long)kb),
                   TablePrinter::fmt(mx.flops / t_seq * 1e-9, 1),
                   TablePrinter::fmt(mx.flops / t_async * 1e-9, 1),
                   TablePrinter::fmt(mix_speedup, 2)});

    // ---- pipeline: G independent shared-B batches ----------------------
    const index_t s = 128;
    std::vector<MixedOperands> batches;
    for (int g = 0; g < groups; ++g) {
      batches.emplace_back(std::vector<index_t>{s}, kb);
    }
    const double pflops = static_cast<double>(groups) * batches[0].flops;
    auto run_pipe_seq = [&] {
      for (auto& b : batches) engine.multiply(plan, BatchSpec::items(b.items));
    };
    run_pipe_seq();
    const double t_pseq = best_time_of(reps, run_pipe_seq);

    auto run_pipe_async = [&] {
      std::vector<TaskFuture> fs;
      for (auto& b : batches) {
        fs.push_back(engine.submit(plan, BatchSpec::items(b.items)));
      }
      for (auto& fut : fs) fut.wait();
    };
    run_pipe_async();
    const double t_pasync = best_time_of(reps, run_pipe_async);

    table.add_row({"pipeline", TablePrinter::fmt((long long)groups),
                   TablePrinter::fmt((long long)kb),
                   TablePrinter::fmt(pflops / t_pseq * 1e-9, 1),
                   TablePrinter::fmt(pflops / t_pasync * 1e-9, 1),
                   TablePrinter::fmt(t_pseq / t_pasync, 2)});
  }
  emit(table, opts, "async");

  // ---- online model: cold vs warm auto path ----------------------------
  // Same auto-path workload twice: a cold engine starts from an empty
  // history (analytic decisions) and saves what it measured to
  // --history-file; a warm engine loads that file and decides with
  // measured data from the first call.
  const std::vector<index_t> hist_sizes =
      opts.smoke ? std::vector<index_t>{96, 160}
                 : std::vector<index_t>{96, 160, 256, 384};
  std::remove(history_file.c_str());

  Engine::Options hopts;
  hopts.config = cfg;
  hopts.history_path = history_file;

  // Smoke-scale tuning: a handful of reps must reach confidence, and the
  // first (cold-cache) run of each shape is a slow outlier that a long
  // serving run would dilute away — widen the spread gate accordingly.
  // set_tuning() re-gates anything already loaded.
  auto bench_tuning = [](Engine& e) {
    PerfHistory::Tuning t = e.history().tuning();
    t.min_observations = 3;
    t.max_rel_stddev = 0.60;
    e.history().set_tuning(t);
  };

  auto run_auto = [&](Engine& e, index_t s) {
    Matrix a = Matrix::random(s, s, 300 + s);
    Matrix b = Matrix::random(s, s, 301 + s);
    Matrix c = Matrix::zero(s, s);
    (void)e.multiply(c.view(), a.view(), b.view());  // compile + decide
    return best_time_of(std::max(reps, 3), [&] {
      (void)e.multiply(c.view(), a.view(), b.view());
    });
  };
  auto add_hist_row = [&](TablePrinter& t, Engine& e, index_t s,
                          const char* phase, double secs) {
    t.add_row({"auto", TablePrinter::fmt((long long)s), phase,
               TablePrinter::fmt(effective_gflops(s, s, s, secs), 1),
               TablePrinter::fmt(
                   (long long)e.stats().history_hits)});
  };

  TablePrinter htable({"scenario", "n", "phase", "GFLOPS", "hist_hits"});
  {
    Engine cold(hopts);
    bench_tuning(cold);
    for (index_t s : hist_sizes) {
      add_hist_row(htable, cold, s, "cold", run_auto(cold, s));
    }
  }  // destructor persists the observations to history_file

  Engine warm(hopts);
  bench_tuning(warm);
  for (index_t s : hist_sizes) {
    add_hist_row(htable, warm, s, "warm", run_auto(warm, s));
  }
  std::printf("\nOnline model, cold vs warm (history file: %s)\n",
              history_file.c_str());
  emit(htable, opts, "history");
  const auto hstats = warm.stats();
  std::printf("warm engine: load %s, %zu keys, %llu observations, "
              "%llu measured-data rankings, %llu overrides\n",
              warm.history_load_status().ok() ? "ok" : "FAILED",
              hstats.history_keys,
              (unsigned long long)hstats.history_observations,
              (unsigned long long)hstats.history_hits,
              (unsigned long long)hstats.history_overrides);

  // One recursive-descent request through the async path: a two-level
  // plan at a size above an explicit small cutoff, so a trace captured
  // from this bench (FMM_TRACE) also carries the recursive driver's
  // per-product prep/leaf/update spans and buffer-pool counters — the
  // trace then samples every instrumented layer, not just the flat
  // serving paths.  Too small to time meaningfully; not a table row.
  {
    Engine::Options ropts;
    ropts.config = cfg;
    ropts.recurse_cutoff = 128;
    Engine rec(ropts);
    const Plan plan2 = make_plan(
        {catalog::best(2, 2, 2), catalog::best(2, 2, 2)}, Variant::kABC);
    const index_t rs = 512;
    Matrix ra = Matrix::random(rs, rs, 900);
    Matrix rb = Matrix::random(rs, rs, 901);
    Matrix rc = Matrix::zero(rs, rs);
    TaskFuture rf = rec.submit(plan2, rc.view(), ra.view(), rb.view());
    rf.wait();
    std::printf("\nrecursive-descent sample (n=%lld, 2-level): %s, "
                "%llu descent(s)\n", (long long)rs,
                rf.status().ok() ? "ok" : rf.status().to_string().c_str(),
                (unsigned long long)rec.stats().recursive_runs);
  }

  std::printf("\nasync results bitwise identical to per-item multiply(): %s\n",
              bitwise_ok ? "yes" : "NO");
  // Informational, not a gate: the >= 1.2x mix claim needs real cores, and
  // single runs on shared hosts are noisy.
  std::printf("mix async/seq (last K): %.2fx (claim: >= 1.2x on multi-core "
              "hosts)\n", mix_speedup);
  return bitwise_ok ? 0 : 1;
}

// Serving-shape batches: K multiplies of the same (m, n, k) executed
//
//   per-call   — Engine::multiply, once per item
//   executor   — one compiled FmmExecutor, run() once per item
//   batch      — FmmExecutor::run_batch over all K items (distinct B's)
//   batch(B=)  — run_batch with every item sharing one B (each product's
//                B~ packed once for the batch, then read by every item)
//
// at square sizes 64..512 and batch sizes K = 1/8/64.  The claim to
// verify: compile-once amortization and cross-item parallelism make the
// batched path beat per-call execution on small shapes (K >= 8, n <= 256),
// while all paths stay bitwise identical to per-item runs.
//
// A second table covers the fmm::Engine serving paths:
//
//   same     — same-shape distinct-B batch: direct FmmExecutor::run_batch
//              vs Engine per-item BatchSpec (the engine must be within
//              noise of direct use — its cache lookup is the only delta)
//   sharedB  — the one-weight-many-activations motif: Engine per-call
//              loop vs Engine batch (claim: batch >= 1.2x per-call)
//   strided  — the strided layout (base + batch stride, shared B) vs the
//              equivalent per-item views, both through the Engine
//   mix      — a cross-shape batch (sizes interleaved round-robin) vs a
//              per-call loop over the same items
//
// Reported numbers are aggregate effective GFLOPS (2*m*n*k*K / time);
// higher is better.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"
#include "src/core/executor.h"
#include "src/obs/trace.h"

using namespace fmm;
using namespace fmm::bench;

namespace {

struct BatchOperands {
  std::vector<Matrix> as, bs, cs;
  std::vector<BatchItem> items;

  BatchOperands(index_t s, int count, bool shared_b) {
    for (int i = 0; i < count; ++i) {
      as.push_back(Matrix::random(s, s, 100 + 3 * i));
      if (i == 0 || !shared_b) {
        bs.push_back(Matrix::random(s, s, 101 + 3 * i));
      }
      cs.push_back(Matrix::zero(s, s));
    }
    for (int i = 0; i < count; ++i) {
      const Matrix& b = shared_b ? bs[0] : bs[static_cast<std::size_t>(i)];
      items.push_back({cs[static_cast<std::size_t>(i)].view(),
                       as[static_cast<std::size_t>(i)].view(), b.view()});
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Options opts = parse_common(cli);
  cli.finish();

  const std::vector<index_t> sizes =
      opts.smoke ? std::vector<index_t>{64, 128, 256}
                 : std::vector<index_t>{64, 128, 256, 512};
  const std::vector<int> batch_sizes =
      opts.smoke ? std::vector<int>{1, 8, 32} : std::vector<int>{1, 8, 64};
  // Serving batches repeat the same shapes; a few more reps than the big
  // figure benches keeps the tiny timings stable.
  const int reps = opts.smoke ? 3 : std::max(3, opts.reps);

  GemmConfig cfg;
  cfg.num_threads = opts.threads;
  const Plan plan = make_plan({catalog::best(2, 2, 2)}, Variant::kABC);

  std::printf("Batched serving shapes: %s, %s threads\n", plan.name().c_str(),
              opts.threads == 0 ? "all" : std::to_string(opts.threads).c_str());
  std::printf("(aggregate effective GFLOPS over the whole batch; "
              "higher is better)\n\n");

  TablePrinter table({"n", "K", "percall", "executor", "batch", "percall(B=)",
                      "batch(B=)", "batch/percall"});
  bool claim_holds = true;
  for (index_t s : sizes) {
    for (int kb : batch_sizes) {
      const double flops =
          2.0 * static_cast<double>(s) * s * s * static_cast<double>(kb);

      // Per-call path: the process-default Engine, K calls.
      BatchOperands per(s, kb, /*shared_b=*/false);
      auto run_percall = [&] {
        for (const auto& it : per.items) {
          (void)default_engine().multiply(plan, it.c, it.a, it.b, cfg);
        }
      };
      run_percall();
      const double t_percall = best_time_of(reps, run_percall);

      // Compiled executor, run() per item.
      FmmExecutor exec(plan, s, s, s, cfg);
      BatchOperands ex(s, kb, /*shared_b=*/false);
      auto run_exec = [&] {
        for (const auto& it : ex.items) exec.run(it.c, it.a, it.b);
      };
      run_exec();
      const double t_exec = best_time_of(reps, run_exec);

      // run_batch, distinct B per item.
      BatchOperands ba(s, kb, /*shared_b=*/false);
      exec.run_batch(ba.items);
      const double t_batch =
          best_time_of(reps, [&] { exec.run_batch(ba.items); });

      // The serving motif: every item shares one B (one weight matrix,
      // many activations).  Per-call and run_batch on the *same* shared-B
      // workload — only run_batch can exploit the sharing.
      BatchOperands sp(s, kb, /*shared_b=*/true);
      auto run_percall_shared = [&] {
        for (const auto& it : sp.items) {
          (void)default_engine().multiply(plan, it.c, it.a, it.b, cfg);
        }
      };
      run_percall_shared();
      const double t_percall_shared = best_time_of(reps, run_percall_shared);

      BatchOperands sh(s, kb, /*shared_b=*/true);
      exec.run_batch(sh.items);
      const double t_shared =
          best_time_of(reps, [&] { exec.run_batch(sh.items); });

      // The acceptance claim: on small serving shapes the batched path
      // beats per-call execution of the identical workload.
      const double speedup = t_percall_shared / t_shared;
      if (kb >= 8 && s <= 256 && speedup < 1.0) claim_holds = false;
      table.add_row({TablePrinter::fmt((long long)s),
                     TablePrinter::fmt((long long)kb),
                     TablePrinter::fmt(flops / t_percall * 1e-9, 1),
                     TablePrinter::fmt(flops / t_exec * 1e-9, 1),
                     TablePrinter::fmt(flops / t_batch * 1e-9, 1),
                     TablePrinter::fmt(flops / t_percall_shared * 1e-9, 1),
                     TablePrinter::fmt(flops / t_shared * 1e-9, 1),
                     TablePrinter::fmt(speedup, 2)});
    }
  }
  emit(table, opts, "batch");
  // Informational, not a gate: single runs on shared hosts are noisy.
  std::printf("\nrun_batch vs per-call on small-shape shared-B batches "
              "(K>=8, n<=256): %s\n",
              claim_holds ? "faster everywhere" : "NOT uniformly faster");

  // -------------------------------------------------------------------------
  // Engine serving paths: the session front door against direct executor
  // use and per-call loops.  Columns: direct (best non-engine equivalent),
  // percall (Engine single calls), batch (Engine BatchSpec), and the two
  // ratios b/d (engine batch vs direct — parity is the claim) and b/p
  // (engine batch vs per-call — amortization is the claim).
  // -------------------------------------------------------------------------
  Engine::Options eopts;
  eopts.config = cfg;
  Engine engine(eopts);

  std::printf("\nEngine serving paths (aggregate effective GFLOPS)\n\n");
  TablePrinter etable(
      {"scenario", "n", "K", "direct", "percall", "batch", "b/d", "b/p"});
  bool parity_holds = true;    // engine batch within noise of direct
  bool sharedb_claim = true;   // engine batch >= 1.2x per-call on sharedB

  for (index_t s : sizes) {
    for (int kb : batch_sizes) {
      const double flops =
          2.0 * static_cast<double>(s) * s * s * static_cast<double>(kb);

      // same: same-shape distinct-B items.
      {
        BatchOperands d(s, kb, /*shared_b=*/false);
        FmmExecutor direct(plan, s, s, s, cfg);
        direct.run_batch(d.items);
        const double t_direct =
            best_time_of(reps, [&] { direct.run_batch(d.items); });

        BatchOperands pc(s, kb, /*shared_b=*/false);
        auto run_percall = [&] {
          for (const auto& it : pc.items) engine.multiply(plan, it.c, it.a, it.b);
        };
        run_percall();
        const double t_percall = best_time_of(reps, run_percall);

        BatchOperands ba(s, kb, /*shared_b=*/false);
        const BatchSpec spec = BatchSpec::items(ba.items);
        engine.multiply(plan, spec);
        const double t_batch =
            best_time_of(reps, [&] { engine.multiply(plan, spec); });

        const double bd = t_direct / t_batch, bp = t_percall / t_batch;
        if (kb >= 8 && s <= 128 && bd < 0.85) parity_holds = false;
        etable.add_row({"same", TablePrinter::fmt((long long)s),
                        TablePrinter::fmt((long long)kb),
                        TablePrinter::fmt(flops / t_direct * 1e-9, 1),
                        TablePrinter::fmt(flops / t_percall * 1e-9, 1),
                        TablePrinter::fmt(flops / t_batch * 1e-9, 1),
                        TablePrinter::fmt(bd, 2), TablePrinter::fmt(bp, 2)});
      }

      // sharedB: every item reads one B (the engine-path acceptance claim:
      // batch >= 1.2x over per-call on small serving shapes).
      {
        BatchOperands d(s, kb, /*shared_b=*/true);
        FmmExecutor direct(plan, s, s, s, cfg);
        direct.run_batch(d.items);
        const double t_direct =
            best_time_of(reps, [&] { direct.run_batch(d.items); });

        BatchOperands pc(s, kb, /*shared_b=*/true);
        auto run_percall = [&] {
          for (const auto& it : pc.items) engine.multiply(plan, it.c, it.a, it.b);
        };
        run_percall();
        const double t_percall = best_time_of(reps, run_percall);

        BatchOperands ba(s, kb, /*shared_b=*/true);
        const BatchSpec spec = BatchSpec::items(ba.items);
        engine.multiply(plan, spec);
        const double t_batch =
            best_time_of(reps, [&] { engine.multiply(plan, spec); });

        const double bd = t_direct / t_batch, bp = t_percall / t_batch;
        // The amortization claim lives on small serving shapes; larger
        // sizes are compute-bound and the ratio decays to 1 by design.
        if (kb >= 8 && s <= 128 && bp < 1.2) sharedb_claim = false;
        etable.add_row({"sharedB", TablePrinter::fmt((long long)s),
                        TablePrinter::fmt((long long)kb),
                        TablePrinter::fmt(flops / t_direct * 1e-9, 1),
                        TablePrinter::fmt(flops / t_percall * 1e-9, 1),
                        TablePrinter::fmt(flops / t_batch * 1e-9, 1),
                        TablePrinter::fmt(bd, 2), TablePrinter::fmt(bp, 2)});
      }

      // strided: one contiguous allocation per operand, base + batch
      // stride, shared B.  direct = run_batch over per-item views of the
      // same storage; batch = the engine strided descriptor (no views).
      {
        const index_t item = s * s;
        Matrix a(static_cast<index_t>(kb) * s, s);
        Matrix c(static_cast<index_t>(kb) * s, s);
        Matrix b = Matrix::random(s, s, 7);
        a.fill_random(8);
        c.set_zero();
        std::vector<BatchItem> views;
        for (int i = 0; i < kb; ++i) {
          const index_t off = static_cast<index_t>(i) * item;
          views.push_back({MatView(c.data() + off, s, s, s),
                           ConstMatView(a.data() + off, s, s, s), b.view()});
        }
        FmmExecutor direct(plan, s, s, s, cfg);
        direct.run_batch(views);
        const double t_direct =
            best_time_of(reps, [&] { direct.run_batch(views); });

        auto run_percall = [&] {
          for (const auto& it : views) engine.multiply(plan, it.c, it.a, it.b);
        };
        run_percall();
        const double t_percall = best_time_of(reps, run_percall);

        StridedBatch sb;
        sb.m = sb.n = sb.k = s;
        sb.count = static_cast<std::size_t>(kb);
        sb.c = c.data();
        sb.a = a.data();
        sb.b = b.data();
        sb.stride_c = item;
        sb.stride_a = item;
        sb.stride_b = 0;
        const BatchSpec spec = BatchSpec::strided(sb);
        engine.multiply(plan, spec);
        const double t_batch =
            best_time_of(reps, [&] { engine.multiply(plan, spec); });

        const double bd = t_direct / t_batch, bp = t_percall / t_batch;
        if (kb >= 8 && s <= 128 && bd < 0.85) parity_holds = false;
        etable.add_row({"strided", TablePrinter::fmt((long long)s),
                        TablePrinter::fmt((long long)kb),
                        TablePrinter::fmt(flops / t_direct * 1e-9, 1),
                        TablePrinter::fmt(flops / t_percall * 1e-9, 1),
                        TablePrinter::fmt(flops / t_batch * 1e-9, 1),
                        TablePrinter::fmt(bd, 2), TablePrinter::fmt(bp, 2)});
      }
    }
  }

  // mix: cross-shape batches, sizes interleaved round-robin.  direct =
  // hand-grouped per-shape executors (what a caller had to write before);
  // batch = one Engine call on the mixed item list.
  for (int kb : batch_sizes) {
    if (kb < static_cast<int>(sizes.size())) continue;
    std::vector<Matrix> as, bs, cs;
    std::vector<BatchItem> items;
    double flops = 0.0;
    for (int i = 0; i < kb; ++i) {
      const index_t s = sizes[static_cast<std::size_t>(i) % sizes.size()];
      as.push_back(Matrix::random(s, s, 900 + 3 * i));
      bs.push_back(Matrix::random(s, s, 901 + 3 * i));
      cs.push_back(Matrix::zero(s, s));
      flops += 2.0 * static_cast<double>(s) * s * s;
    }
    for (int i = 0; i < kb; ++i) {
      items.push_back({cs[static_cast<std::size_t>(i)].view(),
                       as[static_cast<std::size_t>(i)].view(),
                       bs[static_cast<std::size_t>(i)].view()});
    }

    std::vector<std::unique_ptr<FmmExecutor>> per_shape;
    std::vector<std::vector<BatchItem>> groups(sizes.size());
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      per_shape.push_back(std::make_unique<FmmExecutor>(
          plan, sizes[g], sizes[g], sizes[g], cfg));
      for (int i = static_cast<int>(g); i < kb;
           i += static_cast<int>(sizes.size())) {
        groups[g].push_back(items[static_cast<std::size_t>(i)]);
      }
    }
    auto run_direct = [&] {
      for (std::size_t g = 0; g < sizes.size(); ++g) {
        per_shape[g]->run_batch(groups[g]);
      }
    };
    run_direct();
    const double t_direct = best_time_of(reps, run_direct);

    auto run_percall = [&] {
      for (const auto& it : items) engine.multiply(plan, it.c, it.a, it.b);
    };
    run_percall();
    const double t_percall = best_time_of(reps, run_percall);

    const BatchSpec spec = BatchSpec::items(items);
    engine.multiply(plan, spec);
    const double t_batch =
        best_time_of(reps, [&] { engine.multiply(plan, spec); });

    const double bd = t_direct / t_batch, bp = t_percall / t_batch;
    etable.add_row({"mix", "mix", TablePrinter::fmt((long long)kb),
                    TablePrinter::fmt(flops / t_direct * 1e-9, 1),
                    TablePrinter::fmt(flops / t_percall * 1e-9, 1),
                    TablePrinter::fmt(flops / t_batch * 1e-9, 1),
                    TablePrinter::fmt(bd, 2), TablePrinter::fmt(bp, 2)});
  }

  emit(etable, opts, "batch_engine");
  std::printf("\nengine batch vs direct executor (same-shape, K>=8, "
              "n<=128): %s\n",
              parity_holds ? "within noise everywhere" : "NOT at parity");
  std::printf("engine batch vs per-call on shared-B serving shapes "
              "(K>=8, n<=128): %s\n",
              sharedb_claim ? ">=1.2x everywhere" : "NOT uniformly >=1.2x");

  // -------------------------------------------------------------------------
  // Element types: single-core serving throughput of the two precisions
  // through the same Engine explicit-plan path.  The f32 family packs twice
  // the lanes per FMA and moves half the bytes, so its effective GFLOP/s
  // should land well above f64 (>= 1.6x expected on vectorized kernels;
  // under FMM_KERNEL=portable both dtypes run scalar).
  // -------------------------------------------------------------------------
  GemmConfig one = cfg;
  one.num_threads = 1;
  // Larger sizes than the batch tables: single-core at n<=128 is dominated
  // by per-call plan overhead, which is dtype-independent and would mask
  // the precision gap this table is about.
  const std::vector<index_t> fsizes =
      opts.smoke ? std::vector<index_t>{512, 768}
                 : std::vector<index_t>{256, 512, 1024};
  std::printf("\nElement types: f32 vs f64, single core (effective GFLOPS)\n\n");
  TablePrinter ftable({"n", "f64", "f32", "f32/f64"});
  for (index_t s : fsizes) {
    const double flops = 2.0 * static_cast<double>(s) * s * s;

    Matrix a64 = Matrix::random(s, s, 50);
    Matrix b64 = Matrix::random(s, s, 51);
    Matrix c64 = Matrix::zero(s, s);
    auto run64 = [&] {
      (void)engine.multiply(plan, c64.view(), a64.view(), b64.view(), one);
    };
    run64();
    const double t64 = best_time_of(reps, run64);

    std::vector<float> a32(static_cast<std::size_t>(s) * s);
    std::vector<float> b32(a32.size());
    std::vector<float> c32(a32.size(), 0.0f);
    for (std::size_t i = 0; i < a32.size(); ++i) {
      a32[i] = static_cast<float>(a64.data()[i]);
      b32[i] = static_cast<float>(b64.data()[i]);
    }
    MatViewF32 cv(c32.data(), s, s, s);
    ConstMatViewF32 av(a32.data(), s, s, s);
    ConstMatViewF32 bv(b32.data(), s, s, s);
    auto run32 = [&] { (void)engine.multiply(plan, cv, av, bv, one); };
    run32();
    const double t32 = best_time_of(reps, run32);

    ftable.add_row({TablePrinter::fmt((long long)s),
                    TablePrinter::fmt(flops / t64 * 1e-9, 1),
                    TablePrinter::fmt(flops / t32 * 1e-9, 1),
                    TablePrinter::fmt(t64 / t32, 2)});
  }
  emit(ftable, opts, "f32");

  // -------------------------------------------------------------------------
  // Observability overhead: the same Engine batch path with the obs layer
  // quiet vs recording.  "off" is tracing disabled AND metrics capture
  // disabled — the acceptance bar is that this column matches a build
  // without the obs layer (every site is behind one relaxed load).  "on"
  // runs with metrics capture enabled and the flight recorder recording
  // into its rings (trace_begin("") — no file is written).  on/off is the
  // throughput ratio, higher is better, ~1.0 expected.
  // -------------------------------------------------------------------------
  std::printf("\nObservability overhead: engine batch path, off vs "
              "tracing+metrics on (effective GFLOPS)\n\n");
  TablePrinter otable({"n", "K", "off", "on", "on/off"});
  const int okb = 8;
  const std::vector<index_t> osizes = opts.smoke
                                          ? std::vector<index_t>{128, 256}
                                          : std::vector<index_t>{128, 256, 512};
  for (index_t s : osizes) {
    const double flops =
        2.0 * static_cast<double>(s) * s * s * static_cast<double>(okb);
    BatchOperands ops(s, okb, /*shared_b=*/false);
    const BatchSpec spec = BatchSpec::items(ops.items);
    auto run = [&] { (void)engine.multiply(plan, spec); };
    run();  // compile outside the timed region

    engine.metrics().set_enabled(false);
    const double t_off = best_time_of(reps, run);

    engine.metrics().set_enabled(true);
    obs::trace_begin("");
    const double t_on = best_time_of(reps, run);
    obs::trace_end();

    otable.add_row({TablePrinter::fmt((long long)s),
                    TablePrinter::fmt((long long)okb),
                    TablePrinter::fmt(flops / t_off * 1e-9, 1),
                    TablePrinter::fmt(flops / t_on * 1e-9, 1),
                    TablePrinter::fmt(t_off / t_on, 3)});
  }
  emit(otable, opts, "obs");
  return 0;
}

// Serving: one long-lived fmm::Engine as the front door for a mixed
// stream of multiplies — from several host threads, across shapes, as
// batches, with recoverable errors.
//
//   $ ./serving [--n 128 --batch 32 --host-threads 4]
//
// Walks the whole session surface:
//   1. explicit-plan calls from concurrent host threads (the engine's
//      executor cache compiles one executor per shape and shares it),
//   2. a shared-B batch via BatchSpec::items (one weight matrix, many
//      activations: the packed B~ panels are built once per product),
//   3. the strided layout via BatchSpec::strided (one base pointer +
//      batch stride per operand — no per-item views at all),
//   4. a cross-shape batch (the engine groups by shape and fans out to
//      one cached executor per group),
//   5. a malformed request (shape mismatch) answered with a Status
//      instead of a crash,
//   6. the cache statistics a serving process would export.

#include <cstdio>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/linalg/ops.h"
#include "src/util/cli.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  using namespace fmm;
  Cli cli(argc, argv);
  const index_t n = cli.get_int("n", 128, "square problem size");
  const int batch = cli.get_int("batch", 32, "multiplies per batch");
  const int host_threads =
      cli.get_int("host-threads", 4, "concurrent caller threads");
  cli.finish();

  const Plan plan = make_plan({catalog::best(2, 2, 2)}, Variant::kABC);

  // One engine for the whole process.  Each call serial here; the
  // concurrency comes from the callers (a typical server setup).  Every
  // compiled executor has a workspace slot per engine worker, so the
  // callers' requests never queue behind one another's lease.
  Engine::Options opts;
  opts.config.num_threads = 1;
  Engine engine(opts);

  // 1. Concurrent host threads sharing the engine; first call per shape
  //    compiles, the rest hit the cache.
  {
    std::vector<std::thread> threads;
    Timer t;
    for (int h = 0; h < host_threads; ++h) {
      threads.emplace_back([&, h] {
        Matrix a = Matrix::random(n, n, 10 + static_cast<std::uint64_t>(h));
        Matrix b = Matrix::random(n, n, 20 + static_cast<std::uint64_t>(h));
        Matrix c = Matrix::zero(n, n);
        for (int it = 0; it < 16; ++it) {
          const Status st = engine.multiply(plan, c.view(), a.view(), b.view());
          if (!st.ok()) std::printf("!! %s\n", st.to_string().c_str());
        }
      });
    }
    for (auto& th : threads) th.join();
    std::printf("%d host threads x 16 calls at %lld^3: %.1f ms total\n",
                host_threads, (long long)n, t.seconds() * 1e3);
  }

  // 2. Shared-B batch: run with the engine's own internal parallelism
  //    (a second config keys a second cached executor).
  {
    GemmConfig parallel_cfg;  // all cores
    Matrix b = Matrix::random(n, n, 3);
    std::vector<Matrix> as, cs;
    std::vector<BatchItem> items;
    for (int i = 0; i < batch; ++i) {
      as.push_back(Matrix::random(n, n, 40 + static_cast<std::uint64_t>(i)));
      cs.push_back(Matrix::zero(n, n));
    }
    for (int i = 0; i < batch; ++i) {
      items.push_back({cs[static_cast<std::size_t>(i)].view(),
                       as[static_cast<std::size_t>(i)].view(), b.view()});
    }
    const BatchSpec spec = BatchSpec::items(items);
    engine.multiply(plan, spec, parallel_cfg);  // warm up (compiles)
    for (auto& c : cs) c.set_zero();
    Timer t;
    engine.multiply(plan, spec, parallel_cfg);
    const double secs = t.seconds();
    std::printf("shared-B batch of %d: %.1f ms (%.1f GFLOPS aggregate)\n",
                batch, secs * 1e3, 2.0 * n * n * n * batch / secs * 1e-9);

    Matrix want = Matrix::zero(n, n);
    ref_gemm(want.view(), as[0].view(), b.view());
    std::printf("max |err| vs reference: %.2e\n",
                max_abs_diff(cs[0].view(), want.view()));
  }

  // 3. Strided layout: items live in one allocation per operand; the
  //    descriptor replaces every view.  stride_b = 0 shares one B.
  {
    GemmConfig parallel_cfg;
    const index_t item = n * n;
    Matrix a(static_cast<index_t>(batch) * n, n);
    Matrix c(static_cast<index_t>(batch) * n, n);
    Matrix b = Matrix::random(n, n, 5);
    a.fill_random(6);
    c.set_zero();
    StridedBatch sb;
    sb.m = sb.n = sb.k = n;
    sb.count = static_cast<std::size_t>(batch);
    sb.c = c.data();
    sb.a = a.data();
    sb.b = b.data();
    sb.stride_c = item;
    sb.stride_a = item;
    sb.stride_b = 0;
    const BatchSpec spec = BatchSpec::strided(sb);
    engine.multiply(plan, spec, parallel_cfg);  // warm up
    c.set_zero();
    Timer t;
    const Status st = engine.multiply(plan, spec, parallel_cfg);
    std::printf("strided batch of %d: %s, %.1f ms\n", batch,
                st.ok() ? "ok" : st.to_string().c_str(), t.seconds() * 1e3);
  }

  // 4. Cross-shape batch: one call, grouped by shape internally.
  {
    const index_t shapes[3] = {n / 2, n, n + n / 2};
    std::vector<Matrix> as, bs, cs;
    std::vector<BatchItem> items;
    for (int i = 0; i < 9; ++i) {
      const index_t s = shapes[i % 3];
      as.push_back(Matrix::random(s, s, 70 + static_cast<std::uint64_t>(i)));
      bs.push_back(Matrix::random(s, s, 80 + static_cast<std::uint64_t>(i)));
      cs.push_back(Matrix::zero(s, s));
    }
    for (int i = 0; i < 9; ++i) {
      items.push_back({cs[static_cast<std::size_t>(i)].view(),
                       as[static_cast<std::size_t>(i)].view(),
                       bs[static_cast<std::size_t>(i)].view()});
    }
    const Status st = engine.multiply(plan, BatchSpec::items(items));
    std::printf("cross-shape batch of 9 (3 shapes): %s\n",
                st.ok() ? "ok" : st.to_string().c_str());
  }

  // 5. A malformed request is answered, not fatal.
  {
    Matrix a = Matrix::random(n, n, 1);
    Matrix b = Matrix::random(n / 2, n, 2);  // wrong k
    Matrix c = Matrix::zero(n, n);
    const Status st = engine.multiply(plan, c.view(), a.view(), b.view());
    std::printf("malformed request -> %s\n", st.to_string().c_str());
  }

  // 6. What a serving process would export.  stats() is the compact
  // compatibility view; metrics_report() is the full registry — counters,
  // gauges, and per-path latency histograms with p50/p95/p99.
  const Engine::CacheStats stats = engine.stats();
  std::printf("executor cache: %llu hits, %llu misses, %llu evictions, "
              "%zu live (cap %zu)\n",
              (unsigned long long)stats.hits,
              (unsigned long long)stats.misses,
              (unsigned long long)stats.evictions, stats.entries,
              engine.cache_capacity());
  std::printf("\nmetrics_report():\n%s", engine.metrics_report().c_str());
  return 0;
}

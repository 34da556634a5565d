// Ablation: parallelization schemes for FMM (paper §1 claims BLIS-style
// data parallelism beats task parallelism "without the overhead of task
// parallelism"; §6 lists the comparison as future work).  Measures, on all
// cores:
//   * data-parallel ABC (the paper's scheme: parallel 3rd/2nd loop),
//   * data-parallel Naive,
//   * task-parallel: one step of the Engine's recursive descent
//     (src/core/recursive.h) — one TaskPool task per product M_r with a
//     serial GEMM inside, the C updates chained on task futures (the
//     deterministic form of Benson & Ballard's scheme [1]).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/core/engine.h"

using namespace fmm;
using namespace fmm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Options opts = parse_common(cli);
  cli.finish();

  const index_t big = opts.big ? 2 : 1;
  struct Shape {
    const char* label;
    index_t m, k, n;
  };
  const Shape shapes[] = {
      {"square", 2880 * big, 2880 * big, 2880 * big},
      {"rank-k", 4320 * big, 960 * big, 4320 * big},
      {"small square", 1152 * big, 1152 * big, 1152 * big},
  };
  const std::vector<std::string> algs = {"<2,2,2>", "<2,3,2>", "<3,3,3>"};

  GemmConfig cfg;  // all cores
  GemmWorkspace ws;
  // A one-level plan has no level left below its first step, so any cutoff
  // under min(m, n, k) descends exactly once.
  Engine::Options task_opts;
  task_opts.recurse_cutoff = 1;
  Engine tasks(task_opts);
  std::printf("Parallel-scheme ablation (all cores, GFLOPS): data-parallel "
              "ABC vs data-parallel Naive vs task-parallel\n\n");

  TablePrinter table({"shape", "algorithm", "gemm", "data ABC", "data Naive",
                      "task", "best scheme"});
  for (const auto& s : shapes) {
    const double tg = time_gemm(s.m, s.n, s.k, ws, cfg, opts.reps);
    for (const auto& name : algs) {
      const FmmAlgorithm alg = catalog::get(name);
      const double t_abc = time_plan(make_plan({alg}, Variant::kABC), s.m, s.n,
                                     s.k, cfg, opts.reps);
      const double t_naive = time_plan(make_plan({alg}, Variant::kNaive), s.m,
                                       s.n, s.k, cfg, opts.reps);
      // Task-parallel timing.
      Matrix a = Matrix::random(s.m, s.k, 1);
      Matrix b = Matrix::random(s.k, s.n, 2);
      Matrix c = Matrix::zero(s.m, s.n);
      const Plan tplan = make_plan({alg}, Variant::kNaive);
      (void)tasks.multiply(tplan, c.view(), a.view(), b.view());
      const double t_task = best_time_of(opts.reps, [&] {
        (void)tasks.multiply(tplan, c.view(), a.view(), b.view());
      });
      const char* best = t_abc <= t_naive && t_abc <= t_task ? "data ABC"
                         : t_naive <= t_task                 ? "data Naive"
                                                             : "task";
      table.add_row({s.label, name,
                     TablePrinter::fmt(effective_gflops(s.m, s.n, s.k, tg), 1),
                     TablePrinter::fmt(effective_gflops(s.m, s.n, s.k, t_abc), 1),
                     TablePrinter::fmt(effective_gflops(s.m, s.n, s.k, t_naive), 1),
                     TablePrinter::fmt(effective_gflops(s.m, s.n, s.k, t_task), 1),
                     best});
    }
  }
  emit(table, opts, "ablation_parallel");
  return 0;
}

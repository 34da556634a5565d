#pragma once

// Shared infrastructure for the figure/table reproduction benches.
//
// Problem sizes are scaled down from the paper's (m = n = 14400,
// k <= 12000 on a 2013 Xeon) so that every bench binary finishes in about
// a minute on a laptop-class machine while preserving the regimes that
// drive the phenomena: k sweeps cross multiples of K̃ * k_C, "rank-k"
// shapes keep m = n >> k, and "square-ish" shapes keep k ~ 0.8 m.  Pass
// --big to run closer to paper scale.

#include <string>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/model/perf_model.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace fmm::bench {

struct Options {
  bool big = false;     // ~4x the default problem volume
  bool smoke = false;   // tiny sizes: a quick run
  bool full = false;    // all 23 catalog entries where the default is a subset
  int reps = 2;         // timed repetitions (after one warm-up)
  int threads = 0;      // 0 = all cores
  std::string csv;      // if set, prefix for CSV dumps
};

inline Options parse_common(Cli& cli) {
  Options o;
  o.big = cli.get_bool("big", false, "run near paper-scale problem sizes");
  o.smoke = cli.get_bool("smoke", false,
                         "tiny problem sizes for a quick run (noisy "
                         "absolute numbers, stable relative trends)");
  o.full = cli.get_bool("full", false, "all 23 algorithms (default: subset)");
  o.reps = cli.get_int("reps", 2, "timed repetitions per point");
  o.threads = cli.get_int("threads", 0, "thread count (0 = all cores)");
  o.csv = cli.get_string("csv", "", "CSV output path prefix");
  return o;
}

// The 23 Fig. 2 partitions, or a representative 10-entry subset covering
// small/large R, every base shape the paper discusses, and the stars of
// Figs. 7-9.
inline std::vector<std::string> algorithm_names(bool full) {
  if (full) return catalog::figure2_names();
  return {"<2,2,2>", "<2,3,2>", "<3,2,3>", "<3,3,3>", "<2,3,4>",
          "<4,2,4>", "<2,5,2>", "<3,6,3>", "<4,3,3>", "<6,3,3>"};
}

// Times one plan on operands of the given size through a compiled
// executor (compile outside the timed region, as a serving loop would):
// one warm-up run, then the best of `reps` timed runs.  Returns seconds.
inline double time_plan(const Plan& plan, index_t m, index_t n, index_t k,
                        const GemmConfig& cfg, int reps) {
  Matrix a = Matrix::random(m, k, 1);
  Matrix b = Matrix::random(k, n, 2);
  Matrix c = Matrix::zero(m, n);
  FmmExecutor exec(plan, m, n, k, cfg, /*slots=*/1);
  exec.run(c.view(), a.view(), b.view());
  return best_time_of(reps, [&] { exec.run(c.view(), a.view(), b.view()); });
}

// Times the GEMM baseline (same packing/micro-kernel code path).
inline double time_gemm(index_t m, index_t n, index_t k, GemmWorkspace& ws,
                        const GemmConfig& cfg, int reps) {
  Matrix a = Matrix::random(m, k, 1);
  Matrix b = Matrix::random(k, n, 2);
  Matrix c = Matrix::zero(m, n);
  gemm(c.view(), a.view(), b.view(), ws, cfg);
  return best_time_of(reps, [&] { gemm(c.view(), a.view(), b.view(), ws, cfg); });
}

// Model-predicted effective GFLOPS for a plan at a size (single core).
inline double modeled_gflops(const Plan& plan, index_t m, index_t n,
                             index_t k, const GemmConfig& cfg,
                             const ModelParams& params) {
  return predict_effective_gflops(model_input(plan, m, n, k, cfg), params);
}

// Writes the table to stdout and, when requested, to `<prefix><name>.csv`.
inline void emit(TablePrinter& table, const Options& opts,
                 const std::string& name) {
  table.print(std::cout);
  if (!opts.csv.empty()) {
    const std::string path = opts.csv + name + ".csv";
    table.write_csv(path);
    std::printf("(csv written to %s)\n", path.c_str());
  }
}

}  // namespace fmm::bench

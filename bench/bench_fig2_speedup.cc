// Reproduces paper Fig. 2: the table of theoretical and practical speedups
// of all 23 one-level FMM algorithms over GEMM, at two shapes:
//
//   Practical #1: rank-k update,  m = n = N, k = N/30   (paper: 14400/480)
//   Practical #2: square-ish,     m = n = N, k = 0.83 N (paper: 14400/12000)
//
// Per algorithm, the best variant is chosen by the performance model (the
// paper reports "the best implementation of our generated code").  Single
// core, like the paper's table.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/model/selector.h"

using namespace fmm;
using namespace fmm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Options opts = parse_common(cli);
  cli.finish();

  const index_t N = opts.smoke ? 720 : (opts.big ? 5760 : 2880);
  const index_t k_rank = N / 6;          // rank-k update regime
  const index_t N_sq = opts.smoke ? 360 : (opts.big ? 2880 : 1440);
  const index_t k_sq = N_sq * 5 / 6;     // approximately square regime

  GemmConfig cfg;
  cfg.num_threads = 1;
  const ModelParams params = calibrate(cfg);
  std::printf("Fig. 2 reproduction: one-level FMM speedup over GEMM, 1 core "
              "(kernel: %s)\n",
              active_kernel().name);
  std::printf("shape #1 (rank-k): m=n=%lld k=%lld; shape #2 (square-ish): "
              "m=n=%lld k=%lld\n\n",
              (long long)N, (long long)k_rank, (long long)N_sq, (long long)k_sq);

  GemmWorkspace ws;
  const double gemm_rank = time_gemm(N, N, k_rank, ws, cfg, opts.reps);
  const double gemm_sq = time_gemm(N_sq, N_sq, k_sq, ws, cfg, opts.reps);

  TablePrinter table({"<m~,k~,n~>", "m~k~n~", "R", "theory%", "rank-k%",
                      "square%", "variant(rank-k)"});
  // Smoke runs cover the representative subset so they stay quick.
  for (const auto& name : algorithm_names(/*full=*/!opts.smoke)) {
    const FmmAlgorithm alg = catalog::get(name);
    // Model-pick the best variant per shape, then measure it.
    auto pick = [&](index_t m, index_t n, index_t k) {
      Variant best = Variant::kABC;
      double best_t = 1e300;
      for (Variant v : {Variant::kABC, Variant::kAB, Variant::kNaive}) {
        const double t =
            predict_time(model_input(make_plan({alg}, v), m, n, k, cfg), params);
        if (t < best_t) {
          best_t = t;
          best = v;
        }
      }
      return best;
    };
    const Variant v_rank = pick(N, N, k_rank);
    const Variant v_sq = pick(N_sq, N_sq, k_sq);
    const double t_rank =
        time_plan(make_plan({alg}, v_rank), N, N, k_rank, cfg, opts.reps);
    const double t_sq =
        time_plan(make_plan({alg}, v_sq), N_sq, N_sq, k_sq, cfg, opts.reps);
    table.add_row({name, TablePrinter::fmt((long long)alg.classical_mults()),
                   TablePrinter::fmt((long long)alg.R),
                   TablePrinter::fmt(alg.theoretical_speedup() * 100, 1),
                   TablePrinter::fmt((gemm_rank / t_rank - 1.0) * 100, 1),
                   TablePrinter::fmt((gemm_sq / t_sq - 1.0) * 100, 1),
                   variant_name(v_rank)});
  }
  emit(table, opts, "fig2");
  std::printf("\n(gemm baseline: %.2f GFLOPS rank-k, %.2f GFLOPS square)\n",
              effective_gflops(N, N, k_rank, gemm_rank),
              effective_gflops(N_sq, N_sq, k_sq, gemm_sq));
  return 0;
}

#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "report.h"
#include "src/core/algorithm.h"
#include "src/gemm/gemm.h"
#include "src/gemm/pack.h"
#include "src/model/perf_model.h"
#include "src/model/selector.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace perfbench {

namespace {

namespace obs = fmm::obs;
using fmm::ConstMatView;
using fmm::MatView;
using fmm::Plan;
using fmm::Timer;

// One warm call, then the best of as many calls as fit in ~target_s (at
// least one, at most five).  Best-of is the usual estimator for dense
// kernels: the least disturbed run.
template <typename Fn>
double best_time(Fn&& fn, double target_s = 0.3) {
  Timer warm;
  fn();
  const double w = std::max(warm.seconds(), 1e-9);
  const int reps = std::clamp(static_cast<int>(target_s / w), 1, 5);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

// Calls `fn` in a loop for at least `min_s`; returns (calls, seconds).
template <typename Fn>
std::pair<double, double> loop_for(Fn&& fn, double min_s = 0.15) {
  double calls = 0;
  Timer t;
  do {
    fn();
    calls += 1;
  } while (t.seconds() < min_s);
  return {calls, t.seconds()};
}

template <typename T>
double kernel_gflops(const fmm::KernelInfo& kern, fmm::index_t kc) {
  fmm::AlignedBuffer<T> a(static_cast<std::size_t>(kern.mr * kc));
  fmm::AlignedBuffer<T> b(static_cast<std::size_t>(kern.nr * kc));
  fmm::Xoshiro256 rng(11);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<T>(rng.uniform(-1, 1));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<T>(rng.uniform(-1, 1));
  alignas(64) T acc[fmm::kMaxAccElemsOf<T>];
  const auto fn = fmm::kernel_fn<T>(kern);
  volatile T sink = 0;
  const auto [calls, secs] = loop_for([&] {
    for (int i = 0; i < 256; ++i) fn(kc, a.data(), b.data(), acc);
    sink = sink + acc[0];
  });
  return 2.0 * kern.mr * kern.nr * static_cast<double>(kc) * 256.0 * calls / secs * 1e-9;
}

// The classical one-block "plan": the model's stand-in for plain GEMM.
const Plan& gemm_plan() {
  static const Plan p = fmm::make_plan({fmm::make_classical(1, 1, 1)}, fmm::Variant::kABC);
  return p;
}

// Largest number of non-zero W coefficients in any product: how many C
// blocks one micro-kernel tile is scattered into.
int max_w_targets(const Plan& plan) {
  const fmm::FmmAlgorithm& f = plan.flat;
  int best = 1;
  for (int r = 0; r < f.R; ++r) {
    int nnz = 0;
    for (int p = 0; p < f.rows_w(); ++p) nnz += f.w(p, r) != 0.0 ? 1 : 0;
    best = std::max(best, nnz);
  }
  return best;
}

struct ShapeRow {
  Shape shape;
  std::string plan;  // executed choice
  double t_gemm = 0, t_exec = 0, t_pred = 0, t_best = 0, compile_s = 0;
  fmm::ModelBreakdown bd{};
};

}  // namespace

double engine_overhead_us(fmm::Engine& engine, Operands& ops) {
  constexpr fmm::index_t s = 256;
  const MatView c(ops.c.data(), s, s, s);
  const ConstMatView a(ops.a.data(), s, s, s);
  const ConstMatView b(ops.b.data(), s, s, s);
  for (int i = 0; i < 3; ++i) engine.multiply(c, a, b);
  const fmm::AutoChoice choice = engine.choice_for(s, s, s);
  std::unique_ptr<fmm::FmmExecutor> exec;
  if (!choice.use_gemm) {
    exec = std::make_unique<fmm::FmmExecutor>(*choice.plan, s, s, s, engine.config(), 1);
  }
  fmm::GemmWorkspace ws;
  auto bare = [&] {
    if (exec) {
      exec->run(c, a, b);
    } else {
      fmm::gemm(c, a, b, ws, engine.config());
    }
  };
  for (int i = 0; i < 3; ++i) bare();
  std::vector<double> te, tx;
  for (int i = 0; i < 60; ++i) {  // interleaved, so drift hits both sides
    Timer t1;
    engine.multiply(c, a, b);
    te.push_back(t1.seconds());
    Timer t2;
    bare();
    tx.push_back(t2.seconds());
  }
  return (median(te) - median(tx)) * 1e6;
}

LedgerResult measure_ledger(const Spec& spec, fmm::Engine& engine,
                            const fmm::Engine::Options& opts, Operands& ops) {
  LedgerResult out;
  auto& M = out.metrics;
  const fmm::GemmConfig cfg = engine.config();
  const fmm::ModelParams params = engine.params();
  const int threads = fmm::resolve_threads(cfg);

  std::vector<Shape> shapes;
  for (const ShapeKey& key : distinct_shapes(spec)) {
    if (!key.f32) shapes.push_back(key.shape);
  }
  // The representative product: the workload's largest f64 shape.
  const Shape rep = *std::max_element(shapes.begin(), shapes.end(),
                                      [](const Shape& x, const Shape& y) {
                                        return x.flops() < y.flops();
                                      });

  {
    obs::TraceScope span("ledger.kernel", "perfbench");
    const fmm::KernelInfo& k64 = fmm::active_kernel(fmm::DType::kF64);
    const fmm::KernelInfo& k32 = fmm::active_kernel(fmm::DType::kF32);
    M["kernel.gflops"] =
        kernel_gflops<double>(k64, fmm::resolve_blocking(cfg, fmm::DType::kF64).kc);
    M["kernel.gflops_f32"] =
        kernel_gflops<float>(k32, fmm::resolve_blocking(cfg, fmm::DType::kF32).kc);
  }

  // Per shape: plain gemm(), the executed plan through a bare executor, the
  // model's prediction, and the model's top three candidates measured.
  const std::vector<Plan> space = fmm::default_plan_space(
      {fmm::Variant::kABC, fmm::Variant::kAB, fmm::Variant::kNaive}, 2);
  std::vector<ShapeRow> rows;
  double compile_sum = 0;
  int compiles = 0;
  for (const Shape& s : shapes) {
    ShapeRow row;
    row.shape = s;
    const MatView c(ops.c.data(), s.m, s.n, s.n);
    const ConstMatView a(ops.a.data(), s.m, s.k, s.k);
    const ConstMatView b(ops.b.data(), s.k, s.n, s.n);
    const fmm::AutoChoice choice = engine.choice_for(s.m, s.n, s.k);
    row.plan = choice.description;

    fmm::GemmWorkspace ws;
    {
      obs::TraceScope span("ledger.gemm", "perfbench");
      row.t_gemm = best_time([&] { fmm::gemm(c, a, b, ws, cfg); });
    }

    // Candidate name -> measured seconds (gemm included as "gemm").
    std::map<std::string, double> measured{{"gemm", row.t_gemm}};
    auto time_plan = [&](const Plan& plan) {
      const std::string name = plan.name();
      auto it = measured.find(name);
      if (it != measured.end()) return it->second;
      std::unique_ptr<fmm::FmmExecutor> exec;
      {
        obs::TraceScope span("ledger.executor.compile", "perfbench");
        Timer t;
        exec = std::make_unique<fmm::FmmExecutor>(plan, s.m, s.n, s.k, cfg, opts.slots);
        compile_sum += t.seconds();
        ++compiles;
      }
      obs::TraceScope span("ledger.executor.run", "perfbench");
      const double sec = best_time([&] { exec->run(c, a, b); });
      measured[name] = sec;
      return sec;
    };

    if (choice.use_gemm) {
      row.t_exec = row.t_gemm;
      row.t_pred = fmm::predict_gemm_time(s.m, s.n, s.k, cfg, params);
      row.bd = fmm::predict_breakdown(fmm::model_input(gemm_plan(), s.m, s.n, s.k, cfg), params);
    } else {
      row.t_exec = time_plan(*choice.plan);
      const fmm::ModelInput in = fmm::model_input(*choice.plan, s.m, s.n, s.k, cfg);
      row.t_pred = fmm::predict_time(in, params);
      row.bd = fmm::predict_breakdown(in, params);
    }

    {
      obs::TraceScope span("ledger.selector", "perfbench");
      std::vector<std::pair<double, const Plan*>> cands;  // nullptr = gemm
      cands.push_back({fmm::predict_gemm_time(s.m, s.n, s.k, cfg, params), nullptr});
      const std::vector<fmm::Candidate> ranked =
          fmm::rank_by_model(s.m, s.n, s.k, space, params, cfg);
      for (std::size_t i = 0; i < ranked.size() && i < 3; ++i) {
        cands.push_back({ranked[i].predicted_seconds, &ranked[i].plan});
      }
      std::sort(cands.begin(), cands.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      row.t_best = 1e300;
      for (std::size_t i = 0; i < 3 && i < cands.size(); ++i) {
        const double t = cands[i].second == nullptr ? row.t_gemm : time_plan(*cands[i].second);
        row.t_best = std::min(row.t_best, t);
      }
    }
    rows.push_back(row);
  }

  double flops = 0, t_gemm = 0, t_exec = 0, t_pred = 0, t_best = 0;
  fmm::ModelBreakdown bd{};
  std::vector<std::string> detail_rows;
  for (const ShapeRow& r : rows) {
    flops += r.shape.flops();
    t_gemm += r.t_gemm;
    t_exec += r.t_exec;
    t_pred += r.t_pred;
    t_best += r.t_best;
    bd.t_mul_a += r.bd.t_mul_a;
    bd.t_add_a += r.bd.t_add_a;
    bd.t_pack_m += r.bd.t_pack_m;
    bd.t_c_m += r.bd.t_c_m;
    bd.t_tmp_m += r.bd.t_tmp_m;
    detail_rows.push_back(JsonObject()
                              .str("shape", shape_label(r.shape, false))
                              .str("plan", r.plan)
                              .num("gemm_s", r.t_gemm)
                              .num("executed_s", r.t_exec)
                              .num("best_top3_s", r.t_best)
                              .num("predicted_s", r.t_pred)
                              .num("pred_t_mul_a_s", r.bd.t_mul_a)
                              .num("pred_t_add_a_s", r.bd.t_add_a)
                              .num("pred_t_pack_m_s", r.bd.t_pack_m)
                              .num("pred_t_c_m_s", r.bd.t_c_m)
                              .num("pred_t_tmp_m_s", r.bd.t_tmp_m)
                              .dump());
  }
  M["gemm.gflops"] = flops / t_gemm * 1e-9;
  M["gemm.peak_frac"] = M["gemm.gflops"] / (M["kernel.gflops"] * threads);
  M["executor.gflops"] = flops / t_exec * 1e-9;
  M["executor.compile_ms"] = compiles > 0 ? compile_sum / compiles * 1e3 : 0.0;
  M["selector.speedup_vs_gemm"] = t_gemm / t_exec;
  M["selector.regret"] = t_exec / t_best;
  M["model.pred_ratio"] = t_exec / t_pred;
  M["model.breakdown.t_mul_a"] = bd.t_mul_a * 1e3;
  M["model.breakdown.t_add_a"] = bd.t_add_a * 1e3;
  M["model.breakdown.t_pack_m"] = bd.t_pack_m * 1e3;
  M["model.breakdown.t_c_m"] = bd.t_c_m * 1e3;
  M["model.breakdown.t_tmp_m"] = bd.t_tmp_m * 1e3;

  // Packing, epilogue and one fused product at the representative shape,
  // under the blocking its executor froze.
  const fmm::AutoChoice rep_choice = engine.choice_for(rep.m, rep.n, rep.k);
  const Plan& rep_plan = rep_choice.use_gemm ? gemm_plan() : *rep_choice.plan;
  const fmm::FmmExecutor rep_exec(rep_plan, rep.m, rep.n, rep.k, cfg, 1);
  const fmm::BlockingParams bp = rep_exec.blocking();
  {
    // 2-term sums over the quadrants of A and B: the operand sums a
    // one-level product packs.
    obs::TraceScope span("ledger.pack", "perfbench");
    const fmm::index_t ms = rep.m / 2, ks = rep.k / 2, ns = rep.n / 2;
    const fmm::index_t lda = rep.k, ldb = rep.n;
    fmm::AlignedBuffer<double> out(static_cast<std::size_t>(bp.mc * bp.kc + bp.kc * bp.nc));
    double bytes = 0;
    auto [calls_a, sec_a] = loop_for([&] {
      for (fmm::index_t ic = 0; ic < ms; ic += bp.mc) {
        for (fmm::index_t pc = 0; pc < ks; pc += bp.kc) {
          const fmm::index_t mc = std::min(bp.mc, ms - ic), kc = std::min(bp.kc, ks - pc);
          const fmm::LinTerm terms[2] = {{ops.a.data() + ic * lda + pc, 1.0},
                                         {ops.a.data() + (ms + ic) * lda + pc, -1.0}};
          fmm::pack_a<double>(terms, 2, lda, mc, kc, bp.mr, out.data());
          bytes += 3.0 * static_cast<double>(mc * kc) * sizeof(double);
        }
      }
    });
    (void)calls_a;
    M["pack.a_gbps"] = bytes / sec_a * 1e-9;
    bytes = 0;
    auto [calls_b, sec_b] = loop_for([&] {
      for (fmm::index_t pc = 0; pc < ks; pc += bp.kc) {
        for (fmm::index_t jc = 0; jc < ns; jc += bp.nc) {
          const fmm::index_t kc = std::min(bp.kc, ks - pc), nc = std::min(bp.nc, ns - jc);
          const fmm::LinTerm terms[2] = {{ops.b.data() + pc * ldb + jc, 1.0},
                                         {ops.b.data() + pc * ldb + ns + jc, -1.0}};
          for (fmm::index_t q = 0; q < fmm::ceil_div(nc, bp.nr); ++q) {
            fmm::pack_b_panel<double>(terms, 2, ldb, kc, nc, bp.nr, q,
                                      out.data() + q * bp.nr * kc);
          }
          bytes += 3.0 * static_cast<double>(kc * nc) * sizeof(double);
        }
      }
    });
    (void)calls_b;
    M["pack.b_gbps"] = bytes / sec_b * 1e-9;
  }
  {
    // One micro-tile scattered into as many C blocks as the plan's busiest
    // W column names, swept over one block.
    obs::TraceScope span("ledger.epilogue", "perfbench");
    const int nt = max_w_targets(rep_plan);
    const int g = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(nt))));
    const fmm::index_t bm = rep.m / g, bn = rep.n / g, ldc = rep.n;
    alignas(64) double acc[fmm::kMaxAccElems];
    for (int i = 0; i < fmm::kMaxAccElems; ++i) acc[i] = 1e-3 * (i % 7);
    std::vector<fmm::OutTerm> targets(static_cast<std::size_t>(nt));
    double bytes = 0;
    auto [calls, sec] = loop_for([&] {
      for (fmm::index_t ir = 0; ir < bm; ir += bp.mr) {
        for (fmm::index_t jr = 0; jr < bn; jr += bp.nr) {
          const fmm::index_t m_sub = std::min<fmm::index_t>(bp.mr, bm - ir);
          const fmm::index_t n_sub = std::min<fmm::index_t>(bp.nr, bn - jr);
          for (int t = 0; t < nt; ++t) {
            targets[static_cast<std::size_t>(t)] = {
                ops.c.data() + ((t % g) * bm + ir) * ldc + (t / g) * bn + jr, 1.0};
          }
          fmm::epilogue_update(targets.data(), nt, ldc, m_sub, n_sub, acc, bp.mr, bp.nr);
          bytes += 2.0 * nt * static_cast<double>(m_sub * n_sub) * sizeof(double);
        }
      }
    });
    (void)calls;
    M["epilogue.gbps"] = bytes / sec * 1e-9;
  }
  {
    // The product with the most operand terms, exactly as the executor
    // lays it out, through one fused_multiply.
    obs::TraceScope span("ledger.fused", "perfbench");
    const fmm::FmmAlgorithm& f = rep_plan.flat;
    const fmm::index_t ms = rep.m / f.mt, ks = rep.k / f.kt, ns = rep.n / f.nt;
    const fmm::index_t lda = rep.k, ldb = rep.n, ldc = rep.n;
    int r_best = 0, most = -1;
    for (int r = 0; r < f.R; ++r) {
      int nnz = 0;
      for (int i = 0; i < f.rows_u(); ++i) nnz += f.u(i, r) != 0.0;
      for (int j = 0; j < f.rows_v(); ++j) nnz += f.v(j, r) != 0.0;
      if (nnz > most) {
        most = nnz;
        r_best = r;
      }
    }
    std::vector<fmm::LinTerm> at, bt;
    std::vector<fmm::OutTerm> ct;
    for (int i = 0; i < f.rows_u(); ++i) {
      if (f.u(i, r_best) != 0.0) {
        at.push_back({ops.a.data() + (i / f.kt) * ms * lda + (i % f.kt) * ks, f.u(i, r_best)});
      }
    }
    for (int j = 0; j < f.rows_v(); ++j) {
      if (f.v(j, r_best) != 0.0) {
        bt.push_back({ops.b.data() + (j / f.nt) * ks * ldb + (j % f.nt) * ns, f.v(j, r_best)});
      }
    }
    for (int p = 0; p < f.rows_w(); ++p) {
      if (f.w(p, r_best) != 0.0) {
        ct.push_back({ops.c.data() + (p / f.nt) * ms * ldc + (p % f.nt) * ns, f.w(p, r_best)});
      }
    }
    fmm::GemmWorkspace ws;
    const fmm::GemmConfig fcfg = rep_exec.config();
    const double sec = best_time([&] {
      fmm::fused_multiply<double>(ms, ns, ks, at.data(), static_cast<int>(at.size()), lda,
                                  bt.data(), static_cast<int>(bt.size()), ldb, ct.data(),
                                  static_cast<int>(ct.size()), ldc, ws, fcfg);
    });
    M["fused.gflops"] = 2.0 * ms * ns * static_cast<double>(ks) / sec * 1e-9;
  }
  {
    // Descent is measured on a square probe just above the engine's cutoff,
    // whatever the workload, with the plan the engine picks there: through
    // this engine (its recurse.* spans land in the ledger trace) and
    // through one with descent disabled.
    obs::TraceScope span("ledger.recursive", "perfbench");
    const fmm::index_t cut = engine.recurse_cutoff();
    const fmm::index_t n = cut > 0 ? fmm::round_up(cut + 512, 256) : 4096;
    fmm::AlignedBuffer<double> pa, pb, pc;
    fill_random(pa, static_cast<std::size_t>(n * n), 21);
    fill_random(pb, static_cast<std::size_t>(n * n), 22);
    pc.resize(static_cast<std::size_t>(n * n));
    std::memset(pc.data(), 0, sizeof(double) * static_cast<std::size_t>(n * n));
    const fmm::AutoChoice ch = engine.choice_for(n, n, n);
    const Plan plan = ch.use_gemm ? fmm::rank_by_model(n, n, n, space, params, cfg).front().plan
                                  : *ch.plan;
    const MatView c(pc.data(), n, n, n);
    const ConstMatView a(pa.data(), n, n, n), b(pb.data(), n, n, n);
    fmm::Engine::Options fopts = opts;
    fopts.recurse_cutoff = -1;
    fmm::Engine flat(fopts);
    int calls = 0;
    const std::uint64_t runs0 = engine.stats().recursive_runs;
    const double t_default = best_time(
        [&] {
          engine.multiply(plan, c, a, b);
          ++calls;
        },
        0.0);
    M["recursive.runs"] =
        static_cast<double>(engine.stats().recursive_runs - runs0) / calls;
    const double t_flat = best_time([&] { flat.multiply(plan, c, a, b); }, 0.0);
    M["recursive.speedup_vs_flat"] = t_flat / t_default;
  }
  out.details_json = json_array(detail_rows);
  return out;
}

}  // namespace perfbench

// fmm_perfbench: the repository benchmark's measuring process.
//
//   fmm_perfbench run --workload W --seed S --seconds N --trace 0|1 --out DIR
//   fmm_perfbench selftest
//
// `run` starts cold and prints one JSON object as its last stdout line: the
// request tally, the end-to-end metrics (and with trace 1 the per-layer
// metrics this process measures), and the run environment.
// perfbench/run.py builds this binary and assembles the result.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "check.h"
#include "ledger.h"
#include "report.h"
#include "runner.h"
#include "src/arch/cache_info.h"
#include "src/arch/calibrate.h"
#include "src/gemm/gemm.h"
#include "src/obs/trace.h"

using namespace perfbench;

namespace {

namespace obs = fmm::obs;

struct Args {
  std::string mode;
  Workload workload = Workload::kSquareLarge;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".";
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      if (!parse_workload(val, &a->workload)) return false;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val);
    } else if (key == "--trace") {
      a->trace = std::atoi(val);
    } else if (key == "--out") {
      a->out = val;
    } else {
      return false;
    }
  }
  return a->seconds > 0;
}

int nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// `engine` is the measured engine; `cal` the parameters its cold-start twin
// calibrated.
std::string env_json(fmm::Engine& engine, const fmm::ModelParams& cal) {
  const fmm::arch::CacheTopology& topo = fmm::arch::cache_topology();
  const fmm::KernelInfo& k64 = fmm::active_kernel(fmm::DType::kF64);
  const fmm::KernelInfo& k32 = fmm::active_kernel(fmm::DType::kF32);
  const fmm::ModelParams p = engine.params();
  return JsonObject()
      .integer("nproc", nproc())
      .str("cpu_model", topo.cpu_model)
      .str("cache_source", topo.source)
      .boolean("cache_detected", topo.detected)
      .integer("l1d_bytes", topo.l1d_bytes)
      .integer("l2_bytes", topo.l2_bytes)
      .integer("l3_bytes", topo.l3_bytes)
      .integer("l3_sharing", topo.l3_sharing)
      .str("kernel_f64", k64.name)
      .str("kernel_f32", k32.name)
      .num("kernel_f64_calibrated_gflops", fmm::arch::kernel_gflops(k64))
      .num("kernel_f32_calibrated_gflops", fmm::arch::kernel_gflops(k32))
      .integer("recurse_cutoff", engine.recurse_cutoff())
      .integer("workers", engine.workers() > 0 ? engine.workers() : nproc())
      .integer("engine_threads", fmm::resolve_threads(engine.config()))
      .integer("history_min_observations",
               static_cast<long long>(engine.history().tuning().min_observations))
      .num("tau_a", p.tau_a)
      .num("tau_b", p.tau_b)
      .num("lambda", p.lambda)
      .num("calibrated_tau_a", cal.tau_a)
      .num("calibrated_tau_b", cal.tau_b)
      .num("calibrated_lambda", cal.lambda)
      .dump();
}

std::string plans_json(const std::map<std::string, std::string>& plans) {
  JsonObject o;
  for (const auto& [label, desc] : plans) o.str(label, desc);
  return o.dump();
}

std::string changes_json(const std::vector<PlanChange>& changes) {
  std::vector<std::string> rows;
  for (const PlanChange& c : changes) {
    rows.push_back(JsonObject().str("shape", c.shape).str("from", c.from).str("to", c.to).dump());
  }
  return json_array(rows);
}

std::string strings_json(const std::vector<std::string>& v) {
  std::vector<std::string> q;
  for (const std::string& s : v) q.push_back(JsonObject::quote(s));
  return json_array(q);
}

// Hits per lookup; 1 when nothing was looked up (nothing missed).
double ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t all = hits + misses;
  return all > 0 ? static_cast<double>(hits) / static_cast<double>(all) : 1.0;
}

int cmd_run(const Args& args) {
  const Spec spec = make_spec(args.workload, nproc());
  Operands ops(spec, args.seed);
  Tally tally;
  Driver drv(spec, args.seed, &ops, &tally);
  const fmm::Engine::Options opts = engine_options(spec, nproc());
  double setup_s = 0, calibrate_s = 0;
  std::unique_ptr<fmm::Engine> engine = drv.setup(opts, &setup_s, &calibrate_s);
  const fmm::ModelParams calibrated = engine->params();
  // Unless the workload needs the calibrated choices, the timed passes run
  // on a second engine that keeps the default model parameters.
  // calibrate() on a shared host measures the f64 kernel peak anywhere from
  // 16 to 94 GFLOP/s and fits lambda anywhere in [0.5, 1] between cold
  // starts, which moves the large shapes' plans and with them a 2 s pass
  // of square_large from 95 to 207 GFLOP/s; no run-length budget averages
  // that out.
  if (!spec.time_calibrated) {
    engine.reset();
    engine = std::make_unique<fmm::Engine>(opts);
    drv.prime(*engine);
  }
  const Driver::WarmUp warm = drv.warm_up(*engine, spec.warmup_cap_s);

  // Plan snapshots sit outside the stats window: their choice lookups are
  // not traffic.
  const std::map<std::string, std::string> plans_before = drv.plans(*engine);
  const fmm::Engine::CacheStats s0 = engine->stats();
  fmm::obs::Counter& tasks = engine->metrics().counter("pool.tasks");
  const std::uint64_t tasks0 = tasks.value();
  Phase ph = drv.timed(*engine, args.seconds);
  const fmm::Engine::CacheStats s1 = engine->stats();
  const std::uint64_t tasks1 = tasks.value();
  const std::map<std::string, std::string> plans = drv.plans(*engine);
  if (spec.serving) ph.changes = plan_changes(plans_before, plans);

  // run.py pools the latencies of every measuring process and takes the
  // latency quantiles over them.
  {
    const std::string path = args.out + "/latency_ms.txt";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    for (double ms : ph.latency_ms) std::fprintf(f, "%.9g\n", ms);
    std::fclose(f);
  }
  JsonObject e2e;
  e2e.num("gflops", median(ph.pass_gflops))
      .num("setup_s", setup_s)
      .num("peak_rss_mb", peak_rss_mib());

  JsonObject layer;
  JsonObject extra;
  const std::string env = env_json(*engine, calibrated);
  if (args.trace != 0) {
    layer.num("arch.calibrate_s", calibrate_s)
        .num("engine.cache_hit_ratio", ratio(s1.hits - s0.hits, s1.misses - s0.misses))
        .num("engine.choice_hit_ratio",
             ratio(s1.choice_hits - s0.choice_hits, s1.choice_misses - s0.choice_misses))
        .num("pool.tasks", static_cast<double>(tasks1 - tasks0));
    const fmm::obs::Histogram::Snapshot qw =
        engine->metrics().histogram("pool.queue_wait", "us").snapshot();
    layer.num("pool.queue_wait_p50_us", qw.p50).num("pool.queue_wait_p99_us", qw.p99);
    layer.num("engine.overhead_us", engine_overhead_us(*engine, ops));

    const std::string ledger_trace = args.out + "/ledger_trace.json";
    obs::trace_begin(ledger_trace);
    const LedgerResult ledger = measure_ledger(spec, *engine, opts, ops);
    obs::trace_end();
    for (const auto& [name, value] : ledger.metrics) layer.num(name, value);
    // The recursive probe ran on this engine: its S/T/M high-water mark.
    engine->metrics_report();  // refreshes the buffer-pool gauges
    layer.num("bufpool.peak_mb",
              static_cast<double>(engine->metrics().gauge("engine.recurse.peak_bytes").value()) /
                  (1024.0 * 1024.0));
    engine.reset();

    // The same workload again with the engine's trace on; only the timed
    // passes stay in the file.
    setenv("FMM_TRACE_BUF", "131072", 1);
    fmm::Engine::Options topts = opts;
    topts.trace_path = args.out + "/timed_trace.json";
    Driver tdrv(spec, args.seed, &ops, &tally);
    std::unique_ptr<fmm::Engine> traced = std::make_unique<fmm::Engine>(topts);
    if (spec.time_calibrated) traced->calibrate();
    tdrv.prime(*traced);
    tdrv.warm_up(*traced, spec.warmup_cap_s);
    obs::trace_reset();
    const Phase tph = tdrv.timed(*traced, args.seconds);
    const std::uint64_t dropped = obs::trace_dropped();
    traced.reset();  // writes the trace
    layer.num("obs.trace_overhead", tph.gflops() / ph.gflops());
    extra.raw("ledger_shapes", ledger.details_json)
        .str("timed_trace", topts.trace_path)
        .str("ledger_trace", ledger_trace)
        .integer("trace_dropped_events", static_cast<long long>(dropped))
        .num("traced_gflops", tph.gflops())
        .num("untraced_gflops", ph.gflops());
  }

  const bool ok = tally.failed == 0;
  const std::string out =
      JsonObject()
          .str("workload", workload_name(args.workload))
          .integer("seed", static_cast<long long>(args.seed))
          .boolean("ok", ok)
          .integer("attempted", tally.attempted)
          .integer("failed", tally.failed)
          .num("worst_check_ratio", tally.worst_check)
          .raw("failures", strings_json(tally.failures))
          .raw("end_to_end", e2e.dump())
          .raw("per_layer", layer.dump())
          .raw("samples", JsonObject()
                              .integer("timed_requests", ph.requests)
                              .integer("latency_samples",
                                       static_cast<long long>(ph.latency_ms.size()))
                              .integer("timed_passes", ph.passes)
                              .num("timed_seconds", ph.seconds)
                              .raw("pass_gflops", num_array(ph.pass_gflops))
                              .num("calibrate_s", calibrate_s)
                              .dump())
          .raw("plans", plans_json(plans))
          .raw("plan_changes_timed", changes_json(ph.changes))
          .raw("warmup", JsonObject()
                             .integer("passes", warm.passes)
                             .num("seconds", warm.seconds)
                             .integer("plan_changes", warm.plan_changes)
                             .raw("unsettled", strings_json(warm.unsettled))
                             .dump())
          .raw("extra", extra.dump())
          .raw("env", env)
          .dump();
  std::printf("%s\n", out.c_str());
  return ok ? 0 : 1;
}

// --- Self-tests --------------------------------------------------------------

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
  if (!cond) ++g_failures;
}

template <typename T>
void freivalds_selftest(const char* tname) {
  const fmm::index_t m = 96, n = 80, k = 112;
  std::vector<T> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
  std::vector<T> c(static_cast<std::size_t>(m * n), T(0));
  fmm::Xoshiro256 rng(5);
  for (T& v : a) v = static_cast<T>(rng.uniform(-1, 1));
  for (T& v : b) v = static_cast<T>(rng.uniform(-1, 1));
  const fmm::ConstMatViewT<T> av(a.data(), m, k, k), bv(b.data(), k, n, n);
  const fmm::ConstMatViewT<T> cv(c.data(), m, n, n);
  fmm::ref_gemm(fmm::MatViewT<T>(c.data(), m, n, n), av, bv);
  const std::string t = tname;
  expect(freivalds_ratio<T>(cv, av, bv, 0, 9) <= 1.0, t + " freivalds: correct C passes");

  // Through the Engine's auto path, with the executed plan's level count.
  std::vector<T> c2(c.size(), T(0));
  fmm::Engine engine;
  std::shared_ptr<const fmm::AutoChoice> executed;
  engine.multiply(fmm::MatViewT<T>(c2.data(), m, n, n), av, bv, &executed);
  const int levels = executed && !executed->use_gemm ? executed->plan->num_levels() : 0;
  expect(freivalds_ratio<T>(fmm::ConstMatViewT<T>(c2.data(), m, n, n), av, bv, levels, 9) <= 1.0,
         t + " freivalds: engine result passes (" + (executed ? executed->description : "?") + ")");

  // Entries of C are ~3 in magnitude here; the f32 tolerance at two levels
  // is ~2 per row, the f64 one ~1e-11.
  const T off = std::is_same<T, double>::value ? T(1e-6) : T(8);
  std::vector<T> bad = c;
  bad[static_cast<std::size_t>(3 * n + 5)] += off;
  expect(freivalds_ratio<T>(fmm::ConstMatViewT<T>(bad.data(), m, n, n), av, bv, 2, 9) > 1.0,
         t + " freivalds: one element off by " + std::to_string(off) + " is flagged");
  bad = c;
  bad[0] = std::numeric_limits<T>::quiet_NaN();
  expect(freivalds_ratio<T>(fmm::ConstMatViewT<T>(bad.data(), m, n, n), av, bv, 2, 9) > 1.0,
         t + " freivalds: a NaN is flagged");
  bad = c;
  for (fmm::index_t j = 0; j < n; ++j) bad[static_cast<std::size_t>(7 * n + j)] = T(0);
  expect(freivalds_ratio<T>(fmm::ConstMatViewT<T>(bad.data(), m, n, n), av, bv, 2, 9) > 1.0,
         t + " freivalds: a missing row is flagged");
}

int cmd_selftest() {
  for (Workload w : {Workload::kSquareLarge, Workload::kRankK, Workload::kServingMix}) {
    const Spec spec = make_spec(w, 4);
    auto stream = [&](std::uint64_t seed) {
      fmm::Xoshiro256 rng(seed);
      std::string text;
      for (int p = 0; p < 3; ++p) text += describe(next_pass(spec, rng));
      return text;
    };
    const std::string name = workload_name(w);
    expect(stream(1) == stream(1), name + ": same seed, identical request stream");
    expect(stream(1) != stream(2), name + ": different seed, different request stream");
    fmm::Xoshiro256 rng(3);
    double flops_a = 0, flops_b = 0;
    for (const Request& r : next_pass(spec, rng)) flops_a += r.flops();
    for (const Request& r : next_pass(spec, rng)) flops_b += r.flops();
    expect(flops_a == flops_b && flops_a > 0, name + ": every pass carries the same work");
  }
  const Spec serving = make_spec(Workload::kServingMix, 4);
  expect(distinct_shapes(serving).size() <= fmm::Engine::kDefaultCacheCapacity,
         "serving_mix: shapes x dtypes fit the default executor cache");

  freivalds_selftest<double>("f64");
  freivalds_selftest<float>("f32");
  expect(freivalds_gamma<double>(4096, 4096, 2) < 1e-9,
         "freivalds: f64 tolerance at n=4096, two levels stays below 1e-9");
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fmm_perfbench run|selftest [--workload W] "
                 "[--seed S] [--seconds N] [--trace 0|1] [--out DIR]\n");
    return 2;
  }
  if (args.mode == "run") return cmd_run(args);
  if (args.mode == "selftest") return cmd_selftest();
  std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  return 2;
}

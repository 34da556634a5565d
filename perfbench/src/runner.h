#pragma once

// Drives one workload through the public fmm::Engine API: cold set-up,
// warm-up, and the timed closed loop, checking every request's result
// outside the timed window.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/util/aligned_buffer.h"
#include "stream.h"

namespace perfbench {

// Uniform [-1, 1) entries from `seed`.
template <typename T>
void fill_random(fmm::AlignedBuffer<T>& buf, std::size_t n, std::uint64_t seed) {
  buf.resize(n);
  fmm::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
}

// The operand pools every request views into (f64 and f32 copies).
struct Operands {
  Operands(const Spec& spec, std::uint64_t seed);
  fmm::AlignedBuffer<double> a, b, c;
  fmm::AlignedBuffer<float> af, bf, cf;
  std::size_t c_elems = 0;
};

// Requests checked and failed across a whole process, every phase.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  double worst_check = 0.0;  // largest Freivalds error/tolerance seen
  std::vector<std::string> failures;  // first few, for the log
  void record(bool ok_status, double ratio, const std::string& what);
};

struct PlanChange {
  std::string shape;
  std::string from, to;
};

// One timed (or warm-up) stretch of passes.
struct Phase {
  double flops = 0.0;
  double seconds = 0.0;            // the timed window: requests only
  std::vector<double> latency_ms;  // per request, submit -> resolved
  std::vector<double> pass_gflops;  // per timed pass
  int passes = 0;
  long long requests = 0;
  std::vector<PlanChange> changes;
  double gflops() const { return seconds > 0 ? flops / seconds * 1e-9 : 0.0; }
};

// The Engine configuration a workload runs with: default Options for the
// compute workloads, the README serving configuration (num_threads = 1,
// one pool worker per core) with the online model off for serving_mix.
fmm::Engine::Options engine_options(const Spec& spec, int nproc);

class Driver {
 public:
  Driver(const Spec& spec, std::uint64_t seed, Operands* ops, Tally* tally);

  // Cold start: Engine construction, calibrate(), and the first request of
  // every shape the deck holds.  Returns the engine; *setup_s covers all of
  // that except the result checks, *calibrate_s the calibrate() call.
  std::unique_ptr<fmm::Engine> setup(const fmm::Engine::Options& opts,
                                     double* setup_s, double* calibrate_s);

  // The first request of every shape (choice ranking, executor compile,
  // cache fill); returns their summed latency.
  double prime(fmm::Engine& engine);

  // Passes until every shape's executed plan has twice
  // history_min_observations requests since it last changed (it then stayed
  // the choice after its history key became confident), or `budget_s` has
  // run out; none when the budget is 0.
  struct WarmUp {
    int passes = 0;
    double seconds = 0.0;
    int plan_changes = 0;
    std::vector<std::string> unsettled;  // shapes short of that count
  };
  WarmUp warm_up(fmm::Engine& engine, double budget_s);

  // Whole passes until the timed window reaches `seconds`.  Serial
  // workloads record every change of a shape's executed plan in the phase;
  // the serving loop has no per-request plan report, so callers compare
  // plans() before and after instead.
  Phase timed(fmm::Engine& engine, double seconds);

  // The executed plan description per shape, as the engine would choose now.
  std::map<std::string, std::string> plans(fmm::Engine& engine);

 private:
  void run_pass(fmm::Engine& engine, const std::vector<Request>& pass, Phase* ph);
  void run_serial_pass(fmm::Engine& engine, const std::vector<Request>& pass,
                       Phase* ph);
  void run_serving_pass(fmm::Engine& engine, const std::vector<Request>& pass,
                        Phase* ph);
  // Checks every item of `r` (C of the request must be final).
  void check(const Request& r, bool ok_status, int levels);

  const Spec& spec_;
  std::uint64_t seed_;
  Operands* ops_;
  Tally* tally_;
  fmm::Xoshiro256 rng_;
  std::uint64_t checks_ = 0;  // per-check x seed
  std::map<std::string, std::string> last_plan_;  // serial workloads
};

std::string shape_label(const Shape& s, bool f32);

std::vector<PlanChange> plan_changes(const std::map<std::string, std::string>& before,
                                     const std::map<std::string, std::string>& after);

}  // namespace perfbench

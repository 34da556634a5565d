#include "runner.h"

#include <sys/prctl.h>

#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include "check.h"
#include "src/util/timer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// How long the serving generator sleeps when no in-flight request is done.
constexpr std::chrono::microseconds kPollInterval(20);

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// C blocks of one serving request's items sit this many elements apart.
std::size_t c_item_stride(const Shape& s) {
  const std::size_t mn = static_cast<std::size_t>(s.m * s.n);
  return (mn + 15) / 16 * 16;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  fmm::Xoshiro256 rng(a ^ (b * 0x9e3779b97f4a7c15ULL));
  return rng.next_u64();
}

// Observations one request adds to its shape's history key: a batch is one
// observation of all its items.
std::string request_label(const Request& r) {
  return shape_label(r.shape, r.kind == Kind::kF32);
}

}  // namespace

std::string shape_label(const Shape& s, bool f32) {
  return std::string(f32 ? "f32:" : "f64:") + std::to_string(s.m) + "x" +
         std::to_string(s.n) + "x" + std::to_string(s.k);
}

Operands::Operands(const Spec& spec, std::uint64_t seed) {
  bool any_f32 = false;
  for (const Request& r : spec.deck) any_f32 |= r.kind == Kind::kF32;
  fill_random(a, spec.a_pool, mix(seed, 1));
  fill_random(b, spec.b_pool, mix(seed, 2));
  c.resize(spec.c_arena);
  if (any_f32) {
    fill_random(af, spec.a_pool, mix(seed, 3));
    fill_random(bf, spec.b_pool, mix(seed, 4));
    cf.resize(spec.c_arena);
  }
  c_elems = spec.c_arena;
}

void Tally::record(bool ok_status, double ratio, const std::string& what) {
  ++attempted;
  if (ratio > worst_check) worst_check = ratio;
  if (ok_status && ratio <= 1.0) return;
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what + (ok_status ? " check ratio " + std::to_string(ratio)
                                         : " non-OK status"));
  }
}

fmm::Engine::Options engine_options(const Spec& spec, int nproc) {
  fmm::Engine::Options opts;
  if (spec.serving) {
    opts.config.num_threads = 1;
    opts.workers = nproc;
  }
  // The online model stays off on every workload.  On serving_mix the
  // serial shapes kept re-ranking: 100-170 plan changes over 12-19 s of
  // warm-up, and runs settled on plan sets whose GFLOP/s differ by +-15%,
  // which would bury any change to the Engine, caches or pool.  On rank_k a
  // shape met twice per pass turns confident within a process, and a
  // measured rate taken while the host is busy can flip its plan for the
  // rest of that process.  With it off, a shape's plan follows from the
  // model parameters alone.
  opts.history = false;
  return opts;
}

Driver::Driver(const Spec& spec, std::uint64_t seed, Operands* ops, Tally* tally)
    : spec_(spec), seed_(seed), ops_(ops), tally_(tally), rng_(mix(seed, 7)) {
  // The serving loop's polling sleeps are short; without this the kernel
  // may stretch each by its default 50 us timer slack.
  if (spec_.serving) prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

void Driver::check(const Request& r, bool ok_status, int levels) {
  const Shape& s = r.shape;
  double worst = 0.0;
  for (int i = 0; i < r.items; ++i) {
    const std::size_t c_off = r.c_off + static_cast<std::size_t>(i) * c_item_stride(s);
    const std::size_t a_off = r.a_off[static_cast<std::size_t>(i)];
    const std::uint64_t xseed = mix(seed_, ++checks_);
    double ratio;
    if (r.kind == Kind::kF32) {
      ratio = freivalds_ratio<float>(
          fmm::ConstMatViewF32(ops_->cf.data() + c_off, s.m, s.n, s.n),
          fmm::ConstMatViewF32(ops_->af.data() + a_off, s.m, s.k, s.k),
          fmm::ConstMatViewF32(ops_->bf.data() + r.b_off, s.k, s.n, s.n), levels, xseed);
    } else {
      ratio = freivalds_ratio<double>(
          fmm::ConstMatView(ops_->c.data() + c_off, s.m, s.n, s.n),
          fmm::ConstMatView(ops_->a.data() + a_off, s.m, s.k, s.k),
          fmm::ConstMatView(ops_->b.data() + r.b_off, s.k, s.n, s.n), levels, xseed);
    }
    if (!(ratio <= worst)) worst = ratio;
  }
  tally_->record(ok_status, worst, request_label(r));
}

void Driver::run_serial_pass(fmm::Engine& engine, const std::vector<Request>& pass,
                             Phase* ph) {
  for (const Request& r : pass) {
    const Shape& s = r.shape;
    std::memset(ops_->c.data(), 0, sizeof(double) * static_cast<std::size_t>(s.m * s.n));
    const fmm::MatView c(ops_->c.data(), s.m, s.n, s.n);
    const fmm::ConstMatView a(ops_->a.data() + r.a_off[0], s.m, s.k, s.k);
    const fmm::ConstMatView b(ops_->b.data() + r.b_off, s.k, s.n, s.n);
    std::shared_ptr<const fmm::AutoChoice> executed;
    const auto t0 = Clock::now();
    const fmm::Status st = engine.multiply(c, a, b, &executed);
    const double lat = ms_between(t0, Clock::now());
    ph->seconds += lat * 1e-3;
    ph->flops += r.flops();
    ph->latency_ms.push_back(lat);
    ++ph->requests;

    const std::string desc = executed ? executed->description : "?";
    const std::string label = request_label(r);
    auto it = last_plan_.find(label);
    if (it != last_plan_.end() && it->second != desc) {
      ph->changes.push_back({label, it->second, desc});
    }
    last_plan_[label] = desc;
    const int levels =
        executed && !executed->use_gemm ? executed->plan->num_levels() : 0;
    check(r, st.ok(), levels);
  }
}

void Driver::run_serving_pass(fmm::Engine& engine, const std::vector<Request>& pass,
                              Phase* ph) {
  std::memset(ops_->c.data(), 0, sizeof(double) * ops_->c_elems);
  if (ops_->cf.size() > 0) std::memset(ops_->cf.data(), 0, sizeof(float) * ops_->c_elems);

  auto submit = [&](const Request& r) -> fmm::TaskFuture {
    const Shape& s = r.shape;
    if (r.kind == Kind::kF32) {
      return engine.submit(
          fmm::MatViewF32(ops_->cf.data() + r.c_off, s.m, s.n, s.n),
          fmm::ConstMatViewF32(ops_->af.data() + r.a_off[0], s.m, s.k, s.k),
          fmm::ConstMatViewF32(ops_->bf.data() + r.b_off, s.k, s.n, s.n));
    }
    const fmm::ConstMatView b(ops_->b.data() + r.b_off, s.k, s.n, s.n);
    if (r.kind == Kind::kF64) {
      return engine.submit(fmm::MatView(ops_->c.data() + r.c_off, s.m, s.n, s.n),
                           fmm::ConstMatView(ops_->a.data() + r.a_off[0], s.m, s.k, s.k),
                           b);
    }
    std::vector<fmm::BatchItem> items;  // copied by submit
    for (int i = 0; i < r.items; ++i) {
      const std::size_t c_off = r.c_off + static_cast<std::size_t>(i) * c_item_stride(s);
      items.push_back({fmm::MatView(ops_->c.data() + c_off, s.m, s.n, s.n),
                       fmm::ConstMatView(ops_->a.data() + r.a_off[static_cast<std::size_t>(i)],
                                         s.m, s.k, s.k),
                       b});
    }
    return engine.submit(fmm::BatchSpec::items(items));
  };

  struct Flight {
    fmm::TaskFuture f;
    std::size_t idx;
    Clock::time_point t0;
  };
  const std::size_t depth = static_cast<std::size_t>(spec_.in_flight);
  std::vector<char> ok(pass.size(), 0);
  std::vector<double> lat(pass.size(), 0.0);
  std::vector<Flight> flying;
  std::size_t next = 0;
  const auto round0 = Clock::now();
  // Requests of very different sizes finish out of order, so every
  // in-flight future is polled: a request is stamped the first time it is
  // seen done and its slot is refilled at once.  Between empty polls the
  // generator sleeps kPollInterval instead of spinning on a core the pool
  // workers need; a latency reads at most about that much long.
  while (next < pass.size() || !flying.empty()) {
    while (flying.size() < depth && next < pass.size()) {
      const auto t0 = Clock::now();
      fmm::TaskFuture f = submit(pass[next]);
      flying.push_back({std::move(f), next, t0});
      ++next;
    }
    bool any = false;
    for (std::size_t i = 0; i < flying.size();) {
      Flight& fl = flying[i];
      if (!fl.f.done()) {
        ++i;
        continue;
      }
      lat[fl.idx] = ms_between(fl.t0, Clock::now());
      ok[fl.idx] = fl.f.status().ok() ? 1 : 0;
      std::swap(fl, flying.back());
      flying.pop_back();
      any = true;
    }
    if (!any) std::this_thread::sleep_for(kPollInterval);
  }
  ph->seconds += std::chrono::duration<double>(Clock::now() - round0).count();
  for (std::size_t i = 0; i < pass.size(); ++i) {
    ph->flops += pass[i].flops();
    ph->latency_ms.push_back(lat[i]);
    ++ph->requests;
    // The plan space holds at most two levels; the check assumes the most.
    check(pass[i], ok[i] != 0, 2);
  }
}

void Driver::run_pass(fmm::Engine& engine, const std::vector<Request>& pass,
                      Phase* ph) {
  if (spec_.serving) {
    run_serving_pass(engine, pass, ph);
  } else {
    run_serial_pass(engine, pass, ph);
  }
}

std::unique_ptr<fmm::Engine> Driver::setup(const fmm::Engine::Options& opts,
                                           double* setup_s, double* calibrate_s) {
  fmm::Timer t_ctor;
  auto engine = std::make_unique<fmm::Engine>(opts);
  double total = t_ctor.seconds();
  fmm::Timer t_cal;
  engine->calibrate();
  *calibrate_s = t_cal.seconds();
  *setup_s = total + *calibrate_s + prime(*engine);
  return engine;
}

double Driver::prime(fmm::Engine& engine) {
  double seconds = 0.0;
  for (const ShapeKey& key : distinct_shapes(spec_)) {
    Request r;
    r.kind = key.f32 ? Kind::kF32 : Kind::kF64;
    r.shape = key.shape;
    r.a_off = {0};
    Phase ph;
    run_pass(engine, {r}, &ph);
    seconds += ph.seconds;
  }
  return seconds;
}

std::map<std::string, std::string> Driver::plans(fmm::Engine& engine) {
  std::map<std::string, std::string> out;
  for (const ShapeKey& key : distinct_shapes(spec_)) {
    const Shape& s = key.shape;
    out[shape_label(s, key.f32)] =
        engine.choice_for(s.m, s.n, s.k, key.f32 ? fmm::DType::kF32 : fmm::DType::kF64)
            .description;
  }
  return out;
}

Driver::WarmUp Driver::warm_up(fmm::Engine& engine, double budget_s) {
  const long long need =
      2 * static_cast<long long>(engine.history().tuning().min_observations);
  std::map<std::string, long long> since_change;
  std::map<std::string, std::string> plan = plans(engine);
  fmm::Timer t;
  WarmUp w;
  while (t.seconds() < budget_s) {
    const std::vector<Request> pass = next_pass(spec_, rng_);
    Phase ph;
    run_pass(engine, pass, &ph);
    ++w.passes;
    std::map<std::string, long long> seen;
    for (const Request& r : pass) {
      // f64 singles and batches of one shape share the history key.
      ++seen[request_label(r)];
    }
    const std::map<std::string, std::string> now = plans(engine);
    for (const auto& [label, count] : seen) {
      if (now.at(label) != plan.at(label)) {
        since_change[label] = 0;
        ++w.plan_changes;
      } else {
        since_change[label] += count;
      }
    }
    plan = now;
    w.unsettled.clear();
    for (const auto& [label, count] : since_change) {
      if (count < need) w.unsettled.push_back(label);
    }
    if (w.unsettled.empty()) break;
  }
  w.seconds = t.seconds();
  return w;
}

Phase Driver::timed(fmm::Engine& engine, double seconds) {
  Phase ph;
  while (ph.passes == 0 || ph.seconds < seconds) {
    const double f0 = ph.flops, s0 = ph.seconds;
    run_pass(engine, next_pass(spec_, rng_), &ph);
    ph.pass_gflops.push_back((ph.flops - f0) / (ph.seconds - s0) * 1e-9);
    ++ph.passes;
  }
  return ph;
}

std::vector<PlanChange> plan_changes(const std::map<std::string, std::string>& before,
                                     const std::map<std::string, std::string>& after) {
  std::vector<PlanChange> out;
  for (const auto& [label, desc] : after) {
    auto it = before.find(label);
    if (it != before.end() && it->second != desc) out.push_back({label, it->second, desc});
  }
  return out;
}

}  // namespace perfbench

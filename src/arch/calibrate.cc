#include "src/arch/calibrate.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/stat.h>

#include "src/arch/cache_info.h"
#include "src/gemm/blocking.h"
#include "src/obs/trace.h"
#include "src/util/aligned_buffer.h"
#include "src/util/env.h"
#include "src/util/timer.h"

namespace fmm::arch {
namespace {

struct CalibState {
  std::mutex mu;
  std::map<std::string, double> rates;  // kernel_cache_key() -> GFLOP/s
  bool file_loaded = false;
  int timing_runs = 0;
  // First cache-file I/O failure this process (load or append).
  Status file_status;
};

CalibState& state() {
  static CalibState s;
  return s;
}

// The persisted-cache key must survive spaces in brand strings; one token.
std::string sanitized_cpu_model() {
  std::string model = cache_topology().cpu_model;
  if (model.empty()) model = "unknown-cpu";
  for (char& c : model) {
    if (std::isspace(static_cast<unsigned char>(c))) c = '_';
  }
  return model;
}

// The cache path: the FMM_CALIB_CACHE environment variable.  Empty = no
// persistence.
std::string cache_path() {
  const char* path = std::getenv("FMM_CALIB_CACHE");
  return path != nullptr ? std::string(path) : std::string();
}

void note_file_error_locked(CalibState& s, StatusCode code,
                            const std::string& message) {
  if (s.file_status.ok()) s.file_status = Status::error(code, message);
}

// FMM_CALIB_CACHE line format: <cpu-model> <kernel-name> <gflops>
void load_cache_file_locked(CalibState& s) {
  s.file_loaded = true;
  const std::string path = cache_path();
  if (path.empty()) return;
  std::ifstream f(path);
  if (!f) {
    // A missing file is the normal first run; only an existing-but-
    // unreadable file is an error worth surfacing.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
      note_file_error_locked(s, StatusCode::kIOError,
                             "calibration cache unreadable: " + path);
    }
    return;
  }
  const std::string want_model = sanitized_cpu_model();
  std::string line;
  bool malformed = false;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string model, kernel;
    double gflops = 0;
    if (!(iss >> model >> kernel >> gflops)) {
      malformed = true;
      continue;
    }
    if (model == want_model && gflops > 0 &&
        s.rates.find(kernel) == s.rates.end()) {
      s.rates.emplace(kernel, gflops);
    }
  }
  if (malformed) {
    note_file_error_locked(s, StatusCode::kCorruptData,
                           "malformed row(s) in calibration cache: " + path);
  }
}

void append_cache_file_locked(CalibState& s, const std::string& kernel,
                              double gflops) {
  const std::string path = cache_path();
  if (path.empty()) return;
  std::ofstream f(path, std::ios::app);
  if (!f) {
    note_file_error_locked(s, StatusCode::kIOError,
                           "cannot append to calibration cache: " + path);
    return;
  }
  f << sanitized_cpu_model() << ' ' << kernel << ' ' << gflops << '\n';
  f.flush();
  if (!f) {
    note_file_error_locked(s, StatusCode::kIOError,
                           "short write to calibration cache: " + path);
  }
}

// Times `kern` on hot panels at its own derived k_C.  Adaptive: the rep
// count doubles until one batch takes >= 0.5 ms, then the best of three
// batches is kept — a few milliseconds per kernel even for the scalar
// fallback, tens of microseconds of measured work for the vector kernels.
template <typename T>
double time_kernel_gflops_t(const KernelInfo& kern) {
  const auto fn = kernel_fn<T>(kern);
  const index_t kc = derive_blocking(kern, cache_topology()).kc;
  AlignedBuffer<T> a(static_cast<std::size_t>(kern.mr) * kc);
  AlignedBuffer<T> b(static_cast<std::size_t>(kern.nr) * kc);
  alignas(64) T acc[kMaxAccElemsOf<T>];
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<T>(1.0 + 1e-9 * i);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<T>(1.0 - 1e-9 * i);

  const double flops_per_call = 2.0 * kern.mr * kern.nr * kc;
  long reps = 16;
  double elapsed = 0.0;
  for (;;) {
    Timer t;
    for (long r = 0; r < reps; ++r) fn(kc, a.data(), b.data(), acc);
    elapsed = t.seconds();
    if (elapsed >= 0.5e-3 || reps >= (1L << 20)) break;
    reps *= 2;
  }
  double best = elapsed;
  for (int batch = 0; batch < 2; ++batch) {
    Timer t;
    for (long r = 0; r < reps; ++r) fn(kc, a.data(), b.data(), acc);
    best = std::min(best, t.seconds());
  }
  volatile double sink = static_cast<double>(acc[0]);
  (void)sink;
  return flops_per_call * reps / best * 1e-9;
}

double time_kernel_gflops(const KernelInfo& kern) {
  return kern.dtype == DType::kF32 ? time_kernel_gflops_t<float>(kern)
                                   : time_kernel_gflops_t<double>(kern);
}

// τ_b: seconds per element moved by a read-dominated triad over two
// 128 MiB arrays of T, a working set far beyond any LLC.  Timed once per
// element type.
template <typename T>
double triad_tau_b() {
  static const double tau_b = [] {
    obs::TraceScope span("calibrate.tau_b", "calibrate");
    if (span.active()) {
      span.set_argf("%s triad", dtype_name(DTypeOf<T>::value));
    }
    const std::size_t words = (std::size_t{128} << 20) / sizeof(T);
    AlignedBuffer<T> x(words), y(words);
    for (std::size_t i = 0; i < words; ++i) {
      x[i] = static_cast<T>(i & 1023);
      y[i] = T(0);
    }
    double best = best_time_of(3, [&] {
      for (std::size_t i = 0; i < words; ++i) y[i] = T(2) * x[i] + y[i];
    });
    volatile T sink = y[123];
    (void)sink;
    // Three streams per iteration (read x, read y, write y).
    return best / (3.0 * static_cast<double>(words));
  }();
  return tau_b;
}

}  // namespace

double kernel_gflops_hint(const KernelInfo& kern) {
  // Nominal 2.5 GHz: only relative order matters for ranking.
  return kern.flops_per_cycle * 2.5;
}

bool calibration_enabled() {
  return parse_env_flag("FMM_CALIBRATE", /*default_value=*/true);
}

double kernel_gflops(const KernelInfo& kern) {
  if (!calibration_enabled()) return kernel_gflops_hint(kern);
  CalibState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.file_loaded) load_cache_file_locked(s);
  const std::string key = kernel_cache_key(kern);
  if (auto it = s.rates.find(key); it != s.rates.end()) {
    return it->second;
  }
  obs::TraceScope span("calibrate.kernel", "calibrate");
  if (span.active()) span.set_argf("%s", kern.name);
  const double gflops = time_kernel_gflops(kern);
  ++s.timing_runs;
  s.rates.emplace(key, gflops);
  append_cache_file_locked(s, key, gflops);
  return gflops;
}

std::string calibration_cpu_key() { return sanitized_cpu_model(); }

Status calibration_file_status() {
  CalibState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.file_status;
}

double measured_tau_b() { return measured_tau_b(DType::kF64); }

double measured_tau_b(DType dtype) {
  // Nominal per-core stream rate (~12 GB/s, matching the ModelParams
  // default) when timing is disabled: keeps τ_b consistent with the
  // hint-based τ_a instead of mixing a live measurement into a nominal
  // model — and skips the 256 MiB triad the flag promises to avoid.
  if (!calibration_enabled()) {
    return static_cast<double>(dtype_size(dtype)) / 12e9;
  }
  return dtype == DType::kF32 ? triad_tau_b<float>() : triad_tau_b<double>();
}

int calibration_timing_runs() {
  CalibState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.timing_runs;
}

void calibration_reset_for_testing() {
  CalibState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.rates.clear();
  s.file_loaded = false;
  s.file_status = Status{};
}

}  // namespace fmm::arch

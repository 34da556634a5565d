#pragma once

// Seeded request streams for the benchmark's three workloads.
//
// Every workload is a fixed *deck* of request templates.  One pass of the
// stream is the deck in a seeded order, with seeded operand placement; the
// seed never changes which requests a pass holds, only their order and the
// values they read.  So the work per pass (flops, shape mix, dtype mix) is
// the same on every seed, and the seed-to-seed spread of a metric measures
// the system, not the draw.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/linalg/mat_view.h"
#include "src/util/prng.h"

namespace perfbench {

using fmm::index_t;

enum class Workload { kSquareLarge, kRankK, kServingMix };

const char* workload_name(Workload w);
bool parse_workload(const std::string& name, Workload* out);

struct Shape {
  index_t m = 0, n = 0, k = 0;
  double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
  }
  friend bool operator==(const Shape& a, const Shape& b) {
    return a.m == b.m && a.n == b.n && a.k == b.k;
  }
  friend bool operator<(const Shape& a, const Shape& b) {
    if (a.m != b.m) return a.m < b.m;
    if (a.n != b.n) return a.n < b.n;
    return a.k < b.k;
  }
};

// kBatchF64 is one BatchSpec::items request whose items share one B.
enum class Kind { kF64, kF32, kBatchF64 };

struct Request {
  Kind kind = Kind::kF64;
  Shape shape;
  int items = 1;                   // > 1 only for kBatchF64
  std::vector<std::size_t> a_off;  // per item, elements into the A pool
  std::size_t b_off = 0;           // elements into the B pool
  std::size_t c_off = 0;           // item 0's C in the C arena; items follow
  double flops() const { return shape.flops() * items; }
};

struct Spec {
  Workload workload = Workload::kSquareLarge;
  std::vector<Request> deck;  // templates; offsets are filled per pass
  int in_flight = 1;          // closed-loop depth
  bool serving = false;       // README serving engine configuration
  // Warm-up time allowed after set-up, whose first request of every shape
  // already compiled the executors and filled both caches.  A large-shape
  // pass costs seconds, and there a confident multi-threaded measured rate
  // always beats the one-core analytic predictions, so no choice can flip:
  // those workloads warm up no further.
  double warmup_cap_s = 0.0;
  // Time the calibrated cold-start engine itself rather than an
  // uncalibrated twin (see cmd_run).
  bool time_calibrated = false;
  // Elements per operand pool (the same count for the f64 and f32 pools).
  std::size_t a_pool = 0, b_pool = 0, c_arena = 0;
};

Spec make_spec(Workload w, int nproc);

// The next pass of the stream: the deck shuffled by `rng`, operand offsets
// drawn from `rng`, C blocks laid out one after another in the arena.
std::vector<Request> next_pass(const Spec& spec, fmm::Xoshiro256& rng);

// Distinct (shape, is-f32) pairs of the deck, sorted: the shapes whose first
// request belongs to set-up.
struct ShapeKey {
  Shape shape;
  bool f32 = false;
  friend bool operator<(const ShapeKey& a, const ShapeKey& b) {
    if (a.f32 != b.f32) return a.f32 < b.f32;
    return a.shape < b.shape;
  }
  friend bool operator==(const ShapeKey& a, const ShapeKey& b) {
    return a.f32 == b.f32 && a.shape == b.shape;
  }
};
std::vector<ShapeKey> distinct_shapes(const Spec& spec);

// Canonical text of a pass (kinds, shapes, items, offsets), for the
// determinism self-test.
std::string describe(const std::vector<Request>& pass);

}  // namespace perfbench

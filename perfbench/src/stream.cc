#include "stream.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

// Operand offsets are multiples of this many elements, so every view starts
// on a 64-byte line for both element types.
constexpr std::size_t kAlign = 16;

std::size_t align_up(std::size_t v) { return (v + kAlign - 1) / kAlign * kAlign; }

Request single(Kind kind, index_t m, index_t n, index_t k) {
  Request r;
  r.kind = kind;
  r.shape = {m, n, k};
  return r;
}

Request batch(index_t m, index_t n, index_t k, int items) {
  Request r = single(Kind::kBatchF64, m, n, k);
  r.items = items;
  return r;
}

// Fig. 7(a) shapes straddling the recursive cutoff of a large-L3 host.
void square_large_deck(Spec* s) {
  for (index_t n : {2048, 3072, 4096}) s->deck.push_back(single(Kind::kF64, n, n, n));
}

// Fig. 7(c): m = n >> k, below any recursive cutoff.  By latency the six
// shapes fall into three groups: 2880^2 x 256; 2880^2 x 512 with
// 4320^2 x 256 (8.5 and 9.6 GFLOP, whose latencies overlap); and the three
// of 17-38 GFLOP.  2880^2 x 256 comes three times and 4320^2 x 256 twice,
// so each group holds a third of the requests and the median latency sits
// in the dense middle of the middle group, not on its thin upper edge.
void rank_k_deck(Spec* s) {
  for (index_t mn : {2880, 4320}) {
    for (index_t k : {256, 512, 1024}) {
      s->deck.push_back(single(Kind::kF64, mn, mn, k));
    }
  }
  s->deck.push_back(single(Kind::kF64, 4320, 4320, 256));
  s->deck.push_back(single(Kind::kF64, 2880, 2880, 256));
  s->deck.push_back(single(Kind::kF64, 2880, 2880, 256));
}

// 64 requests per pass over ten shapes from 64 to 384: half f64 singles, a
// quarter f32 singles, a quarter f64 shared-B batches of 2-8 items.  Ten
// shapes in two element types stay within the default executor cache, so
// the timed passes never recompile.
void serving_mix_deck(Spec* s) {
  const Shape menu[] = {{64, 64, 64},    {128, 128, 128}, {192, 192, 192},
                        {256, 256, 256}, {384, 384, 384}, {256, 384, 128},
                        {128, 256, 384}, {384, 128, 256}, {320, 320, 96},
                        {96, 192, 320}};
  for (int rep = 0; rep < 3; ++rep) {
    for (const Shape& sh : menu) s->deck.push_back(single(Kind::kF64, sh.m, sh.n, sh.k));
  }
  s->deck.push_back(single(Kind::kF64, 256, 256, 256));
  s->deck.push_back(single(Kind::kF64, 128, 128, 128));
  for (const Shape& sh : menu) s->deck.push_back(single(Kind::kF32, sh.m, sh.n, sh.k));
  for (int i = 0; i < 6; ++i) {
    const Shape& sh = menu[i];
    s->deck.push_back(single(Kind::kF32, sh.m, sh.n, sh.k));
  }
  for (int i = 0; i < 3; ++i) s->deck.push_back(batch(64, 64, 64, 8));
  for (int i = 0; i < 3; ++i) s->deck.push_back(batch(128, 128, 128, 4));
  for (int i = 0; i < 2; ++i) {
    s->deck.push_back(batch(192, 192, 192, 2));
    s->deck.push_back(batch(256, 256, 256, 2));
    s->deck.push_back(batch(96, 192, 320, 4));
    s->deck.push_back(batch(256, 384, 128, 2));
    s->deck.push_back(batch(320, 320, 96, 2));
  }
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSquareLarge:
      return "square_large";
    case Workload::kRankK:
      return "rank_k";
    case Workload::kServingMix:
      return "serving_mix";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kSquareLarge, Workload::kRankK, Workload::kServingMix}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Spec make_spec(Workload w, int nproc) {
  Spec s;
  s.workload = w;
  switch (w) {
    case Workload::kSquareLarge:
      square_large_deck(&s);
      break;
    case Workload::kRankK:
      rank_k_deck(&s);
      break;
    case Workload::kServingMix:
      serving_mix_deck(&s);
      s.in_flight = std::max(1, nproc);
      s.serving = true;
      s.warmup_cap_s = 2.0;
      // A serving process runs on the engine it calibrated.  (On a 4-core
      // AVX-512 host every serving shape still chooses plain gemm; each run
      // records its executed plans.)
      s.time_calibrated = true;
      break;
  }
  std::size_t c_total = 0;
  for (const Request& r : s.deck) {
    const std::size_t mk = static_cast<std::size_t>(r.shape.m * r.shape.k);
    const std::size_t kn = static_cast<std::size_t>(r.shape.k * r.shape.n);
    const std::size_t mn = static_cast<std::size_t>(r.shape.m * r.shape.n);
    s.a_pool = std::max(s.a_pool, mk);
    s.b_pool = std::max(s.b_pool, kn);
    if (s.serving) {
      c_total += align_up(mn) * static_cast<std::size_t>(r.items);
    } else {
      c_total = std::max(c_total, mn);  // one request in flight reuses C
    }
  }
  if (s.serving) {
    // Room for several operand placements per request.
    s.a_pool *= 4;
    s.b_pool *= 4;
  }
  s.c_arena = c_total;
  return s;
}

std::vector<Request> next_pass(const Spec& spec, fmm::Xoshiro256& rng) {
  std::vector<Request> pass = spec.deck;
  for (std::size_t i = pass.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(pass[i - 1], pass[rng.next_below(i)]);
  }
  auto draw = [&](std::size_t pool, std::size_t need) -> std::size_t {
    if (pool <= need) return 0;
    return rng.next_below((pool - need) / kAlign + 1) * kAlign;
  };
  std::size_t c_next = 0;
  for (Request& r : pass) {
    const std::size_t mk = static_cast<std::size_t>(r.shape.m * r.shape.k);
    const std::size_t kn = static_cast<std::size_t>(r.shape.k * r.shape.n);
    const std::size_t mn = static_cast<std::size_t>(r.shape.m * r.shape.n);
    r.a_off.resize(static_cast<std::size_t>(r.items));
    for (std::size_t& off : r.a_off) off = draw(spec.a_pool, mk);
    r.b_off = draw(spec.b_pool, kn);
    if (spec.serving) {
      r.c_off = c_next;
      c_next += align_up(mn) * static_cast<std::size_t>(r.items);
    }
  }
  return pass;
}

std::vector<ShapeKey> distinct_shapes(const Spec& spec) {
  std::set<ShapeKey> keys;
  for (const Request& r : spec.deck) keys.insert({r.shape, r.kind == Kind::kF32});
  return {keys.begin(), keys.end()};
}

std::string describe(const std::vector<Request>& pass) {
  std::ostringstream os;
  for (const Request& r : pass) {
    os << static_cast<int>(r.kind) << ' ' << r.shape.m << 'x' << r.shape.n << 'x'
       << r.shape.k << " items=" << r.items << " a=";
    for (std::size_t off : r.a_off) os << off << ',';
    os << " b=" << r.b_off << " c=" << r.c_off << '\n';
  }
  return os.str();
}

}  // namespace perfbench

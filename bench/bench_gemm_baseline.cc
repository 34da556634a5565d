// Substrate benchmark (the "BLIS" line of every paper figure): per-kernel
// micro-kernel peak, packing bandwidth, and GEMM effective GFLOPS across
// sizes and thread counts.  Uses google-benchmark for the micro-level
// timings; micro-kernel and GEMM benchmarks are registered dynamically for
// every *supported* kernel in the registry, so the emitted JSON tracks the
// whole kernel family over time.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/gemm/gemm.h"
#include "src/gemm/kernel.h"
#include "src/gemm/pack.h"
#include "src/linalg/matrix.h"
#include "src/util/aligned_buffer.h"

namespace fmm {
namespace {

template <typename T>
void BM_Microkernel(benchmark::State& state, const KernelInfo* kern) {
  const index_t kc = state.range(0);
  AlignedBuffer<T> a(static_cast<std::size_t>(kern->mr) * kc);
  AlignedBuffer<T> b(static_cast<std::size_t>(kern->nr) * kc);
  alignas(64) T acc[kMaxAccElemsOf<T>];
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = T(1);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = T(2);
  const auto fn = kernel_fn<T>(*kern);
  for (auto _ : state) {
    fn(kc, a.data(), b.data(), acc);
    benchmark::DoNotOptimize(acc[0]);
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * kern->mr * kern->nr * kc * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}

// The fused loop runs on C^T (src/gemm/fused.h): pack_a fills nR-row
// panels of A~ and pack_b mR-column panels of B~, so the pack benchmarks
// run at those widths.
void BM_PackA_SingleTerm(benchmark::State& state) {
  const int nr = active_kernel().nr;
  const index_t m = 96, k = 256;
  Matrix a = Matrix::random(m, k, 1);
  AlignedBuffer<double> out(static_cast<std::size_t>(ceil_div(m, nr)) * nr * k);
  LinTerm t{a.data(), 1.0};
  for (auto _ : state) {
    pack_a(&t, 1, a.stride(), m, k, nr, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(m) * k * 8 * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PackA_SingleTerm);

void BM_PackA_TwoTermSum(benchmark::State& state) {
  // The FMM case: A~ = A_i + A_j fused into packing.
  const int nr = active_kernel().nr;
  const index_t m = 96, k = 256;
  Matrix big = Matrix::random(2 * m, k, 2);
  AlignedBuffer<double> out(static_cast<std::size_t>(ceil_div(m, nr)) * nr * k);
  LinTerm t[2] = {{big.data(), 1.0}, {big.data() + m * big.stride(), 1.0}};
  for (auto _ : state) {
    pack_a(t, 2, big.stride(), m, k, nr, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GB/s"] = benchmark::Counter(
      2.0 * m * k * 8 * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PackA_TwoTermSum);

void BM_PackB_Panel(benchmark::State& state) {
  const int mr = active_kernel().mr;
  const index_t k = 256, n = 4092;
  Matrix b = Matrix::random(k, n, 3);
  AlignedBuffer<double> out(static_cast<std::size_t>(ceil_div(n, mr)) * mr * k);
  LinTerm t{b.data(), 1.0};
  for (auto _ : state) {
    pack_b(&t, 1, b.stride(), k, n, mr, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(n) * k * 8 * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PackB_Panel);

void BM_Gemm(benchmark::State& state, const KernelInfo* kern) {
  const index_t s = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  Matrix a = Matrix::random(s, s, 1);
  Matrix b = Matrix::random(s, s, 2);
  Matrix c = Matrix::zero(s, s);
  GemmWorkspace ws;
  GemmConfig cfg;
  cfg.num_threads = threads;
  cfg.kernel = kern;  // nullptr = dispatch default
  gemm(c.view(), a.view(), b.view(), ws, cfg);  // warm up + workspace alloc
  for (auto _ : state) {
    gemm(c.view(), a.view(), b.view(), ws, cfg);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * s * s * s * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_GemmF32(benchmark::State& state, const KernelInfo* kern) {
  const index_t s = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  std::vector<float> a(static_cast<std::size_t>(s) * s);
  std::vector<float> b(a.size());
  std::vector<float> c(a.size(), 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>((i % 97) * 0.01);
    b[i] = static_cast<float>((i % 89) * 0.02);
  }
  GemmWorkspaceF32 ws;
  GemmConfig cfg;
  cfg.num_threads = threads;
  cfg.kernel = kern;  // nullptr = f32 dispatch default
  MatViewF32 cv(c.data(), s, s, s);
  ConstMatViewF32 av(a.data(), s, s, s);
  ConstMatViewF32 bv(b.data(), s, s, s);
  gemm(cv, av, bv, ws, cfg);  // warm up + workspace alloc
  for (auto _ : state) {
    gemm(cv, av, bv, ws, cfg);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * s * s * s * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_GemmRankK(benchmark::State& state) {
  // The paper's special shape: m = n large, k small.
  const index_t mn = 2048, k = state.range(0);
  Matrix a = Matrix::random(mn, k, 1);
  Matrix b = Matrix::random(k, mn, 2);
  Matrix c = Matrix::zero(mn, mn);
  GemmWorkspace ws;
  GemmConfig cfg;
  cfg.num_threads = 1;
  gemm(c.view(), a.view(), b.view(), ws, cfg);
  for (auto _ : state) {
    gemm(c.view(), a.view(), b.view(), ws, cfg);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * mn * mn * k * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmRankK)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void register_per_kernel_benchmarks() {
  // Per-dtype rows: the f64 family keeps its historical names, the f32
  // family is "f32_"-prefixed so JSON diffs line the two dtypes up.
  for (const KernelInfo& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    const bool f32 = kern.dtype == DType::kF32;
    const std::string tag = (f32 ? "f32_" : "") + std::string(kern.name);
    benchmark::RegisterBenchmark(
        ("BM_Microkernel/" + tag).c_str(),
        f32 ? BM_Microkernel<float> : BM_Microkernel<double>, &kern)
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
    benchmark::RegisterBenchmark(("BM_Gemm/" + tag).c_str(),
                                 f32 ? BM_GemmF32 : BM_Gemm, &kern)
        ->Args({512, 1})
        ->Args({1024, 1})
        ->Unit(benchmark::kMillisecond);
  }
  // The dispatch defaults (what plain users get), at larger sizes/threads.
  benchmark::RegisterBenchmark("BM_Gemm/default", BM_Gemm, nullptr)
      ->Args({2048, 1})
      ->Args({1024, 0})
      ->Args({2048, 0})
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_Gemm/f32_default", BM_GemmF32, nullptr)
      ->Args({2048, 1})
      ->Args({1024, 0})
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace fmm

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  fmm::register_per_kernel_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

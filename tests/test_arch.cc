// Hardware-adaptation layer tests (src/arch): cache-topology detection and
// its unknown-CPU fallback, the analytic blocking derivation on mocked
// topologies, the GemmConfig 0-means-auto convention with FMM_MC/KC/NC
// environment overrides, and measured-throughput calibration caching.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/arch/cache_info.h"
#include "src/arch/calibrate.h"
#include "src/gemm/blocking.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

constexpr long kKiB = 1024;
constexpr long kMiB = 1024 * 1024;

using test::ScopedEnv;

arch::CacheTopology make_topology(long l1, long l2, long l3, int sharing) {
  arch::CacheTopology t;
  t.l1d_bytes = l1;
  t.l2_bytes = l2;
  t.l3_bytes = l3;
  t.line_bytes = 64;
  t.l3_sharing = sharing;
  t.detected = true;
  t.source = "mock";
  t.cpu_model = "mock-cpu";
  return t;
}

// --- Cache-topology detection --------------------------------------------

TEST(CacheTopology, HostTopologyIsPlausible) {
  const arch::CacheTopology& t = arch::cache_topology();
  EXPECT_TRUE(t.plausible());
  EXPECT_GT(t.l1d_bytes, 0);
  EXPECT_GE(t.l2_bytes, t.l1d_bytes);
  EXPECT_GT(t.line_bytes, 0);
  // Line size must be a power of two.
  EXPECT_EQ(t.line_bytes & (t.line_bytes - 1), 0);
  EXPECT_GE(t.l3_sharing, 1);
  EXPECT_FALSE(t.source.empty());
  EXPECT_FALSE(t.cpu_model.empty());
}

TEST(CacheTopology, DetectionIsStableAcrossCalls) {
  const arch::CacheTopology a = arch::detect_cache_topology();
  const arch::CacheTopology b = arch::detect_cache_topology();
  EXPECT_EQ(a.l1d_bytes, b.l1d_bytes);
  EXPECT_EQ(a.l2_bytes, b.l2_bytes);
  EXPECT_EQ(a.l3_bytes, b.l3_bytes);
  EXPECT_EQ(a.source, b.source);
}

TEST(CacheTopology, UnknownCpuFallbackIsThePaperMachine) {
  // detect_cache_topology() substitutes this geometry whenever detection
  // fails, so an unknown CPU lands exactly on the paper's Ivy Bridge.
  const arch::CacheTopology t = arch::ivy_bridge_topology();
  EXPECT_FALSE(t.detected);
  EXPECT_EQ(t.source, "default");
  EXPECT_EQ(t.l1d_bytes, 32 * kKiB);
  EXPECT_EQ(t.l2_bytes, 256 * kKiB);
  EXPECT_EQ(t.l3_bytes, 25 * kMiB);
  EXPECT_TRUE(t.plausible());
}

// --- Analytic blocking derivation ----------------------------------------

TEST(DeriveBlocking, IvyBridgeReproducesThePaperConstants) {
  // The whole point of the default topology: on the machine the paper
  // tuned for, the analytic model must land on (96, 256, 4092) for the
  // 8x6 kernel family.
  const KernelInfo* k = find_kernel("portable");
  ASSERT_NE(k, nullptr);
  const AutoBlocking ab = derive_blocking(*k, arch::ivy_bridge_topology());
  EXPECT_EQ(ab.kc, 256);
  EXPECT_EQ(ab.mc, 96);
  EXPECT_EQ(ab.nc, 4092);
}

TEST(DeriveBlocking, TilesFitTheReportedCachesAcrossTopologies) {
  const arch::CacheTopology topologies[] = {
      make_topology(32 * kKiB, 256 * kKiB, 25 * kMiB, 10),  // Ivy Bridge
      make_topology(48 * kKiB, 2 * kMiB, 260 * kMiB, 1),    // big-L3 VM
      make_topology(64 * kKiB, 512 * kKiB, 32 * kMiB, 8),   // Zen-ish
      make_topology(32 * kKiB, 512 * kKiB, 0, 1),           // no L3
      make_topology(128 * kKiB, 1 * kMiB, 64 * kMiB, 16),   // fat L1
  };
  for (const auto& topo : topologies) {
    for (const KernelInfo& kern : kernel_registry()) {
      const AutoBlocking ab = derive_blocking(kern, topo);
      SCOPED_TRACE(std::string(kern.name) + " l1=" +
                   std::to_string(topo.l1d_bytes));
      ASSERT_GT(ab.kc, 0);
      ASSERT_GT(ab.mc, 0);
      ASSERT_GT(ab.nc, 0);
      // Register-tile divisibility.
      EXPECT_EQ(ab.mc % kern.mr, 0);
      EXPECT_EQ(ab.nc % kern.nr, 0);
      // Cache-fit checks charge the kernel's own element size (the f32
      // family fills the same caches with half-width elements).
      const index_t es = static_cast<index_t>(dtype_size(kern.dtype));
      // L1: a vectorized kernel keeps the reused nR x k_C panel in 3/4 of
      // it (its mR-panels stream from L2); a scalar one keeps both
      // micro-panels together.
      if (kern.vectorized) {
        EXPECT_LE(4 * kern.nr * ab.kc * es, 3 * topo.l1d_bytes);
      } else {
        EXPECT_LE((kern.mr + kern.nr) * ab.kc * es, topo.l1d_bytes);
      }
      // The packed A-tile fits L2.
      EXPECT_LE(ab.mc * ab.kc * es, topo.l2_bytes);
      // The packed B-panel fits the L3 slice (when one exists).
      if (topo.l3_bytes > 0) {
        EXPECT_LE(ab.kc * ab.nc * es, topo.l3_bytes);
      }
    }
  }
}

TEST(DeriveBlocking, VectorizedKernelsChargeL1WithTheReusedPanelOnly) {
  // 48 KiB L1d, 2 MiB L2: the 16x12 f64 tile keeps k_C = 384 (its 12 x 384
  // A~ panel is 36 KiB, 3/4 of L1d); charging both panels would give 192
  // and split a k = 256 product into two passes over C.  The scalar
  // kernels keep the both-panels rule.
  const arch::CacheTopology topo =
      make_topology(48 * kKiB, 2 * kMiB, 260 * kMiB, 1);
  const struct {
    const char* name;
    DType dtype;
    index_t kc, mc;
  } cases[] = {
      {"avx512_16x12", DType::kF64, 384, 512},
      {"avx512_32x12", DType::kF32, 768, 512},
      {"avx2_8x6", DType::kF64, 768, 256},
      {"portable", DType::kF64, 384, 512},  // 48 KiB / (14 * 8) -> 384
  };
  for (const auto& c : cases) {
    const KernelInfo* k = find_kernel(c.name, c.dtype);
    if (k == nullptr) continue;  // ISA not compiled in
    const AutoBlocking ab = derive_blocking(*k, topo);
    EXPECT_EQ(ab.kc, c.kc) << c.name;
    EXPECT_EQ(ab.mc, c.mc) << c.name;
  }
}

TEST(DeriveBlocking, TinyTopologiesKeepRegisterTileMultiplesAtTheBounds) {
  // Degenerate cache sizes push every floor_multiple_clamped call into its
  // clamp bounds; the result must stay a register-tile multiple even there
  // (a `lo` that is not itself a multiple of the step used to leak through
  // the clamp verbatim).
  const arch::CacheTopology tiny[] = {
      make_topology(1 * kKiB, 4 * kKiB, 0, 1),         // microcontroller-ish
      make_topology(2 * kKiB, 8 * kKiB, 16 * kKiB, 1), // all caches tiny
      make_topology(4 * kKiB, 16 * kKiB, 64 * kKiB, 64),
      make_topology(16 * kKiB, 32 * kKiB, 1 * kMiB, 2),
  };
  for (const auto& topo : tiny) {
    for (const KernelInfo& kern : kernel_registry()) {
      const AutoBlocking ab = derive_blocking(kern, topo);
      SCOPED_TRACE(std::string(kern.name) + " l1=" +
                   std::to_string(topo.l1d_bytes));
      ASSERT_GT(ab.kc, 0);
      ASSERT_GE(ab.mc, kern.mr);
      ASSERT_GE(ab.nc, kern.nr);
      EXPECT_EQ(ab.mc % kern.mr, 0);
      EXPECT_EQ(ab.nc % kern.nr, 0);
    }
  }
}

TEST(DeriveBlocking, PinnedKcReshapesMcAndNc) {
  // Doubling k_C must halve the A-tile rows and the B-panel width so the
  // cache-fit invariants hold at the k_C that actually runs.
  const KernelInfo* k = find_kernel("portable");
  ASSERT_NE(k, nullptr);
  const arch::CacheTopology ivy = arch::ivy_bridge_topology();
  const AutoBlocking pinned = derive_blocking(*k, ivy, /*kc_pinned=*/512);
  EXPECT_EQ(pinned.kc, 512);
  EXPECT_EQ(pinned.mc, 48);  // floor(0.75 * 256 KiB / (512*8), 8)
  EXPECT_LE(pinned.mc * pinned.kc * 8, ivy.l2_bytes);
  EXPECT_LE(pinned.kc * pinned.nc * 8, ivy.l3_bytes);
  const AutoBlocking auto_kc = derive_blocking(*k, ivy);
  EXPECT_LT(pinned.mc, auto_kc.mc);
  EXPECT_LT(pinned.nc, auto_kc.nc);
}

TEST(DeriveBlocking, HeavilySharedL3CapsTheBPanelAtFourCoreShares) {
  // 32 MiB slice split 64 ways: one cooperative pack may claim at most
  // four per-core shares (2 MiB), not a third of the whole slice.
  const KernelInfo* k = find_kernel("portable");
  ASSERT_NE(k, nullptr);
  const arch::CacheTopology topo =
      make_topology(32 * kKiB, 256 * kKiB, 32 * kMiB, 64);
  const AutoBlocking ab = derive_blocking(*k, topo);
  EXPECT_LE(ab.kc * ab.nc * 8, 4 * topo.l3_bytes / topo.l3_sharing);
  // Lightly shared slices are unaffected (Ivy Bridge keeps 4092).
  const AutoBlocking ivy = derive_blocking(*k, arch::ivy_bridge_topology());
  EXPECT_EQ(ivy.nc, 4092);
}

TEST(DeriveBlocking, ThreadCountWidensTheSharedSliceBudget) {
  // The same 64-way-shared slice, sized for a 16-thread call: the pack may
  // claim 16 per-core shares instead of the serial caller's 4 — a wider
  // B-panel, still inside the 16-share budget and the whole slice.
  const KernelInfo* k = find_kernel("portable");
  ASSERT_NE(k, nullptr);
  const arch::CacheTopology topo =
      make_topology(32 * kKiB, 256 * kKiB, 32 * kMiB, 64);
  const AutoBlocking serial = derive_blocking(*k, topo, 0, /*threads=*/1);
  const AutoBlocking wide = derive_blocking(*k, topo, 0, /*threads=*/16);
  EXPECT_GT(wide.nc, serial.nc);
  EXPECT_LE(wide.kc * wide.nc * 8, 16 * topo.l3_bytes / topo.l3_sharing);
  // More threads than sharing cores claims at most the whole slice's
  // third/cap budget — never more than l3_sharing shares.
  const AutoBlocking over = derive_blocking(*k, topo, 0, /*threads=*/256);
  const AutoBlocking all = derive_blocking(*k, topo, 0, /*threads=*/64);
  EXPECT_EQ(over.nc, all.nc);
  // Lightly shared topologies are thread-count-invariant: Ivy Bridge
  // (10-way) keeps the paper's 4092 at any width, because the 8 MiB cap
  // binds before the share budget does.
  const arch::CacheTopology ivy = arch::ivy_bridge_topology();
  EXPECT_EQ(derive_blocking(*k, ivy, 0, 1).nc, 4092);
  EXPECT_EQ(derive_blocking(*k, ivy, 0, 16).nc, 4092);
}

TEST(DeriveBlocking, ThinTileKernelGetsItsOwnDivisibleBlocking) {
  const KernelInfo* thin = find_kernel("portable_4x12");
  ASSERT_NE(thin, nullptr);
  const AutoBlocking ab = derive_blocking(*thin, arch::ivy_bridge_topology());
  EXPECT_EQ(ab.mc % 4, 0);
  EXPECT_EQ(ab.nc % 12, 0);
  EXPECT_LE((4 + 12) * ab.kc * 8, 32 * kKiB);
}

// --- resolve_blocking: 0-means-auto and the override ladder ---------------

TEST(ResolveBlocking, DefaultConfigIsAutoAndResolvesToDerivedValues) {
  ScopedEnv mc("FMM_MC", nullptr), kc("FMM_KC", nullptr),
      nc("FMM_NC", nullptr);
  GemmConfig cfg;  // all-zero cache blocks = auto
  EXPECT_EQ(cfg.mc, 0);
  EXPECT_TRUE(cfg.valid());
  cfg.kernel = find_kernel("portable");
  ASSERT_NE(cfg.kernel, nullptr);
  const BlockingParams bp = resolve_blocking(cfg);
  const AutoBlocking ab =
      derive_blocking(*cfg.kernel, arch::cache_topology());
  EXPECT_EQ(bp.mc, ab.mc);
  EXPECT_EQ(bp.kc, ab.kc);
  EXPECT_EQ(bp.nc, ab.nc);
}

TEST(ResolveBlocking, EnvOverridesBeatAutoDerivation) {
  ScopedEnv mc("FMM_MC", "120"), kc("FMM_KC", "192"), nc("FMM_NC", "600");
  GemmConfig cfg;
  cfg.kernel = find_kernel("portable");  // 8x6
  ASSERT_NE(cfg.kernel, nullptr);
  const BlockingParams bp = resolve_blocking(cfg);
  EXPECT_EQ(bp.mc, 120);  // multiple of 8 already
  EXPECT_EQ(bp.kc, 192);
  EXPECT_EQ(bp.nc, 600);  // multiple of 6 already
}

TEST(ResolveBlocking, ExplicitConfigBeatsEnvironment) {
  ScopedEnv mc("FMM_MC", "120"), kc("FMM_KC", "192"), nc("FMM_NC", "600");
  GemmConfig cfg;
  cfg.mc = 96;
  cfg.kc = 256;
  cfg.nc = 4092;
  cfg.kernel = find_kernel("portable");
  const BlockingParams bp = resolve_blocking(cfg);
  EXPECT_EQ(bp.mc, 96);
  EXPECT_EQ(bp.kc, 256);
  EXPECT_EQ(bp.nc, 4092);
}

TEST(ResolveBlocking, EnvValuesRoundUpToTheKernelTile) {
  ScopedEnv mc("FMM_MC", "100"), kc("FMM_KC", "200"), nc("FMM_NC", "601");
  GemmConfig cfg;
  cfg.kernel = find_kernel("portable");  // 8x6
  const BlockingParams bp = resolve_blocking(cfg);
  EXPECT_EQ(bp.mc, 104);  // round_up(100, 8)
  EXPECT_EQ(bp.kc, 200);  // kc is tile-free
  EXPECT_EQ(bp.nc, 606);  // round_up(601, 6)
}

TEST(ResolveBlocking, PinnedKcReshapesAutoMcAndNc) {
  // FMM_KC with auto mc/nc: the derived mc/nc must fit the caches at the
  // pinned kc, not at the kc the derivation would have picked.
  ScopedEnv mc("FMM_MC", nullptr), kc("FMM_KC", "512"),
      nc("FMM_NC", nullptr);
  GemmConfig cfg;
  cfg.kernel = find_kernel("portable");
  ASSERT_NE(cfg.kernel, nullptr);
  const BlockingParams bp = resolve_blocking(cfg);
  const AutoBlocking ab =
      derive_blocking(*cfg.kernel, arch::cache_topology(), 512);
  EXPECT_EQ(bp.kc, 512);
  EXPECT_EQ(bp.mc, ab.mc);
  EXPECT_EQ(bp.nc, ab.nc);
}

TEST(ResolveBlocking, MalformedEnvFallsBackToAuto) {
  ScopedEnv mc("FMM_MC", "not-a-number"), kc("FMM_KC", "-5"),
      nc("FMM_NC", "");
  GemmConfig cfg;
  cfg.kernel = find_kernel("portable");
  const BlockingParams bp = resolve_blocking(cfg);
  const AutoBlocking ab =
      derive_blocking(*cfg.kernel, arch::cache_topology());
  EXPECT_EQ(bp.mc, ab.mc);
  EXPECT_EQ(bp.kc, ab.kc);
  EXPECT_EQ(bp.nc, ab.nc);
}

TEST(ResolveBlocking, TrailingGarbageEnvIsRejectedNotTruncated) {
  // strtol would happily parse "96abc" as 96; the strict parser must not.
  ScopedEnv mc("FMM_MC", "96abc"), kc("FMM_KC", nullptr),
      nc("FMM_NC", nullptr);
  GemmConfig cfg;
  cfg.kernel = find_kernel("portable");
  const BlockingParams bp = resolve_blocking(cfg);
  const AutoBlocking ab =
      derive_blocking(*cfg.kernel, arch::cache_topology());
  EXPECT_EQ(bp.mc, ab.mc);  // fell back to auto, not to 96
}

TEST(ResolveBlocking, OverflowAndWhitespaceEnvFallBackToAuto) {
  ScopedEnv mc("FMM_MC", "99999999999999999999999"),  // > LONG_MAX
      kc("FMM_KC", "192 "),                           // trailing space
      nc("FMM_NC", "0x100");                          // wrong base
  GemmConfig cfg;
  cfg.kernel = find_kernel("portable");
  const BlockingParams bp = resolve_blocking(cfg);
  const AutoBlocking ab =
      derive_blocking(*cfg.kernel, arch::cache_topology());
  EXPECT_EQ(bp.mc, ab.mc);
  EXPECT_EQ(bp.kc, ab.kc);
  EXPECT_EQ(bp.nc, ab.nc);
}

// --- Calibration caching --------------------------------------------------

TEST(Calibration, SecondCallDoesNotRetime) {
  ScopedEnv no_file("FMM_CALIB_CACHE", nullptr);
  ScopedEnv enabled("FMM_CALIBRATE", nullptr);
  arch::calibration_reset_for_testing();
  const KernelInfo* k = find_kernel("portable");
  ASSERT_NE(k, nullptr);
  const int runs0 = arch::calibration_timing_runs();
  const double g1 = arch::kernel_gflops(*k);
  EXPECT_GT(g1, 0.0);
  EXPECT_EQ(arch::calibration_timing_runs(), runs0 + 1);
  const double g2 = arch::kernel_gflops(*k);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(arch::calibration_timing_runs(), runs0 + 1);
}

TEST(Calibration, EveryRegisteredSupportedKernelMeasuresPositive) {
  ScopedEnv no_file("FMM_CALIB_CACHE", nullptr);
  ScopedEnv enabled("FMM_CALIBRATE", nullptr);
  for (const KernelInfo& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    EXPECT_GT(arch::kernel_gflops(kern), 0.0) << kern.name;
  }
}

TEST(Calibration, CacheFileRoundTrip) {
  const std::string path = testing::TempDir() + "fmm_calib_roundtrip.txt";
  std::remove(path.c_str());
  ScopedEnv file("FMM_CALIB_CACHE", path.c_str());
  ScopedEnv enabled("FMM_CALIBRATE", nullptr);
  arch::calibration_reset_for_testing();

  const KernelInfo* k = find_kernel("portable");
  ASSERT_NE(k, nullptr);
  const double g1 = arch::kernel_gflops(*k);
  const int runs_after_measure = arch::calibration_timing_runs();

  // Simulate a fresh process: drop the in-memory cache.  The persisted
  // file must now serve the rate without a new timing run.
  arch::calibration_reset_for_testing();
  const double g2 = arch::kernel_gflops(*k);
  EXPECT_EQ(arch::calibration_timing_runs(), runs_after_measure);
  // Text round-trip: equal up to formatting precision.
  EXPECT_NEAR(g2, g1, g1 * 1e-4);

  std::remove(path.c_str());
  arch::calibration_reset_for_testing();
}

TEST(Calibration, DisabledFallsBackToTheStaticHint) {
  ScopedEnv disabled("FMM_CALIBRATE", "0");
  arch::calibration_reset_for_testing();
  const KernelInfo* k = find_kernel("portable");
  ASSERT_NE(k, nullptr);
  const int runs0 = arch::calibration_timing_runs();
  EXPECT_DOUBLE_EQ(arch::kernel_gflops(*k), arch::kernel_gflops_hint(*k));
  EXPECT_EQ(arch::calibration_timing_runs(), runs0);
  EXPECT_FALSE(arch::calibration_enabled());
  // τ_b must also skip its triad and return the nominal rate, so the
  // model stays internally consistent with the hint-based τ_a.
  EXPECT_DOUBLE_EQ(arch::measured_tau_b(), 8.0 / 12e9);
}

}  // namespace
}  // namespace fmm

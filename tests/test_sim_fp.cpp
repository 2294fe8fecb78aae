// Floating-point and pipeline-behaviour tests at the ISA level: IEEE corner
// cases (NaN handling, conversion clamping, sign injection), fused
// multiply-add variants, CSR counters, memory coalescing efficiency, and
// cache-configuration effects on timing.
#include <gtest/gtest.h>

#include <cmath>

#include "common/bits.hpp"
#include "mem/memory.hpp"
#include "sim_tiers.hpp"
#include "vasm/assembler.hpp"
#include "vortex/cluster.hpp"

namespace fgpu::vortex {
namespace {

constexpr uint32_t kOut = arch::kHeapBase;

SimResult run_asm(Tier tier, const std::string& source,
                  const Config& config = Config::with(1, 2, 4)) {
  return run_program(tier, source, config);
}

// Loads two float constants into f0/f1 and stores op results.
std::string fp_binary_prog(float a, float b, const std::string& body) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
    li t0, %d
    fmv.w.x f0, t0
    li t0, %d
    fmv.w.x f1, t0
    li t5, 0x20000000
    %s
    tmc zero
  )",
                static_cast<int32_t>(f2u(a)), static_cast<int32_t>(f2u(b)), body.c_str());
  return buf;
}

TEST(SimFpTest, MinMaxIgnoreNaN) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    const float nan = std::nanf("");
    auto r = run_asm(tier, fp_binary_prog(nan, 3.0f, R"(
      fmin.s f2, f0, f1
      fmax.s f3, f0, f1
      fsw f2, 0(t5)
      fsw f3, 4(t5))"));
    EXPECT_EQ(u2f(r.mem.load32(kOut)), 3.0f);      // fmin(NaN, 3) = 3
    EXPECT_EQ(u2f(r.mem.load32(kOut + 4)), 3.0f);  // fmax(NaN, 3) = 3
  }
}

TEST(SimFpTest, ComparisonsWithNaNAreFalse) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    const float nan = std::nanf("");
    auto r = run_asm(tier, fp_binary_prog(nan, 1.0f, R"(
      feq.s t1, f0, f1
      flt.s t2, f0, f1
      fle.s t3, f0, f0
      sw t1, 0(t5)
      sw t2, 4(t5)
      sw t3, 8(t5))"));
    EXPECT_EQ(r.mem.load32(kOut), 0u);
    EXPECT_EQ(r.mem.load32(kOut + 4), 0u);
    EXPECT_EQ(r.mem.load32(kOut + 8), 0u);
  }
}

TEST(SimFpTest, SignInjection) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, fp_binary_prog(2.5f, -1.0f, R"(
      fsgnj.s f2, f0, f1
      fsgnjn.s f3, f0, f1
      fsgnjx.s f4, f1, f1
      fsw f2, 0(t5)
      fsw f3, 4(t5)
      fsw f4, 8(t5))"));
    EXPECT_EQ(u2f(r.mem.load32(kOut)), -2.5f);      // take sign of f1
    EXPECT_EQ(u2f(r.mem.load32(kOut + 4)), 2.5f);   // inverted sign
    EXPECT_EQ(u2f(r.mem.load32(kOut + 8)), 1.0f);   // |f1| via x-or trick
  }
}

TEST(SimFpTest, ConversionClamping) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, fp_binary_prog(3.0e9f, -7.6f, R"(
      fcvt.w.s t1, f0
      fcvt.w.s t2, f1
      fcvt.wu.s t3, f1
      sw t1, 0(t5)
      sw t2, 4(t5)
      sw t3, 8(t5))"));
    EXPECT_EQ(r.mem.load32(kOut), 0x7FFFFFFFu);                    // clamp to INT_MAX
    EXPECT_EQ(static_cast<int32_t>(r.mem.load32(kOut + 4)), -7);   // truncate toward zero
    EXPECT_EQ(r.mem.load32(kOut + 8), 0u);                         // unsigned clamp at 0
  }
}

TEST(SimFpTest, IntToFloatRoundTrip) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, -12345
      fcvt.s.w f0, t0
      li t1, 3000000000
      fcvt.s.wu f1, t1
      li t5, 0x20000000
      fsw f0, 0(t5)
      fsw f1, 4(t5)
      tmc zero
    )");
    EXPECT_EQ(u2f(r.mem.load32(kOut)), -12345.0f);
    EXPECT_EQ(u2f(r.mem.load32(kOut + 4)), 3000000000.0f);
  }
}

TEST(SimFpTest, FusedMultiplyAddFamily) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, fp_binary_prog(2.0f, 3.0f, R"(
      li t0, 0x40800000
      fmv.w.x f2, t0
      fmadd.s f3, f0, f1, f2
      fmsub.s f4, f0, f1, f2
      fnmsub.s f5, f0, f1, f2
      fnmadd.s f6, f0, f1, f2
      fsw f3, 0(t5)
      fsw f4, 4(t5)
      fsw f5, 8(t5)
      fsw f6, 12(t5))"));
    EXPECT_EQ(u2f(r.mem.load32(kOut)), 10.0f);        // 2*3+4
    EXPECT_EQ(u2f(r.mem.load32(kOut + 4)), 2.0f);     // 2*3-4
    EXPECT_EQ(u2f(r.mem.load32(kOut + 8)), -2.0f);    // -(2*3)+4
    EXPECT_EQ(u2f(r.mem.load32(kOut + 12)), -10.0f);  // -(2*3)-4
  }
}

TEST(SimFpTest, FclassCategories) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 0x7F800000
      fmv.w.x f0, t0
      fclass.s t1, f0          # +inf -> bit 7
      li t0, 0xFF800000
      fmv.w.x f0, t0
      fclass.s t2, f0          # -inf -> bit 0
      li t0, 0x7FC00000
      fmv.w.x f0, t0
      fclass.s t3, f0          # NaN -> bit 9
      li t0, 0x80000000
      fmv.w.x f0, t0
      fclass.s t4, f0          # -0 -> bit 3
      li t5, 0x20000000
      sw t1, 0(t5)
      sw t2, 4(t5)
      sw t3, 8(t5)
      sw t4, 12(t5)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 1u << 7);
    EXPECT_EQ(r.mem.load32(kOut + 4), 1u << 0);
    EXPECT_EQ(r.mem.load32(kOut + 8), 1u << 9);
    EXPECT_EQ(r.mem.load32(kOut + 12), 1u << 3);
  }
}

TEST(SimFpTest, DivisionInfinityAndZero) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, fp_binary_prog(1.0f, 0.0f, R"(
      fdiv.s f2, f0, f1
      fdiv.s f3, f1, f0
      fsw f2, 0(t5)
      fsw f3, 4(t5))"));
    EXPECT_TRUE(std::isinf(u2f(r.mem.load32(kOut))));
    EXPECT_EQ(u2f(r.mem.load32(kOut + 4)), 0.0f);
  }
}

// Timing behaviour: the cycle-exact tier only (except instret, which both
// tiers count).
TEST(SimBehaviorTest, CycleCsrIsMonotonic) {
  auto r = run_asm(Tier::kCycleExact, R"(
    csrr t0, 0xC00
    addi t2, zero, 0
  spin:
    addi t2, t2, 1
    addi t3, zero, 10
    bne t2, t3, spin
    csrr t1, 0xC00
    sltu t4, t0, t1
    li t5, 0x20000000
    sw t4, 0(t5)
    tmc zero
  )", Config::with(1, 1, 1));
  EXPECT_EQ(r.mem.load32(kOut), 1u);  // later read saw a larger cycle count
}

TEST(SimBehaviorTest, CoalescedAccessUsesFewerLineFills) {
  // 8 lanes loading consecutive words touch 2 sixteen-byte lines; strided
  // lanes touch 8 distinct lines -> 4x the DRAM fills.
  const char* consecutive = R"(
    li t0, 255
    tmc t0
    csrr t1, 0xCC0
    slli t2, t1, 2
    li t3, 0x20010000
    add t3, t3, t2
    lw t4, 0(t3)
    tmc zero
  )";
  const char* strided = R"(
    li t0, 255
    tmc t0
    csrr t1, 0xCC0
    slli t2, t1, 6
    li t3, 0x20010000
    add t3, t3, t2
    lw t4, 0(t3)
    tmc zero
  )";
  auto rc = run_asm(Tier::kCycleExact, consecutive, Config::with(1, 1, 8));
  auto rs = run_asm(Tier::kCycleExact, strided, Config::with(1, 1, 8));
  // Both programs fetch the same code lines; the difference is data fills:
  // strided touches 8 lines, consecutive 2.
  EXPECT_EQ(rs.stats.dram.reads - rc.stats.dram.reads, 6u);
  EXPECT_LT(rc.stats.perf.cycles, rs.stats.perf.cycles);
}

TEST(SimBehaviorTest, PerfectIcacheRemovesFetchStalls) {
  const char* loop = R"(
    li t0, 200
  spin:
    addi t0, t0, -1
    bne t0, zero, spin
    tmc zero
  )";
  auto real = run_asm(Tier::kCycleExact, loop, Config::with(1, 1, 1));
  Config perfect = Config::with(1, 1, 1);
  perfect.perfect_icache = true;
  auto ideal = run_asm(Tier::kCycleExact, loop, perfect);
  EXPECT_LT(ideal.stats.perf.cycles, real.stats.perf.cycles);
  EXPECT_EQ(ideal.stats.l1i.reads, 0u);  // no icache traffic at all
}

TEST(SimBehaviorTest, MoreWarpsHideLoadLatency) {
  // Dependent-load loop per warp: 1 warp exposes the full round trip,
  // 4 warps interleave.
  const char* prog = R"(
    li t0, 0x20020000
    csrr t1, 0xCC1
    slli t2, t1, 8
    add t0, t0, t2       # per-warp region
    li t3, 16
  loop:
    lw t4, 0(t0)
    addi t4, t4, 1
    sw t4, 0(t0)
    addi t0, t0, 64
    addi t3, t3, -1
    bne t3, zero, loop
    tmc zero
  )";
  auto one = run_asm(Tier::kCycleExact, prog, Config::with(1, 1, 1));
  auto four = run_asm(Tier::kCycleExact, prog, Config::with(1, 4, 1));
  // Four warps do 4x the work in far less than 4x the time.
  EXPECT_LT(four.stats.perf.cycles, one.stats.perf.cycles * 5 / 2);
}

// instret counts every retired instruction up to and including the
// reading one, on both tiers — also inside one translated turbo block,
// and across block boundaries.
TEST(SimBehaviorTest, InstretCsrCountsRetiredInstructions) {
  for (const Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
    csrr t0, 0xC02
    addi t1, zero, 1
    addi t1, t1, 1
    addi t1, t1, 1
    csrr t2, 0xC02
    sub t3, t2, t0
    li t5, 0x20000000
    sw t3, 0(t5)
    sw t0, 4(t5)
    tmc zero
  )", Config::with(1, 1, 1));
    EXPECT_EQ(r.mem.load32(kOut), 4u);  // 3 addis + the first csrr retire between reads
    EXPECT_EQ(r.mem.load32(kOut + 4), 1u);  // the first read counts itself
  }
}

TEST(SimBehaviorTest, InstretCsrCountsAcrossBlocks) {
  for (const Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
    li t1, 3
  loop:
    addi t1, t1, -1
    bne t1, zero, loop
    csrr t2, 0xC02
    li t5, 0x20000000
    sw t2, 0(t5)
    tmc zero
  )", Config::with(1, 1, 1));
    EXPECT_EQ(r.mem.load32(kOut), 8u);  // li, 3 x (addi, bne), the csrr
  }
}

}  // namespace
}  // namespace fgpu::vortex

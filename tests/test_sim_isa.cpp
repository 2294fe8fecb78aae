// Simulator ISA-level tests: hand-written assembly kernels exercising the
// pipeline, SIMT divergence control (SPLIT/JOIN/PRED/TMC), warp spawning,
// barriers, memory and atomics.
#include <gtest/gtest.h>

#include "arch/isa.hpp"
#include "mem/memory.hpp"
#include "sim_tiers.hpp"
#include "vasm/assembler.hpp"
#include "vortex/cluster.hpp"

namespace fgpu::vortex {
namespace {

constexpr uint32_t kOut = arch::kHeapBase;

SimResult run_asm(Tier tier, const std::string& source,
                  const Config& config = Config::with(1, 4, 8)) {
  return run_program(tier, source, config);
}

TEST(SimIsaTest, StoreWord) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 0x20000000
      li t1, 42
      sw t1, 0(t0)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 42u);
    if (tier == Tier::kCycleExact) {  // perf counters: cycle-exact only
      EXPECT_GT(r.stats.perf.cycles, 0u);
    }
    EXPECT_EQ(r.instrs, 4u);  // lui, addi, sw, tmc
  }
}

TEST(SimIsaTest, ArithmeticAndLoop) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // sum 1..10 = 55
    auto r = run_asm(tier, R"(
      li t0, 10
      li t1, 0
    loop:
      add t1, t1, t0
      addi t0, t0, -1
      bne t0, zero, loop
      li t2, 0x20000000
      sw t1, 0(t2)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 55u);
  }
}

TEST(SimIsaTest, MulDivRem) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 7
      li t1, -3
      mul t2, t0, t1        # -21
      div t3, t2, t0        # -3
      rem t4, t2, t1        # 0
      li t5, 0x20000000
      sw t2, 0(t5)
      sw t3, 4(t5)
      sw t4, 8(t5)
      tmc zero
    )");
    EXPECT_EQ(static_cast<int32_t>(r.mem.load32(kOut)), -21);
    EXPECT_EQ(static_cast<int32_t>(r.mem.load32(kOut + 4)), -3);
    EXPECT_EQ(static_cast<int32_t>(r.mem.load32(kOut + 8)), 0);
  }
}

TEST(SimIsaTest, DivisionByZeroFollowsRiscvSemantics) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 9
      li t1, 0
      div t2, t0, t1        # -1
      rem t3, t0, t1        # 9
      divu t4, t0, t1       # 0xFFFFFFFF
      li t5, 0x20000000
      sw t2, 0(t5)
      sw t3, 4(t5)
      sw t4, 8(t5)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 0xFFFFFFFFu);
    EXPECT_EQ(r.mem.load32(kOut + 4), 9u);
    EXPECT_EQ(r.mem.load32(kOut + 8), 0xFFFFFFFFu);
  }
}

TEST(SimIsaTest, FloatArithmetic) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 0x40490FDB      # pi as bits
      fmv.w.x f0, t0
      fadd.s f1, f0, f0      # 2pi
      fmul.s f2, f0, f0      # pi^2
      fsqrt.s f3, f2         # ~pi
      li t5, 0x20000000
      fsw f1, 0(t5)
      fsw f2, 4(t5)
      fsw f3, 8(t5)
      tmc zero
    )");
    const float pi = 3.14159265f;
    EXPECT_NEAR(u2f(r.mem.load32(kOut)), 2 * pi, 1e-5);
    EXPECT_NEAR(u2f(r.mem.load32(kOut + 4)), pi * pi, 1e-5);
    EXPECT_NEAR(u2f(r.mem.load32(kOut + 8)), pi, 1e-5);
  }
}

TEST(SimIsaTest, TmcActivatesAllLanes) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // Each active lane stores its lane id.
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      csrr t1, 0xCC0        # lane id
      li t2, 0x20000000
      slli t3, t1, 2
      add t2, t2, t3
      sw t1, 0(t2)
      tmc zero
    )");
    for (uint32_t lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(r.mem.load32(kOut + lane * 4), lane) << "lane " << lane;
    }
  }
}

TEST(SimIsaTest, SplitJoinDivergence) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // Odd lanes write 100, even lanes write 200; all reconverge and write 7.
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      csrr t1, 0xCC0
      andi t2, t1, 1
      split t2, even_path
      li t3, 100
      join merge
    even_path:
      li t3, 200
      join merge
    merge:
      li t4, 0x20000000
      slli t5, t1, 2
      add t4, t4, t5
      sw t3, 0(t4)
      li t6, 0x20000100
      add t6, t6, t5
      li t3, 7
      sw t3, 0(t6)
      tmc zero
    )");
    for (uint32_t lane = 0; lane < 8; ++lane) {
      const uint32_t expected = (lane % 2 == 1) ? 100u : 200u;
      EXPECT_EQ(r.mem.load32(kOut + lane * 4), expected) << "lane " << lane;
      EXPECT_EQ(r.mem.load32(kOut + 0x100 + lane * 4), 7u) << "lane " << lane;
    }
    if (tier == Tier::kCycleExact) {  // perf counters: cycle-exact only
      EXPECT_GE(r.stats.perf.divergent_branches, 1u);
      EXPECT_GE(r.stats.perf.joins, 2u);
    }
  }
}

TEST(SimIsaTest, SplitUniformTakesOneJoin) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // All lanes satisfy the predicate: only the then-side join executes.
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      li t2, 1
      split t2, else_path
      li t3, 11
      join merge
    else_path:
      li t3, 22
      join merge
    merge:
      li t4, 0x20000000
      sw t3, 0(t4)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 11u);
    if (tier == Tier::kCycleExact) {  // perf counters: cycle-exact only
      EXPECT_EQ(r.stats.perf.divergent_branches, 0u);
    }
  }
}

TEST(SimIsaTest, NestedDivergence) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // Outer split on lane<4, inner split on lane parity; every lane gets a
    // distinct value of (outer*10 + parity).
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      csrr t1, 0xCC0
      slti t2, t1, 4
      andi t3, t1, 1
      split t2, outer_else
      split t3, inner_else1
      li t4, 11
      join inner_merge1
    inner_else1:
      li t4, 10
      join inner_merge1
    inner_merge1:
      join outer_merge
    outer_else:
      split t3, inner_else2
      li t4, 21
      join inner_merge2
    inner_else2:
      li t4, 20
      join inner_merge2
    inner_merge2:
      join outer_merge
    outer_merge:
      li t5, 0x20000000
      slli t6, t1, 2
      add t5, t5, t6
      sw t4, 0(t5)
      tmc zero
    )");
    for (uint32_t lane = 0; lane < 8; ++lane) {
      const uint32_t expected = (lane < 4 ? 10u : 20u) + (lane % 2);
      EXPECT_EQ(r.mem.load32(kOut + lane * 4), expected) << "lane " << lane;
    }
  }
}

TEST(SimIsaTest, PredLoop) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // Lane l iterates l times; acc[l] == l afterwards, and the thread mask is
    // restored after the loop so every lane stores.
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      csrr t1, 0xCC0
      mv t2, t1            # counter
      li t3, 0             # acc
      csrr s0, 0xCC3       # save mask
    loop:
      sltu t4, zero, t2
      pred t4, fixup
      addi t3, t3, 1
      addi t2, t2, -1
      j loop
    fixup:
      tmc s0
      li t5, 0x20000000
      slli t6, t1, 2
      add t5, t5, t6
      sw t3, 0(t5)
      tmc zero
    )");
    for (uint32_t lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(r.mem.load32(kOut + lane * 4), lane) << "lane " << lane;
    }
  }
}

TEST(SimIsaTest, WspawnAndBarrier) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // Warp 0 spawns warp 1. Each warp stores warp_id+1 into its slot, hits a
    // barrier, then warp reads the other warp's slot.
    auto r = run_asm(tier, R"(
      li t0, 2
      la t1, warp_entry
      wspawn t0, t1
    warp_entry:
      li t0, 255
      tmc t0
      csrr t1, 0xCC1        # warp id
      csrr t2, 0xCC0        # lane id
      # out[warp*8 + lane] = warp + 1
      li t3, 0x20000000
      slli t4, t1, 5
      add t3, t3, t4
      slli t5, t2, 2
      add t3, t3, t5
      addi t6, t1, 1
      sw t6, 0(t3)
      li a0, 0
      li a1, 2
      bar a0, a1
      # cross[warp*8+lane] = out[(1-warp)*8 + lane]
      li t3, 0x20000000
      li s0, 1
      sub s1, s0, t1        # other warp
      slli s1, s1, 5
      add t3, t3, s1
      slli t5, t2, 2
      add t3, t3, t5
      lw s2, 0(t3)
      li t3, 0x20000100
      slli t4, t1, 5
      add t3, t3, t4
      add t3, t3, t5
      sw s2, 0(t3)
      tmc zero
    )");
    for (uint32_t warp = 0; warp < 2; ++warp) {
      for (uint32_t lane = 0; lane < 8; ++lane) {
        EXPECT_EQ(r.mem.load32(kOut + warp * 32 + lane * 4), warp + 1);
        EXPECT_EQ(r.mem.load32(kOut + 0x100 + warp * 32 + lane * 4), (1 - warp) + 1);
      }
    }
    if (tier == Tier::kCycleExact) {  // perf counters: cycle-exact only
      EXPECT_EQ(r.stats.perf.warps_spawned, 1u);
      EXPECT_EQ(r.stats.perf.barriers, 2u);
    }
  }
}

TEST(SimIsaTest, AtomicAddAcrossLanes) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // All 8 lanes amoadd 1 to the same counter.
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      li t1, 0x20000000
      li t2, 1
      amoadd.w t3, t2, (t1)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 8u);
    if (tier == Tier::kCycleExact) {  // perf counters: cycle-exact only
      EXPECT_EQ(r.stats.perf.atomics, 1u);
    }
  }
}

TEST(SimIsaTest, AtomicMinMax) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      csrr t1, 0xCC0
      li t2, 0x20000000
      amomax.w t3, t1, (t2)
      li t2, 0x20000004
      li t4, 100
      sw t4, 0(t2)
      amomin.w t3, t1, (t2)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 7u);    // max lane id
    EXPECT_EQ(r.mem.load32(kOut + 4), 0u);  // min lane id
  }
}

TEST(SimIsaTest, SharedLocalMemory) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // Lane l writes to local memory, reads neighbour's slot after all lanes
    // wrote (single warp: lockstep issue makes this safe).
    auto r = run_asm(tier, R"(
      li t0, 255
      tmc t0
      csrr t1, 0xCC0
      li t2, 0x70000000
      slli t3, t1, 2
      add t4, t2, t3
      addi t5, t1, 10
      sw t5, 0(t4)
      # read (lane+1)%8 slot
      addi t6, t1, 1
      andi t6, t6, 7
      slli t6, t6, 2
      add t6, t2, t6
      lw s0, 0(t6)
      li s1, 0x20000000
      add s1, s1, t3
      sw s0, 0(s1)
      tmc zero
    )");
    for (uint32_t lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(r.mem.load32(kOut + lane * 4), (lane + 1) % 8 + 10) << "lane " << lane;
    }
  }
}

TEST(SimIsaTest, CsrMachineInfo) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      csrr t0, 0xFC0       # num threads
      csrr t1, 0xFC1       # num warps
      csrr t2, 0xFC2       # num cores
      csrr t3, 0xCC2       # core id
      li t4, 0x20000000
      sw t0, 0(t4)
      sw t1, 4(t4)
      sw t2, 8(t4)
      sw t3, 12(t4)
      tmc zero
    )", Config::with(2, 4, 8));
    EXPECT_EQ(r.mem.load32(kOut), 8u);
    EXPECT_EQ(r.mem.load32(kOut + 4), 4u);
    EXPECT_EQ(r.mem.load32(kOut + 8), 2u);
  }
}

TEST(SimIsaTest, MultiCoreBothRun) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // Every core's warp 0 stores to its own slot.
    auto r = run_asm(tier, R"(
      csrr t0, 0xCC2
      li t1, 0x20000000
      slli t2, t0, 2
      add t1, t1, t2
      addi t3, t0, 1
      sw t3, 0(t1)
      tmc zero
    )", Config::with(4, 2, 4));
    for (uint32_t core = 0; core < 4; ++core) {
      EXPECT_EQ(r.mem.load32(kOut + core * 4), core + 1) << "core " << core;
    }
  }
}

TEST(SimIsaTest, ByteAndHalfwordAccess) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 0x20000000
      li t1, -2
      sb t1, 0(t0)
      sh t1, 4(t0)
      lb t2, 0(t0)
      lbu t3, 0(t0)
      lh t4, 4(t0)
      lhu t5, 4(t0)
      sw t2, 8(t0)
      sw t3, 12(t0)
      sw t4, 16(t0)
      sw t5, 20(t0)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut + 8), 0xFFFFFFFEu);
    EXPECT_EQ(r.mem.load32(kOut + 12), 0xFEu);
    EXPECT_EQ(r.mem.load32(kOut + 16), 0xFFFFFFFEu);
    EXPECT_EQ(r.mem.load32(kOut + 20), 0xFFFEu);
  }
}

TEST(SimIsaTest, EcallReachesHandler) {
  auto prog = vasm::assemble(R"(
    li a7, 3
    li a0, 1234
    ecall
    tmc zero
  )");
  ASSERT_TRUE(prog.is_ok());
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    mem::MainMemory memory;
    memory.write(prog->base, prog->words.data(), prog->size_bytes());
    std::vector<uint32_t> calls;
    const EcallHandler handler = [&](const EcallRequest& req, mem::MainMemory&) {
      if (req.function == arch::kEcallPrintInt) calls.push_back(req.arg0);
    };
    if (tier == Tier::kTurbo) {
      ASSERT_TRUE(jit::TurboEngine(Config::with(1, 1, 1), memory, handler).run(prog->entry()).is_ok());
    } else {
      ASSERT_TRUE(Cluster(Config::with(1, 1, 1), memory, handler).run(prog->entry()).is_ok());
    }
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0], 1234u);
  }
}

TEST(SimIsaTest, PerfCountersTrackStalls) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    // A tight dependent-load chain should record scoreboard or LSU stalls.
    auto r = run_asm(tier, R"(
      li t0, 0x20000000
      li t1, 5
      sw t1, 0(t0)
      lw t2, 0(t0)
      addi t2, t2, 1
      sw t2, 0(t0)
      lw t3, 0(t0)
      addi t3, t3, 1
      sw t3, 0(t0)
      tmc zero
    )", Config::with(1, 1, 1));
    EXPECT_EQ(r.mem.load32(kOut), 7u);
    if (tier == Tier::kCycleExact) {  // perf counters: cycle-exact only
      EXPECT_GT(r.stats.perf.stall_scoreboard + r.stats.perf.stall_lsu, 0u);
      EXPECT_GT(r.stats.l1d.hits + r.stats.l1d.misses, 0u);
      EXPECT_GT(r.stats.dram.reads, 0u);
    }
  }
}

TEST(SimIsaTest, RunawayKernelIsCaught) {
  auto prog = vasm::assemble(R"(
  forever:
    j forever
  )");
  ASSERT_TRUE(prog.is_ok());
  Config config = Config::with(1, 1, 1);
  config.max_cycles = 10'000;  // the turbo tier's instruction budget
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    mem::MainMemory memory;
    memory.write(prog->base, prog->words.data(), prog->size_bytes());
    auto result = run_loaded(tier, prog->entry(), config, std::move(memory));
    EXPECT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().kind(), ErrorKind::kRuntimeError);
  }
}

// x0 reads zero whatever is written to it: ALU, load, CSR, FP-compare and
// AMO destinations alike.
TEST(SimIsaTest, X0IsHardwired) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 7
      li t2, 0x20000000
      sw t0, 64(t2)
      addi zero, t0, 5
      sw zero, 0(t2)
      lui zero, 0x12345
      lw zero, 64(t2)
      csrr zero, 0xFC0
      fmv.w.x f0, t0
      fclass.s zero, f0
      amoadd.w zero, t0, (t2)
      add t3, zero, zero
      sw t3, 4(t2)
      sw zero, 8(t2)
      tmc zero
    )");
    EXPECT_EQ(r.mem.load32(kOut), 7u);  // amoadd of 7 onto the stored 0
    EXPECT_EQ(r.mem.load32(kOut + 4), 0u);
    EXPECT_EQ(r.mem.load32(kOut + 8), 0u);
  }
}

// Sequential fetch runs past a kernel's last instruction into whatever word
// follows (here the zero word after `tmc zero`). That word faults only if it
// issues. In this program the LSU stalls the store burst while fetch reads
// ahead, and the zero word arrives from the I-cache before the exit issues;
// the warp must still retire every store and the exit.
TEST(SimIsaTest, UndecodablePrefetchFaultsOnlyIfIssued) {
  for (Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    auto r = run_asm(tier, R"(
      li t0, 0xF6
      tmc t0
      csrr t1, 0xCC0
      slli t1, t1, 9
      li t0, 0x20000000
      add t1, t1, t0
      sw t0, 0(t1)
      sw t0, 4(t1)
      sw t0, 8(t1)
      sw t0, 12(t1)
      sw t0, 16(t1)
      sw t0, 20(t1)
      sw t0, 24(t1)
      sw t0, 28(t1)
      sw t0, 32(t1)
      sw t0, 36(t1)
      sw t0, 40(t1)
      sw t0, 44(t1)
      sw t0, 48(t1)
      sw t0, 52(t1)
      sw t0, 56(t1)
      sw t0, 60(t1)
      sw t0, 64(t1)
      sw t0, 68(t1)
      sw t0, 72(t1)
      sw t0, 76(t1)
      sw t0, 80(t1)
      sw t0, 84(t1)
      sw t0, 88(t1)
      sw t0, 92(t1)
      sw t0, 96(t1)
      sw t0, 100(t1)
      sw t0, 104(t1)
      sw t0, 108(t1)
      sw t0, 112(t1)
      sw t0, 116(t1)
      sw t0, 120(t1)
      tmc zero
    )", Config::with(1, 1, 8));
    for (uint32_t lane = 0; lane < 8; ++lane) {
      const uint32_t expected = (0xF6 >> lane & 1) != 0 ? kOut : 0;
      EXPECT_EQ(r.mem.load32(kOut + 512 * lane + 120), expected) << lane;
    }
    EXPECT_EQ(r.instrs, 38u);
  }
}

}  // namespace
}  // namespace fgpu::vortex

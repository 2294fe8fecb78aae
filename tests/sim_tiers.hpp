// Runs one assembly program on either execution tier, for tests that check
// architectural results on both: the cycle-exact cluster and the turbo
// translator share one ISA definition, and these tests hold each tier to it.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "mem/memory.hpp"
#include "vasm/assembler.hpp"
#include "vortex/cluster.hpp"
#include "vortex/jit/turbo.hpp"

namespace fgpu::vortex {

enum class Tier { kCycleExact, kTurbo };
inline constexpr Tier kTiers[] = {Tier::kCycleExact, Tier::kTurbo};

inline const char* tier_name(Tier tier) {
  return tier == Tier::kCycleExact ? "cycle-exact" : "turbo";
}

struct SimResult {
  ClusterStats stats;   // cycle-exact tier only (turbo models no timing)
  uint64_t instrs = 0;  // guest instructions retired, on either tier
  mem::MainMemory mem;
};

// Runs an assembled program on `tier` over `memory` (code already loaded).
inline Result<SimResult> run_loaded(Tier tier, uint32_t entry, const Config& config,
                                    mem::MainMemory memory) {
  SimResult result;
  result.mem = std::move(memory);
  if (tier == Tier::kTurbo) {
    jit::TurboEngine engine(config, result.mem);
    const Status status = engine.run(entry);
    if (!status.is_ok()) return status;
    result.instrs = engine.last_run_instrs();
    return result;
  }
  Cluster cluster(config, result.mem);
  auto stats = cluster.run(entry);
  if (!stats.is_ok()) return stats.status();
  result.stats = *stats;
  result.instrs = stats->perf.instrs;
  return result;
}

// Assembles `source` and runs it on `tier`; failures are test failures.
inline SimResult run_program(Tier tier, const std::string& source, const Config& config) {
  auto prog = vasm::assemble(source);
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  if (!prog.is_ok()) return SimResult{};
  mem::MainMemory memory;
  memory.write(prog->base, prog->words.data(), prog->size_bytes());
  auto result = run_loaded(tier, prog->entry(), config, std::move(memory));
  EXPECT_TRUE(result.is_ok()) << tier_name(tier) << ": " << result.status().to_string();
  return result.is_ok() ? std::move(*result) : SimResult{};
}

}  // namespace fgpu::vortex

// Hardware configuration of the soft GPU. The three headline parameters
// (C, W, T) match the paper's Table IV columns: number of cores, warps per
// core, and threads per warp. The memory-system defaults approximate the
// SX2800 board configuration Vortex was synthesized on (DDR4 off-chip).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "arch/isa.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"

namespace fgpu::vortex {

// Per-issued-instruction trace record (debug/analysis hook).
struct TraceEvent {
  uint32_t core = 0;
  uint32_t warp = 0;
  uint32_t pc = 0;
  uint64_t tmask = 0;
  arch::Instr instr;
  uint64_t cycle = 0;
};

// Shape limits: warps are tracked in 64-bit per-core state masks, lanes in
// 64-bit thread masks.
inline constexpr uint32_t kMaxWarps = 64;
inline constexpr uint32_t kMaxThreads = 64;

struct Config {
  uint32_t cores = 4;
  uint32_t warps = 8;    // per core
  uint32_t threads = 8;  // per warp (SIMT lanes)

  uint32_t ibuffer_depth = 2;     // decoded instructions buffered per warp
  uint32_t lsu_queue_depth = 4;   // in-flight memory instructions per core
  uint32_t lsu_ports = 1;         // line requests sent to L1D per cycle
  uint32_t smem_latency = 2;      // shared (OpenCL __local) memory latency
  bool perfect_icache = false;

  // L1D MSHR count and LSU queue depth are the calibration behind the
  // Fig. 7 reproduction: with 16-byte lines, wide (high-T) accesses split
  // into several line fills and exhaust the MSHRs, producing the LSU-stall
  // degradation the paper reports for load-heavy kernels at large configs.
  mem::CacheConfig l1d{.name = "l1d", .size_bytes = 16 * 1024, .ways = 2, .hit_latency = 2,
                       .mshrs = 6, .ports = 1, .mshr_slots = 8};
  mem::CacheConfig l1i{.name = "l1i", .size_bytes = 8 * 1024, .ways = 2, .hit_latency = 1,
                       .mshrs = 2, .ports = 1, .mshr_slots = 8};
  mem::CacheConfig l2{.name = "l2", .size_bytes = 128 * 1024, .ways = 4, .hit_latency = 6,
                      .mshrs = 16, .ports = 2, .mshr_slots = 8};
  mem::DramConfig dram = mem::DramConfig::ddr4();

  uint64_t max_cycles = 400'000'000;  // runaway-kernel guard

  // Event-driven idle skipping: when no core makes progress in a cycle and
  // every in-flight event has a known wake-up cycle, the cluster jumps to
  // the earliest one, bulk-attributing the skipped cycles to the same stall
  // buckets the per-cycle path would have charged. Host-speed only — every
  // reported cycle/stat/profile is identical either way (the A/B test in
  // tests/test_fastpath.cpp asserts this). Disable when debugging cycle by
  // cycle; automatically bypassed while a trace sink is active.
  bool idle_skip = true;

  // Per-PC cycle profiler (vortex/profile.hpp): attribute every issue-stage
  // cycle to a PC and sample the warp-occupancy timeline. Off by default —
  // collection costs a map update per cycle.
  bool profile = false;
  uint32_t profile_interval = 256;  // cycles between occupancy samples

  // Memory-hierarchy profiler (mem/memprof.hpp): per-level miss
  // classification, reuse-distance histograms, MSHR/DRAM occupancy
  // timelines. Off by default — collection costs a shadow-stack update per
  // cache access; cycle counts are unchanged either way.
  bool memprof = false;

  // Optional instruction trace: invoked once per issued instruction.
  // Costly — leave unset except when debugging kernels.
  std::function<void(const TraceEvent&)> trace;

  uint32_t hw_threads() const { return cores * warps * threads; }

  // "C4W8T8". Appended piecewise: an operator+ chain over std::to_string
  // temporaries trips GCC's -Wrestrict false positive once inlined.
  std::string to_string() const {
    std::string out = "C";
    out += std::to_string(cores);
    out += 'W';
    out += std::to_string(warps);
    out += 'T';
    out += std::to_string(threads);
    return out;
  }

  static Config with(uint32_t c, uint32_t w, uint32_t t) {
    Config cfg;
    cfg.cores = c;
    cfg.warps = w;
    cfg.threads = t;
    return cfg;
  }
};

}  // namespace fgpu::vortex

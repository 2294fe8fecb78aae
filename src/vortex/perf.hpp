// Performance counters exposed by the simulator. The stall breakdown is the
// instrument behind the paper's Fig. 7 analysis ("vector addition ... incurs
// more LSU stalls with a higher number of threads and warps per core").
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

namespace fgpu::vortex {

struct PerfCounters {
  uint64_t cycles = 0;
  uint64_t instrs = 0;

  // Issue-stage stall attribution (cycles where no instruction issued).
  uint64_t stall_scoreboard = 0;  // RAW hazard on a pending result
  uint64_t stall_lsu = 0;         // LSU queue full / L1D back-pressure
  uint64_t stall_fu = 0;          // non-pipelined FU (div/sqrt) busy
  uint64_t stall_ibuffer = 0;     // no decoded instruction available (fetch-bound)
  uint64_t stall_barrier = 0;     // all candidate warps blocked on a barrier
  uint64_t idle_cycles = 0;       // no active warp at all

  // Event counts.
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t atomics = 0;
  uint64_t branches = 0;
  uint64_t divergent_branches = 0;  // SPLITs that actually diverged
  uint64_t joins = 0;
  uint64_t barriers = 0;
  uint64_t warps_spawned = 0;

  void accumulate(const PerfCounters& other) {
    cycles = std::max(cycles, other.cycles);
    instrs += other.instrs;
    stall_scoreboard += other.stall_scoreboard;
    stall_lsu += other.stall_lsu;
    stall_fu += other.stall_fu;
    stall_ibuffer += other.stall_ibuffer;
    stall_barrier += other.stall_barrier;
    idle_cycles += other.idle_cycles;
    loads += other.loads;
    stores += other.stores;
    atomics += other.atomics;
    branches += other.branches;
    divergent_branches += other.divergent_branches;
    joins += other.joins;
    barriers += other.barriers;
    warps_spawned += other.warps_spawned;
  }

  double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(instrs) / static_cast<double>(cycles);
  }

  // Structural comparison (tests assert on counters, not summary strings).
  bool operator==(const PerfCounters&) const = default;

  // Full human-readable summary. Built with std::string (no fixed buffer:
  // the old char[256] snprintf silently truncated once the event section
  // was added) and includes the event counts the one-liner used to drop.
  std::string summary() const {
    std::string out;
    // Worst case: 16 uint64 fields at up to 20 digits each plus the key
    // text comes to ~460 bytes; 256 forced a mid-build reallocation.
    out.reserve(512);
    const auto add = [&out](const char* key, uint64_t v) {
      out += key;
      out += std::to_string(v);
    };
    add("cycles=", cycles);
    add(" instrs=", instrs);
    char ipc_buf[32];
    std::snprintf(ipc_buf, sizeof(ipc_buf), " ipc=%.3f", ipc());
    out += ipc_buf;
    add(" stalls[sb=", stall_scoreboard);
    add(" lsu=", stall_lsu);
    add(" fu=", stall_fu);
    add(" ib=", stall_ibuffer);
    add(" bar=", stall_barrier);
    add(" idle=", idle_cycles);
    add("] events[loads=", loads);
    add(" stores=", stores);
    add(" atomics=", atomics);
    add(" branches=", branches);
    add(" divergent=", divergent_branches);
    add(" joins=", joins);
    add(" barriers=", barriers);
    add(" wspawn=", warps_spawned);
    out += ']';
    return out;
  }
};

// Deterministic host-work counters of the cycle-exact cluster: how much
// simulation work a launch cost, independent of host speed. They describe
// the simulator, not the simulated GPU, so they differ between
// Config::idle_skip on and off and stay out of every byte-gated document
// (exported in fgpu.host.v1 only). Invariants: cluster_ticks +
// cycles_skipped == cycles, and core_ticks + core_ticks_slept == cores *
// cycles.
struct HostWork {
  uint64_t cluster_ticks = 0;     // Cluster::tick calls
  uint64_t core_ticks = 0;        // core pipeline ticks executed
  uint64_t core_ticks_slept = 0;  // core cycles charged in bulk on wake
  uint64_t cycles_skipped = 0;    // cycles jumped with every core asleep
  uint64_t capacity_wakes = 0;    // sleeping cores woken by the L2 freeing an MSHR

  void accumulate(const HostWork& other) {
    cluster_ticks += other.cluster_ticks;
    core_ticks += other.core_ticks;
    core_ticks_slept += other.core_ticks_slept;
    cycles_skipped += other.cycles_skipped;
    capacity_wakes += other.capacity_wakes;
  }
};

}  // namespace fgpu::vortex

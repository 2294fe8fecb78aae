// The full soft GPU: C cores behind a shared L2 and an off-chip DRAM model.
// This is the SimX-equivalent top level the paper uses for its Fig. 7
// design-space exploration ("Simx is a C++ cycle-level simulator ...").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/memory.hpp"
#include "vortex/core.hpp"

namespace fgpu::vortex {

struct ClusterStats {
  PerfCounters perf;          // aggregated over cores (cycles = max)
  mem::MemStats l1d;          // summed over cores
  mem::MemStats l1i;
  mem::MemStats l2;
  mem::MemStats dram;
  uint64_t dram_bytes = 0;
  HostWork work;  // simulator work, not GPU behaviour (fgpu.host.v1 only)
};

class Cluster {
 public:
  Cluster(const Config& config, mem::MainMemory& gmem, EcallHandler ecall_handler = {});

  // Resets every core and runs the kernel at `entry_pc` to completion
  // (all warps retired and no memory traffic in flight). With
  // Config::idle_skip (and no trace sink active), cores that cannot make
  // progress sleep and are charged in bulk on wake; see sleep_idle_cores.
  Result<ClusterStats> run(uint32_t entry_pc);

  const Config& config() const { return config_; }
  Core& core(uint32_t i) { return *cores_[i]; }
  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }

  // Single-step interface for tests.
  void reset(uint32_t entry_pc);
  // Full return to construction-time state without reallocating anything:
  // deep-resets every cache/DRAM queue, the interconnect's routing state and
  // every core (device-reuse contract; DESIGN.md "Device lifecycle"). Only
  // valid between kernels — reset(entry_pc) remains the per-launch boundary.
  void hard_reset();
  // One cycle: wakes the sleeping cores whose own next event is due, then
  // ticks DRAM, L2 and every awake core with its L1s. A core whose L1s
  // wait on a full L2 is woken when a DRAM fill frees an L2 MSHR. Cores
  // only fall asleep inside run(), so single-stepping ticks every core
  // every cycle.
  void tick();
  bool busy() const;
  uint64_t cycle() const { return cycle_; }
  ClusterStats collect_stats() const;
  // Per-PC profile merged across cores, plus the cluster-level cache
  // conflict histograms (empty PcProfile unless Config::profile).
  PcProfile collect_profile() const;
  // Memory-hierarchy profile merged across cores + the shared L2/DRAM;
  // empty (enabled=false) unless Config::memprof is set.
  mem::MemHierarchyProfile collect_mem_profile() const;

 private:
  void trace_counters() const;
  void sleep_idle_cores();
  void wake(Core& core);
  void wake_all();
  void wake_due();
  void wake_capacity_blocked();
  // Calls fn(core) for every awake core, in index order.
  template <typename Fn>
  void for_each_awake(Fn&& fn);

  Config config_;
  mem::MainMemory& gmem_;
  mem::DramModel dram_;
  mem::Cache l2_;
  mem::Interconnect noc_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::string> stall_track_names_;  // "stalls.cN" trace tracks
  uint64_t cycle_ = 0;
  uint32_t asleep_ = 0;  // cores currently asleep
  // Bit c % 64 of word c / 64 is set while core c is awake: the per-cycle
  // loops visit awake cores only.
  std::vector<uint64_t> awake_;
  // No sleeping core's own wake-up is due before this cycle (a lower
  // bound: cores woken by a response leave it early, never late).
  uint64_t next_wake_ = kNoWake;
  HostWork work_;
};

}  // namespace fgpu::vortex

// First-order analytical performance model for the soft GPU — the research
// direction the paper explicitly proposes in §IV-A ("a valuable opportunity
// exists for research aimed at minimizing or circumventing the exploration
// space by ... proposing an analytical model for Vortex's performance").
//
// The model predicts kernel cycles for a (C, W, T) configuration from a
// one-time workload profile (gathered by running the reference interpreter
// and reading its work counts — no cycle-level simulation), as the maximum of
// bottlenecks:
//
//   issue  — one warp-instruction per cycle per core; T lanes amortize the
//            per-item instruction count,
//   memory — LSU line-request drain (one per cycle per core), with
//            consecutive accesses amortized across a 16-byte line and a
//            MSHR-saturation penalty at high W*T (the Fig. 7 effect),
//   dram   — cluster-wide channel bandwidth: the lines that miss both cache
//            levels drain at channels * requests_per_channel lines/cycle,
//   latency— with few warps in flight, per-warp serial latency dominates.
//
// Cache geometry enters through the workload footprint (KernelProfile::
// footprint_bytes): a first-order compulsory + capacity split decides what
// fraction of line requests miss L1 (per-core working set vs l1d.size_bytes)
// and, of those, what fraction miss the shared L2 (total footprint vs
// l2.size_bytes) and pay DRAM latency/bandwidth. This makes the L1/L2-size
// and DRAM-channel axes of a design-space sweep prunable analytically (the
// fgpu.dse.v1 funnel, see suite/dse.hpp) — not just (C, W, T).
//
// It is intentionally cheap (microseconds per configuration) so a design-
// space sweep over thousands of configurations costs less than one
// cycle-level simulation.
#pragma once

#include "common/status.hpp"
#include "kir/interp.hpp"
#include "kir/kir.hpp"
#include "vortex/config.hpp"

namespace fgpu::vortex {

// Configuration-independent workload characteristics of one kernel launch.
struct KernelProfile {
  uint64_t items = 0;              // total work items
  double ops_per_item = 0.0;       // dynamic KIR operations per item
  double loads_per_item = 0.0;     // global loads per item
  double stores_per_item = 0.0;    // global stores per item
  double local_accesses_per_item = 0.0;
  double consecutive_fraction = 1.0;  // of global accesses (coalescable)
  bool uses_barriers = false;
  // Total bytes of the launch's buffer arguments — the first-order global
  // working set behind the cache-geometry terms of predict_cycles. 0 (the
  // default, e.g. for hand-built profiles) selects the legacy streaming
  // assumption: every line request is a compulsory DRAM fill, so cache
  // sizes drop out of the prediction.
  uint64_t footprint_bytes = 0;
};

// A kernel prepared once for profiling any number of its launches: the
// builtin-expanded clone (so the operation count matches what the device
// executes), the access-pattern class of each interpreter site, and the
// interpreter program over the clone. Not copyable: the program points into
// the clone.
class KernelProfiler {
 public:
  explicit KernelProfiler(const kir::Kernel& kernel);
  KernelProfiler(const KernelProfiler&) = delete;
  KernelProfiler& operator=(const KernelProfiler&) = delete;

  // Profiles one launch by running the reference interpreter once and
  // reading its work and per-site counts. `args` are interpreter arguments
  // over scratch copies of the launch buffers (mutated during profiling).
  Result<KernelProfile> profile(const std::vector<kir::KernelArg>& args,
                                const kir::NDRange& ndrange) const;

 private:
  enum class SiteClass : uint8_t { kLocal, kGlobal, kGlobalConsecutive };

  kir::Kernel lowered_;
  kir::Program program_;
  std::vector<SiteClass> site_class_;  // per program site
};

// One-off KernelProfiler(kernel).profile(args, ndrange).
Result<KernelProfile> profile_kernel(const kir::Kernel& kernel,
                                     const std::vector<kir::KernelArg>& args,
                                     const kir::NDRange& ndrange);

struct Prediction {
  double cycles = 0.0;
  double issue_bound = 0.0;
  double memory_bound = 0.0;
  double latency_bound = 0.0;
  // Cluster-wide DRAM channel bandwidth bound (lines that miss both cache
  // levels over channels * requests_per_channel lines per cycle).
  double dram_bound = 0.0;
  double overhead = 0.0;
  // "issue" | "memory" | "dram" | "latency" — the binding bound above.
  const char* bottleneck = "";
};

// Predicts kernel cycles on `config` from a profile.
Prediction predict_cycles(const KernelProfile& profile, const Config& config);

}  // namespace fgpu::vortex

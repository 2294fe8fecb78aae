// Benchmark suite: the 28 workloads of the paper's Table I, re-implemented
// as KIR kernels + host drivers (Rodinia and NVIDIA OpenCL SDK kernels at
// reduced problem sizes — reduced because the device is a cycle-level
// simulator, not silicon; the kernel *structure* — loads per item, access
// patterns, divergence, atomics, barriers — follows the originals, which is
// what coverage and the Fig. 7 shapes depend on).
//
// Each benchmark carries: a KIR module, initial host buffers, a static
// launch sequence (host-side loops like Gaussian's per-column sweep become
// pre-unrolled launch lists), and a verifier. By default results are
// checked bit-exactly against the KIR reference interpreter running the
// same (builtin-expanded) module; benchmarks whose outputs depend on atomic
// ordering provide a custom verifier instead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "kir/kir.hpp"
#include "runtime/runtime.hpp"

namespace fgpu::suite {

struct ArgSpec {
  enum class Kind : uint8_t { kBuffer, kI32, kF32 };
  Kind kind = Kind::kBuffer;
  int buffer = -1;
  int32_t i32 = 0;
  float f32 = 0.0f;

  static ArgSpec buf(int index) { return ArgSpec{Kind::kBuffer, index, 0, 0.0f}; }
  static ArgSpec i(int32_t v) { return ArgSpec{Kind::kI32, -1, v, 0.0f}; }
  static ArgSpec f(float v) { return ArgSpec{Kind::kF32, -1, 0, v}; }
};

struct LaunchPlan {
  std::string kernel;
  kir::NDRange ndrange;
  std::vector<ArgSpec> args;
};

struct Benchmark {
  std::string name;
  std::string origin;  // "NVIDIA SDK", "Rodinia", "Vortex tests"
  std::string notes;   // structure summary (for DESIGN/EXPERIMENTS docs)
  kir::Module module;
  std::vector<std::vector<uint32_t>> buffers;  // initial host data
  std::vector<LaunchPlan> launches;

  // Indices of buffers to compare against the interpreter oracle
  // (empty = all).
  std::vector<int> checked_buffers;
  // Custom verifier for benchmarks with ordering-dependent outputs
  // (atomics). Receives final buffers + device console lines.
  std::function<Status(const std::vector<std::vector<uint32_t>>&,
                       const std::vector<std::string>&)>
      custom_verify;

  // Work-group sizes in this suite are capped so the soft GPU's work-group
  // dispatch fits: local_items <= min_lanes (default config W*T = 64).
  static constexpr uint32_t kMaxWorkGroup = 64;
};

// Registry -----------------------------------------------------------------

// All 28 names, in the paper's Table I order.
const std::vector<std::string>& all_benchmark_names();

// Builds a benchmark instance (deterministic: same name -> same workload).
Benchmark make_benchmark(const std::string& name);

// Process-wide cache of generated benchmarks. Factories are deterministic
// (fixed internal seeds: same name -> same module, buffers and launch
// plan), benchmarks are never mutated after construction, and run_benchmark
// only reads them — so one shared instance serves every repeat and worker.
// Saves the workload-generation cost (matrix fills, graph construction)
// that --repeat would otherwise pay per iteration.
std::shared_ptr<const Benchmark> shared_benchmark(const std::string& name);

struct WorkloadCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  // one per actual make_benchmark call
  uint64_t reference_hits = 0;
  uint64_t reference_misses = 0;  // one per actual reference_run call
};
WorkloadCacheStats workload_cache_stats();
// Tests only: drop every cached benchmark and zero the counters.
void clear_workload_cache();

// Memoized interpreter oracle over the shared workload cache: the final
// buffer state of reference_run(*shared_benchmark(name)), computed once per
// process instead of once per device run (three per benchmark per repeat
// under --device=all). Pure: same benchmark -> same buffers, and verifiers
// only read them. Null when the reference run fails (callers fall back to
// the inline computation, which reports the error per run).
std::shared_ptr<const std::vector<std::vector<uint32_t>>> shared_reference(
    const std::string& name);

// Runner ---------------------------------------------------------------------

// Accumulated per-PC profile of one kernel across a benchmark's launches.
// Kept per kernel *name*: all binaries load at arch::kCodeBase, so PCs from
// different kernels of one benchmark must never merge into one table.
struct KernelProfile {
  std::string kernel;
  uint64_t launches = 0;
  // Aggregate counters over this kernel's launches (cycles summed, unlike
  // PerfCounters::accumulate's max-over-cores rule).
  vortex::PerfCounters perf;
  vortex::PcProfile profile;
  vasm::Program binary;        // for annotated disassembly
  vasm::SourceMap source_map;  // PC -> KIR provenance
};

// Accumulated per-access-site HLS attribution of one kernel across a
// benchmark's launches, plus its structured synthesis report — the HLS-side
// mirror of KernelProfile (exported as fgpu.hlsprof.v1). Site stats add up
// across launches of the same design; memory_stall_cycles equals the sum of
// sites[].stall_cycles exactly (per-launch contract, preserved by summing).
struct HlsKernelProfile {
  std::string kernel;
  uint64_t launches = 0;
  uint64_t device_cycles = 0;        // summed over launches
  uint64_t memory_stall_cycles = 0;  // == sum of sites[].stall_cycles
  hls::SynthReport synth;            // filled at build time (even on failed fits)
  std::vector<vcl::HlsSiteStats> sites;
};

// Accumulated memory-hierarchy profile of one kernel across a benchmark's
// launches (exported as fgpu.mem.v1). A vortex entry carries the full
// hierarchy plus the kernel image/source map so by_tag PCs render with
// instruction + KIR provenance; an HLS entry carries the burst-LSU
// read-path shadow profile with by_tag keyed by AccessSite index, joined
// against `sites` at export.
struct KernelMemProfile {
  std::string kernel;
  uint64_t launches = 0;
  bool is_hls = false;
  mem::MemHierarchyProfile mem;          // vortex hierarchy
  vasm::Program binary;                  // vortex: PC provenance
  vasm::SourceMap source_map;
  mem::CacheMemProfile hls_mem;          // hls read path
  std::vector<vcl::HlsSiteStats> sites;  // hls: site table for the tag join
};

// Compile-time observability of one built kernel: the shared CompiledKernel
// whose `report` member holds the optimization remarks + per-pass telemetry
// (exported as fgpu.codegen.v1). Captured in build order; only present when
// the build ran with codegen::Options::collect_remarks.
struct KernelCodegen {
  std::string kernel;
  std::shared_ptr<const codegen::CompiledKernel> compiled;
};

struct DeviceRun {
  Status build;          // program build (HLS synthesis can fail here)
  Status run;            // launch execution
  Status verify;         // result check
  std::string fail_reason;  // short Table-I-style reason ("Not enough BRAM")
  uint64_t total_cycles = 0;
  uint64_t total_instrs = 0;  // simulated instructions summed over launches
  // FNV-1a over the final checked device buffers (index, length, words).
  // Opt-level-independent by construction: the differential CI step compares
  // this field between -O0 and -O2 stats exports to prove the optimizer
  // preserved every output bit. 0 until buffers have been downloaded.
  uint64_t output_digest = 0;
  double total_time_ms = 0.0;
  // Host wall-clock spent inside Device::launch() calls only — excludes
  // build/synthesis, workload generation, buffer transfer and verification.
  // This is the denominator of the execution-tier throughput comparison
  // (fgpu.host.v1 "dispatch" rates): the shared fixed costs around a launch
  // are identical across devices and would otherwise dilute the ratio.
  double launch_host_ms = 0.0;
  // Host wall-clock spent inside Device::build() — guest-code compilation
  // (or a KernelCache hit) on the soft-GPU tiers, synthesis (or an HlsCache
  // hit) on HLS. Reported as "build_ms" in fgpu.host.v1 and EXCLUDED from
  // the per-benchmark wall_ms there, so run-time comparisons are not
  // diluted by one-time build cost.
  double build_host_ms = 0.0;
  // Cycle-exact simulator work summed over launches (fgpu.host.v1 "work";
  // deterministic, but depends on Config::idle_skip).
  vortex::HostWork work;
  vcl::LaunchStats last;  // stats of the final launch
  fpga::AreaReport area;  // HLS: summed module area
  double synthesis_hours = 0.0;
  // Per-kernel profiles in first-launch order; filled only when the device
  // collects profiles (soft GPU with Config::profile set).
  std::vector<KernelProfile> kernel_profiles;
  // HLS: per-kernel site attribution + structured synthesis reports, in
  // build order (present even when the build failed — the synth reports of
  // failed fits are the Table II data points).
  std::vector<HlsKernelProfile> hls_profiles;
  // Per-kernel memory-hierarchy profiles in first-launch order; filled only
  // when memory profiling is enabled (RunnerOptions::capture_memprof).
  std::vector<KernelMemProfile> mem_profiles;
  // Per-kernel compile reports in build order; filled only when the device
  // was constructed with collect_remarks (RunnerOptions::capture_remarks).
  std::vector<KernelCodegen> codegen;

  bool ok() const { return build.is_ok() && run.is_ok() && verify.is_ok(); }
};

// Builds + runs + verifies `bench` on `device`. When `expected` is non-null
// it is used as the oracle's final buffer state (the memoized
// shared_reference of the pooled suite path) instead of re-running the
// reference interpreter; ignored for custom-verify benchmarks.
DeviceRun run_benchmark(vcl::Device& device, const Benchmark& bench,
                        const std::vector<std::vector<uint32_t>>* expected = nullptr);

// Runs the interpreter oracle over the benchmark's launch sequence and
// returns the final buffer state (also used by run_benchmark for
// verification).
Result<std::vector<std::vector<uint32_t>>> reference_run(const Benchmark& bench);

}  // namespace fgpu::suite

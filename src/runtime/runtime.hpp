// vcl — a miniature OpenCL-style host runtime with three device backends:
//
//   * the Vortex soft GPU (runtime/vortex_device.*): kernels are compiled
//     to Vortex ISA binaries and executed on the cycle-level simulator —
//     the paper's PoCL-runtime + Vortex flow (Fig. 5) and the sole timing
//     oracle,
//   * the Intel-HLS-like device (runtime/hls_device.*): kernels are
//     "synthesized" into a pipelined datapath model with an area report and
//     a fitter that can fail — the paper's AOC flow (Fig. 3), and
//   * the turbo functional tier (runtime/turbo_device.*): the same Vortex
//     binaries executed by a threaded-code binary translator — identical
//     output digests at interpreter-free speed, no timing claims (see
//     DESIGN.md "Execution tiers").
//
// Host code written against this API runs unmodified on either device,
// mirroring the paper's methodology ("identical source code (both host and
// kernel), differing only in the kernel binaries loaded").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "fpga/board.hpp"
#include "hls/synth_report.hpp"
#include "kir/kir.hpp"
#include "mem/memprof.hpp"
#include "mem/timing.hpp"
#include "vasm/program.hpp"
#include "vortex/perf.hpp"
#include "vortex/profile.hpp"

namespace fgpu::codegen {
struct CompiledKernel;
}

namespace fgpu::vcl {

// Device buffer handle (device address + size; data lives device-side).
struct Buffer {
  uint32_t device_addr = 0;
  size_t size_bytes = 0;
  bool valid() const { return device_addr != 0; }
};

// Kernel argument: buffer, i32 scalar, or f32 scalar (set_arg order follows
// the kernel's parameter declaration order).
using Arg = std::variant<Buffer, int32_t, float>;

// Per-access-site timing attribution of one HLS launch — the HLS-side
// analogue of the soft GPU's per-PC profile (fgpu.hlsprof.v1). Exact-sum
// contract: stall_cycles over a launch's sites sums to the launch's
// LaunchStats::memory_stall_cycles to the cycle.
struct HlsSiteStats {
  uint32_t site = 0;          // index into the design's access-site list
  std::string buffer;         // kernel parameter backing the site
  std::string source;         // KIR provenance: "<buffer>[<index-expr>]"
  std::string lsu;            // "burst" | "pipelined" | "store"
  std::string pattern;        // "consecutive" | "strided" | "irregular"
  bool in_loop = false;
  uint64_t requests = 0;      // dynamic accesses through the site
  uint64_t bytes = 0;         // off-chip traffic attributed to the site
  double occupancy_cycles = 0.0;  // memory-interface occupancy (drives the II)
  uint64_t stall_cycles = 0;  // share of memory_stall_cycles (exact sum)
};

struct LaunchStats {
  uint64_t device_cycles = 0;
  double clock_mhz = 0.0;
  double time_ms() const {
    return clock_mhz == 0.0 ? 0.0
                            : static_cast<double>(device_cycles) / (clock_mhz * 1e3);
  }

  // Soft-GPU detail.
  vortex::PerfCounters perf;
  mem::MemStats l1d, l2, dram;
  uint64_t dram_bytes = 0;
  // Simulator work of this launch (fgpu.host.v1 only; see HostWork).
  vortex::HostWork work;
  // Per-PC issue/stall profile of this launch (enabled only when the
  // device's vortex::Config::profile is set).
  vortex::PcProfile profile;
  // Memory-hierarchy profile of this launch (miss classes, reuse
  // distances, occupancy histograms; enabled only when the device's
  // vortex::Config::memprof is set).
  mem::MemHierarchyProfile memprof;

  // HLS detail.
  uint64_t pipeline_depth = 0;
  uint64_t initiation_interval = 0;
  uint64_t memory_stall_cycles = 0;
  // Per-access-site attribution of this launch (empty on the soft GPU);
  // stall_cycles over these sites sums exactly to memory_stall_cycles.
  std::vector<HlsSiteStats> hls_sites;
  // HLS burst-LSU read-path shadow profile: the launch's global-load
  // address stream classified against a shadow cache of the soft-GPU L1D
  // reference geometry, by_tag keyed by AccessSite index (set only when
  // HlsDevice::set_memprof enabled it).
  bool hls_mem_enabled = false;
  mem::CacheMemProfile hls_mem;
};

// Result of building one kernel (per-kernel logs feed the coverage table).
struct KernelBuildInfo {
  std::string kernel;
  Status status;
  std::string log;                // human-readable detail
  fpga::AreaReport area;          // HLS: synthesized area
  double synthesis_hours = 0.0;   // HLS: modelled synthesis time (§IV-B)
  // HLS: structured synthesis report (per-module area rows + fitter
  // verdict), produced even for failed fits; synth.kernel is empty on the
  // soft GPU.
  hls::SynthReport synth;
  size_t binary_words = 0;        // soft GPU: instruction count
  bool barrier_dispatch = false;  // soft GPU: work-group dispatch used
  // Soft GPU: the kernel image and its PC -> KIR line table, kept so
  // profiles can be rendered as annotated disassembly after the run.
  vasm::Program binary;
  vasm::SourceMap source_map;
  // Soft GPU: the full cached compile (null on HLS). Exposes the
  // optimization-remark report (compiled->report) when the build ran with
  // collect_remarks; shared with the KernelCache entry, so replays carry
  // the byte-identical remark stream of the original compile.
  std::shared_ptr<const codegen::CompiledKernel> compiled;
};

class Device {
 public:
  virtual ~Device() = default;

  virtual std::string name() const = 0;
  virtual const fpga::Board& board() const = 0;

  // Memory management ----------------------------------------------------
  virtual Buffer alloc(size_t bytes) = 0;
  virtual void write(const Buffer& buffer, const void* data, size_t bytes,
                     size_t offset = 0) = 0;
  virtual void read(const Buffer& buffer, void* out, size_t bytes, size_t offset = 0) = 0;

  // Program build --------------------------------------------------------
  // Builds every kernel in the module. Returns an error if any kernel fails
  // (per-kernel detail in build_info()). A failed build leaves successfully
  // built kernels launchable, like clBuildProgram with multiple kernels.
  virtual Status build(const kir::Module& module) = 0;
  virtual const std::vector<KernelBuildInfo>& build_info() const = 0;
  const KernelBuildInfo* find_build_info(const std::string& kernel) const {
    for (const auto& info : build_info()) {
      if (info.kernel == kernel) return &info;
    }
    return nullptr;
  }

  // Lifecycle ------------------------------------------------------------
  // Returns the device to construction-time state without reallocating its
  // big structures (simulator arrays, page tables): drops built kernels,
  // buffers, console lines and all simulator-internal carry-over, so a
  // subsequent build/launch sequence produces bit-identical results AND
  // cycle counts to the same sequence on a freshly constructed device (the
  // device-pool contract, DESIGN.md "Device lifecycle"; asserted by
  // tests/test_lifecycle.cpp). Implementations may retain content-addressed
  // warm state (e.g. turbo block translations) only where it is proven
  // observationally neutral. Only valid between benchmarks, never
  // mid-benchmark.
  virtual void reset() = 0;

  // Execution ------------------------------------------------------------
  virtual Result<LaunchStats> launch(const std::string& kernel, const std::vector<Arg>& args,
                                     const kir::NDRange& ndrange) = 0;

  // OpenCL printf output captured from the device.
  virtual const std::vector<std::string>& console() const = 0;
  virtual void clear_console() = 0;

  // Convenience typed transfer helpers.
  template <typename T>
  Buffer upload(const std::vector<T>& data) {
    static_assert(sizeof(T) == 4, "device buffers are 32-bit element arrays");
    Buffer b = alloc(data.size() * 4);
    write(b, data.data(), data.size() * 4);
    return b;
  }
  template <typename T>
  std::vector<T> download(const Buffer& buffer) {
    static_assert(sizeof(T) == 4, "device buffers are 32-bit element arrays");
    std::vector<T> out(buffer.size_bytes / 4);
    read(buffer, out.data(), out.size() * 4);
    return out;
  }
};

}  // namespace fgpu::vcl

#include "runtime/vortex_device.hpp"

#include <cstdio>
#include <cstring>

#include "codegen/abi.hpp"
#include "common/bits.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/stack_guard.hpp"
#include "trace/trace.hpp"

namespace fgpu::vcl {

VortexDevice::VortexDevice(vortex::Config config, const fpga::Board& board,
                           codegen::Options codegen_options)
    : config_(config),
      board_(board),
      codegen_options_(codegen_options),
      heap_next_(arch::kHeapBase) {
  config_.dram = board_.dram;
  cluster_ = std::make_unique<vortex::Cluster>(config_, memory_, console_.handler());
}

std::string VortexDevice::name() const {
  return "vortex-" + config_.to_string() + "@" + board_.name;
}

Buffer VortexDevice::alloc(size_t bytes) {
  const uint32_t addr = heap_next_;
  heap_next_ = static_cast<uint32_t>(align_up(heap_next_ + bytes, 64));
  return Buffer{addr, bytes};
}

void VortexDevice::write(const Buffer& buffer, const void* data, size_t bytes, size_t offset) {
  memory_.write(buffer.device_addr + static_cast<uint32_t>(offset), data,
                static_cast<uint32_t>(bytes));
}

void VortexDevice::read(const Buffer& buffer, void* out, size_t bytes, size_t offset) {
  memory_.read(buffer.device_addr + static_cast<uint32_t>(offset), out,
               static_cast<uint32_t>(bytes));
}

Status VortexDevice::build(const kir::Module& module) {
  module_ = module;
  kernels_.clear();
  build_info_.clear();
  Status first_error;
  // Compiles go through the process-wide cache: same kernel digest + same
  // codegen options + same target -> the shared CompiledKernel, so repeated
  // builds (device pool, --repeat) cost a hash lookup.
  const std::string target = config_.to_string() + "@" + board_.name;
  for (const auto& kernel : module_.kernels) {
    KernelBuildInfo info;
    info.kernel = kernel.name;
    auto entry = KernelCache::instance().compile(kernel, codegen_options_, target);
    if (entry.status.is_ok()) {
      const codegen::CompiledKernel& compiled = *entry.compiled;
      info.status = Status::ok();
      info.binary_words = compiled.program.words.size();
      info.barrier_dispatch = compiled.barrier_dispatch;
      info.log = "compiled to " + std::to_string(info.binary_words) + " instructions (" +
                 (compiled.barrier_dispatch ? "work-group dispatch" : "grid-stride dispatch") +
                 ", " + std::to_string(compiled.spill_slots) + " spill slots)";
      info.binary = compiled.program;
      info.source_map = compiled.source_map;
      info.compiled = entry.compiled;
      kernels_[kernel.name] = Built{entry.compiled, &kernel};
    } else {
      info.status = entry.status;
      info.log = entry.status.to_string();
      if (first_error.is_ok()) first_error = entry.status;
    }
    build_info_.push_back(std::move(info));
  }
  return first_error;
}

void VortexDevice::reset() {
  module_ = {};
  kernels_.clear();
  build_info_.clear();
  memory_.clear();
  console_.clear();
  heap_next_ = arch::kHeapBase;
  cluster_->hard_reset();
}

Result<LaunchStats> VortexDevice::launch(const std::string& kernel_name,
                                         const std::vector<Arg>& args,
                                         const kir::NDRange& ndrange) {
  auto it = kernels_.find(kernel_name);
  if (it == kernels_.end()) {
    return Result<LaunchStats>(ErrorKind::kNotFound, "kernel '" + kernel_name + "' not built");
  }
  const Built& built = it->second;
  const kir::Kernel& kernel = *built.kernel;
  if (args.size() != kernel.params.size()) {
    return Result<LaunchStats>(ErrorKind::kInvalidArgument,
                               kernel_name + ": wrong argument count");
  }
  for (int d = 0; d < 3; ++d) {
    if (ndrange.local[d] == 0 || ndrange.global[d] % ndrange.local[d] != 0) {
      return Result<LaunchStats>(ErrorKind::kInvalidArgument,
                                 kernel_name + ": global size not divisible by local size");
    }
  }
  const uint32_t local_total = ndrange.local_items();
  uint32_t nbw = 0;
  if (built.compiled->barrier_dispatch) {
    const uint32_t lanes = config_.warps * config_.threads;
    if (local_total > lanes) {
      return Result<LaunchStats>(
          ErrorKind::kInvalidArgument,
          kernel_name + ": work-group size " + std::to_string(local_total) +
              " exceeds hardware parallelism W*T=" + std::to_string(lanes) +
              " required by the work-group dispatch mapping");
    }
    nbw = (local_total + config_.threads - 1) / config_.threads;
  }
  if (kernel.local_bytes() > arch::kLocalSize) {
    return Result<LaunchStats>(ErrorKind::kInvalidArgument,
                               kernel_name + ": __local memory exceeds device capacity");
  }
  if (auto st = check_stack_frames(kernel_name, config_, built.compiled->spill_slots, heap_next_);
      !st.is_ok()) {
    return Result<LaunchStats>(st.kind(), st.message());
  }

  // Load the kernel binary.
  memory_.write(built.compiled->program.base, built.compiled->program.words.data(),
                built.compiled->program.size_bytes());

  // Write the argument block (see codegen/abi.hpp).
  namespace abi = codegen::abi;
  auto w32 = [&](uint32_t offset, uint32_t value) {
    memory_.store32(arch::kArgBase + offset, value);
  };
  w32(abi::kDims, ndrange.dims);
  for (int d = 0; d < 3; ++d) {
    w32(abi::kGlobal0 + 4 * static_cast<uint32_t>(d), ndrange.global[d]);
    w32(abi::kLocal0 + 4 * static_cast<uint32_t>(d), ndrange.local[d]);
    w32(abi::kNumGroups0 + 4 * static_cast<uint32_t>(d), ndrange.num_groups(static_cast<uint32_t>(d)));
  }
  w32(abi::kTotalItems, static_cast<uint32_t>(ndrange.global_items()));
  w32(abi::kLocalTotal, local_total);
  w32(abi::kNbw, nbw);
  w32(abi::kTotalGroups, static_cast<uint32_t>(ndrange.total_groups()));
  for (size_t i = 0; i < args.size(); ++i) {
    uint32_t bits = 0;
    if (const auto* buffer = std::get_if<Buffer>(&args[i])) {
      if (!kernel.params[i].is_buffer) {
        return Result<LaunchStats>(ErrorKind::kInvalidArgument,
                                   kernel_name + ": buffer passed for scalar param");
      }
      bits = buffer->device_addr;
    } else if (const auto* iv = std::get_if<int32_t>(&args[i])) {
      bits = static_cast<uint32_t>(*iv);
    } else {
      bits = f2u(std::get<float>(args[i]));
    }
    w32(abi::arg_offset(static_cast<uint32_t>(i)), bits);
  }

  auto stats = cluster_->run(built.compiled->program.entry());
  if (!stats.is_ok()) return stats.status();
  if (trace::Sink* sink = trace::kEnabled ? trace::current() : nullptr) {
    // Kernel begin/end on the sink's monotonic timeline: the per-launch
    // events emitted during cluster_->run() used the same time base; the
    // base then advances past this kernel so launches do not overlap.
    for (uint32_t c = 0; c < config_.cores; ++c) {
      sink->set_thread_name(c, "core" + std::to_string(c));
    }
    sink->complete(sink->intern(kernel_name), "kernel", 0, 0, stats->perf.cycles,
                   {{"instrs", stats->perf.instrs},
                    {"items", ndrange.global_items()},
                    {"dram_bytes", stats->dram_bytes}});
    sink->set_time_base(sink->time_base() + stats->perf.cycles + 1);
  }
  console_.flush();

  LaunchStats out;
  out.device_cycles = stats->perf.cycles;
  out.clock_mhz = board_.soft_gpu_clock_mhz;
  out.perf = stats->perf;
  out.l1d = stats->l1d;
  out.l2 = stats->l2;
  out.dram = stats->dram;
  out.dram_bytes = stats->dram_bytes;
  out.work = stats->work;
  if (config_.profile) out.profile = cluster_->collect_profile();
  if (config_.memprof) out.memprof = cluster_->collect_mem_profile();
  return out;
}

}  // namespace fgpu::vcl

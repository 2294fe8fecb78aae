#include "runtime/turbo_device.hpp"

#include <map>

#include "codegen/abi.hpp"
#include "common/bits.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/stack_guard.hpp"

namespace fgpu::vcl {

TurboDevice::TurboDevice(vortex::Config config, const fpga::Board& board,
                         codegen::Options codegen_options)
    : config_(config),
      board_(board),
      codegen_options_(codegen_options),
      heap_next_(arch::kHeapBase) {
  config_.dram = board_.dram;
  engine_ = std::make_unique<vortex::jit::TurboEngine>(config_, memory_, console_.handler());
}

std::string TurboDevice::name() const {
  return "turbo-" + config_.to_string() + "@" + board_.name;
}

Buffer TurboDevice::alloc(size_t bytes) {
  const uint32_t addr = heap_next_;
  heap_next_ = static_cast<uint32_t>(align_up(heap_next_ + bytes, 64));
  return Buffer{addr, bytes};
}

void TurboDevice::write(const Buffer& buffer, const void* data, size_t bytes, size_t offset) {
  memory_.write(buffer.device_addr + static_cast<uint32_t>(offset), data,
                static_cast<uint32_t>(bytes));
}

void TurboDevice::read(const Buffer& buffer, void* out, size_t bytes, size_t offset) {
  memory_.read(buffer.device_addr + static_cast<uint32_t>(offset), out,
               static_cast<uint32_t>(bytes));
}

namespace {

// Digest of a build's binary set: kernel names + image placement + every
// instruction word. Equal digests mean the code regions the translator will
// see are byte-identical, so translated blocks carry over.
uint64_t binary_set_digest(const std::map<std::string, const vasm::Program*>& programs) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [name, program] : programs) {
    mix(name.size());
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    mix(program->base);
    mix(program->words.size());
    for (const uint32_t w : program->words) mix(w);
  }
  return h;
}

}  // namespace

Status TurboDevice::build(const kir::Module& module) {
  module_ = module;
  kernels_.clear();
  build_info_.clear();
  loaded_kernel_.clear();
  Status first_error;
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

  // Translation-cache verdict. Ordinary rebuild on a live device: the code
  // region's contents are about to change, so every translated block is
  // stale — invalidate (counted, as before). Rebuild after reset() (device
  // pool): a byte-identical binary set keeps its translations (the warm
  // --repeat case); anything else drops them silently, matching what a
  // fresh device's empty caches would have looked like.
  std::map<std::string, const vasm::Program*> programs;
  for (const auto& [name, built] : kernels_) programs[name] = &built.compiled->program;
  const uint64_t digest = binary_set_digest(programs);
  if (pending_block_drop_) {
    if (digest != warm_digest_) engine_->reset_blocks();
    pending_block_drop_ = false;
  } else {
    engine_->invalidate();
  }
  warm_digest_ = digest;
  return first_error;
}

void TurboDevice::reset() {
  module_ = {};
  kernels_.clear();
  build_info_.clear();
  memory_.clear();
  console_.clear();
  loaded_kernel_.clear();  // code region was cleared: force a rewrite
  heap_next_ = arch::kHeapBase;
  // Translated blocks survive until the next build() rules on them;
  // cumulative engine counters are left alone (callers that report
  // per-benchmark figures snapshot deltas around each run).
  pending_block_drop_ = true;
}

Result<LaunchStats> TurboDevice::launch(const std::string& kernel_name,
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

  // Load the kernel binary. Switching kernels rewrites the code region and
  // selects that kernel's block cache — each kernel of a build keeps its
  // own, so alternating launch sequences (gaussian's Fan1/Fan2 sweep) stay
  // warm; only build() invalidates translations.
  if (loaded_kernel_ != kernel_name) {
    memory_.write(built.compiled->program.base, built.compiled->program.words.data(),
                  built.compiled->program.size_bytes());
    engine_->select_kernel(kernel_name);
    loaded_kernel_ = kernel_name;
  }

  // Write the argument block (see codegen/abi.hpp).
  namespace abi = codegen::abi;
  auto w32 = [&](uint32_t offset, uint32_t value) {
    memory_.store32(arch::kArgBase + offset, value);
  };
  w32(abi::kDims, ndrange.dims);
  for (int d = 0; d < 3; ++d) {
    w32(abi::kGlobal0 + 4 * static_cast<uint32_t>(d), ndrange.global[d]);
    w32(abi::kLocal0 + 4 * static_cast<uint32_t>(d), ndrange.local[d]);
    w32(abi::kNumGroups0 + 4 * static_cast<uint32_t>(d),
        ndrange.num_groups(static_cast<uint32_t>(d)));
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

  const Status status = engine_->run(built.compiled->program.entry());
  if (!status.is_ok()) return Result<LaunchStats>(status.kind(), status.message());
  console_.flush();

  // Functional tier: no cycle claim, ever. device_cycles/clock_mhz stay 0
  // (so time_ms() is 0) and only perf.instrs is populated, which is what
  // suite::run_benchmark accumulates into DeviceRun::total_instrs.
  LaunchStats out;
  out.perf.instrs = engine_->last_run_instrs();
  return out;
}

}  // namespace fgpu::vcl

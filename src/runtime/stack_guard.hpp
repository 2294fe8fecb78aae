// Launch-time check shared by the execution-tier device backends
// (runtime/vortex_device.cpp, runtime/turbo_device.cpp): per-thread spill
// frames must not overlap the device buffers.
//
// The dispatch prologue gives hardware thread t (of cores x warps x
// threads) the stack pointer sp = kStackTop - (t + 1) * kStackSizePerThread,
// and spilled values live in [sp, sp + 4 * spill_slots). Stacks and heap
// share one address space: at 16384 hardware threads the lowest stack
// starts exactly at kHeapBase, so a kernel that spills would write its
// frame over the first buffer and return a quietly wrong result. Every
// stack pointer is a multiple of the stack size, as is kHeapBase, so some
// thread's frame overlaps [kHeapBase, heap_end) exactly when the lowest
// stack pointer lies below heap_end.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "arch/isa.hpp"
#include "common/status.hpp"
#include "vortex/config.hpp"

namespace fgpu::vcl {

inline Status check_stack_frames(const std::string& kernel_name, const vortex::Config& config,
                                 int spill_slots, uint32_t heap_end) {
  if (spill_slots <= 0 || heap_end <= arch::kHeapBase) return Status::ok();
  const uint64_t hw_threads = uint64_t{config.cores} * config.warps * config.threads;
  const int64_t lowest_sp = int64_t{arch::kStackTop} -
                            static_cast<int64_t>(hw_threads * arch::kStackSizePerThread);
  if (lowest_sp >= int64_t{heap_end}) return Status::ok();
  char heap[48];
  std::snprintf(heap, sizeof(heap), "[0x%08x, 0x%08x)", arch::kHeapBase, heap_end);
  return Status(ErrorKind::kResourceExceeded,
                kernel_name + ": per-thread stacks of " + config.to_string() + " (" +
                    std::to_string(hw_threads) + " hardware threads x " +
                    std::to_string(arch::kStackSizePerThread / 1024) +
                    " KiB) reach the device buffers " + heap + " with the kernel's " +
                    std::to_string(4 * spill_slots) + "-byte spill frame");
}

}  // namespace fgpu::vcl

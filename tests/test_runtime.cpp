// Runtime (vcl::) conformance tests: the OpenCL-like host API contract must
// behave identically across the two device backends — argument validation,
// buffer transfer semantics, build-failure reporting, console handling —
// and identical kernels must produce bit-identical results on both.
#include <gtest/gtest.h>

#include <memory>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "kir/build.hpp"
#include "runtime/hls_device.hpp"
#include "runtime/stack_guard.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/suite.hpp"

namespace fgpu::vcl {
namespace {

using kir::Buf;
using kir::KernelBuilder;
using kir::NDRange;
using kir::Val;

kir::Module simple_module() {
  KernelBuilder kb("twice");
  Buf data = kb.buf_i32("data");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.if_(gid < n, [&] { kb.store(data, gid, kb.load(data, gid) * 2); });
  kir::Module module;
  module.name = "conformance";
  module.kernels.push_back(kb.build());
  return module;
}

std::vector<std::unique_ptr<Device>> both_devices() {
  std::vector<std::unique_ptr<Device>> devices;
  devices.push_back(std::make_unique<VortexDevice>(vortex::Config::with(2, 4, 8)));
  devices.push_back(std::make_unique<HlsDevice>());
  return devices;
}

TEST(RuntimeConformance, BufferReadWriteWithOffsets) {
  for (auto& device : both_devices()) {
    Buffer buffer = device->alloc(64);
    std::vector<uint32_t> data = {1, 2, 3, 4};
    device->write(buffer, data.data(), 16, 0);
    device->write(buffer, data.data(), 16, 32);
    uint32_t probe = 0;
    device->read(buffer, &probe, 4, 36);
    EXPECT_EQ(probe, 2u) << device->name();
    device->read(buffer, &probe, 4, 0);
    EXPECT_EQ(probe, 1u) << device->name();
  }
}

TEST(RuntimeConformance, DistinctBuffersDoNotAlias) {
  for (auto& device : both_devices()) {
    Buffer a = device->alloc(16);
    Buffer b = device->alloc(16);
    const uint32_t va = 0x11111111, vb = 0x22222222;
    device->write(a, &va, 4, 0);
    device->write(b, &vb, 4, 0);
    uint32_t out = 0;
    device->read(a, &out, 4, 0);
    EXPECT_EQ(out, va) << device->name();
  }
}

TEST(RuntimeConformance, LaunchRejectsWrongArgumentCount) {
  for (auto& device : both_devices()) {
    ASSERT_TRUE(device->build(simple_module()).is_ok()) << device->name();
    Buffer buffer = device->alloc(64);
    auto result = device->launch("twice", {buffer}, NDRange::linear(16, 16));
    EXPECT_FALSE(result.is_ok()) << device->name();
  }
}

TEST(RuntimeConformance, LaunchRejectsUnknownKernel) {
  for (auto& device : both_devices()) {
    ASSERT_TRUE(device->build(simple_module()).is_ok());
    auto result = device->launch("nonexistent", {}, NDRange::linear(1, 1));
    EXPECT_FALSE(result.is_ok()) << device->name();
    EXPECT_EQ(result.status().kind(), ErrorKind::kNotFound) << device->name();
  }
}

TEST(RuntimeConformance, BuildInfoIsPerKernel) {
  kir::Module module = simple_module();
  KernelBuilder kb2("second");
  Buf out = kb2.buf_f32("out");
  kb2.store(out, kb2.global_id(0), Val(1.0f));
  module.kernels.push_back(kb2.build());
  for (auto& device : both_devices()) {
    ASSERT_TRUE(device->build(module).is_ok()) << device->name();
    EXPECT_EQ(device->build_info().size(), 2u) << device->name();
    EXPECT_NE(device->find_build_info("twice"), nullptr);
    EXPECT_NE(device->find_build_info("second"), nullptr);
    EXPECT_EQ(device->find_build_info("missing"), nullptr);
  }
}

TEST(RuntimeConformance, RebuildReplacesProgram) {
  for (auto& device : both_devices()) {
    ASSERT_TRUE(device->build(simple_module()).is_ok());
    KernelBuilder kb("other");
    Buf out = kb.buf_i32("out");
    kb.store(out, kb.global_id(0), Val(7));
    kir::Module module;
    module.kernels.push_back(kb.build());
    ASSERT_TRUE(device->build(module).is_ok());
    // Old kernel gone, new one present.
    Buffer buffer = device->alloc(16);
    EXPECT_FALSE(device->launch("twice", {buffer, 4}, NDRange::linear(4, 4)).is_ok());
    EXPECT_TRUE(device->launch("other", {buffer}, NDRange::linear(4, 4)).is_ok());
  }
}

TEST(RuntimeConformance, IdenticalResultsAcrossBackends) {
  // A kernel exercising divergence, loops and float math must agree
  // bit-for-bit between the soft GPU and the HLS executor.
  KernelBuilder kb("mixed");
  Buf in = kb.buf_f32("in"), out = kb.buf_f32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.if_(gid < n, [&] {
    Val x = kb.let_("x", kb.load(in, gid));
    Val acc = kb.let_("acc", Val(0.0f));
    kb.for_("i", Val(0), (gid & 3) + 1, [&](Val i) { kb.assign(acc, acc + x * to_f32(i + 1)); });
    kb.if_(x < 0.0f, [&] { kb.assign(acc, -acc); });
    kb.store(out, gid, acc + vsqrt(vabs(x)) + vexp(x * 0.01f));
  });
  kir::Module module;
  module.kernels.push_back(kb.build());

  const uint32_t count = 256;
  Rng rng(77);
  std::vector<uint32_t> input(count);
  for (auto& v : input) v = f2u(rng.next_float(-5.0f, 5.0f));

  std::vector<std::vector<uint32_t>> results;
  for (auto& device : both_devices()) {
    ASSERT_TRUE(device->build(module).is_ok()) << device->name();
    Buffer in_buf = device->upload(input);
    Buffer out_buf = device->alloc(count * 4);
    std::vector<uint32_t> zero(count, 0);
    device->write(out_buf, zero.data(), count * 4, 0);
    auto stats = device->launch("mixed", {in_buf, out_buf, static_cast<int32_t>(count)},
                                NDRange::linear(count, 64));
    ASSERT_TRUE(stats.is_ok()) << device->name() << ": " << stats.status().to_string();
    EXPECT_GT(stats->device_cycles, 0u);
    EXPECT_GT(stats->clock_mhz, 0.0);
    results.push_back(device->download<uint32_t>(out_buf));
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], results[1]);
}

TEST(RuntimeConformance, ConsoleCapturesAndClears) {
  KernelBuilder kb("shout");
  kb.print("hello %d\n", {kb.global_id(0)});
  kir::Module module;
  module.kernels.push_back(kb.build());
  for (auto& device : both_devices()) {
    ASSERT_TRUE(device->build(module).is_ok());
    ASSERT_TRUE(device->launch("shout", {}, NDRange::linear(2, 2)).is_ok());
    EXPECT_EQ(device->console().size(), 2u) << device->name();
    device->clear_console();
    EXPECT_TRUE(device->console().empty()) << device->name();
  }
}

TEST(RuntimeConformance, VortexRejectsOversizedWorkGroup) {
  KernelBuilder kb("wg");
  Buf out = kb.buf_i32("out");
  kb.barrier();
  kb.store(out, kb.global_id(0), Val(1));
  kir::Module module;
  module.kernels.push_back(kb.build());
  VortexDevice device(vortex::Config::with(1, 2, 4));  // 8 lanes
  ASSERT_TRUE(device.build(module).is_ok());
  Buffer buffer = device.alloc(64 * 4);
  auto result = device.launch("wg", {buffer}, NDRange::linear(64, 16));  // group of 16 > 8 lanes
  EXPECT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("work-group"), std::string::npos);
}

TEST(RuntimeConformance, NdrangeDivisibilityEnforced) {
  VortexDevice device(vortex::Config::with(1, 2, 4));
  ASSERT_TRUE(device.build(simple_module()).is_ok());
  Buffer buffer = device.alloc(64);
  auto result = device.launch("twice", {buffer, 10}, NDRange::linear(10, 4));
  EXPECT_FALSE(result.is_ok());
}

TEST(RuntimeConformance, HlsTimingFieldsPopulated) {
  HlsDevice device;
  ASSERT_TRUE(device.build(simple_module()).is_ok());
  Buffer buffer = device.alloc(256 * 4);
  std::vector<uint32_t> data(256, 3);
  device.write(buffer, data.data(), 256 * 4, 0);
  auto stats = device.launch("twice", {buffer, 256}, NDRange::linear(256, 64));
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT(stats->pipeline_depth, 0u);
  EXPECT_GE(stats->initiation_interval, 1u);
  EXPECT_EQ(stats->clock_mhz, fpga::stratix10_mx2100().hls_kernel_clock_mhz);
}

TEST(RuntimeConformance, VortexPerfCountersPopulated) {
  VortexDevice device(vortex::Config::with(2, 4, 4));
  ASSERT_TRUE(device.build(simple_module()).is_ok());
  std::vector<uint32_t> data(256, 3);
  Buffer buffer = device.upload(data);
  auto stats = device.launch("twice", {buffer, 256}, NDRange::linear(256, 64));
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT(stats->perf.instrs, 0u);
  EXPECT_GT(stats->perf.loads, 0u);
  EXPECT_GT(stats->perf.stores, 0u);
  EXPECT_GT(stats->l1d.hits + stats->l1d.misses, 0u);
  EXPECT_GT(stats->dram_bytes, 0u);
  EXPECT_EQ(stats->perf.warps_spawned, 2u * 3u);  // 3 spawned per core
}

// Per-thread stacks grow down from kStackTop; at 16384 hardware threads the
// lowest one starts at kHeapBase. A kernel that spills must fail loudly
// there, on both soft-GPU tiers, instead of writing its frame over the first
// buffer; kernels that never touch their stack keep running.
TEST(StackGuard, FramesReachingBuffersFailTheLaunch) {
  const uint32_t heap_end = arch::kHeapBase + 4096;
  EXPECT_TRUE(check_stack_frames("k", vortex::Config::with(4, 64, 32), 3, heap_end).is_ok());
  EXPECT_TRUE(check_stack_frames("k", vortex::Config::with(8, 64, 32), 0, heap_end).is_ok());
  EXPECT_TRUE(check_stack_frames("k", vortex::Config::with(8, 64, 32), 3, arch::kHeapBase).is_ok());
  const Status status = check_stack_frames("k", vortex::Config::with(8, 64, 32), 3, heap_end);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.kind(), ErrorKind::kResourceExceeded);
  EXPECT_EQ(status.message(),
            "k: per-thread stacks of C8W64T32 (16384 hardware threads x 64 KiB) reach the "
            "device buffers [0x20000000, 0x20001000) with the kernel's 12-byte spill frame");
  // Far past the boundary the stacks wrap; some thread still sits on the heap.
  EXPECT_FALSE(check_stack_frames("k", vortex::Config::with(16, 64, 32), 1, heap_end).is_ok());
}

TEST(StackGuard, LavamdFailsLoudlyAtSixteenThousandThreads) {
  const auto lavamd = suite::shared_benchmark("lavamd");
  const auto vecadd = suite::shared_benchmark("vecadd");
  const vortex::Config spilling = vortex::Config::with(8, 64, 32);
  const vortex::Config wide = vortex::Config::with(16, 32, 32);
  std::vector<std::unique_ptr<Device>> devices;
  devices.push_back(std::make_unique<VortexDevice>(spilling));
  devices.push_back(std::make_unique<TurboDevice>(spilling));
  for (auto& device : devices) {
    const suite::DeviceRun run = suite::run_benchmark(*device, *lavamd);
    ASSERT_TRUE(run.build.is_ok()) << device->name();
    ASSERT_FALSE(run.run.is_ok()) << device->name();
    EXPECT_EQ(run.run.kind(), ErrorKind::kResourceExceeded) << device->name();
    EXPECT_NE(run.run.message().find("per-thread stacks of C8W64T32 (16384 hardware threads"),
              std::string::npos)
        << run.run.message();
    EXPECT_EQ(run.fail_reason, "Runtime error");
  }
  // vecadd never spills: the same address-space layout is harmless to it.
  VortexDevice vortex_device(wide);
  EXPECT_TRUE(suite::run_benchmark(vortex_device, *vecadd).ok());
  TurboDevice turbo_device(wide);
  EXPECT_TRUE(suite::run_benchmark(turbo_device, *vecadd).ok());
}

}  // namespace
}  // namespace fgpu::vcl

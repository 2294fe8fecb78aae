// HLS compiler-model tests: DFG analysis, access-pattern classification,
// area estimation, the O1/O2 optimizations' area effect, fitter failures
// (BRAM exhaustion and atomics-on-HBM2), and functional execution through
// the HLS device matching the soft GPU.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hls/compiler.hpp"
#include "kir/build.hpp"
#include "kir/passes.hpp"
#include "runtime/hls_device.hpp"
#include "runtime/vortex_device.hpp"

namespace fgpu {
namespace {

using kir::Buf;
using kir::KernelBuilder;
using kir::NDRange;
using kir::Val;

kir::Kernel make_vecadd() {
  KernelBuilder kb("vecadd");
  Buf a = kb.buf_f32("a"), b = kb.buf_f32("b"), c = kb.buf_f32("c");
  Val gid = kb.global_id(0);
  kb.store(c, gid, kb.load(a, gid) + kb.load(b, gid));
  return kb.build();
}

TEST(HlsAnalysisTest, VecaddCensus) {
  auto dfg = hls::analyze(make_vecadd());
  EXPECT_EQ(dfg.global_load_sites(), 2u);
  EXPECT_EQ(dfg.global_store_sites(), 1u);
  EXPECT_EQ(dfg.burst_load_sites(), 2u);
  EXPECT_EQ(dfg.fp_add, 1u);
  for (const auto& site : dfg.sites) {
    EXPECT_EQ(site.pattern, hls::AccessPattern::kConsecutive) << site.buffer_name;
  }
}

TEST(HlsAnalysisTest, PatternClassification) {
  KernelBuilder kb("patterns");
  Buf a = kb.buf_f32("a"), idx = kb.buf_i32("idx"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  Val n = kb.param_i32("n");
  kb.store(out, gid * 4 + 1, kb.load(a, gid));          // strided store, consecutive load
  kb.store(out, gid + n, kb.load(a, kb.load(idx, gid)));  // consecutive store, gather
  auto dfg = hls::analyze(kb.build());
  ASSERT_EQ(dfg.sites.size(), 5u);
  // Order of discovery: store indexes are classified per site.
  int consecutive = 0, strided = 0, irregular = 0;
  for (const auto& site : dfg.sites) {
    switch (site.pattern) {
      case hls::AccessPattern::kConsecutive: ++consecutive; break;
      case hls::AccessPattern::kStrided: ++strided; break;
      case hls::AccessPattern::kIrregular: ++irregular; break;
    }
  }
  EXPECT_EQ(strided, 1);    // out[gid*4+1]
  EXPECT_EQ(irregular, 1);  // a[idx[gid]]
  EXPECT_EQ(consecutive, 3);
}

TEST(HlsAnalysisTest, LetSubstitutionKeepsPattern) {
  KernelBuilder kb("letsub");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  Val i = kb.let_("i", gid + 5);
  kb.store(out, i, kb.load(a, i));
  auto dfg = hls::analyze(kb.build());
  for (const auto& site : dfg.sites) {
    EXPECT_EQ(site.pattern, hls::AccessPattern::kConsecutive);
  }
}

TEST(HlsAreaTest, VecaddNearPaperNumbers) {
  // Paper Table III: vecadd = 83,792 ALUT / 263,632 FF / 1,065 BRAM / 1 DSP.
  auto area = hls::estimate_area(hls::analyze(make_vecadd()));
  EXPECT_NEAR(static_cast<double>(area.brams), 1065.0, 1065.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(area.aluts), 83792.0, 83792.0 * 0.25);
  EXPECT_NEAR(static_cast<double>(area.ffs), 263632.0, 263632.0 * 0.25);
  EXPECT_EQ(area.dsps, 1u);
}

TEST(HlsAreaTest, PipelinedLoadShrinksArea) {
  kir::Kernel kernel = make_vecadd();
  const auto before = hls::estimate_area(hls::analyze(kernel));
  EXPECT_EQ(kir::mark_pipelined_loads(kernel), 2);
  const auto after = hls::estimate_area(hls::analyze(kernel));
  EXPECT_LT(after.brams, before.brams);
  EXPECT_LT(after.aluts, before.aluts);
  // Two burst LSUs (416 BRAM each) replaced by pipelined units (4 each).
  EXPECT_NEAR(static_cast<double>(before.brams - after.brams), 2.0 * (416 - 4), 40.0);
}

TEST(HlsAreaTest, VariableReuseShrinksArea) {
  // Mirror of the paper's Listing 1 -> Listing 2: repeated loads collapse.
  KernelBuilder kb("bpnn_like");
  Buf w = kb.buf_f32("w"), delta = kb.buf_f32("delta"), ly = kb.buf_f32("ly"),
      oldw = kb.buf_f32("oldw");
  Val gid = kb.global_id(0);
  Val ix = kb.let_("index_x", gid & 15);
  Val iy = kb.let_("index_y", gid >> 4);
  kb.store(w, gid,
           kb.load(w, gid) + kb.load(delta, ix) * 0.3f * kb.load(ly, iy) +
               0.3f * kb.load(oldw, gid));
  kb.store(oldw, gid,
           kb.load(delta, ix) * 0.3f * kb.load(ly, iy) + 0.3f * kb.load(oldw, gid));
  kir::Kernel kernel = kb.build();
  const auto before = hls::estimate_area(hls::analyze(kernel));
  const int reused = kir::cse_variable_reuse(kernel);
  EXPECT_GE(reused, 2);
  const auto after = hls::estimate_area(hls::analyze(kernel));
  EXPECT_LT(after.brams, before.brams);
  EXPECT_TRUE(kir::verify(kernel).is_ok()) << kir::verify(kernel).to_string();
}

TEST(HlsSynthesisTest, VecaddFitsOnMx2100) {
  auto design = hls::synthesize(make_vecadd(), fpga::stratix10_mx2100());
  ASSERT_TRUE(design.is_ok()) << design.status().to_string();
  EXPECT_GT(design->pipeline_depth, 0u);
  EXPECT_GT(design->synthesis_hours, 0.3);
  EXPECT_LT(design->synthesis_hours, 3.0);
}

TEST(HlsSynthesisTest, AtomicsFailOnHbm2Board) {
  KernelBuilder kb("hist");
  Buf keys = kb.buf_i32("keys"), bins = kb.buf_i32("bins");
  kb.atomic_add(bins, kb.load(keys, kb.global_id(0)) & 255, Val(1));
  auto design = hls::synthesize(kb.build(), fpga::stratix10_mx2100());
  ASSERT_FALSE(design.is_ok());
  EXPECT_EQ(design.status().kind(), ErrorKind::kUnsupported);
  EXPECT_NE(design.status().message().find("Atomics"), std::string::npos);
  // The same kernel synthesizes against a DDR4 board.
  auto ddr4 = hls::synthesize(kb.build(), fpga::stratix10_sx2800());
  EXPECT_TRUE(ddr4.is_ok()) << ddr4.status().to_string();
}

TEST(HlsSynthesisTest, BramHungryKernelFailsFitting) {
  // Many distinct burst-coalesced access sites inside a loop blow BRAM,
  // the paper's dominant failure mode (Table I "Not enough BRAM").
  KernelBuilder kb("hungry");
  std::vector<Buf> bufs;
  for (int i = 0; i < 12; ++i) {
    const std::string n = std::to_string(i);  // lvalue: GCC 12 -Wrestrict
    bufs.push_back(kb.buf_f32("b" + n));
  }
  Val gid = kb.global_id(0);
  kb.for_("i", Val(0), Val(64), [&](Val i) {
    Val acc = kb.let_("acc" /* fresh per build */, Val(0.0f));
    for (int j = 0; j < 11; ++j) {
      kb.assign(acc, acc + kb.load(bufs[static_cast<size_t>(j)], gid + i * 3));
    }
    kb.store(bufs[11], gid + i * 3, acc);
  });
  auto design = hls::synthesize(kb.build(), fpga::stratix10_mx2100());
  ASSERT_FALSE(design.is_ok());
  EXPECT_EQ(design.status().kind(), ErrorKind::kResourceExceeded);
  EXPECT_NE(design.status().message().find("Not enough BRAM"), std::string::npos);
}

TEST(HlsSynthesisTest, SynthesisTimeGrowsWithDesignSize) {
  fpga::AreaReport small{100'000, 300'000, 1'000, 10};
  // Paper Table II O2 row — the successful backprop synthesis took 10.4 h.
  fpga::AreaReport backprop_o2{451'395, 1'051'467, 5'694, 11};
  fpga::AreaReport too_big{1'000'388, 2'158'459, 12'898, 17};  // O0 row
  EXPECT_LT(hls::synthesis_hours(small), hls::synthesis_hours(backprop_o2));
  EXPECT_GT(hls::synthesis_hours(backprop_o2), 8.0);  // §IV-B: up to 10.4 h
  EXPECT_LT(hls::synthesis_hours(backprop_o2), 13.0);
  EXPECT_GT(hls::failed_attempt_hours(too_big, fpga::stratix10_mx2100()), 1.0);
  EXPECT_LE(hls::failed_attempt_hours(too_big, fpga::stratix10_mx2100()), 1.5);
}

TEST(HlsDeviceTest, MatchesSoftGpuResults) {
  // The paper's methodology: identical host + kernel code on both flows.
  KernelBuilder kb("combo");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.if_(gid < n, [&] {
    Val x = kb.let_("x", kb.load(a, gid));
    Val acc = kb.let_("acc", Val(0.0f));
    kb.for_("i", Val(0), Val(8), [&](Val i) { kb.assign(acc, acc + x * to_f32(i)); });
    kb.store(out, gid, acc + vsqrt(vabs(x)));
  });
  kir::Module module;
  module.kernels.push_back(kb.build());

  const uint32_t count = 128;
  Rng rng(21);
  std::vector<uint32_t> input(count);
  for (auto& v : input) v = f2u(rng.next_float(-4.0f, 4.0f));

  auto run_device = [&](vcl::Device& device) {
    EXPECT_TRUE(device.build(module).is_ok());
    auto in_buf = device.upload(input);
    auto out_buf = device.alloc(count * 4);
    std::vector<uint32_t> zeros(count, 0);
    device.write(out_buf, zeros.data(), count * 4, 0);
    auto stats = device.launch("combo", {in_buf, out_buf, static_cast<int32_t>(count)},
                               NDRange::linear(count, 64));
    EXPECT_TRUE(stats.is_ok()) << stats.status().to_string();
    return device.download<uint32_t>(out_buf);
  };

  vcl::VortexDevice vortex(vortex::Config::with(2, 4, 8));
  vcl::HlsDevice hls_device;
  auto vortex_out = run_device(vortex);
  auto hls_out = run_device(hls_device);
  ASSERT_EQ(vortex_out.size(), hls_out.size());
  for (size_t i = 0; i < vortex_out.size(); ++i) {
    EXPECT_EQ(vortex_out[i], hls_out[i]) << "element " << i;
  }
}

TEST(HlsDeviceTest, TimingScalesWithItems) {
  kir::Module module;
  module.kernels.push_back(make_vecadd());
  vcl::HlsDevice device;
  ASSERT_TRUE(device.build(module).is_ok());

  auto time_for = [&](uint32_t n) {
    std::vector<uint32_t> data(n, f2u(1.0f));
    auto a = device.upload(data);
    auto b = device.upload(data);
    auto c = device.alloc(n * 4);
    auto stats = device.launch("vecadd", {a, b, c}, NDRange::linear(n, 64));
    EXPECT_TRUE(stats.is_ok());
    return stats->device_cycles;
  };
  const uint64_t t1 = time_for(1024);
  const uint64_t t4 = time_for(4096);
  EXPECT_GT(t4, t1);
  EXPECT_LT(t4, t1 * 8);  // pipelined, not re-dispatched
}

TEST(HlsDeviceTest, StridedPipelinedLoadSlower) {
  // O2 trades performance for area on non-consecutive patterns (§III-B).
  auto make_strided = [](bool pipelined) {
    KernelBuilder kb("strided");
    Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
    Val gid = kb.global_id(0);
    kb.store(out, gid, kb.load(a, gid * 8));
    kir::Kernel kernel = kb.build();
    if (pipelined) kir::mark_pipelined_loads(kernel);
    return kernel;
  };
  const uint32_t n = 1024;
  std::vector<uint32_t> data(n * 8, f2u(2.0f));
  auto run = [&](bool pipelined) {
    kir::Module module;
    module.kernels.push_back(make_strided(pipelined));
    vcl::HlsDevice device;
    EXPECT_TRUE(device.build(module).is_ok());
    auto a = device.upload(data);
    auto out = device.alloc(n * 4);
    auto stats = device.launch("strided", {a, out}, NDRange::linear(n, 64));
    EXPECT_TRUE(stats.is_ok());
    return stats->device_cycles;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(HlsDeviceTest, BuildInfoRecordsFailures) {
  kir::Module module;
  module.kernels.push_back(make_vecadd());
  KernelBuilder kb("hist");
  Buf keys = kb.buf_i32("keys"), bins = kb.buf_i32("bins");
  kb.atomic_add(bins, kb.load(keys, kb.global_id(0)) & 255, Val(1));
  module.kernels.push_back(kb.build());

  vcl::HlsDevice device;
  auto status = device.build(module);
  EXPECT_FALSE(status.is_ok());
  ASSERT_EQ(device.build_info().size(), 2u);
  EXPECT_TRUE(device.build_info()[0].status.is_ok());
  EXPECT_FALSE(device.build_info()[1].status.is_ok());
  // The good kernel is still launchable.
  std::vector<uint32_t> data(64, f2u(1.0f));
  auto a = device.upload(data);
  auto b = device.upload(data);
  auto c = device.alloc(64 * 4);
  EXPECT_TRUE(device.launch("vecadd", {a, b, c}, NDRange::linear(64, 64)).is_ok());
  EXPECT_FALSE(device.launch("hist", {a, b}, NDRange::linear(64, 64)).is_ok());
}

}  // namespace
}  // namespace fgpu

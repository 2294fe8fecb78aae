// HLS timing-model and board-database tests: request-cost ordering across
// LSU types and access patterns, II derivation, bandwidth effects, the
// synthesis-report contents, and fpga:: area arithmetic/utilization.
#include <gtest/gtest.h>

#include <sstream>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "fpga/board.hpp"
#include "hls/compiler.hpp"
#include "kir/build.hpp"
#include "kir/passes.hpp"
#include "runtime/hls_device.hpp"

namespace fgpu {
namespace {

using kir::Buf;
using kir::KernelBuilder;
using kir::NDRange;
using kir::Val;

hls::AccessSite site(bool store, bool pipelined, hls::AccessPattern pattern) {
  hls::AccessSite s;
  s.is_store = store;
  s.pipelined = pipelined;
  s.pattern = pattern;
  return s;
}

TEST(HlsRequestCostTest, OrderingAcrossPatterns) {
  using hls::AccessPattern;
  // Burst loads: consecutive is amortized, strided pays, irregular pays more.
  EXPECT_LT(hls::request_cost(site(false, false, AccessPattern::kConsecutive)),
            hls::request_cost(site(false, false, AccessPattern::kStrided)));
  EXPECT_LT(hls::request_cost(site(false, false, AccessPattern::kStrided)),
            hls::request_cost(site(false, false, AccessPattern::kIrregular)));
  // Pipelined loads are worse than burst on every non-consecutive pattern
  // (the paper's "area efficiency at the expense of performance").
  EXPECT_GT(hls::request_cost(site(false, true, AccessPattern::kStrided)),
            hls::request_cost(site(false, false, AccessPattern::kStrided)));
  EXPECT_GT(hls::request_cost(site(false, true, AccessPattern::kIrregular)),
            hls::request_cost(site(false, false, AccessPattern::kIrregular)));
}

TEST(HlsTimingTest, IiGrowsWithPerItemTraffic) {
  // A kernel with an inner loop of loads has a larger II than a one-load
  // kernel: more memory-interface occupancy per item.
  auto run = [](int loop_trips) {
    KernelBuilder kb("k");
    Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
    Val gid = kb.global_id(0);
    Val acc = kb.let_("acc", Val(0.0f));
    kb.for_("i", Val(0), Val(loop_trips),
            [&](Val i) { kb.assign(acc, acc + kb.load(a, gid + i * 64)); });
    kb.store(out, gid, acc);
    kir::Module module;
    module.kernels.push_back(kb.build());
    vcl::HlsDevice device;
    EXPECT_TRUE(device.build(module).is_ok());
    const uint32_t n = 512;
    std::vector<uint32_t> data(n + 64 * 16, f2u(1.0f));
    auto in = device.upload(data);
    auto out_buf = device.alloc(n * 4);
    auto stats = device.launch("k", {in, out_buf}, NDRange::linear(n, 64));
    EXPECT_TRUE(stats.is_ok());
    return stats->initiation_interval;
  };
  EXPECT_LT(run(1), run(12));
}

TEST(HlsTimingTest, DepthReflectsExpressionLatency) {
  auto depth_of = [](const kir::Kernel& kernel) {
    auto design = hls::synthesize(kernel, fpga::stratix10_mx2100());
    EXPECT_TRUE(design.is_ok());
    return design->pipeline_depth;
  };
  KernelBuilder shallow("shallow");
  Buf a1 = shallow.buf_f32("a"), o1 = shallow.buf_f32("o");
  shallow.store(o1, shallow.global_id(0), shallow.load(a1, shallow.global_id(0)) + 1.0f);

  KernelBuilder deep("deep");
  Buf a2 = deep.buf_f32("a"), o2 = deep.buf_f32("o");
  Val x = deep.load(a2, deep.global_id(0));
  // A chain of dependent divides and sqrts makes a long critical path.
  deep.store(o2, deep.global_id(0), vsqrt(vsqrt(x / 3.0f) / 7.0f) / 11.0f);

  EXPECT_LT(depth_of(shallow.build()), depth_of(deep.build()));
}

TEST(HlsTimingTest, SynthesisReportMentionsKeyFacts) {
  KernelBuilder kb("reporter");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  kb.store(out, kb.global_id(0), kb.load(a, kb.global_id(0)));
  auto design = hls::synthesize(kb.build(), fpga::stratix10_mx2100());
  ASSERT_TRUE(design.is_ok());
  const std::string text = design->report.render();
  EXPECT_NE(text.find("reporter"), std::string::npos);
  EXPECT_NE(text.find("burst-coalesced"), std::string::npos);
  EXPECT_NE(text.find("synthesis"), std::string::npos);
}

TEST(HlsSynthReportTest, RowsSumToTotalAndCarryProvenance) {
  KernelBuilder kb("rows");
  Buf a = kb.buf_f32("a"), b = kb.buf_f32("b"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid, kb.load(a, gid) + kb.load(b, gid * 2));
  const auto kernel = kb.build();
  const auto report = hls::synth_report(kernel, fpga::stratix10_mx2100());

  EXPECT_EQ(report.kernel, "rows");
  EXPECT_EQ(report.board, fpga::stratix10_mx2100().name);
  ASSERT_FALSE(report.rows.empty());
  // The per-module rows are an exact decomposition of the total (the
  // Table II-IV contract) — and the total matches the legacy estimator.
  fpga::AreaReport sum;
  for (const auto& row : report.rows) sum += row.area;
  EXPECT_EQ(sum.aluts, report.total.aluts);
  EXPECT_EQ(sum.ffs, report.total.ffs);
  EXPECT_EQ(sum.brams, report.total.brams);
  EXPECT_EQ(sum.dsps, report.total.dsps);
  const auto legacy = hls::estimate_area(hls::analyze(kernel));
  EXPECT_EQ(report.total.brams, legacy.brams);
  EXPECT_EQ(report.total.aluts, legacy.aluts);

  // One LSU row per global access site, named with its KIR provenance.
  int lsu_rows = 0;
  bool saw_a = false, saw_b_strided = false;
  for (const auto& row : report.rows) {
    if (row.module.find("lsu") == std::string::npos) continue;
    ++lsu_rows;
    if (row.module.find("a[") != std::string::npos) saw_a = true;
    if (row.module.find("b[") != std::string::npos &&
        row.detail.find("strided") != std::string::npos) {
      saw_b_strided = true;
    }
  }
  EXPECT_EQ(lsu_rows, 3);  // 2 loads + 1 store
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b_strided);

  EXPECT_TRUE(report.fits);
  EXPECT_EQ(report.verdict, "fits");
  EXPECT_GT(report.synthesis_hours, 0.0);
  EXPECT_EQ(report.burst_load_sites, 2u);
  EXPECT_EQ(report.store_sites, 1u);
}

TEST(HlsSynthReportTest, RenderGoldenString) {
  // render() must keep reproducing the legacy prose byte-for-byte (it is
  // embedded in build logs and the fig1/fig2 bench output).
  KernelBuilder kb("golden");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  kb.store(out, kb.global_id(0), kb.load(a, kb.global_id(0)));
  const auto report = hls::synth_report(kb.build(), fpga::stratix10_mx2100());
  std::ostringstream expect;
  expect << "kernel golden: 2 global access sites (1 burst-coalesced, 0 pipelined, 1 store), "
         << "depth " << report.pipeline_depth << ", area " << report.total.to_string()
         << ", synthesis " << report.synthesis_hours << " h";
  EXPECT_EQ(report.render(), expect.str());
}

TEST(HlsSynthReportTest, FailedFitStillProducesStructuredReport) {
  // Same BRAM-hungry kernel as FitterErrorNamesResourceAndCounts: the
  // Result is an error, but synth_report still yields the Table II row.
  KernelBuilder kb("fat");
  std::vector<Buf> bufs;
  for (int i = 0; i < 16; ++i) {
    const std::string n = std::to_string(i);  // lvalue: GCC 12 -Wrestrict
    bufs.push_back(kb.buf_f32("b" + n));
  }
  Val gid = kb.global_id(0);
  kb.for_("i", Val(0), Val(8), [&](Val i) {
    Val acc = kb.let_("acc0", Val(0.0f));
    for (int j = 0; j + 1 < 16; ++j) {
      kb.assign(acc, acc + kb.load(bufs[static_cast<size_t>(j)], gid * 3 + i * 7 + j));
    }
    kb.store(bufs[15], gid + i, acc);
  });
  const auto report = hls::synth_report(kb.build(), fpga::stratix10_mx2100());
  EXPECT_FALSE(report.fits);
  EXPECT_EQ(report.verdict, "Not enough BRAM");
  EXPECT_GT(report.utilization, 1.0);
  EXPECT_EQ(report.bottleneck, "BRAM");
  EXPECT_FALSE(report.rows.empty());
  EXPECT_GT(report.synthesis_hours, 0.0);  // failed-attempt hours
  EXPECT_NE(report.render().find("fitter: Not enough BRAM"), std::string::npos);
}

TEST(HlsTimingTest, SiteStallAttributionSumsExactly) {
  // Strided stores on the DDR4 board: bandwidth-bound, so
  // memory_stall_cycles > 0 and the per-site attribution must account for
  // every one of them.
  KernelBuilder kb("scatter");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid * 16, kb.load(a, gid));
  kir::Module module;
  module.kernels.push_back(kb.build());
  vcl::HlsDevice device(fpga::stratix10_sx2800());
  ASSERT_TRUE(device.build(module).is_ok());
  const uint32_t n = 4096;
  std::vector<uint32_t> data(n, f2u(2.0f));
  auto in = device.upload(data);
  auto out_buf = device.alloc(n * 16 * 4);
  auto stats = device.launch("scatter", {in, out_buf}, NDRange::linear(n, 64));
  ASSERT_TRUE(stats.is_ok());

  ASSERT_EQ(stats->hls_sites.size(), 2u);  // 1 load + 1 store
  EXPECT_GT(stats->memory_stall_cycles, 0u);
  uint64_t stall_sum = 0, bytes = 0;
  for (const auto& site : stats->hls_sites) {
    stall_sum += site.stall_cycles;
    bytes += site.bytes;
    EXPECT_EQ(site.requests, static_cast<uint64_t>(n));
    EXPECT_FALSE(site.source.empty());
  }
  EXPECT_EQ(stall_sum, stats->memory_stall_cycles);  // exact, to the cycle
  EXPECT_EQ(bytes, static_cast<uint64_t>(stats->dram_bytes));
  // The strided store moves 64-byte lines per request vs the consecutive
  // load's amortized 4 bytes, so it owns the lion's share of the stalls.
  const auto& load = stats->hls_sites[0];
  const auto& store = stats->hls_sites[1];
  EXPECT_EQ(load.lsu, "burst");
  EXPECT_EQ(store.lsu, "store");
  EXPECT_EQ(store.pattern, "strided");
  EXPECT_GT(store.stall_cycles, load.stall_cycles);
}

TEST(HlsTimingTest, NoStallsMeansZeroAttribution) {
  // Consecutive traffic on HBM2 is issue-bound: no memory stalls, and the
  // attribution must agree (all-zero stall shares, occupancy still real).
  KernelBuilder kb("copy");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid, kb.load(a, gid));
  kir::Module module;
  module.kernels.push_back(kb.build());
  vcl::HlsDevice device(fpga::stratix10_mx2100());
  ASSERT_TRUE(device.build(module).is_ok());
  const uint32_t n = 1024;
  std::vector<uint32_t> data(n, f2u(3.0f));
  auto in = device.upload(data);
  auto out_buf = device.alloc(n * 4);
  auto stats = device.launch("copy", {in, out_buf}, NDRange::linear(n, 64));
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->memory_stall_cycles, 0u);
  ASSERT_EQ(stats->hls_sites.size(), 2u);
  for (const auto& site : stats->hls_sites) {
    EXPECT_EQ(site.stall_cycles, 0u);
    EXPECT_GT(site.occupancy_cycles, 0.0);
  }
}

TEST(HlsTimingTest, FitterErrorNamesResourceAndCounts) {
  // Enough complex access sites to overflow the MX2100.
  KernelBuilder kb("fat");
  std::vector<Buf> bufs;
  for (int i = 0; i < 16; ++i) {
    const std::string n = std::to_string(i);  // lvalue: GCC 12 -Wrestrict
    bufs.push_back(kb.buf_f32("b" + n));
  }
  Val gid = kb.global_id(0);
  kb.for_("i", Val(0), Val(8), [&](Val i) {
    Val acc = kb.let_("acc" + std::to_string(0), Val(0.0f));
    for (int j = 0; j + 1 < 16; ++j) {
      kb.assign(acc, acc + kb.load(bufs[static_cast<size_t>(j)], gid * 3 + i * 7 + j));
    }
    kb.store(bufs[15], gid + i, acc);
  });
  auto design = hls::synthesize(kb.build(), fpga::stratix10_mx2100());
  ASSERT_FALSE(design.is_ok());
  EXPECT_EQ(design.status().kind(), ErrorKind::kResourceExceeded);
  EXPECT_NE(design.status().message().find("Not enough BRAM"), std::string::npos);
  EXPECT_NE(design.status().message().find("6847"), std::string::npos);
}

TEST(FpgaBoardTest, CapacitiesAndMemories) {
  const auto& sx = fpga::stratix10_sx2800();
  const auto& mx = fpga::stratix10_mx2100();
  EXPECT_GT(sx.capacity.brams, mx.capacity.brams);  // SX2800 is the bigger die
  EXPECT_EQ(mx.capacity.brams, 6847u);
  EXPECT_EQ(sx.dram.name, "ddr4");
  EXPECT_EQ(mx.dram.name, "hbm2");
  EXPECT_TRUE(mx.heterogeneous_memory);
  EXPECT_FALSE(sx.heterogeneous_memory);
}

TEST(FpgaBoardTest, UtilizationAndBottleneck) {
  const auto& board = fpga::stratix10_mx2100();
  fpga::AreaReport bram_heavy{1'000, 1'000, 7'000, 10};
  EXPECT_FALSE(board.fits(bram_heavy));
  EXPECT_EQ(board.bottleneck_resource(bram_heavy), "BRAM");
  EXPECT_NEAR(board.utilization(bram_heavy), 7000.0 / 6847.0, 1e-9);

  fpga::AreaReport alut_heavy{1'500'000, 1'000, 10, 10};
  EXPECT_FALSE(board.fits(alut_heavy));
  EXPECT_EQ(board.bottleneck_resource(alut_heavy), "ALUT");

  fpga::AreaReport tiny{10, 10, 10, 10};
  EXPECT_TRUE(board.fits(tiny));
}

TEST(FpgaAreaReportTest, Arithmetic) {
  fpga::AreaReport a{10, 20, 30, 40};
  fpga::AreaReport b{1, 2, 3, 4};
  const auto sum = a + b;
  EXPECT_EQ(sum.aluts, 11u);
  EXPECT_EQ(sum.dsps, 44u);
  const auto scaled = b * 3;
  EXPECT_EQ(scaled.brams, 9u);
  EXPECT_NE(a.to_string().find("BRAMs=30"), std::string::npos);
}

TEST(HlsAreaPropertyTest, EveryExtraLoadSiteCostsArea) {
  // Area must be strictly monotone in the number of access sites.
  uint64_t previous = 0;
  for (int loads = 1; loads <= 5; ++loads) {
    KernelBuilder kb("k");
    Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
    Val gid = kb.global_id(0);
    Val acc = kb.let_("acc", Val(0.0f));
    for (int i = 0; i < loads; ++i) kb.assign(acc, acc + kb.load(a, gid + i));
    kb.store(out, gid, acc);
    const auto area = hls::estimate_area(hls::analyze(kb.build()));
    EXPECT_GT(area.brams, previous);
    previous = area.brams;
  }
}

TEST(HlsAreaPropertyTest, BarrierKernelsPayReplication) {
  auto build = [](bool with_barrier) {
    KernelBuilder kb("k");
    Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
    Val gid = kb.global_id(0);
    Val v = kb.let_("v", kb.load(a, gid));
    if (with_barrier) kb.barrier();
    kb.store(out, gid, v);
    return hls::estimate_area(hls::analyze(kb.build()));
  };
  EXPECT_GT(build(true).brams, build(false).brams);
}

TEST(HlsTimingTest, Hbm2BoardFasterOnIrregularTraffic) {
  KernelBuilder kb("gather");
  Buf idx = kb.buf_i32("idx"), a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid, kb.load(a, kb.load(idx, gid)));
  kir::Module module;
  module.kernels.push_back(kb.build());

  const uint32_t n = 2048;
  Rng rng(4);
  std::vector<uint32_t> indices(n);
  for (auto& v : indices) v = rng.next_below(n);
  std::vector<uint32_t> data(n, f2u(1.0f));

  uint64_t cycles[2] = {0, 0};
  int i = 0;
  for (const auto* board : {&fpga::stratix10_sx2800(), &fpga::stratix10_mx2100()}) {
    vcl::HlsDevice device(*board);
    EXPECT_TRUE(device.build(module).is_ok());
    auto ib = device.upload(indices);
    auto ab = device.upload(data);
    auto ob = device.alloc(n * 4);
    auto stats = device.launch("gather", {ib, ab, ob}, NDRange::linear(n, 64));
    EXPECT_TRUE(stats.is_ok());
    cycles[i++] = stats->device_cycles;
  }
  EXPECT_LE(cycles[1], cycles[0]);  // HBM2 never slower, usually faster
}

}  // namespace
}  // namespace fgpu

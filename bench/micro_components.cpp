// google-benchmark microbenchmarks of the library's components: simulator
// throughput, kernel-compiler speed, assembler/disassembler, cache, and the
// reference interpreter. These quantify the "seconds, not hours" turnaround
// contrast the paper draws between the soft-GPU flow and HLS re-synthesis.
#include <benchmark/benchmark.h>

#include "codegen/codegen.hpp"
#include "common/log.hpp"
#include "hls/compiler.hpp"
#include "kir/interp.hpp"
#include "kir/passes.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "runtime/vortex_device.hpp"
#include "suite/dse.hpp"
#include "suite/suite.hpp"
#include "vasm/assembler.hpp"

using namespace fgpu;

namespace {

void BM_SimulatorVecaddCyclesPerSec(benchmark::State& state) {
  Log::level() = LogLevel::kOff;
  auto bench = suite::make_benchmark("vecadd");
  vcl::VortexDevice device(vortex::Config::with(static_cast<uint32_t>(state.range(0)), 8, 8));
  uint64_t cycles = 0;
  for (auto _ : state) {
    auto run = suite::run_benchmark(device, bench);
    cycles += run.total_cycles;
  }
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorVecaddCyclesPerSec)->Arg(1)->Arg(4);

void BM_KernelCompile(benchmark::State& state) {
  auto bench = suite::make_benchmark("blackscholes");
  for (auto _ : state) {
    auto compiled = codegen::compile_kernel(bench.module.kernels[0]);
    benchmark::DoNotOptimize(compiled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCompile);

void BM_HlsSynthesize(benchmark::State& state) {
  auto bench = suite::make_benchmark("gaussian");
  kir::Kernel kernel = bench.module.kernels[1];
  kir::expand_builtins(kernel);
  for (auto _ : state) {
    auto design = hls::synthesize(kernel, fpga::stratix10_mx2100());
    benchmark::DoNotOptimize(design);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HlsSynthesize);

void BM_Assembler(benchmark::State& state) {
  std::string source;
  for (int i = 0; i < 256; ++i) {
    source += "addi t0, t0, 1\nadd t1, t0, t0\nbne t1, zero, target\n";
  }
  source += "target:\n  tmc zero\n";
  for (auto _ : state) {
    auto program = vasm::assemble(source);
    benchmark::DoNotOptimize(program);
  }
  state.SetItemsProcessed(state.iterations() * 256 * 3);
}
BENCHMARK(BM_Assembler);

void BM_Decode(benchmark::State& state) {
  auto program = vasm::assemble("add t0, t1, t2\nfmadd.s f1, f2, f3, f4\nsplit t0, x\nx: tmc zero");
  for (auto _ : state) {
    for (uint32_t word : program->words) {
      auto instr = arch::decode(word);
      benchmark::DoNotOptimize(instr);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(program->words.size()));
}
BENCHMARK(BM_Decode);

void BM_CacheHitStream(benchmark::State& state) {
  mem::DramModel dram(mem::DramConfig::ddr4());
  mem::Cache cache(mem::CacheConfig{.name = "bench", .size_bytes = 16 * 1024}, &dram);
  uint64_t served = 0;
  cache.set_response_handler([&](uint64_t, bool) { ++served; });
  uint64_t cycle = 0, id = 0;
  for (auto _ : state) {
    dram.tick(cycle);
    cache.tick(cycle);
    if (cache.can_accept()) {
      cache.send(mem::MemRequest{.id = id++, .addr = static_cast<uint32_t>((id * 4) % 8192),
                                 .is_write = false});
    }
    ++cycle;
  }
  state.counters["responses/s"] =
      benchmark::Counter(static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheHitStream);

// Items are interpreter lane operations (InterpWork::lane_ops), so the rate
// is comparable across interpreter changes that keep the same work.
void BM_Interpreter(benchmark::State& state) {
  auto bench = suite::make_benchmark("kmeans");
  kir::InterpWork work;
  for (auto _ : state) {
    auto out = suite::reference_run(bench, &work);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(work.lane_ops));
}
BENCHMARK(BM_Interpreter);

// The analytical model's workload profile of a multi-launch benchmark: each
// distinct kernel is prepared once, then interpreted per launch.
void BM_ProfileBenchmark(benchmark::State& state) {
  auto bench = suite::make_benchmark("gaussian");
  for (auto _ : state) {
    auto profiles = suite::profile_benchmark(bench);
    benchmark::DoNotOptimize(profiles);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(bench.launches.size()));
}
BENCHMARK(BM_ProfileBenchmark);

}  // namespace

BENCHMARK_MAIN();

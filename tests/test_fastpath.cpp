// Fast-path correctness tests for the simulator's host-throughput
// optimizations (decoded-instruction cache, per-core sleep/wake and the
// whole-cluster skip it reduces to). The contract under test: these are
// HOST-SPEED features only — every reported cycle, stall bucket, per-PC
// profile entry, occupancy sample and memory-profile histogram must be
// bit-identical with the fast paths on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"
#include "trace/json.hpp"
#include "vasm/assembler.hpp"
#include "vortex/cluster.hpp"

namespace fgpu {
namespace {

// ---------------------------------------------------------------------------
// A/B: idle skipping off vs on over the benchmark suite
// ---------------------------------------------------------------------------

suite::RunnerOptions vortex_suite_options(bool idle_skip) {
  suite::RunnerOptions options;
  options.run_hls = false;  // idle skipping only affects the soft GPU
  options.capture_profile = true;
  options.vortex_config.idle_skip = idle_skip;
  return options;
}

// Byte equality of two exported documents. On a mismatch, reports only the
// first differing offset with some context: gtest's string diff of two
// multi-megabyte documents would need quadratic memory.
void expect_same_bytes(const std::string& a, const std::string& b) {
  if (a == b) return;
  size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  const size_t from = at > 80 ? at - 80 : 0;
  ADD_FAILURE() << "documents differ at byte " << at << " (sizes " << a.size() << ", "
                << b.size() << ")\n--- off:\n"
                << a.substr(from, 160) << "\n--- on:\n"
                << b.substr(from, 160);
}

// The host-work counters partition the simulated cycles: every cycle is
// either ticked or skipped, and every core-cycle is either ticked or slept.
void expect_work_invariants(const suite::BenchmarkOutcome& outcome, uint32_t cores,
                            bool idle_skip) {
  const vortex::HostWork& work = outcome.vortex.work;
  const uint64_t cycles = outcome.vortex.total_cycles;
  EXPECT_EQ(work.cluster_ticks + work.cycles_skipped, cycles) << outcome.name;
  EXPECT_EQ(work.core_ticks + work.core_ticks_slept, cores * cycles) << outcome.name;
  if (!idle_skip) {
    EXPECT_EQ(work.core_ticks_slept, 0u) << outcome.name;
    EXPECT_EQ(work.cycles_skipped, 0u) << outcome.name;
  }
}

TEST(IdleSkipTest, SuiteIsCycleExactWithSkippingOnAndOff) {
  Log::level() = LogLevel::kOff;
  const auto options_off = vortex_suite_options(false);
  const auto options_on = vortex_suite_options(true);
  auto off = suite::run_all(options_off);
  auto on = suite::run_all(options_on);
  ASSERT_TRUE(off.is_ok()) << off.status().to_string();
  ASSERT_TRUE(on.is_ok()) << on.status().to_string();
  ASSERT_EQ(off->outcomes.size(), on->outcomes.size());

  uint64_t core_ticks_off = 0, core_ticks_on = 0;
  for (size_t i = 0; i < off->outcomes.size(); ++i) {
    const auto& a = off->outcomes[i];
    const auto& b = on->outcomes[i];
    ASSERT_EQ(a.name, b.name);
    EXPECT_EQ(a.vortex.ok(), b.vortex.ok()) << a.name;
    EXPECT_EQ(a.vortex.total_cycles, b.vortex.total_cycles) << a.name;
    EXPECT_EQ(a.vortex.total_instrs, b.vortex.total_instrs) << a.name;
    // Full PerfCounters equality: every stall bucket (including the idle
    // cycles that fast-forwarding attributes in bulk) must match the
    // cycle-by-cycle simulation exactly.
    EXPECT_TRUE(a.vortex.last.perf == b.vortex.last.perf) << a.name;
    if (!a.vortex.ok()) continue;
    expect_work_invariants(a, options_off.vortex_config.cores, false);
    expect_work_invariants(b, options_on.vortex_config.cores, true);
    core_ticks_off += a.vortex.work.core_ticks;
    core_ticks_on += b.vortex.work.core_ticks;
  }
  // Sleeping must actually remove core ticks, not just preserve results.
  EXPECT_LT(core_ticks_on, core_ticks_off);

  // Byte-identical exports: stats and the per-PC profile document. A
  // difference here means the fast path leaked into the reported schema.
  std::ostringstream stats_off, stats_on, prof_off, prof_on;
  suite::write_stats_json(stats_off, options_off, *off);
  suite::write_stats_json(stats_on, options_on, *on);
  expect_same_bytes(stats_off.str(), stats_on.str());
  suite::write_profile_json(prof_off, options_off, *off);
  suite::write_profile_json(prof_on, options_on, *on);
  expect_same_bytes(prof_off.str(), prof_on.str());
}

// Fig. 7 grid corners (smallest, largest, few-wide-warps, many-narrow-warps
// on up to 16 cores) on vecadd and transpose, plus a barrier-heavy (lud)
// and an atomics (hybridsort) benchmark, with the per-PC and memory
// profilers on: the stats, profile and mem documents must be byte-identical
// with per-core sleep on and off. lud cannot dispatch its work-group on
// C1W2T2; the failure must then be identical too.
class SleepGridTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SleepGridTest, DocumentsAreByteIdenticalWithSleepOnAndOff) {
  Log::level() = LogLevel::kOff;
  uint32_t c = 0, w = 0, t = 0;
  ASSERT_EQ(std::sscanf(GetParam(), "C%uW%uT%u", &c, &w, &t), 3);
  std::string docs[2];
  uint64_t core_ticks[2] = {};
  for (const bool idle_skip : {false, true}) {
    suite::RunnerOptions options;
    options.filter = "^(vecadd|transpose|lud|hybridsort)$";
    options.run_hls = false;
    options.capture_profile = true;
    options.capture_memprof = true;
    options.vortex_config = vortex::Config::with(c, w, t);
    options.vortex_config.idle_skip = idle_skip;
    auto run = suite::run_all(options);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    ASSERT_EQ(run->outcomes.size(), 4u);
    std::ostringstream os;
    suite::write_stats_json(os, options, *run);
    suite::write_profile_json(os, options, *run);
    suite::write_mem_json(os, options, *run);
    docs[idle_skip] = os.str();
    for (const auto& outcome : run->outcomes) {
      if (outcome.name != "lud") {
        EXPECT_TRUE(outcome.vortex.ok()) << outcome.name;
      }
      if (!outcome.vortex.ok()) continue;
      expect_work_invariants(outcome, c, idle_skip);
      core_ticks[idle_skip] += outcome.vortex.work.core_ticks;
    }
  }
  expect_same_bytes(docs[false], docs[true]);
  EXPECT_LT(core_ticks[true], core_ticks[false]);
}

INSTANTIATE_TEST_SUITE_P(Fig7Corners, SleepGridTest,
                         ::testing::Values("C1W2T2", "C16W32T32", "C16W2T32", "C8W16T4"));

// ---------------------------------------------------------------------------
// Per-core sleep: single-core scenarios around the wake rules
// ---------------------------------------------------------------------------

// A 100-iteration counted loop (sum 1..100 stored to the heap).
constexpr const char* kLoopProgram = R"(
    li t0, 100
    li t1, 0
  loop:
    add t1, t1, t0
    addi t0, t0, -1
    bne t0, zero, loop
    li t2, 0x20000000
    sw t1, 0(t2)
    tmc zero
)";

struct AsmRun {
  vortex::ClusterStats stats;
  vortex::PcProfile profile;
  std::string memprof;  // every level's memory profile, as JSON
  mem::MainMemory memory;
};

// Runs `prog` on `config` with the per-PC profiler sampling occupancy
// every cycle and the memory profiler on.
AsmRun run_profiled(const vasm::Program& prog, vortex::Config config, bool idle_skip,
                    const std::vector<std::pair<uint32_t, uint32_t>>& data = {}) {
  AsmRun run;
  run.memory.write(prog.base, prog.words.data(), prog.size_bytes());
  for (const auto& [addr, value] : data) run.memory.store32(addr, value);
  config.profile = true;
  config.profile_interval = 1;
  config.memprof = true;
  config.idle_skip = idle_skip;
  vortex::Cluster cluster(config, run.memory);
  auto stats = cluster.run(prog.entry());
  EXPECT_TRUE(stats.is_ok()) << stats.status().to_string();
  if (stats.is_ok()) run.stats = *stats;
  run.profile = cluster.collect_profile();
  const mem::MemHierarchyProfile memprof = cluster.collect_mem_profile();
  std::ostringstream os;
  trace::JsonWriter w(os, /*pretty=*/false);
  w.begin_array();
  for (const auto* level : {&memprof.l1d, &memprof.l1i, &memprof.l2}) suite::write_json(w, *level);
  suite::write_json(w, memprof.dram);
  w.end_array();
  run.memprof = os.str();
  return run;
}

void expect_same_run(const AsmRun& off, const AsmRun& on) {
  EXPECT_TRUE(off.stats.perf == on.stats.perf) << off.stats.perf.summary() << "\n"
                                               << on.stats.perf.summary();
  EXPECT_TRUE(off.stats.l1d == on.stats.l1d);
  EXPECT_TRUE(off.stats.l1i == on.stats.l1i);
  EXPECT_TRUE(off.stats.l2 == on.stats.l2);
  EXPECT_TRUE(off.profile.by_pc == on.profile.by_pc);
  expect_same_bytes(off.memprof, on.memprof);
  ASSERT_EQ(off.profile.occupancy.size(), on.profile.occupancy.size());
  for (size_t i = 0; i < off.profile.occupancy.size(); ++i) {
    const auto& a = off.profile.occupancy[i];
    const auto& b = on.profile.occupancy[i];
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.ready, b.ready) << "cycle " << a.cycle;
    EXPECT_EQ(a.blocked, b.blocked) << "cycle " << a.cycle;
    EXPECT_EQ(a.idle, b.idle) << "cycle " << a.cycle;
  }
}

// Warp 1 exits (TMC 0) as the last word of an instruction line. The TMC
// waits on a load-dependent register, so warp 1 fetches ahead and the fetch
// of the next line — a DRAM round trip — is still in flight when it
// retires. Warp 0 meanwhile chases four dependent load misses, so the core
// sleeps with the orphaned fetch outstanding; its stale response must wake
// the core before it lands. Warp 0 then re-spawns warp 1 at a new entry.
constexpr const char* kRespawnProgram = R"(
    li t0, 2
    la t1, exit1
    wspawn t0, t1
    li t2, 0x20001000
    lw t2, 0(t2)
    lw t2, 0(t2)
    lw t2, 0(t2)
    lw t2, 0(t2)
    la t1, second
    wspawn t0, t1
    tmc zero
    nop
    nop
    nop
  exit1:
    li t4, 0x20008000
    lw t3, 0(t4)
    and t3, t3, zero
  last:
    tmc t3
  second:
    li t4, 0x20000000
    li t5, 7
    sw t5, 0(t4)
    tmc zero
)";

TEST(SleepTest, WarpExitsWithFetchInFlightAndIsRespawnedAroundSleep) {
  auto prog = vasm::assemble(kRespawnProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  // TMC must be the last word of its 16-byte line for the orphaned fetch to
  // miss in the L1I.
  ASSERT_EQ(prog->symbols.at("last") % mem::kLineBytes, mem::kLineBytes - 4);
  const std::vector<std::pair<uint32_t, uint32_t>> chain = {{0x20001000, 0x20002000},
                                                            {0x20002000, 0x20003000},
                                                            {0x20003000, 0x20004000},
                                                            {0x20004000, 0}};
  const AsmRun off = run_profiled(*prog, vortex::Config::with(1, 2, 1), false, chain);
  const AsmRun on = run_profiled(*prog, vortex::Config::with(1, 2, 1), true, chain);
  expect_same_run(off, on);
  EXPECT_EQ(on.memory.load32(0x20000000), 7u);
  EXPECT_EQ(on.stats.perf.warps_spawned, 2u);
  EXPECT_GT(on.stats.work.core_ticks_slept, 0u);
  EXPECT_EQ(on.stats.work.core_ticks + on.stats.work.core_ticks_slept, on.stats.perf.cycles);
}

// The very first fetch misses the L1I and the L2, so the core sleeps with
// its only warp fetch-bound until the L2 fill reaches the L1I. The fill
// wakes the core before it is delivered: every occupancy sample of the
// slept window shows the pre-delivery state (warp blocked, nothing ready),
// and the delivery cycle's own sample already shows the buffered
// instruction.
TEST(SleepTest, L2FillWakesSleepingCoreBeforeDelivery) {
  auto prog = vasm::assemble(kLoopProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  const AsmRun off = run_profiled(*prog, vortex::Config::with(1, 1, 1), false);
  const AsmRun on = run_profiled(*prog, vortex::Config::with(1, 1, 1), true);
  expect_same_run(off, on);
  EXPECT_GT(on.stats.work.core_ticks_slept, 0u);

  const auto& samples = on.profile.occupancy;
  const auto delivered = std::find_if(samples.begin(), samples.end(),
                                      [](const vortex::OccupancySample& s) { return s.ready > 0; });
  ASSERT_NE(delivered, samples.end());
  // A DRAM round trip, not a cache hit.
  EXPECT_GT(delivered->cycle, 20u);
  for (auto it = samples.begin(); it != delivered; ++it) {
    EXPECT_EQ(it->ready, 0u) << "cycle " << it->cycle;
    EXPECT_EQ(it->blocked, 1u) << "cycle " << it->cycle;
  }
}

// Each core loads four lines of its own, so both cores' L1Ds miss at once
// into a one-MSHR L2: the L2 refuses one core's fills while it serves the
// other's, and that core sleeps with its L1D holding unsent fills. It
// wakes when a DRAM fill frees the L2 MSHR — a fill the *other* core's L1
// receives, so no delivery reaches the sleeper: the capacity wake is its
// only way back.
constexpr const char* kTwoCoreMissProgram = R"(
    csrr t0, 0xCC2
    slli t0, t0, 12
    li t1, 0x20000000
    add t1, t1, t0
    lw t2, 0(t1)
    lw t3, 16(t1)
    lw t4, 32(t1)
    lw t5, 48(t1)
    add t2, t2, t3
    add t2, t2, t4
    add t2, t2, t5
    sw t2, 64(t1)
    tmc zero
)";

TEST(SleepTest, FullL2WakesBlockedCoreWhenItFreesAnMshr) {
  auto prog = vasm::assemble(kTwoCoreMissProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  vortex::Config config = vortex::Config::with(2, 1, 1);
  config.l2.mshrs = 1;
  const std::vector<std::pair<uint32_t, uint32_t>> data = {
      {0x20000000, 1}, {0x20000010, 2}, {0x20000020, 3}, {0x20000030, 4},
      {0x20001000, 5}, {0x20001010, 6}, {0x20001020, 7}, {0x20001030, 8}};
  const AsmRun off = run_profiled(*prog, config, false, data);
  const AsmRun on = run_profiled(*prog, config, true, data);
  expect_same_run(off, on);
  EXPECT_EQ(on.memory.load32(0x20000040), 10u);
  EXPECT_EQ(on.memory.load32(0x20001040), 26u);
  EXPECT_EQ(off.stats.work.capacity_wakes, 0u);
  EXPECT_GT(on.stats.work.capacity_wakes, 0u);
  EXPECT_EQ(on.stats.work.core_ticks + on.stats.work.core_ticks_slept, 2 * on.stats.perf.cycles);
}

// The suite at a shape whose shared L2 runs full (16 cores of 8x8 warps on
// the load-heavy kernels): with sleep on, capacity wakes fire, and the
// PerfCounters, per-PC profile and memory profile stay identical to the
// every-core-every-cycle run.
TEST(SleepTest, SuiteAtFullL2ShapeIsExactWithSleepOnAndOff) {
  Log::level() = LogLevel::kOff;
  std::string docs[2];
  vortex::HostWork work[2];
  std::vector<vortex::PerfCounters> perf[2];
  for (const bool idle_skip : {false, true}) {
    suite::RunnerOptions options;
    options.filter = "^(vecadd|transpose)$";
    options.run_hls = false;
    options.capture_profile = true;
    options.capture_memprof = true;
    options.vortex_config = vortex::Config::with(16, 8, 8);
    options.vortex_config.idle_skip = idle_skip;
    auto run = suite::run_all(options);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    ASSERT_EQ(run->outcomes.size(), 2u);
    std::ostringstream os;
    suite::write_stats_json(os, options, *run);
    suite::write_profile_json(os, options, *run);
    suite::write_mem_json(os, options, *run);
    docs[idle_skip] = os.str();
    for (const auto& outcome : run->outcomes) {
      ASSERT_TRUE(outcome.vortex.ok()) << outcome.name;
      expect_work_invariants(outcome, 16, idle_skip);
      work[idle_skip].accumulate(outcome.vortex.work);
      perf[idle_skip].push_back(outcome.vortex.last.perf);
    }
  }
  EXPECT_TRUE(perf[false] == perf[true]);
  expect_same_bytes(docs[false], docs[true]);
  EXPECT_EQ(work[false].capacity_wakes, 0u);
  EXPECT_GT(work[true].capacity_wakes, 0u);
  EXPECT_LT(work[true].core_ticks, work[false].core_ticks);
}

// ---------------------------------------------------------------------------
// Decode cache: cold/warm equivalence and invalidation on reset
// ---------------------------------------------------------------------------

TEST(DecodeCacheTest, WarmRefetchHitsAndResetInvalidates) {
  auto prog = vasm::assemble(kLoopProgram);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  mem::MainMemory memory;
  memory.write(prog->base, prog->words.data(), prog->size_bytes());
  vortex::Cluster cluster(vortex::Config::with(1, 4, 8), memory);

  auto first = cluster.run(prog->entry());
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const uint64_t fills1 = cluster.core(0).decode_cache_fills();
  const uint64_t hits1 = cluster.core(0).decode_cache_hits();
  // Every distinct PC decodes exactly once; the 100-iteration loop body
  // refetches the same PCs, which must be served from the decode cache.
  EXPECT_GT(fills1, 0u);
  EXPECT_GT(hits1, fills1);
  EXPECT_EQ(memory.load32(0x20000000), 5050u);  // sum 1..100

  // Second launch: reset() must invalidate the cache wholesale (the runtime
  // may rewrite the code region between launches), so the same program
  // fills the same number of entries again — and, with a warm host-side
  // cache being the only difference, reports identical cycles.
  auto second = cluster.run(prog->entry());
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(cluster.core(0).decode_cache_fills(), 2 * fills1);
  EXPECT_EQ(cluster.core(0).decode_cache_hits(), 2 * hits1);
  EXPECT_TRUE(first->perf == second->perf);
}

// ---------------------------------------------------------------------------
// next_event_cycle: the wake-up calculators idle skipping relies on
// ---------------------------------------------------------------------------

struct CacheHarness {
  mem::DramModel dram{mem::DramConfig::ddr4()};
  mem::Cache cache;
  std::vector<uint64_t> responses;
  uint64_t cycle = 0;

  CacheHarness() : cache(mem::CacheConfig{}, &dram) {
    cache.set_response_handler([this](uint64_t id, bool) { responses.push_back(id); });
  }

  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) {
      dram.tick(cycle);
      cache.tick(cycle);
      ++cycle;
    }
  }
};

TEST(NextEventTest, IdleCacheReportsNoEvent) {
  CacheHarness h;
  h.tick(4);
  EXPECT_EQ(h.cache.next_event_cycle(), mem::kNoEvent);
  EXPECT_EQ(h.dram.next_event_cycle(), mem::kNoEvent);
}

TEST(NextEventTest, MissRetriesEveryCycleUntilFillSent) {
  CacheHarness h;
  h.tick();
  ASSERT_TRUE(h.cache.can_accept());
  h.cache.send(mem::MemRequest{.id = 1, .addr = 0x1000, .is_write = false});
  // The miss allocated an MSHR whose fill has not gone to DRAM yet: the
  // cache must be ticked next cycle (its send time depends on back-pressure
  // the calculator cannot predict).
  EXPECT_EQ(h.cache.next_event_cycle(), h.cycle);  // now_ + 1 == current loop cycle
}

TEST(NextEventTest, HitResponseMaturesExactlyAtPredictedCycle) {
  CacheHarness h;
  h.tick();
  h.cache.send(mem::MemRequest{.id = 1, .addr = 0x1000, .is_write = false});
  // Drive until the fill response lands (miss path). Once the fill request
  // is queued in DRAM, the pending event belongs to the DRAM, not the cache
  // (the response propagates back through on_lower_response without a cache
  // tick) — so the invariant, like the cluster's idle-skip wake-up, is over
  // the MINIMUM of both components' predictions: it must never lie later
  // than the cycle the next response actually fires.
  while (h.responses.empty()) {
    ASSERT_LT(h.cycle, 10000u);
    const uint64_t predicted =
        std::min(h.cache.next_event_cycle(), h.dram.next_event_cycle());
    ASSERT_NE(predicted, mem::kNoEvent);
    const size_t before = h.responses.size();
    h.tick();
    if (h.responses.size() > before) {
      EXPECT_GE(h.cycle - 1, predicted);
    }
  }
  // Quiesce, then hit the now-resident line: the prediction must equal the
  // exact maturity cycle of the hit response.
  h.tick(4);
  ASSERT_EQ(h.cache.next_event_cycle(), mem::kNoEvent);
  h.responses.clear();
  h.cache.send(mem::MemRequest{.id = 2, .addr = 0x1000, .is_write = false});
  const uint64_t predicted = h.cache.next_event_cycle();
  ASSERT_NE(predicted, mem::kNoEvent);
  while (h.responses.empty()) {
    ASSERT_LT(h.cycle, predicted + 10);
    h.tick();
  }
  EXPECT_EQ(h.cycle - 1, predicted);  // response fired on the predicted cycle
}

TEST(NextEventTest, DramFrontOfQueueIsTheEarliestEvent) {
  mem::DramModel dram{mem::DramConfig::ddr4()};
  std::vector<uint64_t> responses;
  dram.set_response_handler([&](uint64_t id, bool) { responses.push_back(id); });
  uint64_t cycle = 0;
  dram.tick(cycle++);
  ASSERT_TRUE(dram.can_accept());
  dram.send(mem::MemRequest{.id = 7, .addr = 0x2000, .is_write = false});
  const uint64_t predicted = dram.next_event_cycle();
  ASSERT_NE(predicted, mem::kNoEvent);
  while (responses.empty()) {
    ASSERT_LT(cycle, predicted + 10);
    dram.tick(cycle++);
  }
  EXPECT_EQ(cycle - 1, predicted);
  EXPECT_EQ(dram.next_event_cycle(), mem::kNoEvent);
}

}  // namespace
}  // namespace fgpu

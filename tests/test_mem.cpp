// Memory-hierarchy tests: functional main memory, cache hit/miss/MSHR
// behaviour, writebacks, DRAM latency/bandwidth, and interconnect routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/memory.hpp"
#include "mem/memprof.hpp"
#include "mem/ring.hpp"

namespace fgpu::mem {
namespace {

TEST(MainMemoryTest, ReadWriteRoundTrip) {
  MainMemory memory;
  memory.store32(0x1000, 0xDEADBEEF);
  EXPECT_EQ(memory.load32(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(memory.load16(0x1000), 0xBEEFu);
  EXPECT_EQ(memory.load8(0x1003), 0xDEu);
  memory.store8(0x1001, 0x42);
  EXPECT_EQ(memory.load32(0x1000), 0xDEAD42EFu);
}

TEST(MainMemoryTest, UntouchedMemoryReadsZero) {
  MainMemory memory;
  EXPECT_EQ(memory.load32(0x7FFF0000), 0u);
}

TEST(MainMemoryTest, CrossPageCopy) {
  MainMemory memory;
  std::vector<uint8_t> data(MainMemory::kPageSize + 128);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7);
  const uint32_t base = MainMemory::kPageSize - 64;  // straddles a page boundary
  memory.write(base, data.data(), static_cast<uint32_t>(data.size()));
  std::vector<uint8_t> out(data.size());
  memory.read(base, out.data(), static_cast<uint32_t>(out.size()));
  EXPECT_EQ(data, out);
}

TEST(MainMemoryTest, FillAndClear) {
  MainMemory memory;
  memory.fill(0x2000, 0xAB, 256);
  EXPECT_EQ(memory.load8(0x2000), 0xABu);
  EXPECT_EQ(memory.load8(0x20FF), 0xABu);
  EXPECT_EQ(memory.load8(0x2100), 0u);
  memory.clear();
  EXPECT_EQ(memory.load8(0x2000), 0u);
}

// Harness that drives a cache over a DRAM and collects responses.
struct Harness {
  DramModel dram{DramConfig::ddr4()};
  Cache cache;
  std::vector<uint64_t> responses;
  uint64_t cycle = 0;

  explicit Harness(CacheConfig config = CacheConfig{}) : cache(config, &dram) {
    cache.set_response_handler([this](uint64_t id, bool) { responses.push_back(id); });
  }

  void tick(int n = 1) {
    for (int i = 0; i < n; ++i) {
      dram.tick(cycle);
      cache.tick(cycle);
      ++cycle;
    }
  }

  // Sends when accepted; returns cycles waited.
  int send(uint64_t id, uint32_t addr, bool write = false) {
    int waited = 0;
    while (!cache.can_accept()) {
      tick();
      ++waited;
      EXPECT_LT(waited, 10000) << "cache never accepted";
    }
    cache.send(MemRequest{.id = id, .addr = addr, .is_write = write});
    return waited;
  }

  void drain_until(size_t count, int limit = 5000) {
    int guard = 0;
    while (responses.size() < count && guard++ < limit) tick();
    ASSERT_GE(responses.size(), count) << "timed out draining responses";
  }
};

TEST(CacheTest, MissThenHitLatency) {
  Harness h;
  h.send(1, 0x1000);
  h.drain_until(1);
  const uint64_t miss_done = h.cycle;
  EXPECT_GT(miss_done, DramConfig::ddr4().latency);  // went to DRAM
  h.send(2, 0x1004);  // same line
  h.drain_until(2);
  EXPECT_LE(h.cycle - miss_done, h.cache.config().hit_latency + 3);
  EXPECT_EQ(h.cache.stats().hits, 1u);
  EXPECT_EQ(h.cache.stats().misses, 1u);
}

TEST(CacheTest, MshrMergesSameLine) {
  Harness h;
  h.send(1, 0x2000);
  h.send(2, 0x2008);  // same 16B line, still outstanding
  h.drain_until(2);
  EXPECT_EQ(h.cache.stats().mshr_merges, 1u);
  EXPECT_EQ(h.dram.stats().reads, 1u);  // one line fill serves both
}

TEST(CacheTest, DistinctLinesUseDistinctFills) {
  Harness h;
  h.send(1, 0x3000);
  h.send(2, 0x3010);
  h.send(3, 0x3020);
  h.drain_until(3);
  EXPECT_EQ(h.dram.stats().reads, 3u);
}

TEST(CacheTest, CapacityEvictionAndWriteback) {
  CacheConfig config;
  config.size_bytes = 256;  // 16 lines of 16B
  config.ways = 2;
  config.mshrs = 4;
  Harness h(config);
  // Dirty a line, then stream enough distinct lines through its set to
  // evict it; the dirty eviction must produce a DRAM write.
  h.send(1, 0x0, /*write=*/true);
  h.drain_until(1);
  const uint32_t sets = config.num_sets();
  for (uint64_t i = 1; i <= 4; ++i) {
    h.send(1 + i, static_cast<uint32_t>(i * sets * 16));  // same set as 0x0
    h.drain_until(1 + i);
  }
  EXPECT_GT(h.cache.stats().evictions, 0u);
  EXPECT_GT(h.cache.stats().writebacks, 0u);
  EXPECT_GT(h.dram.stats().writes, 0u);
}

TEST(CacheTest, EvictedLineMissesAgain) {
  CacheConfig config;
  config.size_bytes = 256;
  config.ways = 2;
  Harness h(config);
  h.send(1, 0x0);
  h.drain_until(1);
  const uint32_t sets = config.num_sets();
  for (uint64_t i = 1; i <= 3; ++i) {
    h.send(1 + i, static_cast<uint32_t>(i * sets * 16));
    h.drain_until(1 + i);
  }
  const uint64_t misses_before = h.cache.stats().misses;
  h.send(10, 0x0);  // must have been evicted (2 ways, 3 conflicting lines)
  h.drain_until(5);
  EXPECT_EQ(h.cache.stats().misses, misses_before + 1);
}

TEST(CacheTest, FlushInvalidatesEverything) {
  Harness h;
  h.send(1, 0x4000);
  h.drain_until(1);
  h.cache.flush();
  h.send(2, 0x4000);
  h.drain_until(2);
  EXPECT_EQ(h.cache.stats().misses, 2u);
}

TEST(CacheTest, BackPressureWhenMshrsFull) {
  CacheConfig config;
  config.mshrs = 2;
  Harness h(config);
  ASSERT_TRUE(h.cache.can_accept());
  h.cache.send(MemRequest{.id = 1, .addr = 0x5000});
  h.cache.send(MemRequest{.id = 2, .addr = 0x6000});
  // Port limit: one accept per cycle already consumed... tick to refresh.
  h.tick();
  EXPECT_FALSE(h.cache.can_accept());  // both MSHRs pending
  h.drain_until(2);
  h.tick();
  EXPECT_TRUE(h.cache.can_accept());
}

TEST(CacheTest, PortLimitOneAcceptPerCycle) {
  Harness h;
  h.tick();
  ASSERT_TRUE(h.cache.can_accept());
  h.cache.send(MemRequest{.id = 1, .addr = 0x100});
  EXPECT_FALSE(h.cache.can_accept());  // port consumed this cycle
  h.tick();
  EXPECT_TRUE(h.cache.can_accept());
}

TEST(DramTest, FixedLatency) {
  DramModel dram(DramConfig{"test", 50, 1, 1, 8});
  uint64_t done_cycle = 0;
  dram.set_response_handler([&](uint64_t, bool) { done_cycle = 1; });
  dram.tick(0);
  dram.send(MemRequest{.id = 1, .addr = 0});
  uint64_t cycle = 0;
  while (done_cycle == 0 && cycle < 200) dram.tick(++cycle);
  EXPECT_GE(cycle, 50u);
  EXPECT_LE(cycle, 60u);
}

TEST(DramTest, BandwidthOneLinePerCyclePerChannel) {
  DramModel dram(DramConfig{"test", 10, 1, 1, 32});
  int responses = 0;
  dram.set_response_handler([&](uint64_t, bool) { ++responses; });
  uint64_t cycle = 0;
  int sent = 0;
  while (responses < 16 && cycle < 500) {
    dram.tick(cycle);
    if (sent < 16 && dram.can_accept()) {
      dram.send(MemRequest{.id = static_cast<uint64_t>(sent), .addr = 0});
      ++sent;
    }
    ++cycle;
  }
  // 16 responses at 1/cycle after the initial latency.
  EXPECT_GE(cycle, 16u + 10u);
  EXPECT_EQ(responses, 16);
}

TEST(DramTest, Hbm2HasMoreChannels) {
  EXPECT_GT(DramConfig::hbm2().channels, DramConfig::ddr4().channels);
  EXPECT_LT(DramConfig::hbm2().latency, DramConfig::ddr4().latency);
  DramModel dram(DramConfig::hbm2());
  EXPECT_DOUBLE_EQ(dram.peak_lines_per_cycle(), 8.0);
}

TEST(InterconnectTest, RoutesResponsesToTheRightPort) {
  DramModel dram(DramConfig{"test", 5, 1, 4, 32});
  Interconnect noc(&dram);
  MemPort* port_a = noc.new_port();
  MemPort* port_b = noc.new_port();
  std::vector<uint64_t> got_a, got_b;
  port_a->set_response_handler([&](uint64_t id, bool) { got_a.push_back(id); });
  port_b->set_response_handler([&](uint64_t id, bool) { got_b.push_back(id); });
  dram.tick(0);
  port_a->send(MemRequest{.id = 100, .addr = 0});
  port_b->send(MemRequest{.id = 100, .addr = 16});  // same requester id, different port
  port_a->send(MemRequest{.id = 101, .addr = 32});
  for (uint64_t cycle = 1; cycle < 40; ++cycle) dram.tick(cycle);
  ASSERT_EQ(got_a.size(), 2u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a[0], 100u);
  EXPECT_EQ(got_a[1], 101u);
  EXPECT_EQ(got_b[0], 100u);
}

// Parameterized property: a burst of reads through any cache geometry
// always produces exactly one response per request and never loses one.
class CacheGeometry : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CacheGeometry, EveryRequestGetsExactlyOneResponse) {
  auto [size_kb, ways, mshrs] = GetParam();
  CacheConfig config;
  config.size_bytes = static_cast<uint32_t>(size_kb) * 1024;
  config.ways = static_cast<uint32_t>(ways);
  config.mshrs = static_cast<uint32_t>(mshrs);
  Harness h(config);
  const int requests = 200;
  uint32_t addr = 0x1234;
  for (int i = 0; i < requests; ++i) {
    addr = addr * 1664525u + 1013904223u;
    h.send(static_cast<uint64_t>(i), addr % (64 * 1024), (i % 3) == 0);
  }
  h.drain_until(requests);
  EXPECT_EQ(h.responses.size(), static_cast<size_t>(requests));
  // Every id delivered exactly once.
  std::vector<uint64_t> sorted = h.responses;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < requests; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], static_cast<uint64_t>(i));
  EXPECT_EQ(h.cache.stats().hits + h.cache.stats().misses, static_cast<uint64_t>(requests));
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 2, 4},
                                           std::tuple{4, 2, 2}, std::tuple{4, 4, 8},
                                           std::tuple{16, 2, 6}, std::tuple{16, 8, 16},
                                           std::tuple{64, 4, 4}));

// ---------------------------------------------------------------------------
// Back-pressure as an event: full(), next_event_cycle, response routing
// ---------------------------------------------------------------------------

// A lower level the test answers by hand: records every request it
// accepts, and refuses sends while `accepting` is false.
struct ScriptedPort final : MemPort {
  bool can_accept() const override { return accepting; }
  bool full() const override { return false; }
  void send(const MemRequest& req) override { sent.push_back(req); }
  void set_response_handler(ResponseHandler h) override { handler = std::move(h); }
  void tick(uint64_t /*cycle*/) override {}
  void respond(uint64_t id, bool was_write = false) { handler(id, was_write); }

  bool accepting = true;
  std::vector<MemRequest> sent;
  ResponseHandler handler;
};

// An L1 over a one-MSHR L2 over DRAM, ticked bottom-up like the cluster.
struct TwoLevel {
  DramModel dram{DramConfig{"test", 20, 1, 1, 32}};
  Cache l2;
  Cache l1;
  std::vector<uint64_t> l1_responses;
  uint64_t cycle = 0;

  explicit TwoLevel(CacheConfig l2_config) : l2(l2_config, &dram), l1(CacheConfig{}, &l2) {
    l1.set_response_handler([this](uint64_t id, bool) { l1_responses.push_back(id); });
  }
  void tick() {
    dram.tick(cycle);
    l2.tick(cycle);
    l1.tick(cycle);
    ++cycle;
  }
};

TEST(BackPressureTest, FullLowerLevelIsNoRetryEvent) {
  CacheConfig l2_config;
  l2_config.name = "l2";
  l2_config.mshrs = 1;
  TwoLevel h(l2_config);
  h.tick();
  // Another requester takes the L2's only MSHR.
  h.l2.send(MemRequest{.id = 900, .addr = 0x8000});
  EXPECT_TRUE(h.l2.full());
  h.l1.send(MemRequest{.id = 1, .addr = 0x1000});
  h.tick();  // the L1's fill is refused
  ASSERT_TRUE(h.l1.has_unsent());
  // Nothing of the L1's own can change until the L2 frees its MSHR.
  EXPECT_EQ(h.l1.next_event_cycle(), kNoEvent);
  uint64_t guard = 0;
  while (h.l1.has_unsent()) {
    ASSERT_LT(++guard, 200u);
    EXPECT_TRUE(h.l2.full()) << "cycle " << h.cycle;
    EXPECT_EQ(h.l1.next_event_cycle(), kNoEvent) << "cycle " << h.cycle;
    h.tick();
  }
  // The L2 freed its MSHR inside a DRAM tick and the L1 took it in the
  // same cycle's L1 tick: the L2 is full again, now with the L1's fill.
  EXPECT_GT(guard, 10u);  // a DRAM round trip, not a retry
  EXPECT_TRUE(h.l2.full());
  while (h.l1_responses.empty()) {
    ASSERT_LT(++guard, 400u);
    h.tick();
  }
  EXPECT_EQ(h.l1_responses, std::vector<uint64_t>{1});
}

// The launch-boundary drain (Cluster::reset): responses still queued in the
// DRAM or in a cache's hit queue are delivered at once, whatever their
// ready cycle. A fill frees its MSHR at every level on the way up, and no
// event is left behind.
TEST(BoundaryDrainTest, QueuedResponsesAreDeliveredAndFillsFreeTheirMshrs) {
  CacheConfig l2_config;
  l2_config.name = "l2";
  TwoLevel h(l2_config);
  h.tick();
  h.l1.send(MemRequest{.id = 1, .addr = 0x1000});  // misses in the L1 and the L2
  h.tick();  // the L1's fill reaches the L2
  h.tick();  // the L2's fill reaches the DRAM
  ASSERT_NE(h.dram.next_event_cycle(), kNoEvent);
  ASSERT_TRUE(h.l1_responses.empty());
  h.dram.drain();
  EXPECT_EQ(h.l1_responses, std::vector<uint64_t>{1});
  EXPECT_EQ(h.dram.next_event_cycle(), kNoEvent);
  EXPECT_EQ(h.l2.next_event_cycle(), kNoEvent);
  EXPECT_EQ(h.l1.next_event_cycle(), kNoEvent);

  h.l1.flush();  // the line stays resident in the L2 only
  h.tick();
  h.l1.send(MemRequest{.id = 2, .addr = 0x1000});
  h.tick();  // the L1's fill hits in the L2 and waits in its hit queue
  ASSERT_NE(h.l2.next_event_cycle(), kNoEvent);
  h.l2.drain_hits();
  EXPECT_EQ(h.l1_responses, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(h.l2.next_event_cycle(), kNoEvent);
  EXPECT_EQ(h.l1.next_event_cycle(), kNoEvent);
  EXPECT_FALSE(h.l1.full());
  EXPECT_FALSE(h.l2.full());
}

TEST(BackPressureTest, PortLimitedLowerLevelRetriesNextCycle) {
  CacheConfig l2_config;
  l2_config.name = "l2";
  l2_config.ports = 1;
  TwoLevel h(l2_config);
  h.dram.tick(0);
  h.l2.tick(0);
  // Another requester uses the L2's only port this cycle.
  h.l2.send(MemRequest{.id = 900, .addr = 0x8000});
  h.l1.send(MemRequest{.id = 1, .addr = 0x1000});
  h.l1.tick(0);
  ASSERT_TRUE(h.l1.has_unsent());
  EXPECT_FALSE(h.l2.full());
  EXPECT_EQ(h.l1.next_event_cycle(), 1u);
  h.cycle = 1;
  h.tick();  // fresh port: the fill goes out
  EXPECT_FALSE(h.l1.has_unsent());
  EXPECT_EQ(h.l1.next_event_cycle(), kNoEvent);
}

TEST(BackPressureTest, FullIsForwardedThroughTheInterconnect) {
  CacheConfig l2_config;
  l2_config.mshrs = 1;
  DramModel dram(DramConfig::ddr4());
  Cache l2(l2_config, &dram);
  Interconnect noc(&l2);
  MemPort* port = noc.new_port();
  EXPECT_FALSE(dram.full());
  EXPECT_FALSE(port->full());
  port->send(MemRequest{.id = 1, .addr = 0x1000});  // miss: takes the MSHR
  EXPECT_TRUE(l2.full());
  EXPECT_TRUE(port->full());
}

TEST(BackPressureTest, WritebackAcksAndStaleFillIdsAreIgnored) {
  CacheConfig config;
  config.mshrs = 2;
  ScriptedPort lower;
  Cache cache(config, &lower);
  std::vector<uint64_t> responses;
  cache.set_response_handler([&](uint64_t id, bool) { responses.push_back(id); });
  cache.tick(0);
  cache.send(MemRequest{.id = 7, .addr = 0x1000});
  cache.tick(1);
  ASSERT_EQ(lower.sent.size(), 1u);
  const uint64_t fill = lower.sent[0].id;
  const uint64_t slot_mask = (1u << Cache::kFillSlotBits) - 1;
  lower.respond(0, /*was_write=*/true);        // a writeback ack
  lower.respond(fill + (1u << Cache::kFillSlotBits));  // same MSHR, other sequence
  lower.respond((fill & ~slot_mask) | slot_mask);      // an MSHR index never allocated
  EXPECT_TRUE(responses.empty());
  lower.respond(fill);
  EXPECT_EQ(responses, std::vector<uint64_t>{7});
  lower.respond(fill);  // a duplicate of an answered fill
  EXPECT_EQ(responses, std::vector<uint64_t>{7});
  cache.tick(2);
  EXPECT_EQ(cache.next_event_cycle(), kNoEvent);
}

TEST(BackPressureTest, InterconnectIgnoresTagsOfRecycledRoutes) {
  ScriptedPort lower;
  Interconnect noc(&lower);
  MemPort* port = noc.new_port();
  std::vector<uint64_t> got;
  port->set_response_handler([&](uint64_t id, bool) { got.push_back(id); });
  port->send(MemRequest{.id = 10, .addr = 0});
  const uint64_t first = lower.sent.back().id;
  lower.respond(first);
  port->send(MemRequest{.id = 11, .addr = 16});  // recycles the route slot
  const uint64_t second = lower.sent.back().id;
  EXPECT_NE(first, second);
  lower.respond(first);  // stale: the slot now carries the second request
  EXPECT_EQ(got, std::vector<uint64_t>{10});
  lower.respond(second);
  EXPECT_EQ(got, (std::vector<uint64_t>{10, 11}));
}

// ---------------------------------------------------------------------------
// Slot-mask bookkeeping: MSHR allocation, merges and fills, DRAM event gate
// ---------------------------------------------------------------------------

uint32_t fill_slot(const MemRequest& fill) {
  return static_cast<uint32_t>(fill.id & ((1u << Cache::kFillSlotBits) - 1));
}

// A lower level that accepts `left` more requests, then refuses.
struct MeteredPort final : MemPort {
  bool can_accept() const override { return left > 0; }
  bool full() const override { return false; }
  void send(const MemRequest& req) override {
    --left;
    sent.push_back(req);
  }
  void set_response_handler(ResponseHandler h) override { handler = std::move(h); }
  void tick(uint64_t /*cycle*/) override {}
  void respond(uint64_t id) { handler(id, false); }

  uint32_t left = 0;
  std::vector<MemRequest> sent;
  ResponseHandler handler;
};

// Frees MSHRs out of order, then reallocates them: each miss takes the
// lowest free slot, and unsent fills go down in slot order, not in
// allocation order. With the lower level taking one request per cycle,
// the fill walk stops at the refusal and resumes at the next unsent slot.
TEST(MshrBookkeepingTest, LowestFreeSlotAndFillsInSlotOrder) {
  CacheConfig config;
  config.mshrs = 4;
  config.ports = 8;
  MeteredPort lower;
  Cache cache(config, &lower);
  std::vector<uint64_t> responses;
  cache.set_response_handler([&](uint64_t id, bool) { responses.push_back(id); });
  cache.tick(0);
  for (uint32_t i = 0; i < 4; ++i) cache.send(MemRequest{.id = i, .addr = 0x1000 + 16 * i});
  EXPECT_TRUE(cache.full());
  lower.left = 4;
  cache.tick(1);
  ASSERT_EQ(lower.sent.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(fill_slot(lower.sent[i]), i);

  lower.respond(lower.sent[3].id);                   // frees slot 3
  cache.send(MemRequest{.id = 10, .addr = 0x2000});  // takes slot 3
  lower.respond(lower.sent[2].id);                   // frees slot 2
  lower.respond(lower.sent[0].id);                   // frees slot 0
  cache.send(MemRequest{.id = 11, .addr = 0x3000});  // takes slot 0
  cache.send(MemRequest{.id = 12, .addr = 0x4000});  // takes slot 2
  EXPECT_EQ(responses, (std::vector<uint64_t>{3, 2, 0}));
  EXPECT_TRUE(cache.full());

  const uint32_t want_addr[3] = {0x3000, 0x4000, 0x2000};
  const uint32_t want_slot[3] = {0, 2, 3};
  for (uint32_t i = 0; i < 3; ++i) {
    lower.left = 1;
    cache.tick(2 + i);
    ASSERT_EQ(lower.sent.size(), 5u + i);
    EXPECT_EQ(lower.sent.back().addr, want_addr[i]);
    EXPECT_EQ(fill_slot(lower.sent.back()), want_slot[i]);
  }
  EXPECT_FALSE(cache.has_unsent());
  for (size_t i = 4; i < lower.sent.size(); ++i) lower.respond(lower.sent[i].id);
  EXPECT_EQ(responses, (std::vector<uint64_t>{3, 2, 0, 11, 12, 10}));
  lower.respond(lower.sent[1].id);
  EXPECT_FALSE(cache.full());
  cache.tick(5);
  EXPECT_EQ(cache.next_event_cycle(), kNoEvent);
}

// A freed MSHR keeps its old line address; a later miss on that line must
// allocate afresh, not merge into the dead slot. Merges hit live MSHRs only.
TEST(MshrBookkeepingTest, MergesHitLiveMshrsOnly) {
  CacheConfig config;
  config.mshrs = 2;
  config.ports = 8;
  ScriptedPort lower;
  Cache cache(config, &lower);
  std::vector<uint64_t> responses;
  cache.set_response_handler([&](uint64_t id, bool) { responses.push_back(id); });
  cache.tick(0);
  cache.send(MemRequest{.id = 1, .addr = 0x1000});
  cache.send(MemRequest{.id = 2, .addr = 0x1004});  // same line: merges
  EXPECT_EQ(cache.stats().mshr_merges, 1u);
  cache.tick(1);
  ASSERT_EQ(lower.sent.size(), 1u);
  lower.respond(lower.sent[0].id);
  EXPECT_EQ(responses, (std::vector<uint64_t>{1, 2}));

  cache.flush();  // the line is gone, its freed MSHR still names it
  cache.tick(2);
  cache.send(MemRequest{.id = 3, .addr = 0x1008});
  EXPECT_EQ(cache.stats().mshr_merges, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  cache.tick(3);
  ASSERT_EQ(lower.sent.size(), 2u);  // a new fill, not a merge
  EXPECT_EQ(lower.sent[1].addr, 0x1000u);
  cache.send(MemRequest{.id = 4, .addr = 0x100C});  // live again: merges
  EXPECT_EQ(cache.stats().mshr_merges, 2u);
  lower.respond(lower.sent[1].id);
  EXPECT_EQ(responses, (std::vector<uint64_t>{1, 2, 3, 4}));
}

// read_hit() is send()'s hit path without the queued response: the same
// stats, the same LRU order (seen through the next eviction) and the same
// memory profile. On a miss it changes nothing.
TEST(ReadHitTest, MatchesASendHitAndLeavesMissesAlone) {
  CacheConfig config;
  config.size_bytes = 32;  // one set of two ways
  config.ways = 2;
  config.ports = 1;
  const auto run = [&](bool use_read_hit) {
    Harness h(config);
    h.cache.enable_memprof();
    h.send(1, 0x100);
    h.send(2, 0x200);
    h.drain_until(2);
    h.tick();
    EXPECT_TRUE(h.cache.can_accept());
    const MemRequest hit{.id = 3, .addr = 0x104, .pc = 0x80};
    if (use_read_hit) {
      EXPECT_TRUE(h.cache.read_hit(hit));
      // The hit took this cycle's only port, as a send() would.
      EXPECT_FALSE(h.cache.can_accept());
    } else {
      h.cache.send(hit);
    }
    h.tick(4);  // a send() hit has matured by now
    EXPECT_EQ(h.responses.size(), use_read_hit ? 2u : 3u);
    const MemStats before = h.cache.stats();
    EXPECT_FALSE(h.cache.read_hit(MemRequest{.id = 4, .addr = 0x300}));
    EXPECT_TRUE(h.cache.stats() == before);
    EXPECT_TRUE(h.cache.can_accept());
    EXPECT_FALSE(h.cache.has_unsent());
    // 0x100 was touched last, so the miss on 0x300 evicts 0x200.
    h.send(5, 0x300);
    h.drain_until(use_read_hit ? 3 : 4);
    h.tick(4);
    h.send(6, 0x100);
    h.drain_until(use_read_hit ? 4 : 5);
    return std::pair{h.cache.stats(), h.cache.memprof_snapshot(h.cycle)};
  };
  const auto [send_stats, send_prof] = run(false);
  const auto [hit_stats, hit_prof] = run(true);
  EXPECT_TRUE(send_stats == hit_stats);
  EXPECT_EQ(hit_stats.hits, 2u);  // the probe and the final 0x100
  EXPECT_EQ(hit_stats.evictions, 1u);
  EXPECT_EQ(send_prof.accesses, hit_prof.accesses);
  EXPECT_EQ(send_prof.misses, hit_prof.misses);
  EXPECT_EQ(send_prof.cold, hit_prof.cold);
  EXPECT_TRUE(send_prof.classes == hit_prof.classes);
  EXPECT_EQ(send_prof.reuse, hit_prof.reuse);
  EXPECT_EQ(send_prof.by_tag, hit_prof.by_tag);
  EXPECT_EQ(send_prof.mshr_cycles, hit_prof.mshr_cycles);
}

// The event-gated tick on a multi-channel DRAM: requests sent after a run
// of idle ticks mature on the cycle the latency and per-channel queueing
// give, next_event_cycle names the earliest of them, and a cycle's
// acceptance counts do not leak into the next cycle's service delays.
TEST(DramTest, EventGateKeepsMaturityAfterIdleTicks) {
  DramModel dram(DramConfig::hbm2());
  const uint32_t latency = DramConfig::hbm2().latency;
  std::vector<std::pair<uint64_t, uint64_t>> done;  // (id, cycle)
  uint64_t cycle = 0;
  dram.set_response_handler([&](uint64_t id, bool) { done.emplace_back(id, cycle); });
  for (; cycle < 50; ++cycle) dram.tick(cycle);
  EXPECT_EQ(dram.next_event_cycle(), kNoEvent);
  const uint64_t t0 = cycle - 1;  // last ticked cycle
  // Channel = line index % 8: lines 0 and 8 share channel 0, line 3 is alone.
  dram.send(MemRequest{.id = 1, .addr = 0 * kLineBytes});
  dram.send(MemRequest{.id = 2, .addr = 8 * kLineBytes});
  dram.send(MemRequest{.id = 3, .addr = 3 * kLineBytes});
  // Service delay: queued ahead + accepted this cycle, one per cycle.
  EXPECT_EQ(dram.next_event_cycle(), t0 + latency + 1);
  dram.tick(cycle++);
  dram.send(MemRequest{.id = 4, .addr = 16 * kLineBytes});  // channel 0, 2 queued
  const uint64_t t1 = cycle - 1;
  EXPECT_EQ(dram.next_event_cycle(), t0 + latency + 1);
  while (done.size() < 4 && cycle < 1000) {
    const uint64_t predicted = dram.next_event_cycle();
    const size_t before = done.size();
    dram.tick(cycle);
    if (done.size() > before) {
      EXPECT_EQ(cycle, predicted);
    }
    ++cycle;
  }
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {1, t0 + latency + 1}, {3, t0 + latency + 1}, {2, t0 + latency + 3},
      {4, t1 + latency + 3}};
  EXPECT_EQ(done, expected);
  EXPECT_EQ(dram.next_event_cycle(), kNoEvent);
}

TEST(RingTest, WrapAndGrowthKeepFifoOrder) {
  Ring<uint32_t> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  uint32_t next_in = 0, next_out = 0;
  // Wrap the head around a few times at a steady depth of 3.
  for (int i = 0; i < 3; ++i) ring.push_back(next_in++);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
    ring.push_back(next_in++);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  // Grow while wrapped: order survives each doubling.
  for (int i = 0; i < 20; ++i) ring.push_back(next_in++);
  EXPECT_EQ(ring.capacity(), 32u);
  EXPECT_EQ(ring.size(), next_in - next_out);
  while (!ring.empty()) {
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  ring.push_back(99);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  Ring<uint32_t> lazy;  // no capacity reserved: grows on the first push
  lazy.push_back(5);
  EXPECT_EQ(lazy.front(), 5u);
}

TEST(MemStatsTest, EqualityOperator) {
  MemStats a, b;
  EXPECT_TRUE(a == b);
  a.hits = 3;
  EXPECT_FALSE(a == b);
  b.hits = 3;
  EXPECT_TRUE(a == b);
}

TEST(StackDistanceTest, ColdThenExactDistances) {
  StackDistance sd;
  EXPECT_EQ(sd.access(1), StackDistance::kCold);
  EXPECT_EQ(sd.access(2), StackDistance::kCold);
  EXPECT_EQ(sd.access(3), StackDistance::kCold);
  EXPECT_EQ(sd.access(1), 2u);  // lines 2 and 3 touched since
  EXPECT_EQ(sd.access(1), 0u);  // back-to-back reuse
  EXPECT_EQ(sd.access(3), 1u);  // only line 1 touched since
  EXPECT_EQ(sd.distinct_lines(), 3u);
}

TEST(StackDistanceTest, CompactionPreservesDistances) {
  // 900+ accesses over 3 lines exhaust the initial timestamp space several
  // times; distances must survive every in-place compaction.
  StackDistance sd;
  sd.access(10);
  sd.access(20);
  sd.access(30);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(sd.access(10), 2u) << "round " << i;
    ASSERT_EQ(sd.access(20), 2u) << "round " << i;
    ASSERT_EQ(sd.access(30), 2u) << "round " << i;
  }
  EXPECT_EQ(sd.distinct_lines(), 3u);
}

TEST(ReuseBucketTest, Log2BucketsWithSaturation) {
  EXPECT_EQ(reuse_bucket(0), 0u);
  EXPECT_EQ(reuse_bucket(1), 1u);
  EXPECT_EQ(reuse_bucket(2), 2u);
  EXPECT_EQ(reuse_bucket(3), 2u);
  EXPECT_EQ(reuse_bucket(4), 3u);
  EXPECT_EQ(reuse_bucket(1023), 10u);
  EXPECT_EQ(reuse_bucket(1024), 11u);
  EXPECT_EQ(reuse_bucket(~0ull >> 1), kReuseBuckets - 1);
}

TEST(CacheProfilerTest, ThreeCClassification) {
  CacheProfiler prof(4);  // shadow FA-LRU capacity: 4 lines
  EXPECT_EQ(prof.on_access(0, 0, true), MissClass::kCompulsory);
  EXPECT_EQ(prof.on_access(1, 0, true), MissClass::kCompulsory);
  // Distance 1 < 4: a same-size fully-associative cache would have hit.
  EXPECT_EQ(prof.on_access(0, 0, true), MissClass::kConflict);
  for (uint32_t line = 2; line <= 5; ++line) prof.on_access(line, 0, true);
  // Four distinct lines touched since the last access: distance >= capacity.
  EXPECT_EQ(prof.on_access(0, 0, true), MissClass::kCapacity);
  const CacheMemProfile p = prof.snapshot(0);
  EXPECT_EQ(p.classes.total(), p.misses);
  EXPECT_EQ(p.reuse_total(), p.accesses);
  EXPECT_EQ(p.classes.compulsory, 6u);
  EXPECT_EQ(p.classes.conflict, 1u);
  EXPECT_EQ(p.classes.capacity, 1u);
}

// The tentpole's exact-sum contracts against a real timed cache:
// compulsory + capacity + conflict == misses == MemStats::misses,
// cold + reuse histogram == accesses == hits + misses, and the by_tag
// attribution partitions the aggregate classes exactly.
TEST(CacheProfilerTest, ExactSumContractsMatchCacheStats) {
  CacheConfig config;
  config.size_bytes = 256;  // 16 lines: small enough to evict under the stream
  config.ways = 2;
  config.mshrs = 4;
  Harness h(config);
  h.cache.enable_memprof();
  ASSERT_TRUE(h.cache.memprof_enabled());
  uint32_t addr = 0x40;
  for (int i = 0; i < 300; ++i) {
    addr = addr * 1664525u + 1013904223u;
    h.send(static_cast<uint64_t>(i), addr % 4096, (i % 5) == 0);
    if (i % 3 == 0) h.tick(2);
  }
  h.drain_until(300);
  const CacheMemProfile p = h.cache.memprof_snapshot(h.cycle);
  EXPECT_EQ(p.misses, h.cache.stats().misses);
  EXPECT_EQ(p.classes.total(), p.misses);
  EXPECT_EQ(p.accesses, h.cache.stats().hits + h.cache.stats().misses);
  EXPECT_EQ(p.reuse_total(), p.accesses);
  EXPECT_GT(p.classes.conflict + p.classes.capacity, 0u);  // stream evicts
  MissClasses by_tag_sum;
  for (const auto& [tag, cls] : p.by_tag) by_tag_sum += cls;
  EXPECT_EQ(by_tag_sum, p.classes);
  // Time-weighted MSHR occupancy accounts for every cycle of the run.
  uint64_t occupancy_cycles = 0;
  for (const uint64_t c : p.mshr_cycles) occupancy_cycles += c;
  EXPECT_EQ(occupancy_cycles, h.cycle);
}

TEST(CacheProfilerTest, MergedMissInheritsPrimaryClass) {
  Harness h;
  h.cache.enable_memprof();
  while (!h.cache.can_accept()) h.tick();
  h.cache.send(MemRequest{.id = 1, .addr = 0x2000, .is_write = false, .pc = 0x100});
  h.tick();
  while (!h.cache.can_accept()) h.tick();
  h.cache.send(MemRequest{.id = 2, .addr = 0x2008, .is_write = false, .pc = 0x104});
  h.drain_until(2);
  ASSERT_EQ(h.cache.stats().mshr_merges, 1u);
  const CacheMemProfile p = h.cache.memprof_snapshot(h.cycle);
  EXPECT_EQ(p.misses, h.cache.stats().misses);
  // The secondary miss rides the primary's fill: it must inherit the
  // compulsory class, not be re-classified as a distance-0 conflict.
  EXPECT_EQ(p.classes.compulsory, 2u);
  EXPECT_EQ(p.classes.conflict, 0u);
  ASSERT_EQ(p.by_tag.size(), 2u);
  EXPECT_EQ(p.by_tag.at(0x100).compulsory, 1u);
  EXPECT_EQ(p.by_tag.at(0x104).compulsory, 1u);
}

TEST(CacheProfilerTest, ResetStatsClearsProfile) {
  Harness h;
  h.cache.enable_memprof();
  h.send(1, 0x1000);
  h.drain_until(1);
  h.cache.reset_stats();
  const CacheMemProfile p = h.cache.memprof_snapshot(h.cycle);
  EXPECT_EQ(p.accesses, 0u);
  EXPECT_EQ(p.misses, 0u);
  EXPECT_EQ(p.by_tag.size(), 0u);
}

TEST(ShadowCacheSimTest, ClassifiesConflictInDirectMappedStore) {
  ShadowCacheSim sim(4, 1);  // 4 sets, direct-mapped; shadow capacity 4 lines
  sim.access(0, 7);
  sim.access(4, 8);  // same set (4 % 4 == 0) evicts line 0 from the store
  sim.access(0, 7);  // distance 1 < 4: the FA shadow still holds it -> conflict
  const CacheMemProfile p = sim.profile();
  EXPECT_EQ(p.accesses, 3u);
  EXPECT_EQ(p.misses, 3u);
  EXPECT_EQ(p.classes.compulsory, 2u);
  EXPECT_EQ(p.classes.conflict, 1u);
  EXPECT_EQ(p.by_tag.at(7).conflict, 1u);
}

TEST(ShadowCacheSimTest, HitsAreNotMisclassified) {
  ShadowCacheSim sim(16, 2);
  sim.access(1, 0);
  sim.access(1, 0);  // hit: counted as an access, never as a miss
  const CacheMemProfile p = sim.profile();
  EXPECT_EQ(p.accesses, 2u);
  EXPECT_EQ(p.misses, 1u);
  EXPECT_EQ(p.reuse_total(), 2u);
}

TEST(DramTest, MemprofCountsRequestsAndOccupancyPerChannel) {
  DramModel dram(DramConfig{"test", 5, 2, 1, 32});  // 2 channels
  dram.enable_memprof();
  dram.set_trace_id(3);  // distinct counter-track name per cluster
  int responses = 0;
  dram.set_response_handler([&](uint64_t, bool) { ++responses; });
  uint64_t cycle = 0;
  dram.tick(cycle);
  int sent = 0;
  while (responses < 8 && cycle < 500) {
    if (sent < 8 && dram.can_accept()) {
      dram.send(MemRequest{.id = static_cast<uint64_t>(sent),
                           .addr = static_cast<uint32_t>(sent * 16),
                           .is_write = (sent % 2) == 1});
      ++sent;
    }
    dram.tick(++cycle);
  }
  ASSERT_EQ(responses, 8);
  const DramMemProfile p = dram.memprof_snapshot(cycle);
  ASSERT_EQ(p.channels.size(), 2u);
  EXPECT_EQ(p.total_requests(), 8u);
  // Line-interleaved addresses split evenly across the two channels.
  EXPECT_EQ(p.channels[0].requests(), 4u);
  EXPECT_EQ(p.channels[1].requests(), 4u);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);
  uint64_t busy = 0;
  for (const auto& ch : p.channels) busy += ch.busy_cycles();
  EXPECT_GT(busy, 0u);
}

}  // namespace
}  // namespace fgpu::mem

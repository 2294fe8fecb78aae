#include "vortex/cluster.hpp"

#include <algorithm>
#include <bit>

#include "trace/trace.hpp"

namespace fgpu::vortex {
namespace {

void add_histogram(std::vector<uint64_t>& into, const std::vector<uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

void add_stats(mem::MemStats& into, const mem::MemStats& from) {
  into.reads += from.reads;
  into.writes += from.writes;
  into.hits += from.hits;
  into.misses += from.misses;
  into.evictions += from.evictions;
  into.writebacks += from.writebacks;
  into.mshr_merges += from.mshr_merges;
  into.stall_rejects += from.stall_rejects;
}

// Marks cores [0, n) awake: one mask word per 64 cores.
void set_all_awake(std::vector<uint64_t>& words, uint32_t n) {
  words.assign((n + 63) / 64, ~0ull);
  if (n % 64 != 0) words.back() = (1ull << (n % 64)) - 1;
}

}  // namespace

Cluster::Cluster(const Config& config, mem::MainMemory& gmem, EcallHandler ecall_handler)
    : config_(config), gmem_(gmem), dram_(config.dram), l2_(config.l2, &dram_), noc_(&l2_) {
  l2_.set_trace_id(0);
  dram_.set_trace_id(0);
  if (config_.memprof) {
    l2_.enable_memprof();
    dram_.enable_memprof();
  }
  cores_.reserve(config_.cores);
  stall_track_names_.reserve(config_.cores);
  for (uint32_t c = 0; c < config_.cores; ++c) {
    cores_.push_back(std::make_unique<Core>(config_, c, gmem_, *noc_.new_port(), *noc_.new_port(),
                                            ecall_handler));
    cores_.back()->l1d().set_trace_id(c);
    cores_.back()->l1i().set_trace_id(c);
    stall_track_names_.push_back("stalls.c" + std::to_string(c));
  }
  set_all_awake(awake_, config_.cores);
  // Each core owns two consecutive interconnect endpoints (data and
  // instruction). A response about to reach either L1 wakes a sleeping
  // core first, so its slept cycles are charged against the frozen state —
  // stale responses and writeback acks included.
  noc_.set_delivery_hook([this](uint32_t port) {
    Core& core = *cores_[port / 2];
    if (core.asleep()) wake(core);
  });
}

void Cluster::hard_reset() {
  cycle_ = 0;
  asleep_ = 0;
  set_all_awake(awake_, num_cores());
  next_wake_ = kNoWake;
  work_ = HostWork{};
  l2_.reset();
  dram_.reset();
  noc_.reset();
  for (auto& core : cores_) core->hard_reset();
}

void Cluster::reset(uint32_t entry_pc) {
  // The clock restarts at 0, so no response may stay queued with a ready
  // cycle of the launch that ended: the queues drain from the front, and
  // one such entry would hold back every later response until the new
  // clock reached it. Deliver them now, bottom-up: writeback acks reach L1s
  // that ignore them, fills free their MSHRs, and every delivery frees its
  // interconnect route. Each core drops its own L1 hit responses.
  dram_.drain();
  l2_.drain_hits();
  cycle_ = 0;
  asleep_ = 0;
  set_all_awake(awake_, num_cores());
  next_wake_ = kNoWake;
  work_ = HostWork{};
  l2_.flush();
  l2_.reset_stats();
  dram_.reset_stats();
  for (auto& core : cores_) core->reset(entry_pc);
}

bool Cluster::busy() const {
  for (const auto& core : cores_) {
    if (core->busy()) return true;
  }
  return false;
}

template <typename Fn>
void Cluster::for_each_awake(Fn&& fn) {
  for (size_t word = 0; word < awake_.size(); ++word) {
    for (uint64_t m = awake_[word]; m != 0; m &= m - 1) {
      fn(*cores_[word * 64 + static_cast<size_t>(std::countr_zero(m))]);
    }
  }
}

void Cluster::tick() {
  if constexpr (trace::kEnabled) {
    if ((cycle_ & (trace::kCounterBucketCycles - 1)) == 0) trace_counters();
  }
  ++work_.cluster_ticks;
  // Wake the cores whose own next event is due, and clear the progress
  // flags of the awake ones before anything can deliver a response (memory
  // responses count as progress).
  if (next_wake_ <= cycle_) wake_due();
  for_each_awake([](Core& core) { core.begin_tick(); });
  // Bottom-up so responses ripple one level per cycle. A response for a
  // sleeping core wakes it on the way (see the interconnect hook). The L2
  // releases MSHRs only on DRAM fills, i.e. inside dram_.tick: a core
  // whose L1s were refused by the full L2 wakes right after, before any L1
  // of this cycle is ticked.
  const bool l2_was_full = l2_.full();
  dram_.tick(cycle_);
  if (l2_was_full && asleep_ > 0 && !l2_.full()) wake_capacity_blocked();
  l2_.tick(cycle_);
  for_each_awake([this](Core& core) { core.tick_caches(cycle_); });
  for_each_awake([this](Core& core) {
    core.tick_logic(cycle_);
    ++work_.core_ticks;
  });
  ++cycle_;
}

void Cluster::wake(Core& core) {
  work_.core_ticks_slept += core.wake(cycle_);
  awake_[core.id() / 64] |= 1ull << (core.id() % 64);
  --asleep_;
}

void Cluster::wake_all() {
  for (auto& core : cores_) {
    if (core->asleep()) wake(*core);
  }
}

// Wakes the sleeping cores whose own next event is due and recomputes the
// earliest wake-up of the ones left asleep.
void Cluster::wake_due() {
  next_wake_ = kNoWake;
  for (auto& core : cores_) {
    if (!core->asleep()) continue;
    if (core->wake_at() <= cycle_) {
      wake(*core);
    } else {
      next_wake_ = std::min(next_wake_, core->wake_at());
    }
  }
}

// The L2 just left the full state. A sleeping core whose L1 still holds
// unsent traffic fell asleep while the L2 refused it; every retry until
// now would have been refused again without changing any state, so waking
// it here, before its L1's tick, reproduces the per-cycle schedule.
void Cluster::wake_capacity_blocked() {
  for (auto& core : cores_) {
    if (core->asleep() && (core->l1d().has_unsent() || core->l1i().has_unsent())) {
      wake(*core);
      ++work_.capacity_wakes;
    }
  }
}

// Per-core sleep (Config::idle_skip). Called after a tick: a core that made
// no progress on that cycle, and whose L1s have nothing due next cycle,
// would repeat the same issue outcome on every cycle until its own next
// event, until a lower-level response reaches one of its L1s, or — when
// its L1s hold traffic the full L2 refuses — until the L2 frees an MSHR.
// It stops being ticked until then; on wake, Core::fast_forward
// bulk-attributes the slept cycles to the stall bucket it charged on the
// base cycle (preserving PerfCounters, the per-PC profile's exact-sum
// contract and the occupancy samples to the cycle; see
// tests/test_fastpath.cpp). When every core is asleep the cluster jumps
// straight to the earliest core wake-up or L2/DRAM event — the same
// mechanism with nothing left to tick.
void Cluster::sleep_idle_cores() {
  // `cycle_` was already advanced past the ticked cycle; components were
  // last ticked at cycle_ - 1 and their queries are relative to that.
  const uint64_t base = cycle_ - 1;
  for_each_awake([&](Core& core) {
    if (core.progressed()) return;
    const uint64_t wake = core.next_wake_cycle(base);
    if (wake <= cycle_) return;  // something due next cycle anyway
    core.sleep(cycle_, wake);
    awake_[core.id() / 64] &= ~(1ull << (core.id() % 64));
    ++asleep_;
    next_wake_ = std::min(next_wake_, wake);
  });
  if (asleep_ < cores_.size()) return;
  uint64_t wake = std::min(dram_.next_event_cycle(), l2_.next_event_cycle());
  for (const auto& core : cores_) wake = std::min(wake, core->wake_at());
  // No known event (e.g. a barrier deadlock): keep per-cycle ticking so the
  // max_cycles guard fires exactly as before.
  if (wake == mem::kNoEvent) return;
  wake = std::min(wake, config_.max_cycles);
  if (wake <= cycle_) return;
  work_.cycles_skipped += wake - cycle_;
  cycle_ = wake;
}

// Per-bucket stall-attribution samples: one cumulative counter track per
// core, broken down by the issue-stage bubble reasons behind the paper's
// Fig. 7 analysis. Counter values are running totals; the slope in the
// trace viewer is the per-bucket stall rate.
void Cluster::trace_counters() const {
  trace::Sink* sink = trace::current();
  if (sink == nullptr) return;
  for (uint32_t c = 0; c < num_cores(); ++c) {
    const PerfCounters& perf = cores_[c]->perf();
    const uint64_t total = perf.stall_scoreboard + perf.stall_lsu + perf.stall_fu +
                           perf.stall_ibuffer + perf.stall_barrier + perf.idle_cycles;
    if (total == 0 && cycle_ != 0) continue;
    // Interned: the sink may outlive this cluster (the suite runner exports
    // after the devices are destroyed).
    sink->counter(sink->intern(stall_track_names_[c]), c, cycle_,
                  {{"scoreboard", perf.stall_scoreboard},
                   {"lsu", perf.stall_lsu},
                   {"fu", perf.stall_fu},
                   {"ibuffer", perf.stall_ibuffer},
                   {"barrier", perf.stall_barrier},
                   {"idle", perf.idle_cycles}});
  }
}

ClusterStats Cluster::collect_stats() const {
  ClusterStats stats;
  for (const auto& core : cores_) {
    PerfCounters perf = core->perf();
    perf.cycles = cycle_;
    stats.perf.accumulate(perf);
    add_stats(stats.l1d, core->l1d().stats());
    add_stats(stats.l1i, core->l1i().stats());
  }
  add_stats(stats.l2, l2_.stats());
  add_stats(stats.dram, dram_.stats());
  stats.dram_bytes = dram_.bytes_read() + dram_.bytes_written();
  stats.work = work_;
  return stats;
}

mem::MemHierarchyProfile Cluster::collect_mem_profile() const {
  mem::MemHierarchyProfile profile;
  if (!config_.memprof) return profile;
  profile.enabled = true;
  // Open time-weighted intervals (MSHR occupancy, DRAM queue depth) close
  // at the final simulated cycle.
  for (const auto& core : cores_) {
    profile.l1d.merge(core->l1d().memprof_snapshot(cycle_));
    profile.l1i.merge(core->l1i().memprof_snapshot(cycle_));
  }
  profile.l2 = l2_.memprof_snapshot(cycle_);
  profile.dram = dram_.memprof_snapshot(cycle_);
  return profile;
}

PcProfile Cluster::collect_profile() const {
  PcProfile profile;
  if (!config_.profile) return profile;
  for (const auto& core : cores_) {
    profile.merge(core->profile());
    add_histogram(profile.l1d_set_conflicts, core->l1d().set_conflicts());
  }
  profile.l2_set_conflicts = l2_.set_conflicts();
  return profile;
}

Result<ClusterStats> Cluster::run(uint32_t entry_pc) {
  reset(entry_pc);
  // Sleeping is bypassed while a trace sink is active: the per-cycle
  // counter tracks sample every core on a cycle grid sleep would freeze.
  const bool sleep = config_.idle_skip && trace::current() == nullptr;
  while (busy()) {
    tick();
    if (sleep) sleep_idle_cores();
    if (cycle_ >= config_.max_cycles) {
      wake_all();
      return Result<ClusterStats>(ErrorKind::kRuntimeError,
                                  "kernel exceeded max_cycles=" + std::to_string(config_.max_cycles) +
                                      " (possible deadlock or runaway loop)");
    }
  }
  // Cores that finished early sleep out the run; charge their idle cycles.
  wake_all();
  return collect_stats();
}

}  // namespace fgpu::vortex

// Set-associative, write-back, write-allocate cache with MSHRs.
// Used for the per-core L1 instruction/data caches and the shared L2 of
// the soft-GPU cluster. (The HLS executor's burst-coalesced LSU is an
// analytical timing model with no timed cache; its read path is profiled
// through mem::ShadowCacheSim instead — see memprof.hpp.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "mem/memprof.hpp"
#include "mem/ring.hpp"
#include "mem/timing.hpp"

namespace fgpu::mem {

struct CacheConfig {
  std::string name = "l1d";
  uint32_t size_bytes = 16 * 1024;
  uint32_t ways = 4;
  uint32_t hit_latency = 2;   // cycles from accept to hit response
  uint32_t mshrs = 8;         // outstanding distinct miss lines
  uint32_t ports = 1;         // requests accepted per cycle

  uint32_t num_lines() const { return size_bytes / kLineBytes; }
  uint32_t num_sets() const { return num_lines() / ways; }
};

class Cache final : public MemPort {
 public:
  // Fill request ids carry their MSHR index in this many low bits, so a
  // cache has at most 2^kFillSlotBits MSHRs (SlotMask::kSlots).
  static constexpr uint32_t kFillSlotBits = 8;

  // `lower` is the next level (L2 or DRAM); not owned.
  Cache(CacheConfig config, MemPort* lower);

  bool can_accept() const override;
  // Every MSHR allocated: refuses all sends until a fill response (the
  // only place an MSHR is released) arrives from the lower level.
  bool full() const override { return mshr_used_ >= config_.mshrs; }
  void send(const MemRequest& req) override;
  // Accepts a read of a resident line with send()'s exact effects on the
  // port count, stats, LRU order and memory profiler, but queues no hit
  // response: the caller delivers it itself hit_latency cycles later (the
  // core does so for L1I hits). Returns false with no side effect when the
  // line is not resident; the caller then send()s the request. A resident
  // line never has an MSHR (only its own fill installs it, and that fill
  // frees the MSHR), so skipping send()'s merge check is exact. Call only
  // when can_accept().
  bool read_hit(const MemRequest& req);
  void set_response_handler(ResponseHandler handler) override { handler_ = std::move(handler); }
  void tick(uint64_t cycle) override;

  // Earliest future cycle (> the last ticked cycle) at which this cache has
  // work to do on its own: a queued hit response maturing, or unsent
  // lower-level traffic (writebacks / MSHR fills) to retry. kNoEvent when
  // it is quiescent apart from responses owed by the lower level — and
  // when its unsent traffic waits on a full() lower level, whose freeing
  // event the owner watches instead (Cluster::tick).
  uint64_t next_event_cycle() const;
  // Writebacks or MSHR fills not yet accepted by the lower level.
  bool has_unsent() const { return !writeback_queue_.empty() || mshr_unsent_.any(); }

  const CacheConfig& config() const { return config_; }
  const MemStats& stats() const { return stats_; }
  // Evictions per set (the profiler's cache-conflict histogram: a hot set
  // with many evictions marks addresses fighting over the same ways).
  const std::vector<uint64_t>& set_conflicts() const { return set_conflicts_; }
  void reset_stats() {
    stats_ = MemStats{};
    std::fill(set_conflicts_.begin(), set_conflicts_.end(), 0ull);
    trace_last_total_ = 0;
    if (profiler_) profiler_->reset();
    mshr_profile_dirty_ = false;
  }

  // Turns on the memory-hierarchy profiler (miss classification, reuse
  // distances, MSHR occupancy — see memprof.hpp). Runtime opt-in: when off
  // (the default) the access path pays one null-pointer test and never
  // allocates.
  void enable_memprof() {
    if (!profiler_) profiler_ = std::make_unique<CacheProfiler>(config_.num_lines());
  }
  bool memprof_enabled() const { return profiler_ != nullptr; }
  // Profile snapshot with the open MSHR-occupancy interval closed at
  // `final_cycle`. Empty profile when profiling is off.
  CacheMemProfile memprof_snapshot(uint64_t final_cycle) const {
    return profiler_ ? profiler_->snapshot(final_cycle) : CacheMemProfile{};
  }

  // Names this cache's counter track in exported traces ("l1d.c2"). The
  // owning core/cluster sets this once; caches sharing a config name (one
  // L1D per core) stay distinguishable in the viewer.
  void set_trace_id(uint32_t tid) {
    trace_tid_ = tid;
    trace_name_ = config_.name + ".c" + std::to_string(tid);
  }

  // Invalidates all lines (kernel-launch boundary).
  void flush();
  // Delivers every queued hit response now, in FIFO order (kernel-launch
  // boundary: their ready cycles belong to the clock of the launch that
  // ended).
  void drain_hits();

  // Full return to construction-time state: flush() + reset_stats() plus
  // everything the per-launch path leaves behind — pending hit responses,
  // queued writebacks, MSHR allocations, request-id state and internal
  // clocks. After reset() the cache is indistinguishable from a freshly
  // constructed one (the device-reuse contract, DESIGN.md "Device
  // lifecycle"); memprof enablement is configuration, not state, and
  // survives. No allocation is released — capacity stays warm for reuse.
  void reset();

 private:
  struct LineState {
    uint32_t tag = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t lru = 0;
  };
  // One miss line in flight. Whether a slot is allocated, and whether its
  // fill is still unsent, lives in mshr_live_ / mshr_unsent_.
  struct Mshr {
    uint32_t line_addr = 0;  // line index (addr >> kLineShift)
    // Request id of the fill in flight: its low kFillSlotBits hold this
    // MSHR's index, the sequence above them rejects stale responses.
    uint64_t fill_id = 0;
    // Miss class of the primary (allocating) miss; merged requests inherit
    // it so the exact-sum contract holds without re-classifying.
    uint8_t miss_class = 0;
    std::vector<MemRequest> waiters;
  };
  struct PendingResponse {
    MemRequest req;
    uint64_t ready_cycle;
  };

  // Sets are a power of two (power-of-two size, ways dividing the lines).
  uint32_t set_of(uint32_t line_addr) const { return line_addr & set_mask_; }
  uint32_t tag_of(uint32_t line_addr) const { return line_addr >> set_shift_; }
  LineState* lookup(uint32_t line_addr);
  // Counts a hit on resident `line` and makes it most recently used.
  void touch_hit(LineState* line, uint32_t line_addr, const MemRequest& req);
  // The allocated MSHR for `line_addr`, or null.
  Mshr* find_mshr(uint32_t line_addr);
  void install(uint32_t line_addr);
  void on_lower_response(uint64_t id, bool was_write);
  void trace_counters(uint64_t cycle);

  CacheConfig config_;
  uint32_t set_mask_;   // num_sets - 1
  uint32_t set_shift_;  // log2(num_sets)
  MemPort* lower_;
  ResponseHandler handler_;
  std::vector<LineState> lines_;  // [set * ways + way]
  std::vector<Mshr> mshrs_;  // indexed by the fill ids' slot bits
  SlotMask mshr_live_;    // allocated: waiters queued, fill unsent or in flight
  SlotMask mshr_unsent_;  // allocated and still needing to send their fill
  Ring<PendingResponse> hit_queue_;   // hit responses in flight
  Ring<MemRequest> writeback_queue_;  // dirty evictions waiting to go down
  uint64_t now_ = 0;
  uint64_t lru_counter_ = 0;
  uint32_t accepted_this_cycle_ = 0;
  uint32_t mshr_used_ = 0;  // allocated MSHRs (mshr_live_'s population)
  uint64_t next_lower_id_ = 1;  // fill id sequence (above the MSHR index)
  MemStats stats_;
  std::vector<uint64_t> set_conflicts_;  // evictions per set
  std::unique_ptr<CacheProfiler> profiler_;  // null unless enable_memprof()
  // A lower-level response changed mshr_used_ before this cache's tick of
  // that cycle; the occupancy transition is charged at the tick so its
  // timestamp does not depend on idle skipping (see on_lower_response).
  bool mshr_profile_dirty_ = false;

  // Trace hook state (see trace/trace.hpp).
  uint32_t trace_tid_ = 0;
  std::string trace_name_;
  uint64_t trace_last_total_ = 0;
};

}  // namespace fgpu::mem

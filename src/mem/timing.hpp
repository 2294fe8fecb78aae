// Timing interfaces of the memory hierarchy. Components (caches, DRAM)
// exchange line-granular requests; the data itself lives in MainMemory.
// All components are ticked once per simulated cycle, bottom-up (DRAM,
// then L2, then L1s) so that responses ripple upward within a cycle chain
// of at least one cycle per level.
#pragma once

#include <cstdint>
#include <functional>

namespace fgpu::mem {

// Vortex v1's data cache uses 16-byte lines (4 words); the whole on-chip
// hierarchy of the soft GPU model follows suit. Note this makes a fully
// coalesced 16-lane access span 4 lines — the MSHR pressure behind the
// paper's Fig. 7 "LSU stall" behaviour at high thread counts.
constexpr uint32_t kLineBytes = 16;
constexpr uint32_t kLineShift = 4;

inline uint32_t line_of(uint32_t addr) { return addr >> kLineShift; }

// "No pending event" sentinel for next-event-cycle queries (idle skipping:
// the cluster fast-forwards to the minimum next event across components).
constexpr uint64_t kNoEvent = ~0ull;

struct MemRequest {
  uint64_t id = 0;       // requester-chosen token, returned with the response
  uint32_t addr = 0;     // byte address (component aligns to its granularity)
  bool is_write = false;
  // Attribution tag for the memory profiler: the PC of the instruction
  // behind the access (0 when none, e.g. writebacks). Caches propagate the
  // primary waiter's PC on MSHR fills so L2 misses stay attributable.
  uint32_t pc = 0;
};

// A component that accepts memory requests and later answers them through
// a response callback. `can_accept` models port/queue back-pressure.
class MemPort {
 public:
  using ResponseHandler = std::function<void(uint64_t id, bool was_write)>;

  virtual ~MemPort() = default;
  virtual bool can_accept() const = 0;
  // True while the port refuses every send until one of its own events
  // frees capacity (a cache with all MSHRs allocated: only a lower-level
  // fill response releases one). A sender blocked by a full port need not
  // retry before that event; a port that is merely out of per-cycle
  // bandwidth is not full.
  virtual bool full() const = 0;
  virtual void send(const MemRequest& req) = 0;
  virtual void set_response_handler(ResponseHandler handler) = 0;
  virtual void tick(uint64_t cycle) = 0;
};

struct MemStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t mshr_merges = 0;
  uint64_t stall_rejects = 0;  // sends refused due to back-pressure

  bool operator==(const MemStats&) const = default;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

}  // namespace fgpu::mem

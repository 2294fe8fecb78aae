// One SIMT core of the soft GPU: the six-stage in-order pipeline of the
// paper's Fig. 4 (schedule, fetch, decode, issue, execute, commit) modelled
// at cycle level, SimX-style: instructions execute functionally at issue,
// while timing (scoreboard occupancy, FU latency, LSU/cache round trips,
// barriers, IPDOM divergence) is simulated per cycle.
//
// Host-throughput fast path (cycle counts are unaffected, see
// EXPERIMENTS.md "Fast-forward methodology"):
//  * a per-core decode cache (PC -> DecodedInstr) so straight-line refetches
//    skip arch::decode and the issue stage reuses precomputed scoreboard
//    masks instead of re-deriving them from the instruction format;
//  * fixed-capacity ring ibuffers (no per-warp deque allocation churn);
//  * in-flight fetch/LSU responses keyed by request id (warp / queue slot
//    encoded in the low bits) instead of linear side-table scans;
//  * per-warp state bitmasks (active, at-barrier, ibuffer non-empty,
//    fetchable) so issue, fetch, busy() and the occupancy sampler visit only
//    eligible warps, in round-robin order, without a per-warp modulo;
//  * sleep/wake bookkeeping (progressed, next_wake_cycle, sleep/wake) that
//    lets the cluster stop ticking this core, and its L1s, over cycles in
//    which it cannot make progress.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/isa.hpp"
#include "arch/semantics.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "vortex/config.hpp"
#include "vortex/perf.hpp"
#include "vortex/profile.hpp"

namespace fgpu::vortex {

// Host upcall for ECALL (used by the runtime to implement OpenCL printf,
// mirroring the "communication function" challenge in paper §IV-A).
struct EcallRequest {
  uint32_t core_id = 0;
  uint32_t warp_id = 0;
  uint32_t lane = 0;
  uint32_t function = 0;  // a7
  uint32_t arg0 = 0;      // a0
};
using EcallHandler = std::function<void(const EcallRequest&, mem::MainMemory&)>;

// "No pending event" sentinel for next-wake-up queries (matches
// mem::kNoEvent; duplicated to keep the header dependency-light).
inline constexpr uint64_t kNoWake = ~0ull;

class Core {
 public:
  // `l2_data` / `l2_inst` are distinct interconnect endpoints so that data
  // and instruction responses route back to the right L1.
  Core(const Config& config, uint32_t core_id, mem::MainMemory& gmem, mem::MemPort& l2_data,
       mem::MemPort& l2_inst, EcallHandler ecall_handler);

  // Resets all warps; warp 0 starts at `entry_pc` with one active thread
  // (the Vortex boot convention: the startup stub then TMCs/WSPAWNs).
  // Also invalidates the decode cache (the kernel-launch boundary: the
  // runtime rewrites the code region before each run).
  void reset(uint32_t entry_pc);

  // Full return to construction-time state (device-reuse contract; DESIGN.md
  // "Device lifecycle"): everything reset() does, plus the deep L1 state the
  // per-launch path leaves behind (pending responses, MSHRs, id counters)
  // and the memory-request id sequence. Safe only when no traffic is in
  // flight — i.e. between benchmarks, never between the launches of one.
  // Leaves every warp inactive (busy() == false), like a new core.
  void hard_reset();

  // Ticks the core-internal caches (called by the cluster before logic()).
  void tick_caches(uint64_t cycle);
  // One cycle of pipeline logic: writeback, issue, LSU drain, fetch.
  void tick_logic(uint64_t cycle);

  // O(1): an active warp, an occupied LSU slot or a pending writeback.
  bool busy() const {
    return active_mask_ != 0 || lsu_free_ != config_.lsu_queue_depth || !completions_.empty();
  }

  // --- Per-core sleep/wake (see Cluster::sleep_idle_cores) ------------
  // Clears the per-cycle progress flag; the cluster calls this before any
  // component (whose response chains can reach this core) is ticked.
  void begin_tick() { progressed_ = false; }
  // True if this core did anything this cycle that could change the next
  // cycle's behaviour: issued an instruction, initiated a fetch, sent an
  // LSU line request, retired a completion, or received a memory response.
  bool progressed() const { return progressed_; }
  // Earliest cycle (> now) at which this core or one of its L1s has a
  // self-scheduled event: a completion retiring, a non-pipelined FU
  // becoming ready, a hit response maturing or unsent L1 traffic to retry
  // (not while the L2 is full). kNoWake when it is waiting purely on the
  // L2: a response, or an MSHR for its unsent traffic.
  uint64_t next_wake_cycle(uint64_t now) const;

  // Stops ticking this core and its L1s from cycle `from` on, after a cycle
  // in which it made no progress. Its state is frozen until `wake_at` (its
  // own next event), until a lower-level response reaches either L1, or,
  // when an L1 holds traffic the full L2 refused, until the L2 frees an
  // MSHR — whichever comes first.
  void sleep(uint64_t from, uint64_t wake_at) {
    asleep_ = true;
    sleep_from_ = from;
    wake_at_ = wake_at;
  }
  bool asleep() const { return asleep_; }
  uint64_t wake_at() const { return wake_at_; }
  // Ends the sleep at cycle `now`, charging the slept cycles [from, now)
  // through fast_forward(). Must run before anything changes this core's
  // state, so the charged window sees the frozen state. Returns the number
  // of cycles slept.
  uint64_t wake(uint64_t now) {
    asleep_ = false;
    progressed_ = false;
    fast_forward(sleep_from_, now - sleep_from_);
    return now - sleep_from_;
  }

  const PerfCounters& perf() const { return perf_; }
  PerfCounters& perf() { return perf_; }
  // Per-PC issue/stall attribution + occupancy timeline; empty unless
  // Config::profile is set.
  const PcProfile& profile() const { return profile_; }
  mem::Cache& l1d() { return l1d_; }
  mem::Cache& l1i() { return l1i_; }
  mem::MainMemory& local_mem() { return local_mem_; }
  uint32_t id() const { return core_id_; }

  // Debug access for tests.
  uint32_t xreg(uint32_t warp, uint32_t lane, uint32_t index) const;
  uint32_t freg_bits(uint32_t warp, uint32_t lane, uint32_t index) const;
  bool warp_active(uint32_t warp) const { return warps_[warp].active; }
  uint64_t warp_tmask(uint32_t warp) const { return warps_[warp].tmask; }
  // Decode-cache statistics (tests assert cold/warm behaviour).
  uint64_t decode_cache_hits() const { return decode_hits_; }
  uint64_t decode_cache_fills() const { return decode_fills_; }

 private:
  // A decoded instruction plus everything the issue stage needs, computed
  // once at decode time instead of per issue attempt: scoreboard masks
  // (sources + destination, x0 excluded) and the FU routing/latency.
  struct DecodedInstr {
    arch::Instr instr;
    uint32_t need_x = 0;
    uint32_t need_f = 0;
    uint8_t fu = 0;  // arch::FuClass
    bool is_lsu = false;
    bool is_store = false;
    bool rd_at_issue = false;  // rd written at issue, busy for the FU latency
    bool rd_float = false;     // arch::writes_freg
  };

  struct FetchSlot {
    DecodedInstr decoded;
    uint32_t pc;
  };

  // Fixed-capacity ring of decoded instructions awaiting issue. Storage is
  // reserved once per Config::ibuffer_depth (the old per-warp std::deque
  // allocated chunks on every push/pop in the fetch hot loop).
  struct IBuffer {
    std::vector<FetchSlot> slots;
    uint32_t head = 0;
    uint32_t count = 0;

    void init(uint32_t capacity) {
      slots.resize(capacity);
      head = count = 0;
    }
    bool empty() const { return count == 0; }
    bool full() const { return count == static_cast<uint32_t>(slots.size()); }
    uint32_t size() const { return count; }
    const FetchSlot& front() const { return slots[head]; }
    void push(const FetchSlot& slot) {
      uint32_t tail = head + count;
      if (tail >= slots.size()) tail -= static_cast<uint32_t>(slots.size());
      slots[tail] = slot;
      ++count;
    }
    void pop() {
      if (++head == slots.size()) head = 0;
      --count;
    }
    void clear() { head = count = 0; }
  };

  struct Warp {
    bool active = false;
    uint32_t pc = 0;
    uint64_t tmask = 0;
    std::vector<arch::IpdomEntry> ipdom;
    IBuffer ibuffer;
    bool fetch_pending = false;
    uint64_t fetch_id = 0;         // full request id of the in-flight fetch
    uint32_t fetch_pc = 0;
    uint64_t fetch_generation = 0;  // warp generation when the fetch left
    uint64_t generation = 0;        // bumped on redirects to drop stale fetches
    bool at_barrier = false;
    uint32_t barrier_id = 0;
    uint32_t busy_x = 0;  // scoreboard bitmasks
    uint32_t busy_f = 0;

    // Clears execution state but keeps the ibuffer/ipdom storage.
    void reset() {
      active = false;
      pc = 0;
      tmask = 0;
      ipdom.clear();
      ibuffer.clear();
      fetch_pending = false;
      fetch_id = 0;
      fetch_pc = 0;
      fetch_generation = 0;
      generation = 0;
      at_barrier = false;
      barrier_id = 0;
      busy_x = busy_f = 0;
    }
  };

  // A memory instruction in flight in the load-store unit.
  struct LsuEntry {
    bool valid = false;
    uint32_t warp = 0;
    bool is_write = false;
    bool has_rd = false;
    bool writes_float = false;
    uint8_t rd = 0;
    uint32_t pc = 0;  // issuing instruction (memory-profiler attribution)
    uint64_t token = 0;                   // allocation token (stale-response guard)
    std::vector<uint32_t> lines_pending;  // line addresses not yet sent
    uint32_t outstanding = 0;             // responses still expected
  };

  // Deferred scoreboard release (register values are committed at issue).
  struct Completion {
    uint64_t ready_cycle;
    uint32_t warp;
    uint8_t rd;
    bool is_float;
  };

  uint32_t& xr(uint32_t warp, uint32_t lane, uint32_t index) {
    return xregs_[(warp * config_.threads + lane) * 32 + index];
  }
  uint32_t& fr(uint32_t warp, uint32_t lane, uint32_t index) {
    return fregs_[(warp * config_.threads + lane) * 32 + index];
  }

  // Recomputes warp `w`'s bits in the state masks; called after anything
  // changes its active/at_barrier/ibuffer/fetch_pending state.
  void sync_warp(uint32_t w);
  // Bulk-attributes `count` slept cycles [from, from+count) to the stall
  // bucket charged on the last simulated cycle (state is provably frozen
  // over the window, so each slept cycle repeats that attribution), and
  // synthesizes the occupancy samples the profiler would have taken.
  void fast_forward(uint64_t from, uint64_t count);

  void do_writeback(uint64_t cycle);
  void do_issue(uint64_t cycle);
  void do_lsu(uint64_t cycle);
  void do_fetch(uint64_t cycle);

  // Decode via the per-core PC -> DecodedInstr cache; an Op::kInvalid entry
  // for an undecodable word. The pointer stays valid until the next
  // decode_at call (cache growth may reallocate).
  const DecodedInstr* decode_at(uint32_t pc);
  static void fill_issue_metadata(DecodedInstr* d);

  // Returns false if the instruction cannot issue this cycle (structural or
  // data hazard); sets *stall_reason for attribution.
  bool can_issue(const Warp& warp, const DecodedInstr& instr, uint64_t cycle, int* stall_reason);
  // Runs the instruction through the shared ISA semantics (arch/semantics.hpp)
  // and does this tier's bookkeeping: scoreboard, FU readiness, counters.
  void execute(uint32_t warp_id, const FetchSlot& slot, uint64_t cycle);
  template <arch::Op op>
  void execute_lanes(uint32_t warp_id, const arch::Instr& instr, uint32_t pc);
  template <arch::Op op>
  void execute_memory(uint32_t warp_id, const arch::Instr& instr, uint32_t pc, uint64_t cycle);
  void redirect(Warp& warp, uint32_t new_pc);
  void barrier_arrive(uint32_t warp_id, uint32_t id, uint32_t count, uint64_t cycle);

  bool is_local_addr(uint32_t addr) const {
    return addr >= arch::kLocalBase && addr < arch::kLocalBase + arch::kLocalSize;
  }

  const Config& config_;
  uint32_t core_id_;
  mem::MainMemory& gmem_;
  mem::MainMemory local_mem_;  // per-core OpenCL __local scratchpad
  mem::Cache l1d_;
  mem::Cache l1i_;
  EcallHandler ecall_handler_;

  std::vector<Warp> warps_;
  // Warp state masks (bit w = warp w), kept in step by sync_warp().
  uint64_t active_mask_ = 0;
  uint64_t barrier_mask_ = 0;  // active and waiting at a barrier
  uint64_t ready_mask_ = 0;    // active with a buffered instruction
  uint64_t fetch_mask_ = 0;    // active, no fetch in flight, ibuffer not full
  std::vector<uint32_t> xregs_;  // [warp][thread][32]
  std::vector<uint32_t> fregs_;

  std::vector<Completion> completions_;  // unordered; retired by swap-remove
  uint64_t completions_min_ready_ = kNoWake;  // min ready_cycle in completions_
  std::vector<LsuEntry> lsu_queue_;
  uint32_t lsu_free_ = 0;       // entries with valid == false
  std::vector<uint32_t> lines_scratch_;  // execute_memory's line list, swapped into entries
  uint64_t next_mem_id_ = 1;    // never reset: ids stay unique across runs

  // Decode cache: word index (pc - kCodeBase)/4 -> decoded entry. Grows to
  // the highest PC decoded; invalidated wholesale on reset().
  std::vector<DecodedInstr> decode_cache_;
  std::vector<uint8_t> decode_valid_;
  uint64_t decode_hits_ = 0;
  uint64_t decode_fills_ = 0;

  // Per-FU readiness (structural hazards for non-pipelined units).
  uint64_t fu_ready_[8] = {0};
  uint64_t fu_ready_max_ = 0;  // latest fu_ready_ entry (next_wake_cycle bound)

  arch::Barriers barriers_;

  uint32_t issue_rr_ = 0;  // round-robin cursors
  uint32_t fetch_rr_ = 0;
  uint64_t instret_ = 0;

  // Last-cycle issue outcome, for bulk attribution during fast-forward.
  enum class IssueOutcome : uint8_t {
    kIssued, kIdle, kLsu, kScoreboard, kFu, kIbuffer, kBarrier, kNone,
  };
  IssueOutcome last_outcome_ = IssueOutcome::kNone;
  uint32_t last_stall_pc_ = 0;
  bool progressed_ = false;

  // Sleep state (see sleep()/wake()).
  bool asleep_ = false;
  uint64_t sleep_from_ = 0;
  uint64_t wake_at_ = kNoWake;

  PerfCounters perf_;
  PcProfile profile_;

  void sample_occupancy(uint64_t cycle);
};

}  // namespace fgpu::vortex

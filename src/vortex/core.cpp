#include "vortex/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "common/log.hpp"
#include "trace/trace.hpp"

namespace fgpu::vortex {
namespace {

using arch::Instr;
using arch::Op;

constexpr int kStallNone = 0, kStallScoreboard = 1, kStallLsu = 2, kStallFu = 3;

// In-flight request ids encode their routing slot in the low byte (warp
// index for fetches, LSU queue slot for data requests) and a monotonically
// increasing sequence above it, so responses resolve in O(1) and a stale
// response (from before a reset) can never match a recycled slot.
constexpr uint64_t kIdSlotBits = 8;
constexpr uint64_t kIdSlotMask = (1ull << kIdSlotBits) - 1;

// Decode-cache ceiling: PCs past this word index fall back to uncached
// decode (kernels are tiny; this only guards runaway PCs from growing the
// cache unboundedly).
constexpr uint32_t kDecodeCacheMaxWords = 1u << 20;

// Round-robin scheduling over a warp mask: the set bits at or above the
// cursor `start` in ascending order, then the ones below it. `fn` returns
// true to stop the walk.
template <typename Fn>
void for_each_rr(uint64_t mask, uint32_t start, Fn&& fn) {
  const uint64_t high = mask & (~0ull << start);
  for (uint64_t m = high; m != 0; m &= m - 1) {
    if (fn(static_cast<uint32_t>(std::countr_zero(m)))) return;
  }
  for (uint64_t m = mask & ~high; m != 0; m &= m - 1) {
    if (fn(static_cast<uint32_t>(std::countr_zero(m)))) return;
  }
}

// First set bit of a non-empty `mask` in round-robin order from `start`.
uint32_t first_rr(uint64_t mask, uint32_t start) {
  const uint64_t high = mask & (~0ull << start);
  return static_cast<uint32_t>(std::countr_zero(high != 0 ? high : mask));
}

// Ops whose rd is written at issue and released by the scoreboard after
// the unit latency (the LSU releases the destinations it writes itself).
bool writes_rd_at_issue(Op op) {
  return arch::sem::is_lane_op(op) || op == Op::kJal || op == Op::kJalr || op == Op::kCsrrw ||
         op == Op::kCsrrs || op == Op::kCsrrc;
}

// One lane-op operand, read from the lane's register rows.
template <arch::sem::Src src>
uint32_t operand(const uint32_t* x, const uint32_t* f, uint8_t reg, uint32_t imm, uint32_t pc) {
  using arch::sem::Src;
  if constexpr (src == Src::kX) return x[reg];
  if constexpr (src == Src::kF) return f[reg];
  if constexpr (src == Src::kImm) return imm;
  if constexpr (src == Src::kPc) return pc;
  return 0;
}

}  // namespace

Core::Core(const Config& config, uint32_t core_id, mem::MainMemory& gmem, mem::MemPort& l2_data,
           mem::MemPort& l2_inst, EcallHandler ecall_handler)
    : config_(config),
      core_id_(core_id),
      gmem_(gmem),
      l1d_(config.l1d, &l2_data),
      l1i_(config.l1i, &l2_inst),
      ecall_handler_(std::move(ecall_handler)),
      warps_(config.warps),
      xregs_(config.warps * config.threads * 32, 0),
      fregs_(config.warps * config.threads * 32, 0),
      lsu_queue_(config.lsu_queue_depth),
      lsu_free_(config.lsu_queue_depth),
      lsu_unsent_(config.lsu_queue_depth),
      // One fetch per cycle, each maturing after the hit latency.
      fetch_hits_(config.l1i.hit_latency + 1) {
  static_assert((1u << kIdSlotBits) == SlotMask::kSlots);
  assert(config_.warps <= kMaxWarps && "warp index must fit the state masks");
  assert(config_.lsu_queue_depth <= (1u << kIdSlotBits) && "LSU slot must fit the id slot byte");
  for (auto& warp : warps_) warp.ibuffer.init(std::max(1u, config_.ibuffer_depth));
  if (config_.memprof) {
    l1d_.enable_memprof();
    l1i_.enable_memprof();
  }
  l1d_.set_response_handler([this](uint64_t id, bool /*w*/) {
    // O(1): the queue slot is in the id's low byte; the token above it
    // rejects responses addressed to a previous occupant of the slot.
    LsuEntry& entry = lsu_queue_[id & kIdSlotMask];
    if (!entry.valid || entry.token != (id >> kIdSlotBits)) return;  // stale
    assert(entry.outstanding > 0);
    --entry.outstanding;
    progressed_ = true;
    if (entry.outstanding == 0 && entry.lines_pending.empty()) {
      if (entry.has_rd) {
        Warp& warp = warps_[entry.warp];
        if (entry.writes_float) {
          warp.busy_f &= ~(1u << entry.rd);
        } else {
          warp.busy_x &= ~(1u << entry.rd);
        }
      }
      entry.valid = false;
      ++lsu_free_;
    }
  });
  l1i_.set_response_handler([this](uint64_t id, bool /*w*/) { on_fetch_response(id); });
}

void Core::on_fetch_response(uint64_t id) {
  // O(1): the fetching warp is in the id's low byte; the full id must
  // match the warp's in-flight fetch (stale responses never do).
  const uint32_t w = static_cast<uint32_t>(id & kIdSlotMask);
  Warp& warp = warps_[w];
  if (!warp.fetch_pending || warp.fetch_id != id) return;  // stale
  warp.fetch_pending = false;
  progressed_ = true;
  if (warp.generation == warp.fetch_generation && warp.active) {
    warp.ibuffer.push(FetchSlot{*decode_at(warp.fetch_pc), warp.fetch_pc});
  }
  sync_warp(w);
}

void Core::reset(uint32_t entry_pc) {
  for (auto& warp : warps_) warp.reset();
  std::fill(xregs_.begin(), xregs_.end(), 0u);
  std::fill(fregs_.begin(), fregs_.end(), 0u);
  completions_.clear();
  completions_min_ready_ = kNoWake;
  for (auto& entry : lsu_queue_) entry = LsuEntry{};
  lsu_free_ = config_.lsu_queue_depth;
  lsu_unsent_.clear();
  // The runtime rewrites the code region between launches; drop every
  // cached decode (next_mem_id_ is NOT reset, so in-flight responses from a
  // previous run can never match a new request id).
  std::fill(decode_valid_.begin(), decode_valid_.end(), uint8_t{0});
  last_outcome_ = IssueOutcome::kNone;
  last_stall_pc_ = 0;
  progressed_ = false;
  asleep_ = false;
  wake_at_ = kNoWake;
  std::fill(std::begin(fu_ready_), std::end(fu_ready_), 0ull);
  fu_ready_max_ = 0;
  barriers_ = arch::Barriers{};
  issue_rr_ = fetch_rr_ = 0;
  instret_ = 0;
  perf_ = PerfCounters{};
  profile_ = PcProfile{};
  profile_.enabled = config_.profile;
  profile_.occupancy_interval = config_.profile_interval;
  local_mem_.clear();
  // No response of the launch that ended may wait for a ready cycle of its
  // clock (see Cluster::reset); every warp was reset above, so they are
  // all stale.
  fetch_hits_.clear();
  l1d_.drain_hits();
  l1i_.drain_hits();
  l1d_.flush();
  l1i_.flush();
  l1d_.reset_stats();
  l1i_.reset_stats();

  warps_[0].active = true;
  warps_[0].pc = entry_pc;
  warps_[0].tmask = 1;
  active_mask_ = barrier_mask_ = ready_mask_ = fetch_mask_ = 0;
  sync_warp(0);
}

void Core::hard_reset() {
  reset(0);
  // reset() is the launch boundary: it leaves warp 0 armed. A hard reset
  // models a not-yet-launched core, so deactivate it again.
  warps_[0].reset();
  sync_warp(0);
  // With every queue empty across the hierarchy there are no stale in-flight
  // responses to collide with, so the id sequence can restart — giving a
  // reused device the exact request-id stream of a fresh one.
  next_mem_id_ = 1;
  l1d_.reset();
  l1i_.reset();
}

void Core::sync_warp(uint32_t w) {
  const Warp& warp = warps_[w];
  const uint64_t bit = 1ull << w;
  const auto assign = [bit](uint64_t& mask, bool on) { mask = on ? mask | bit : mask & ~bit; };
  assign(active_mask_, warp.active);
  assign(barrier_mask_, warp.active && warp.at_barrier);
  assign(ready_mask_, warp.active && !warp.ibuffer.empty());
  assign(fetch_mask_, warp.active && !warp.fetch_pending &&
                          warp.ibuffer.size() < config_.ibuffer_depth);
}

uint32_t Core::xreg(uint32_t warp, uint32_t lane, uint32_t index) const {
  return xregs_[(warp * config_.threads + lane) * 32 + index];
}
uint32_t Core::freg_bits(uint32_t warp, uint32_t lane, uint32_t index) const {
  return fregs_[(warp * config_.threads + lane) * 32 + index];
}

void Core::redirect(Warp& warp, uint32_t new_pc) {
  warp.pc = new_pc;
  ++warp.generation;
  warp.ibuffer.clear();
}

void Core::barrier_arrive(uint32_t warp_id, uint32_t id, uint32_t count,
                          [[maybe_unused]] uint64_t cycle) {
  Warp& warp = warps_[warp_id];
  warp.at_barrier = true;
  warp.barrier_id = id;
  ++perf_.barriers;
  FGPU_TRACE_INSTANT("barrier_arrive", "warp", core_id_, cycle,
                     {{"warp", warp_id}, {"barrier", id}, {"arrived", barriers_.arrived[id] + 1}});
  if (!arch::sem::barrier_arrive(barriers_, id, count)) return;
  for (uint32_t w = 0; w < config_.warps; ++w) {
    Warp& other = warps_[w];
    if (other.at_barrier && other.barrier_id == id) {
      other.at_barrier = false;
      sync_warp(w);
    }
  }
  FGPU_TRACE_INSTANT("barrier_release", "warp", core_id_, cycle,
                     {{"barrier", id}, {"warps", count}});
}

void Core::tick_caches(uint64_t cycle) {
  l1d_.tick(cycle);
  l1i_.tick(cycle);
  // Where the L1I's own hit queue would deliver them: after the L1 ticks.
  while (!fetch_hits_.empty() && fetch_hits_.front().ready_cycle <= cycle) {
    const uint64_t id = fetch_hits_.front().id;
    fetch_hits_.pop_front();
    on_fetch_response(id);
  }
}

void Core::tick_logic(uint64_t cycle) {
  if (profile_.enabled && cycle % config_.profile_interval == 0) sample_occupancy(cycle);
  do_writeback(cycle);
  do_issue(cycle);
  do_lsu(cycle);
  do_fetch(cycle);
}

// One occupancy-timeline sample: how this core's warp slots are spent.
// "Ready" warps have a decoded instruction buffered and are not barred —
// they may still stall at issue (scoreboard/LSU/FU), which the per-PC
// table attributes; the timeline shows how much parallelism the scheduler
// had available at all (the latency-hiding story behind Fig. 7).
void Core::sample_occupancy(uint64_t cycle) {
  OccupancySample sample;
  sample.cycle = cycle;
  const uint64_t ready = ready_mask_ & ~barrier_mask_;
  sample.ready = static_cast<uint32_t>(std::popcount(ready));
  sample.blocked = static_cast<uint32_t>(std::popcount(active_mask_ & ~ready));
  sample.idle = config_.warps - static_cast<uint32_t>(std::popcount(active_mask_));
  profile_.occupancy.push_back(sample);
}

void Core::do_writeback(uint64_t cycle) {
  // Nothing retires before the cached minimum ready cycle — skip the scan
  // entirely on most cycles (the common case in latency-bound phases).
  if (completions_min_ready_ > cycle) return;
  // Completions are unordered (latencies differ); retire by swap-remove —
  // O(1) per retirement, order-independent since retiring only clears
  // scoreboard bits — recomputing the minimum over the survivors.
  uint64_t min_ready = kNoWake;
  for (size_t i = 0; i < completions_.size();) {
    const Completion& c = completions_[i];
    if (c.ready_cycle <= cycle) {
      Warp& warp = warps_[c.warp];
      if (c.is_float) {
        warp.busy_f &= ~(1u << c.rd);
      } else {
        warp.busy_x &= ~(1u << c.rd);
      }
      progressed_ = true;
      completions_[i] = completions_.back();
      completions_.pop_back();
    } else {
      min_ready = std::min(min_ready, c.ready_cycle);
      ++i;
    }
  }
  completions_min_ready_ = min_ready;
}

// Scoreboard masks and FU routing were precomputed at decode time
// (fill_issue_metadata); the issue hot loop is just mask tests.
bool Core::can_issue(const Warp& warp, const DecodedInstr& d, uint64_t cycle,
                     int* stall_reason) {
  if ((warp.busy_x & d.need_x) != 0 || (warp.busy_f & d.need_f) != 0) {
    *stall_reason = kStallScoreboard;
    return false;
  }
  // Structural hazards.
  if (d.is_lsu) {
    if (lsu_free_ == 0) {
      *stall_reason = kStallLsu;
      return false;
    }
  } else if (fu_ready_[d.fu] > cycle) {
    *stall_reason = kStallFu;
    return false;
  }
  *stall_reason = kStallNone;
  return true;
}

// Derives everything can_issue needs from the instruction format, once per
// decode-cache fill instead of once per issue attempt.
void Core::fill_issue_metadata(DecodedInstr* d) {
  const Instr& instr = d->instr;
  const auto& info = arch::op_info(instr.op);
  uint32_t need_x = 0, need_f = 0;
  auto add = [&](uint8_t reg, bool fp) {
    if (fp) {
      need_f |= (1u << reg);
    } else if (reg != 0) {
      need_x |= (1u << reg);
    }
  };
  switch (info.fmt) {
    case arch::Format::kR:
      add(instr.rs1, arch::reads_freg_rs1(instr.op));
      add(instr.rs2, arch::reads_freg_rs2(instr.op));
      add(instr.rd, arch::writes_freg(instr.op));
      break;
    case arch::Format::kR4:
      add(instr.rs1, true);
      add(instr.rs2, true);
      add(instr.rs3, true);
      add(instr.rd, true);
      break;
    case arch::Format::kI:
    case arch::Format::kIShift:
    case arch::Format::kCsr:
      add(instr.rs1, false);
      add(instr.rd, arch::writes_freg(instr.op));
      break;
    case arch::Format::kS:
      add(instr.rs1, false);
      add(instr.rs2, arch::reads_freg_rs2(instr.op));
      break;
    case arch::Format::kB:
      add(instr.rs1, false);
      add(instr.rs2, false);
      break;
    case arch::Format::kJr:
      add(instr.rs1, false);
      break;
    case arch::Format::kU:
    case arch::Format::kJ:
      add(instr.rd, false);
      break;
    case arch::Format::kAmo:
      add(instr.rs1, false);
      add(instr.rs2, false);
      add(instr.rd, false);
      break;
    case arch::Format::kSys:
      // ECALL reads a0/a7 by convention.
      if (instr.op == Op::kEcall) {
        need_x |= (1u << 10) | (1u << 17);
      }
      break;
  }
  d->need_x = need_x;
  d->need_f = need_f;
  d->fu = static_cast<uint8_t>(info.fu);
  d->is_lsu = info.fu == arch::FuClass::kLsu;
  d->is_store = arch::sem::is_store(instr.op);
  d->rd_at_issue = writes_rd_at_issue(instr.op);
  d->rd_float = arch::writes_freg(instr.op);
}

// Decode through the per-core PC -> DecodedInstr cache. The cache is indexed
// by code-region word offset, grown on demand, and invalidated wholesale at
// reset() (the kernel-launch boundary — the same point the L1I is flushed).
// An undecodable word (sequential fetch runs past a kernel's last
// instruction) decodes, uncached, to Op::kInvalid: it faults only if it
// issues, as on the turbo tier.
const Core::DecodedInstr* Core::decode_at(uint32_t pc) {
  static const DecodedInstr kInvalid{};
  const uint32_t word_index = (pc - arch::kCodeBase) / 4;
  const bool cacheable = pc >= arch::kCodeBase && pc % 4 == 0 &&
                         word_index < kDecodeCacheMaxWords;
  if (cacheable && word_index < decode_cache_.size() && decode_valid_[word_index]) {
    ++decode_hits_;
    return &decode_cache_[word_index];
  }
  const uint32_t word = gmem_.load32(pc);
  auto decoded = arch::decode(word);
  if (!decoded) return &kInvalid;
  if (!cacheable) {
    // Off-region PC (runaway jump): decode into a scratch slot, uncached.
    static thread_local DecodedInstr scratch;
    scratch = DecodedInstr{};
    scratch.instr = *decoded;
    fill_issue_metadata(&scratch);
    return &scratch;
  }
  if (word_index >= decode_cache_.size()) {
    decode_cache_.resize(word_index + 1);
    decode_valid_.resize(word_index + 1, 0);
  }
  DecodedInstr& entry = decode_cache_[word_index];
  entry = DecodedInstr{};
  entry.instr = *decoded;
  fill_issue_metadata(&entry);
  decode_valid_[word_index] = 1;
  ++decode_fills_;
  return &entry;
}

void Core::do_issue(uint64_t cycle) {
  if (active_mask_ == 0) {
    ++perf_.idle_cycles;
    last_outcome_ = IssueOutcome::kIdle;
    last_stall_pc_ = 0;
    return;
  }
  bool saw_scoreboard = false, saw_lsu = false, saw_fu = false;
  // First warp (in round-robin order) blocked for each reason; a bubble
  // cycle is charged to exactly one of these PCs — the same single bucket
  // the aggregate counters use — so per-PC sums match PerfCounters exactly.
  uint32_t scoreboard_pc = 0, lsu_pc = 0, fu_pc = 0;
  int32_t issued = -1;
  // Only warps with a buffered instruction and no barrier can issue.
  for_each_rr(ready_mask_ & ~barrier_mask_, issue_rr_, [&](uint32_t w) {
    int reason = kStallNone;
    const FetchSlot& head = warps_[w].ibuffer.front();
    if (can_issue(warps_[w], head.decoded, cycle, &reason)) {
      issued = static_cast<int32_t>(w);
      return true;
    }
    if (reason == kStallScoreboard && !saw_scoreboard) scoreboard_pc = head.pc;
    if (reason == kStallFu && !saw_fu) fu_pc = head.pc;
    saw_scoreboard |= reason == kStallScoreboard;
    saw_fu |= reason == kStallFu;
    if (reason != kStallLsu) return false;
    if (!saw_lsu) lsu_pc = head.pc;
    saw_lsu = true;
    // The LSU input port is a shared structural resource: a ready LOAD
    // that cannot enter the queue blocks the issue stage (head-of-line),
    // wasting the slot — the "LSU stall" behaviour behind the paper's
    // Fig. 7 observation that load-heavy kernels (vecadd) degrade at
    // high warp/thread counts. Stores drain through the write buffer
    // and merely wait, letting other warps proceed.
    return !head.decoded.is_store;
  });
  if (issued >= 0) {
    const uint32_t w = static_cast<uint32_t>(issued);
    Warp& warp = warps_[w];
    const FetchSlot slot = warp.ibuffer.front();
    warp.ibuffer.pop();
    issue_rr_ = w + 1 == config_.warps ? 0 : w + 1;
    ++perf_.instrs;
    ++instret_;
    progressed_ = true;
    last_outcome_ = IssueOutcome::kIssued;
    if (profile_.enabled) ++profile_.by_pc[slot.pc].issued;
    execute(w, slot, cycle);
    sync_warp(w);
    return;
  }
  // Attribute the bubble (and, when profiling, the PC behind it — the same
  // priority order, so each bucket's per-PC sum equals the aggregate). The
  // outcome is remembered so fast_forward() can bulk-charge slept cycles
  // to the same bucket and PC. A head-of-line LSU break can leave later
  // warps unvisited; it also decides the bucket, so they never matter.
  const uint64_t empty = active_mask_ & ~barrier_mask_ & ~ready_mask_;
  if (saw_lsu) {
    ++perf_.stall_lsu;
    if (profile_.enabled) ++profile_.by_pc[lsu_pc].stall_lsu;
    last_outcome_ = IssueOutcome::kLsu;
    last_stall_pc_ = lsu_pc;
  } else if (saw_scoreboard) {
    ++perf_.stall_scoreboard;
    if (profile_.enabled) ++profile_.by_pc[scoreboard_pc].stall_scoreboard;
    last_outcome_ = IssueOutcome::kScoreboard;
    last_stall_pc_ = scoreboard_pc;
  } else if (saw_fu) {
    ++perf_.stall_fu;
    if (profile_.enabled) ++profile_.by_pc[fu_pc].stall_fu;
    last_outcome_ = IssueOutcome::kFu;
    last_stall_pc_ = fu_pc;
  } else if (empty != 0) {
    // Fetch-bound: charged to the next fetch PC of the first such warp.
    const uint32_t empty_pc = warps_[first_rr(empty, issue_rr_)].pc;
    ++perf_.stall_ibuffer;
    if (profile_.enabled) ++profile_.by_pc[empty_pc].stall_ibuffer;
    last_outcome_ = IssueOutcome::kIbuffer;
    last_stall_pc_ = empty_pc;
  } else if (barrier_mask_ != 0) {
    // Resume point: the buffered instruction after the BAR, or the warp's
    // next fetch PC when the buffer drained.
    const Warp& warp = warps_[first_rr(barrier_mask_, issue_rr_)];
    const uint32_t barrier_pc = warp.ibuffer.empty() ? warp.pc : warp.ibuffer.front().pc;
    ++perf_.stall_barrier;
    if (profile_.enabled) ++profile_.by_pc[barrier_pc].stall_barrier;
    last_outcome_ = IssueOutcome::kBarrier;
    last_stall_pc_ = barrier_pc;
  } else {
    last_outcome_ = IssueOutcome::kNone;
  }
}

// The per-op bodies are forced inline into execute()'s switch: a call per
// issued instruction is measurable in the cycle-exact hot loop.
template <Op op>
[[gnu::always_inline]] inline void Core::execute_lanes(uint32_t w, const Instr& in, uint32_t pc) {
  using L = arch::sem::Lane<op>;
  using arch::sem::Src;
  if (L::kRd == Src::kX && in.rd == 0) return;  // x0 is hardwired to zero
  const uint64_t mask = warps_[w].tmask;
  const uint32_t imm = static_cast<uint32_t>(in.imm);
  for (uint32_t lane = 0; lane < config_.threads; ++lane) {
    if (!(mask & (1ull << lane))) continue;
    const size_t row = (w * config_.threads + lane) * 32;
    const uint32_t* const x = &xregs_[row];
    const uint32_t* const f = &fregs_[row];
    const uint32_t value = L::eval(operand<L::kA>(x, f, in.rs1, imm, pc),
                                   operand<L::kB>(x, f, in.rs2, imm, pc),
                                   operand<L::kC>(x, f, in.rs3, imm, pc));
    (L::kRd == Src::kF ? fregs_ : xregs_)[row + in.rd] = value;
  }
}

template <Op op>
[[gnu::always_inline]] inline void Core::execute_memory(uint32_t w, const Instr& in, uint32_t pc, uint64_t cycle) {
  namespace sem = arch::sem;
  constexpr bool is_amo = sem::is_atomic(op);
  constexpr bool is_store = sem::is_store(op);
  constexpr bool is_float = op == Op::kFlw;
  Warp& warp = warps_[w];
  const uint64_t mask = warp.tmask;
  const bool has_rd = !is_store && (is_float || in.rd != 0 || is_amo);

  if (is_store) {
    ++perf_.stores;
  } else if (is_amo) {
    ++perf_.atomics;
  } else {
    ++perf_.loads;
  }

  // Line addresses collect in a reused scratch vector, swapped into the
  // LSU entry below (no allocation per memory instruction).
  std::vector<uint32_t>& lines = lines_scratch_;
  lines.clear();
  bool all_local = true;

  for (uint32_t lane = 0; lane < config_.threads; ++lane) {
    if (!(mask & (1ull << lane))) continue;
    const uint32_t addr = sem::mem_addr<op>(xr(w, lane, in.rs1), in.imm);
    const bool local = is_local_addr(addr);
    all_local &= local;

    // Functional access now; timing modelled below.
    const uint32_t src = op == Op::kFsw ? fr(w, lane, in.rs2) : xr(w, lane, in.rs2);
    const uint32_t value = sem::memory_lane<op>(local ? local_mem_ : gmem_, addr, src);
    if constexpr (is_float) {
      fr(w, lane, in.rd) = value;
    } else if constexpr (!is_store) {
      if (in.rd != 0) xr(w, lane, in.rd) = value;  // x0 is hardwired to zero
    }

    if (!local) {
      if (is_amo) {
        // Atomics serialize: one request per lane, no coalescing.
        lines.push_back(mem::line_of(addr));
      } else {
        const uint32_t line = mem::line_of(addr);
        if (std::find(lines.begin(), lines.end(), line) == lines.end()) lines.push_back(line);
      }
    }
  }

  if (all_local || lines.empty()) {
    // Shared-memory path: fixed low latency, no cache traffic.
    if (has_rd) {
      if (is_float) {
        warp.busy_f |= (1u << in.rd);
      } else if (in.rd != 0) {
        warp.busy_x |= (1u << in.rd);
      }
      if (is_float || in.rd != 0) {
        completions_.push_back(Completion{cycle + config_.smem_latency, w, in.rd, is_float});
        completions_min_ready_ =
            std::min(completions_min_ready_, cycle + config_.smem_latency);
      }
    }
    return;
  }

  // Allocate the LSU slot (availability checked in can_issue()). The token
  // tags this occupancy so a stale response to a recycled slot is rejected.
  for (auto& entry : lsu_queue_) {
    if (entry.valid) continue;
    entry.valid = true;
    entry.warp = w;
    entry.is_write = is_store;
    entry.has_rd = has_rd && (is_float || in.rd != 0);
    entry.writes_float = is_float;
    entry.rd = in.rd;
    entry.pc = pc;
    entry.token = next_mem_id_++;
    entry.lines_pending.swap(lines);
    entry.outstanding = 0;
    --lsu_free_;
    lsu_unsent_.set(static_cast<uint32_t>(&entry - lsu_queue_.data()));
    if (entry.has_rd) {
      if (is_float) {
        warp.busy_f |= (1u << in.rd);
      } else {
        warp.busy_x |= (1u << in.rd);
      }
    }
    return;
  }
  assert(false && "LSU slot must be available at issue");
}

void Core::execute(uint32_t w, const FetchSlot& slot, uint64_t cycle) {
  namespace sem = arch::sem;
  const Instr& in = slot.decoded.instr;
  const auto& info = arch::op_info(in.op);
  Warp& warp = warps_[w];
  const uint64_t mask = warp.tmask;
  const uint32_t pc = slot.pc;
  const uint32_t take_pc = pc + static_cast<uint32_t>(in.imm);
  // Warp-uniform operands (branches, jumps, SIMT) come from the first active lane.
  const uint32_t lead = sem::first_lane(mask);

  if (config_.trace) {
    config_.trace(TraceEvent{core_id_, w, pc, mask, in, cycle});
  }

  // Non-pipelined units block further issue to the same unit.
  if (info.fu == arch::FuClass::kSfu ||
      (info.fu == arch::FuClass::kMulDiv && info.latency > 4)) {
    fu_ready_[static_cast<size_t>(info.fu)] = cycle + info.latency;
    fu_ready_max_ = std::max(fu_ready_max_, cycle + info.latency);
  }

  auto schedule_rd = [&](bool is_float) {
    if (!is_float && in.rd == 0) return;
    if (is_float) {
      warp.busy_f |= (1u << in.rd);
    } else {
      warp.busy_x |= (1u << in.rd);
    }
    completions_.push_back(Completion{cycle + info.latency, w, in.rd, is_float});
    completions_min_ready_ = std::min(completions_min_ready_, cycle + info.latency);
  };

  auto for_lanes = [&](auto&& fn) {
    for (uint32_t lane = 0; lane < config_.threads; ++lane) {
      if (mask & (1ull << lane)) fn(lane);
    }
  };
  // Active lanes whose rs1 is nonzero (SPLIT/PRED predicates).
  auto rs1_nonzero = [&] {
    uint64_t bits = 0;
    for_lanes([&](uint32_t l) {
      if (xr(w, l, in.rs1) != 0) bits |= (1ull << l);
    });
    return bits;
  };
  auto apply = [&](const sem::SimtStep& step) {
    warp.tmask = step.tmask;
    if (step.next == sem::Next::kTake) redirect(warp, take_pc);
    if (step.next == sem::Next::kPc) redirect(warp, step.pc);
  };

  switch (in.op) {
#define FGPU_CORE_LANE_CASE(name, ...)     \
  case Op::k##name:                        \
    execute_lanes<Op::k##name>(w, in, pc); \
    break;
    FGPU_ARCH_LANE_OPS(FGPU_CORE_LANE_CASE)
#undef FGPU_CORE_LANE_CASE
#define FGPU_CORE_MEMORY_CASE(name)                \
  case Op::k##name:                                \
    execute_memory<Op::k##name>(w, in, pc, cycle); \
    break;
    FGPU_ARCH_MEMORY_OPS(FGPU_CORE_MEMORY_CASE)
#undef FGPU_CORE_MEMORY_CASE
    case Op::kJal:
    case Op::kJalr: {
      const uint32_t target =
          in.op == Op::kJal ? take_pc : sem::jalr_target(xr(w, lead, in.rs1), in.imm);
      if (in.rd != 0) for_lanes([&](uint32_t l) { xr(w, l, in.rd) = sem::link(pc); });
      ++perf_.branches;
      redirect(warp, target);
      break;
    }
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      ++perf_.branches;
      if (sem::branch_taken(in.op, xr(w, lead, in.rs1), xr(w, lead, in.rs2))) {
        redirect(warp, take_pc);
      }
      break;
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
      if (in.rd != 0) {
        arch::CsrView view{.warp = w, .core = core_id_, .tmask = mask,
                           .threads = config_.threads, .warps = config_.warps,
                           .cores = config_.cores, .cycle = cycle, .instret = instret_};
        for_lanes([&](uint32_t l) {
          view.lane = l;
          xr(w, l, in.rd) = sem::read_csr(static_cast<uint32_t>(in.imm), view);
        });
      }
      break;
    case Op::kEcall:
      for_lanes([&](uint32_t l) {
        if (ecall_handler_) {
          ecall_handler_(EcallRequest{core_id_, w, l, xr(w, l, 17), xr(w, l, 10)}, gmem_);
        }
      });
      break;
    case Op::kFence:
      break;  // memory ordering is already program order in this model
    case Op::kTmc:
      warp.tmask = sem::tmc_mask(xr(w, lead, in.rs1), config_.threads);
      if (warp.tmask == 0) {
        warp.active = false;
        FGPU_TRACE_INSTANT("warp_exit", "warp", core_id_, cycle, {{"warp", w}});
      }
      break;
    case Op::kWspawn: {
      const uint32_t count = std::min(xr(w, lead, in.rs1), config_.warps);
      const uint32_t target = xr(w, lead, in.rs2);
      uint32_t spawned_now = 0;
      for (uint32_t i = 1; i < count; ++i) {
        Warp& spawned = warps_[i];
        if (spawned.active) continue;
        spawned.reset();  // keeps the ibuffer/ipdom storage allocations
        spawned.active = true;
        spawned.pc = target;
        spawned.tmask = 1;
        sync_warp(i);
        ++perf_.warps_spawned;
        ++spawned_now;
      }
      FGPU_TRACE_INSTANT("wspawn", "warp", core_id_, cycle,
                         {{"by_warp", w}, {"spawned", spawned_now}, {"entry_pc", target}});
      break;
    }
    case Op::kSplit:
    case Op::kPred: {
      const uint64_t bits = rs1_nonzero();
      const sem::SimtStep step = in.op == Op::kSplit
                                     ? sem::split(warp.ipdom, mask, bits, take_pc)
                                     : sem::pred(mask, bits);
      ++perf_.branches;
      if (step.tmask != mask) ++perf_.divergent_branches;
      apply(step);
      break;
    }
    case Op::kJoin: {
      ++perf_.joins;
      const sem::SimtStep step = sem::join(warp.ipdom, mask);
      if (step.next == sem::Next::kFault) {
        FGPU_LOG(kError, "core %u warp %u: JOIN with empty IPDOM stack at %08x", core_id_, w, pc);
        warp.active = false;
        break;
      }
      apply(step);
      break;
    }
    case Op::kBar:
      barrier_arrive(w, sem::barrier_id(xr(w, lead, in.rs1)), xr(w, lead, in.rs2), cycle);
      break;
    default:
      FGPU_LOG(kError, "core %u warp %u: invalid instruction at %08x", core_id_, w, pc);
      warp.active = false;
      break;
  }
  if (slot.decoded.rd_at_issue) schedule_rd(slot.decoded.rd_float);
}

void Core::do_lsu(uint64_t cycle) {
  (void)cycle;
  uint32_t sent = 0;
  // Entries with lines left to send, in queue-slot order.
  lsu_unsent_.for_each([&](uint32_t slot) {
    LsuEntry& entry = lsu_queue_[slot];
    // The request id carries the queue slot in its low byte and the entry's
    // allocation token above it, so the L1D response handler resolves the
    // owner in O(1) with a built-in staleness check.
    const uint64_t id = (entry.token << kIdSlotBits) | slot;
    while (!entry.lines_pending.empty() && sent < config_.lsu_ports && l1d_.can_accept()) {
      const uint32_t line = entry.lines_pending.back();
      entry.lines_pending.pop_back();
      l1d_.send(mem::MemRequest{.id = id, .addr = line << mem::kLineShift,
                                .is_write = entry.is_write, .pc = entry.pc});
      ++entry.outstanding;
      ++sent;
      progressed_ = true;
    }
    if (entry.lines_pending.empty()) lsu_unsent_.reset(slot);
    return sent >= config_.lsu_ports;
  });
}

void Core::do_fetch(uint64_t cycle) {
  if (fetch_mask_ == 0) return;
  const uint32_t w = first_rr(fetch_mask_, fetch_rr_);
  Warp& warp = warps_[w];
  if (config_.perfect_icache) {
    warp.ibuffer.push(FetchSlot{*decode_at(warp.pc), warp.pc});
  } else {
    if (!l1i_.can_accept()) return;
    // The fetching warp index rides in the id's low byte; the monotonic
    // sequence above it makes the full id unique across redirects/resets.
    const uint64_t id = (next_mem_id_++ << kIdSlotBits) | w;
    warp.fetch_pending = true;
    warp.fetch_id = id;
    warp.fetch_pc = warp.pc;
    warp.fetch_generation = warp.generation;
    const mem::MemRequest req{.id = id, .addr = warp.pc, .is_write = false, .pc = warp.pc};
    // A hit matures after the L1I hit latency, delivered by tick_caches;
    // a miss goes through the L1I's MSHRs.
    if (l1i_.read_hit(req)) {
      fetch_hits_.push_back(FetchHit{cycle + config_.l1i.hit_latency, id});
    } else {
      l1i_.send(req);
    }
  }
  warp.pc += 4;
  fetch_rr_ = w + 1 == config_.warps ? 0 : w + 1;
  progressed_ = true;
  sync_warp(w);
}

// Earliest future cycle at which this core, or one of its L1s, has a
// self-scheduled event. The cluster uses it as the wake-up time of a core
// put to sleep after a no-progress cycle; kNoWake means "waiting on the L2
// only" (a delivery into either L1 wakes the core: the Cluster's
// interconnect hook; so does the full L2 freeing an MSHR while an L1
// holds unsent traffic: Cluster::tick).
uint64_t Core::next_wake_cycle(uint64_t now) const {
  uint64_t wake = std::min(l1d_.next_event_cycle(), l1i_.next_event_cycle());
  if (!fetch_hits_.empty()) wake = std::min(wake, std::max(fetch_hits_.front().ready_cycle, now + 1));
  if (completions_min_ready_ != kNoWake) {
    // A completion whose ready cycle already passed still needs a tick to
    // retire (do_writeback runs at most once per cycle).
    wake = std::min(wake, std::max(completions_min_ready_, now + 1));
  }
  if (fu_ready_max_ > now) {
    for (const uint64_t ready : fu_ready_) {
      if (ready > now) wake = std::min(wake, ready);
    }
  }
  return wake;
}

// Bulk-attributes the `count` slept cycles [from, from+count). A core only
// sleeps after a cycle (`from - 1`) in which it made no progress, and wakes
// at its own next event or before any response reaches its L1s, so each
// slept cycle would have repeated that cycle's issue outcome exactly —
// charge the same bucket (and profiled PC) `count` times and synthesize the
// occupancy samples the per-cycle path would have taken at its interval
// grid points.
void Core::fast_forward(uint64_t from, uint64_t count) {
  if (count == 0) return;
  switch (last_outcome_) {
    case IssueOutcome::kIdle:
      perf_.idle_cycles += count;
      break;
    case IssueOutcome::kLsu:
      perf_.stall_lsu += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_lsu += count;
      break;
    case IssueOutcome::kScoreboard:
      perf_.stall_scoreboard += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_scoreboard += count;
      break;
    case IssueOutcome::kFu:
      perf_.stall_fu += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_fu += count;
      break;
    case IssueOutcome::kIbuffer:
      perf_.stall_ibuffer += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_ibuffer += count;
      break;
    case IssueOutcome::kBarrier:
      perf_.stall_barrier += count;
      if (profile_.enabled) profile_.by_pc[last_stall_pc_].stall_barrier += count;
      break;
    case IssueOutcome::kIssued:
    case IssueOutcome::kNone:
      assert(false && "fast_forward after a progressing cycle");
      break;
  }
  if (profile_.enabled) {
    // Same grid as tick_logic: one sample at every cycle divisible by the
    // interval. Warp states are frozen across the window, so the samples
    // are identical except for their cycle stamps.
    const uint64_t interval = config_.profile_interval;
    uint64_t next = ((from + interval - 1) / interval) * interval;
    for (; next < from + count; next += interval) sample_occupancy(next);
  }
}

}  // namespace fgpu::vortex

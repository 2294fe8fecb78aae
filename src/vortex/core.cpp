#include "vortex/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/bits.hpp"
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

int32_t as_i32(uint32_t v) { return static_cast<int32_t>(v); }

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

uint32_t fcvt_w_s(float f, bool is_unsigned) {
  if (std::isnan(f)) {
    return is_unsigned ? 0xFFFFFFFFu : 0x7FFFFFFFu;
  }
  if (is_unsigned) {
    if (f <= -1.0f) return 0;
    if (f >= 4294967296.0f) return 0xFFFFFFFFu;
    return static_cast<uint32_t>(f);
  }
  if (f <= -2147483648.0f) return 0x80000000u;
  if (f >= 2147483648.0f) return 0x7FFFFFFFu;
  return static_cast<uint32_t>(static_cast<int32_t>(f));
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
      barrier_arrived_(32, 0),
      barrier_expected_(32, 0) {
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
  l1i_.set_response_handler([this](uint64_t id, bool /*w*/) {
    // O(1): the fetching warp is in the id's low byte; the full id must
    // match the warp's in-flight fetch (stale responses never do).
    const uint32_t w = static_cast<uint32_t>(id & kIdSlotMask);
    Warp& warp = warps_[w];
    if (!warp.fetch_pending || warp.fetch_id != id) return;  // stale
    warp.fetch_pending = false;
    progressed_ = true;
    if (warp.generation == warp.fetch_generation && warp.active) {
      if (const DecodedInstr* decoded = decode_at(warp.fetch_pc)) {
        warp.ibuffer.push(FetchSlot{*decoded, warp.fetch_pc});
      } else {
        FGPU_LOG(kError, "core %u warp %u: invalid instruction at %08x", core_id_, w,
                 warp.fetch_pc);
        warp.active = false;
      }
    }
    sync_warp(w);
  });
}

void Core::reset(uint32_t entry_pc) {
  for (auto& warp : warps_) warp.reset();
  std::fill(xregs_.begin(), xregs_.end(), 0u);
  std::fill(fregs_.begin(), fregs_.end(), 0u);
  completions_.clear();
  completions_min_ready_ = kNoWake;
  for (auto& entry : lsu_queue_) entry = LsuEntry{};
  lsu_free_ = config_.lsu_queue_depth;
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
  std::fill(barrier_arrived_.begin(), barrier_arrived_.end(), 0u);
  std::fill(barrier_expected_.begin(), barrier_expected_.end(), 0u);
  issue_rr_ = fetch_rr_ = 0;
  instret_ = 0;
  perf_ = PerfCounters{};
  profile_ = PcProfile{};
  profile_.enabled = config_.profile;
  profile_.occupancy_interval = config_.profile_interval;
  local_mem_.clear();
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

uint32_t Core::first_active_lane(uint64_t mask) const {
  for (uint32_t lane = 0; lane < config_.threads; ++lane) {
    if (mask & (1ull << lane)) return lane;
  }
  return 0;
}

uint32_t Core::read_csr(uint32_t csr, uint32_t warp_id, uint32_t lane, uint64_t cycle) const {
  switch (csr) {
    case arch::kCsrThreadId: return lane;
    case arch::kCsrWarpId: return warp_id;
    case arch::kCsrCoreId: return core_id_;
    case arch::kCsrTmask: return static_cast<uint32_t>(warps_[warp_id].tmask);
    case arch::kCsrNumThreads: return config_.threads;
    case arch::kCsrNumWarps: return config_.warps;
    case arch::kCsrNumCores: return config_.cores;
    case arch::kCsrCycle: return static_cast<uint32_t>(cycle);
    case arch::kCsrInstret: return static_cast<uint32_t>(instret_);
    default: return 0;
  }
}

void Core::redirect(Warp& warp, uint32_t new_pc) {
  warp.pc = new_pc;
  ++warp.generation;
  warp.ibuffer.clear();
}

void Core::barrier_arrive(uint32_t warp_id, uint32_t id, uint32_t count, uint64_t cycle) {
  assert(id < barrier_arrived_.size());
  Warp& warp = warps_[warp_id];
  warp.at_barrier = true;
  warp.barrier_id = id;
  barrier_expected_[id] = count;
  ++barrier_arrived_[id];
  ++perf_.barriers;
  FGPU_TRACE_INSTANT("barrier_arrive", "warp", core_id_, cycle,
                     {{"warp", warp_id}, {"barrier", id}, {"arrived", barrier_arrived_[id]}});
  if (barrier_arrived_[id] >= barrier_expected_[id]) {
    for (uint32_t w = 0; w < config_.warps; ++w) {
      Warp& other = warps_[w];
      if (other.at_barrier && other.barrier_id == id) {
        other.at_barrier = false;
        sync_warp(w);
      }
    }
    barrier_arrived_[id] = 0;
    FGPU_TRACE_INSTANT("barrier_release", "warp", core_id_, cycle,
                       {{"barrier", id}, {"warps", count}});
  }
}

void Core::tick_caches(uint64_t cycle) {
  l1d_.tick(cycle);
  l1i_.tick(cycle);
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
  d->is_store = instr.op == Op::kSb || instr.op == Op::kSh || instr.op == Op::kSw ||
                instr.op == Op::kFsw;
}

// Decode through the per-core PC -> DecodedInstr cache. The cache is indexed
// by code-region word offset, grown on demand, and invalidated wholesale at
// reset() (the kernel-launch boundary — the same point the L1I is flushed).
const Core::DecodedInstr* Core::decode_at(uint32_t pc) {
  const uint32_t word_index = (pc - arch::kCodeBase) / 4;
  const bool cacheable = pc >= arch::kCodeBase && pc % 4 == 0 &&
                         word_index < kDecodeCacheMaxWords;
  if (cacheable && word_index < decode_cache_.size() && decode_valid_[word_index]) {
    ++decode_hits_;
    return &decode_cache_[word_index];
  }
  const uint32_t word = gmem_.load32(pc);
  auto decoded = arch::decode(word);
  if (!decoded) return nullptr;
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

void Core::execute(uint32_t w, const FetchSlot& slot, uint64_t cycle) {
  const Instr& in = slot.decoded.instr;
  const auto& info = arch::op_info(in.op);
  Warp& warp = warps_[w];
  const uint64_t mask = warp.tmask;
  const uint32_t pc = slot.pc;

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

  switch (in.op) {
    // ---------------- ALU ----------------
    case Op::kLui:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = static_cast<uint32_t>(in.imm) << 12; });
      schedule_rd(false);
      break;
    case Op::kAuipc:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = pc + (static_cast<uint32_t>(in.imm) << 12); });
      schedule_rd(false);
      break;
    case Op::kAddi:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) + static_cast<uint32_t>(in.imm); });
      schedule_rd(false);
      break;
    case Op::kSlti:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = as_i32(xr(w, l, in.rs1)) < in.imm ? 1 : 0; });
      schedule_rd(false);
      break;
    case Op::kSltiu:
      for_lanes([&](uint32_t l) {
        xr(w, l, in.rd) = xr(w, l, in.rs1) < static_cast<uint32_t>(in.imm) ? 1 : 0;
      });
      schedule_rd(false);
      break;
    case Op::kXori:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) ^ static_cast<uint32_t>(in.imm); });
      schedule_rd(false);
      break;
    case Op::kOri:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) | static_cast<uint32_t>(in.imm); });
      schedule_rd(false);
      break;
    case Op::kAndi:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) & static_cast<uint32_t>(in.imm); });
      schedule_rd(false);
      break;
    case Op::kSlli:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) << in.imm; });
      schedule_rd(false);
      break;
    case Op::kSrli:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) >> in.imm; });
      schedule_rd(false);
      break;
    case Op::kSrai:
      for_lanes([&](uint32_t l) {
        xr(w, l, in.rd) = static_cast<uint32_t>(as_i32(xr(w, l, in.rs1)) >> in.imm);
      });
      schedule_rd(false);
      break;
    case Op::kAdd:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) + xr(w, l, in.rs2); });
      schedule_rd(false);
      break;
    case Op::kSub:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) - xr(w, l, in.rs2); });
      schedule_rd(false);
      break;
    case Op::kSll:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) << (xr(w, l, in.rs2) & 31); });
      schedule_rd(false);
      break;
    case Op::kSlt:
      for_lanes([&](uint32_t l) {
        xr(w, l, in.rd) = as_i32(xr(w, l, in.rs1)) < as_i32(xr(w, l, in.rs2)) ? 1 : 0;
      });
      schedule_rd(false);
      break;
    case Op::kSltu:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) < xr(w, l, in.rs2) ? 1 : 0; });
      schedule_rd(false);
      break;
    case Op::kXor:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) ^ xr(w, l, in.rs2); });
      schedule_rd(false);
      break;
    case Op::kSrl:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) >> (xr(w, l, in.rs2) & 31); });
      schedule_rd(false);
      break;
    case Op::kSra:
      for_lanes([&](uint32_t l) {
        xr(w, l, in.rd) = static_cast<uint32_t>(as_i32(xr(w, l, in.rs1)) >> (xr(w, l, in.rs2) & 31));
      });
      schedule_rd(false);
      break;
    case Op::kOr:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) | xr(w, l, in.rs2); });
      schedule_rd(false);
      break;
    case Op::kAnd:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) & xr(w, l, in.rs2); });
      schedule_rd(false);
      break;
    // ---------------- MUL/DIV ----------------
    case Op::kMul:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = xr(w, l, in.rs1) * xr(w, l, in.rs2); });
      schedule_rd(false);
      break;
    case Op::kMulh:
      for_lanes([&](uint32_t l) {
        const int64_t p = static_cast<int64_t>(as_i32(xr(w, l, in.rs1))) *
                          static_cast<int64_t>(as_i32(xr(w, l, in.rs2)));
        xr(w, l, in.rd) = static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32);
      });
      schedule_rd(false);
      break;
    case Op::kMulhsu:
      for_lanes([&](uint32_t l) {
        const int64_t p = static_cast<int64_t>(as_i32(xr(w, l, in.rs1))) *
                          static_cast<int64_t>(static_cast<uint64_t>(xr(w, l, in.rs2)));
        xr(w, l, in.rd) = static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32);
      });
      schedule_rd(false);
      break;
    case Op::kMulhu:
      for_lanes([&](uint32_t l) {
        const uint64_t p =
            static_cast<uint64_t>(xr(w, l, in.rs1)) * static_cast<uint64_t>(xr(w, l, in.rs2));
        xr(w, l, in.rd) = static_cast<uint32_t>(p >> 32);
      });
      schedule_rd(false);
      break;
    case Op::kDiv:
      for_lanes([&](uint32_t l) {
        const int32_t a = as_i32(xr(w, l, in.rs1)), b = as_i32(xr(w, l, in.rs2));
        int32_t r;
        if (b == 0) {
          r = -1;
        } else if (a == std::numeric_limits<int32_t>::min() && b == -1) {
          r = a;
        } else {
          r = a / b;
        }
        xr(w, l, in.rd) = static_cast<uint32_t>(r);
      });
      schedule_rd(false);
      break;
    case Op::kDivu:
      for_lanes([&](uint32_t l) {
        const uint32_t a = xr(w, l, in.rs1), b = xr(w, l, in.rs2);
        xr(w, l, in.rd) = b == 0 ? 0xFFFFFFFFu : a / b;
      });
      schedule_rd(false);
      break;
    case Op::kRem:
      for_lanes([&](uint32_t l) {
        const int32_t a = as_i32(xr(w, l, in.rs1)), b = as_i32(xr(w, l, in.rs2));
        int32_t r;
        if (b == 0) {
          r = a;
        } else if (a == std::numeric_limits<int32_t>::min() && b == -1) {
          r = 0;
        } else {
          r = a % b;
        }
        xr(w, l, in.rd) = static_cast<uint32_t>(r);
      });
      schedule_rd(false);
      break;
    case Op::kRemu:
      for_lanes([&](uint32_t l) {
        const uint32_t a = xr(w, l, in.rs1), b = xr(w, l, in.rs2);
        xr(w, l, in.rd) = b == 0 ? a : a % b;
      });
      schedule_rd(false);
      break;
    // ---------------- control flow ----------------
    case Op::kJal:
      if (in.rd != 0) {
        for_lanes([&](uint32_t l) { xr(w, l, in.rd) = pc + 4; });
        schedule_rd(false);
      }
      ++perf_.branches;
      redirect(warp, pc + static_cast<uint32_t>(in.imm));
      break;
    case Op::kJalr: {
      const uint32_t target =
          (xr(w, first_active_lane(mask), in.rs1) + static_cast<uint32_t>(in.imm)) & ~1u;
      if (in.rd != 0) {
        for_lanes([&](uint32_t l) { xr(w, l, in.rd) = pc + 4; });
        schedule_rd(false);
      }
      ++perf_.branches;
      redirect(warp, target);
      break;
    }
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu: {
      const uint32_t lane = first_active_lane(mask);
      const uint32_t a = xr(w, lane, in.rs1), b = xr(w, lane, in.rs2);
      bool taken = false;
      switch (in.op) {
        case Op::kBeq: taken = a == b; break;
        case Op::kBne: taken = a != b; break;
        case Op::kBlt: taken = as_i32(a) < as_i32(b); break;
        case Op::kBge: taken = as_i32(a) >= as_i32(b); break;
        case Op::kBltu: taken = a < b; break;
        case Op::kBgeu: taken = a >= b; break;
        default: break;
      }
      ++perf_.branches;
      if (taken) redirect(warp, pc + static_cast<uint32_t>(in.imm));
      break;
    }
    // ---------------- CSR / system ----------------
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
      // Machine-information CSRs are read-only; writes are ignored.
      for_lanes([&](uint32_t l) {
        if (in.rd != 0) xr(w, l, in.rd) = read_csr(static_cast<uint32_t>(in.imm), w, l, cycle);
      });
      schedule_rd(false);
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
    // ---------------- SIMT control ----------------
    case Op::kTmc: {
      const uint64_t full = (config_.threads >= 64) ? ~0ull : ((1ull << config_.threads) - 1);
      const uint64_t value = xr(w, first_active_lane(mask), in.rs1) & full;
      warp.tmask = value;
      if (value == 0) {
        warp.active = false;
        FGPU_TRACE_INSTANT("warp_exit", "warp", core_id_, cycle, {{"warp", w}});
      }
      break;
    }
    case Op::kWspawn: {
      const uint32_t lane = first_active_lane(mask);
      const uint32_t count = std::min(xr(w, lane, in.rs1), config_.warps);
      const uint32_t target = xr(w, lane, in.rs2);
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
    case Op::kSplit: {
      uint64_t taken = 0;
      for_lanes([&](uint32_t l) {
        if (xr(w, l, in.rs1) != 0) taken |= (1ull << l);
      });
      const uint64_t nottaken = mask & ~taken;
      ++perf_.branches;
      if (nottaken == 0) {
        warp.ipdom.push_back({IpdomEntry::kUniform, 0, 0});
      } else if (taken == 0) {
        warp.ipdom.push_back({IpdomEntry::kUniform, 0, 0});
        redirect(warp, pc + static_cast<uint32_t>(in.imm));
      } else {
        ++perf_.divergent_branches;
        warp.ipdom.push_back({IpdomEntry::kRestore, mask, 0});
        warp.ipdom.push_back({IpdomEntry::kElse, nottaken, pc + static_cast<uint32_t>(in.imm)});
        warp.tmask = taken;
      }
      break;
    }
    case Op::kJoin: {
      ++perf_.joins;
      if (warp.ipdom.empty()) {
        FGPU_LOG(kError, "core %u warp %u: JOIN with empty IPDOM stack at %08x", core_id_, w, pc);
        warp.active = false;
        break;
      }
      const IpdomEntry entry = warp.ipdom.back();
      warp.ipdom.pop_back();
      switch (entry.kind) {
        case IpdomEntry::kUniform:
          redirect(warp, pc + static_cast<uint32_t>(in.imm));
          break;
        case IpdomEntry::kElse:
          warp.tmask = entry.mask;
          redirect(warp, entry.pc);
          break;
        case IpdomEntry::kRestore:
          warp.tmask = entry.mask;
          redirect(warp, pc + static_cast<uint32_t>(in.imm));
          break;
      }
      break;
    }
    case Op::kPred: {
      uint64_t alive = 0;
      for_lanes([&](uint32_t l) {
        if (xr(w, l, in.rs1) != 0) alive |= (1ull << l);
      });
      ++perf_.branches;
      if (alive == 0) {
        redirect(warp, pc + static_cast<uint32_t>(in.imm));
      } else {
        if (alive != mask) ++perf_.divergent_branches;
        warp.tmask = alive;
      }
      break;
    }
    case Op::kBar: {
      const uint32_t lane = first_active_lane(mask);
      barrier_arrive(w, xr(w, lane, in.rs1) & 31, xr(w, lane, in.rs2), cycle);
      break;
    }
    // ---------------- FPU ----------------
    case Op::kFaddS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(u2f(fr(w, l, in.rs1)) + u2f(fr(w, l, in.rs2)));
      });
      schedule_rd(true);
      break;
    case Op::kFsubS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(u2f(fr(w, l, in.rs1)) - u2f(fr(w, l, in.rs2)));
      });
      schedule_rd(true);
      break;
    case Op::kFmulS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(u2f(fr(w, l, in.rs1)) * u2f(fr(w, l, in.rs2)));
      });
      schedule_rd(true);
      break;
    case Op::kFdivS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(u2f(fr(w, l, in.rs1)) / u2f(fr(w, l, in.rs2)));
      });
      schedule_rd(true);
      break;
    case Op::kFsqrtS:
      for_lanes([&](uint32_t l) { fr(w, l, in.rd) = f2u(std::sqrt(u2f(fr(w, l, in.rs1)))); });
      schedule_rd(true);
      break;
    case Op::kFsgnjS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = (fr(w, l, in.rs1) & 0x7FFFFFFFu) | (fr(w, l, in.rs2) & 0x80000000u);
      });
      schedule_rd(true);
      break;
    case Op::kFsgnjnS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = (fr(w, l, in.rs1) & 0x7FFFFFFFu) | (~fr(w, l, in.rs2) & 0x80000000u);
      });
      schedule_rd(true);
      break;
    case Op::kFsgnjxS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = fr(w, l, in.rs1) ^ (fr(w, l, in.rs2) & 0x80000000u);
      });
      schedule_rd(true);
      break;
    case Op::kFminS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(std::fmin(u2f(fr(w, l, in.rs1)), u2f(fr(w, l, in.rs2))));
      });
      schedule_rd(true);
      break;
    case Op::kFmaxS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(std::fmax(u2f(fr(w, l, in.rs1)), u2f(fr(w, l, in.rs2))));
      });
      schedule_rd(true);
      break;
    case Op::kFcvtWS:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = fcvt_w_s(u2f(fr(w, l, in.rs1)), false); });
      schedule_rd(false);
      break;
    case Op::kFcvtWuS:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = fcvt_w_s(u2f(fr(w, l, in.rs1)), true); });
      schedule_rd(false);
      break;
    case Op::kFcvtSW:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(static_cast<float>(as_i32(xr(w, l, in.rs1))));
      });
      schedule_rd(true);
      break;
    case Op::kFcvtSWu:
      for_lanes([&](uint32_t l) { fr(w, l, in.rd) = f2u(static_cast<float>(xr(w, l, in.rs1))); });
      schedule_rd(true);
      break;
    case Op::kFmvXW:
      for_lanes([&](uint32_t l) { xr(w, l, in.rd) = fr(w, l, in.rs1); });
      schedule_rd(false);
      break;
    case Op::kFmvWX:
      for_lanes([&](uint32_t l) { fr(w, l, in.rd) = xr(w, l, in.rs1); });
      schedule_rd(true);
      break;
    case Op::kFclassS:
      for_lanes([&](uint32_t l) {
        const float f = u2f(fr(w, l, in.rs1));
        uint32_t cls = 0;
        if (std::isnan(f)) {
          cls = 1u << 9;  // quiet NaN (we do not distinguish signalling)
        } else if (std::isinf(f)) {
          cls = f < 0 ? 1u << 0 : 1u << 7;
        } else if (f == 0.0f) {
          cls = std::signbit(f) ? 1u << 3 : 1u << 4;
        } else if (std::fpclassify(f) == FP_SUBNORMAL) {
          cls = f < 0 ? 1u << 2 : 1u << 5;
        } else {
          cls = f < 0 ? 1u << 1 : 1u << 6;
        }
        xr(w, l, in.rd) = cls;
      });
      schedule_rd(false);
      break;
    case Op::kFeqS:
      for_lanes([&](uint32_t l) {
        xr(w, l, in.rd) = u2f(fr(w, l, in.rs1)) == u2f(fr(w, l, in.rs2)) ? 1 : 0;
      });
      schedule_rd(false);
      break;
    case Op::kFltS:
      for_lanes([&](uint32_t l) {
        xr(w, l, in.rd) = u2f(fr(w, l, in.rs1)) < u2f(fr(w, l, in.rs2)) ? 1 : 0;
      });
      schedule_rd(false);
      break;
    case Op::kFleS:
      for_lanes([&](uint32_t l) {
        xr(w, l, in.rd) = u2f(fr(w, l, in.rs1)) <= u2f(fr(w, l, in.rs2)) ? 1 : 0;
      });
      schedule_rd(false);
      break;
    case Op::kFmaddS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(u2f(fr(w, l, in.rs1)) * u2f(fr(w, l, in.rs2)) + u2f(fr(w, l, in.rs3)));
      });
      schedule_rd(true);
      break;
    case Op::kFmsubS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) = f2u(u2f(fr(w, l, in.rs1)) * u2f(fr(w, l, in.rs2)) - u2f(fr(w, l, in.rs3)));
      });
      schedule_rd(true);
      break;
    case Op::kFnmsubS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) =
            f2u(-(u2f(fr(w, l, in.rs1)) * u2f(fr(w, l, in.rs2))) + u2f(fr(w, l, in.rs3)));
      });
      schedule_rd(true);
      break;
    case Op::kFnmaddS:
      for_lanes([&](uint32_t l) {
        fr(w, l, in.rd) =
            f2u(-(u2f(fr(w, l, in.rs1)) * u2f(fr(w, l, in.rs2))) - u2f(fr(w, l, in.rs3)));
      });
      schedule_rd(true);
      break;
    // ---------------- memory ----------------
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kFlw:
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kFsw:
    case Op::kLrW:
    case Op::kScW:
    case Op::kAmoswapW:
    case Op::kAmoaddW:
    case Op::kAmoandW:
    case Op::kAmoorW:
    case Op::kAmoxorW:
    case Op::kAmominW:
    case Op::kAmomaxW:
      execute_memory(w, in, pc, cycle);
      break;
    default:
      FGPU_LOG(kError, "core %u: unimplemented op '%s' at %08x", core_id_,
               arch::op_info(in.op).name, pc);
      warp.active = false;
      break;
  }
}

void Core::execute_memory(uint32_t w, const Instr& in, uint32_t pc, uint64_t cycle) {
  Warp& warp = warps_[w];
  const uint64_t mask = warp.tmask;
  const bool is_amo = arch::op_info(in.op).fmt == arch::Format::kAmo;
  const bool is_store = in.op == Op::kSb || in.op == Op::kSh || in.op == Op::kSw ||
                        in.op == Op::kFsw;
  const bool is_float = in.op == Op::kFlw;
  const bool has_rd = !is_store && (is_float || in.rd != 0 || is_amo);

  if (is_store) {
    ++perf_.stores;
  } else if (is_amo) {
    ++perf_.atomics;
  } else {
    ++perf_.loads;
  }

  std::vector<uint32_t> lines;
  bool all_local = true;
  bool any_local = false;

  for (uint32_t lane = 0; lane < config_.threads; ++lane) {
    if (!(mask & (1ull << lane))) continue;
    const uint32_t base = xr(w, lane, in.rs1);
    const uint32_t addr = base + static_cast<uint32_t>(is_amo ? 0 : in.imm);
    const bool local = is_local_addr(addr);
    all_local &= local;
    any_local |= local;
    mem::MainMemory& memory = local ? local_mem_ : gmem_;

    // Functional access now; timing modelled below.
    switch (in.op) {
      case Op::kLb: xr(w, lane, in.rd) = static_cast<uint32_t>(static_cast<int8_t>(memory.load8(addr))); break;
      case Op::kLbu: xr(w, lane, in.rd) = memory.load8(addr); break;
      case Op::kLh: xr(w, lane, in.rd) = static_cast<uint32_t>(static_cast<int16_t>(memory.load16(addr))); break;
      case Op::kLhu: xr(w, lane, in.rd) = memory.load16(addr); break;
      case Op::kLw: xr(w, lane, in.rd) = memory.load32(addr); break;
      case Op::kFlw: fr(w, lane, in.rd) = memory.load32(addr); break;
      case Op::kSb: memory.store8(addr, static_cast<uint8_t>(xr(w, lane, in.rs2))); break;
      case Op::kSh: memory.store16(addr, static_cast<uint16_t>(xr(w, lane, in.rs2))); break;
      case Op::kSw: memory.store32(addr, xr(w, lane, in.rs2)); break;
      case Op::kFsw: memory.store32(addr, fr(w, lane, in.rs2)); break;
      case Op::kLrW: xr(w, lane, in.rd) = memory.load32(addr); break;
      case Op::kScW:
        // Single-context simulation: SC always succeeds.
        memory.store32(addr, xr(w, lane, in.rs2));
        xr(w, lane, in.rd) = 0;
        break;
      default: {  // AMOs
        const uint32_t old = memory.load32(addr);
        const uint32_t src = xr(w, lane, in.rs2);
        uint32_t next = old;
        switch (in.op) {
          case Op::kAmoswapW: next = src; break;
          case Op::kAmoaddW: next = old + src; break;
          case Op::kAmoandW: next = old & src; break;
          case Op::kAmoorW: next = old | src; break;
          case Op::kAmoxorW: next = old ^ src; break;
          case Op::kAmominW:
            next = static_cast<uint32_t>(std::min(as_i32(old), as_i32(src)));
            break;
          case Op::kAmomaxW:
            next = static_cast<uint32_t>(std::max(as_i32(old), as_i32(src)));
            break;
          default: break;
        }
        memory.store32(addr, next);
        if (in.rd != 0) xr(w, lane, in.rd) = old;
        break;
      }
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
  (void)any_local;

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
    entry.lines_pending = std::move(lines);
    entry.outstanding = 0;
    --lsu_free_;
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

void Core::do_lsu(uint64_t cycle) {
  (void)cycle;
  uint32_t sent = 0;
  for (auto& entry : lsu_queue_) {
    if (!entry.valid || entry.lines_pending.empty()) continue;
    // The request id carries the queue slot in its low byte and the entry's
    // allocation token above it, so the L1D response handler resolves the
    // owner in O(1) with a built-in staleness check.
    const uint64_t slot = static_cast<uint64_t>(&entry - lsu_queue_.data());
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
    if (sent >= config_.lsu_ports) break;
  }
}

void Core::do_fetch(uint64_t cycle) {
  (void)cycle;
  if (fetch_mask_ == 0) return;
  const uint32_t w = first_rr(fetch_mask_, fetch_rr_);
  Warp& warp = warps_[w];
  if (config_.perfect_icache) {
    const DecodedInstr* decoded = decode_at(warp.pc);
    if (decoded == nullptr) {
      FGPU_LOG(kError, "core %u warp %u: invalid instruction at %08x", core_id_, w, warp.pc);
      warp.active = false;
      sync_warp(w);
      return;
    }
    warp.ibuffer.push(FetchSlot{*decoded, warp.pc});
  } else {
    if (!l1i_.can_accept()) return;
    // The fetching warp index rides in the id's low byte; the monotonic
    // sequence above it makes the full id unique across redirects/resets.
    const uint64_t id = (next_mem_id_++ << kIdSlotBits) | w;
    warp.fetch_pending = true;
    warp.fetch_id = id;
    warp.fetch_pc = warp.pc;
    warp.fetch_generation = warp.generation;
    l1i_.send(mem::MemRequest{.id = id, .addr = warp.pc, .is_write = false, .pc = warp.pc});
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
// interconnect hook).
uint64_t Core::next_wake_cycle(uint64_t now) const {
  uint64_t wake = std::min(l1d_.next_event_cycle(), l1i_.next_event_cycle());
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

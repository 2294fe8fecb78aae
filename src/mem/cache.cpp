#include "mem/cache.hpp"

#include <cassert>

#include "trace/trace.hpp"

namespace fgpu::mem {

Cache::Cache(CacheConfig config, MemPort* lower)
    : config_(std::move(config)),
      set_mask_(config_.num_sets() - 1),
      set_shift_(log2_floor(config_.num_sets())),
      lower_(lower),
      // At most `ports` hits are accepted per cycle and each matures after
      // hit_latency; a writeback follows a fill, so MSHR count is a
      // natural starting size (the ring grows if the lower level stalls).
      hit_queue_(config_.ports * (config_.hit_latency + 1)),
      writeback_queue_(config_.mshrs),
      trace_name_(config_.name) {
  assert(is_pow2(config_.size_bytes) && "cache size must be a power of two");
  assert(config_.num_lines() % config_.ways == 0);
  assert(is_pow2(config_.num_sets()));
  assert(config_.mshrs >= 1 && config_.mshrs <= (1u << kFillSlotBits) &&
         "MSHR index must fit the fill id's slot bits");
  mshrs_.reserve(config_.mshrs);
  lines_.resize(config_.num_lines());
  set_conflicts_.resize(config_.num_sets(), 0);
  lower_->set_response_handler(
      [this](uint64_t id, bool was_write) { on_lower_response(id, was_write); });
}

void Cache::flush() {
  for (auto& line : lines_) line = LineState{};
}

void Cache::reset() {
  flush();
  reset_stats();
  hit_queue_.clear();
  writeback_queue_.clear();
  mshrs_.clear();
  now_ = 0;
  lru_counter_ = 0;
  accepted_this_cycle_ = 0;
  mshr_used_ = 0;
  mshr_unsent_ = 0;
  next_lower_id_ = 1;
}

Cache::LineState* Cache::lookup(uint32_t line_addr) {
  const uint32_t tag = tag_of(line_addr);
  LineState* set = &lines_[set_of(line_addr) * config_.ways];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (set[w].valid && set[w].tag == tag) return &set[w];
  }
  return nullptr;
}

void Cache::install(uint32_t line_addr) {
  const uint32_t set = set_of(line_addr);
  LineState* victim = nullptr;
  for (uint32_t w = 0; w < config_.ways; ++w) {
    LineState& line = lines_[set * config_.ways + w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (victim == nullptr || line.lru < victim->lru) victim = &line;
  }
  if (victim->valid) {
    ++stats_.evictions;
    ++set_conflicts_[set];
    if (victim->dirty) {
      ++stats_.writebacks;
      const uint32_t victim_line = (victim->tag << set_shift_) | set;
      writeback_queue_.push_back(
          MemRequest{.id = 0, .addr = victim_line << kLineShift, .is_write = true});
    }
  }
  victim->tag = tag_of(line_addr);
  victim->valid = true;
  victim->dirty = false;
  victim->lru = ++lru_counter_;
}

bool Cache::can_accept() const {
  if (accepted_this_cycle_ >= config_.ports) return false;
  // Must be able to allocate an MSHR in the worst case (miss). This is
  // conservative when the incoming request would merge into an existing
  // MSHR, but that is exactly the back-pressure behaviour that produces
  // LSU stalls in the soft GPU under high warp/thread counts (paper §III-C).
  return mshr_used_ < config_.mshrs;
}

void Cache::send(const MemRequest& req) {
  ++accepted_this_cycle_;
  const uint32_t line_addr = line_of(req.addr);
  if (req.is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }

  // Already being fetched? Merge into the MSHR (no extra lower traffic).
  // Most sends find no MSHR allocated (L1I hits) and skip the scan.
  if (mshr_used_ > 0) {
    for (auto& mshr : mshrs_) {
      if ((!mshr.waiters.empty() || mshr.fill_sent) && mshr.line_addr == line_addr) {
        ++stats_.mshr_merges;
        ++stats_.misses;
        if (profiler_) {
          profiler_->on_merge(line_addr, req.pc, static_cast<MissClass>(mshr.miss_class));
        }
        mshr.waiters.push_back(req);
        return;
      }
    }
  }

  if (LineState* line = lookup(line_addr)) {
    ++stats_.hits;
    if (profiler_) profiler_->on_access(line_addr, req.pc, /*is_miss=*/false);
    line->lru = ++lru_counter_;
    if (req.is_write) line->dirty = true;
    hit_queue_.push_back(PendingResponse{req, now_ + config_.hit_latency});
    return;
  }

  ++stats_.misses;
  MissClass miss_class{};
  if (profiler_) miss_class = profiler_->on_access(line_addr, req.pc, /*is_miss=*/true);
  // Allocate an MSHR; caller guaranteed availability via can_accept().
  Mshr* slot = nullptr;
  for (auto& mshr : mshrs_) {
    if (mshr.waiters.empty() && !mshr.fill_sent) {
      slot = &mshr;
      break;
    }
  }
  if (slot == nullptr) {
    assert(mshrs_.size() < config_.mshrs && "send() called without can_accept()");
    mshrs_.push_back(Mshr{});
    slot = &mshrs_.back();
  }
  slot->line_addr = line_addr;
  slot->fill_sent = false;
  slot->miss_class = static_cast<uint8_t>(miss_class);
  slot->waiters.clear();
  slot->waiters.push_back(req);
  ++mshr_used_;
  ++mshr_unsent_;
  if (profiler_) profiler_->on_mshr_change(mshr_used_, now_);
}

void Cache::on_lower_response(uint64_t id, bool /*was_write*/) {
  // O(1): the MSHR index is in the id's low bits; the full id must match
  // the fill in flight. Writeback acks (id 0) never do.
  const uint64_t slot = id & ((1u << kFillSlotBits) - 1);
  if (slot >= mshrs_.size()) return;
  Mshr& mshr = mshrs_[slot];
  if (!mshr.fill_sent || mshr.fill_id != id) return;
  install(mshr.line_addr);
  LineState* line = lookup(mshr.line_addr);
  for (const auto& waiter : mshr.waiters) {
    if (waiter.is_write && line != nullptr) line->dirty = true;
    if (handler_) handler_(waiter.id, waiter.is_write);
  }
  mshr.waiters.clear();
  mshr.fill_sent = false;
  --mshr_used_;
  // Defer the occupancy transition to this cache's tick of the same
  // cycle: responses arrive while now_ still holds the last ticked
  // cycle, and how stale that is depends on idle skipping — charging
  // here would make the histogram differ between skip modes.
  mshr_profile_dirty_ = true;
}

// Bucketed counter samples of the cumulative hit/miss/eviction totals —
// bounded trace volume regardless of traffic, and only when totals moved.
void Cache::trace_counters(uint64_t cycle) {
  trace::Sink* sink = trace::current();
  if (sink == nullptr) return;
  const uint64_t total = stats_.hits + stats_.misses + stats_.evictions + stats_.writebacks;
  if (total == trace_last_total_) return;
  trace_last_total_ = total;
  // Interned: the sink may outlive this cache.
  sink->counter(sink->intern(trace_name_), trace_tid_, cycle,
                {{"hits", stats_.hits},
                 {"misses", stats_.misses},
                 {"evictions", stats_.evictions},
                 {"writebacks", stats_.writebacks},
                 {"mshr_merges", stats_.mshr_merges},
                 {"mshr_used", mshr_used_}});
}

void Cache::tick(uint64_t cycle) {
  if constexpr (trace::kEnabled) {
    if ((cycle & (trace::kCounterBucketCycles - 1)) == 0) trace_counters(cycle);
  }
  now_ = cycle;
  accepted_this_cycle_ = 0;
  if (profiler_ && mshr_profile_dirty_) {
    profiler_->on_mshr_change(mshr_used_, now_);
    mshr_profile_dirty_ = false;
  }
  // Fast path: nothing queued anywhere — the common case for an idle cache.
  if (hit_queue_.empty() && writeback_queue_.empty() && mshr_unsent_ == 0) return;

  // Drain hit responses whose latency elapsed.
  while (!hit_queue_.empty() && hit_queue_.front().ready_cycle <= now_) {
    const PendingResponse resp = hit_queue_.front();
    hit_queue_.pop_front();
    if (handler_) handler_(resp.req.id, resp.req.is_write);
  }

  // Writebacks take priority on the lower port (they free victim lines).
  while (!writeback_queue_.empty() && lower_->can_accept()) {
    lower_->send(writeback_queue_.front());
    writeback_queue_.pop_front();
  }

  // Issue line fills for MSHRs that have not sent one yet.
  if (mshr_unsent_ > 0) {
    for (uint32_t slot = 0; slot < mshrs_.size(); ++slot) {
      Mshr& mshr = mshrs_[slot];
      if (!mshr.waiters.empty() && !mshr.fill_sent) {
        if (!lower_->can_accept()) break;
        const uint64_t id = (next_lower_id_++ << kFillSlotBits) | slot;
        mshr.fill_id = id;
        // The fill carries the primary waiter's PC so lower-level misses
        // stay attributable to the instruction that started the chain.
        lower_->send(MemRequest{.id = id,
                                .addr = mshr.line_addr << kLineShift,
                                .is_write = false,
                                .pc = mshr.waiters.front().pc});
        mshr.fill_sent = true;
        --mshr_unsent_;
      }
    }
  }
}

uint64_t Cache::next_event_cycle() const {
  // Unsent lower-level traffic retries every cycle (its send time depends
  // on lower-level back-pressure we cannot predict): next tick is an event.
  // A full lower level refuses every retry until one of its own fill
  // responses frees an MSHR; that is no event of this cache, and the
  // owner wakes the sender when it happens (Cluster::tick).
  if (has_unsent() && !lower_->full()) return now_ + 1;
  // Hit responses are drained front-gated in FIFO order, and ready cycles
  // are pushed in nondecreasing order (now_ + hit_latency), so the front
  // holds the earliest maturity.
  if (!hit_queue_.empty()) return std::max(hit_queue_.front().ready_cycle, now_ + 1);
  return kNoEvent;
}

}  // namespace fgpu::mem

#include "mem/dram.hpp"

#include <algorithm>
#include <cassert>

#include "trace/trace.hpp"

namespace fgpu::mem {

DramModel::DramModel(DramConfig config)
    : config_(std::move(config)),
      queues_(config_.channels, Ring<Inflight>(config_.queue_depth)),
      accepted_this_cycle_(config_.channels, 0),
      trace_name_(config_.name) {}

bool DramModel::can_accept() const {
  // Conservative: accept only if every channel has room, since the caller
  // does not know which channel its address maps to. Per-cycle acceptance
  // limits are enforced in send() bookkeeping instead of rejecting here,
  // because multiple sends in one cycle may target distinct channels.
  for (uint32_t c = 0; c < config_.channels; ++c) {
    if (queues_[c].size() >= config_.queue_depth) return false;
    if (accepted_this_cycle_[c] >= config_.requests_per_channel * config_.channels) return false;
  }
  return true;
}

void DramModel::send(const MemRequest& req) {
  const uint32_t c = channel_of(req.addr);
  assert(queues_[c].size() < config_.queue_depth);
  ++accepted_this_cycle_[c];
  // Serialization delay: each queued request behind us adds one service
  // slot (1/requests_per_channel cycles each).
  const uint64_t service = (queues_[c].size() + accepted_this_cycle_[c]) /
                           std::max(1u, config_.requests_per_channel);
  queues_[c].push_back(Inflight{req, now_ + config_.latency + service});
  if (req.is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  if (profiler_) {
    profiler_->on_request(c, req.is_write);
    profiler_->on_depth_change(c, static_cast<uint32_t>(queues_[c].size()), now_);
  }
}

void DramModel::tick(uint64_t cycle) {
  if constexpr (trace::kEnabled) {
    if ((cycle & (trace::kCounterBucketCycles - 1)) == 0) trace_counters(cycle);
  }
  now_ = cycle;
  for (auto& count : accepted_this_cycle_) count = 0;
  for (uint32_t c = 0; c < config_.channels; ++c) {
    uint32_t served = 0;
    while (!queues_[c].empty() && served < config_.requests_per_channel &&
           queues_[c].front().ready_cycle <= now_) {
      const Inflight entry = queues_[c].front();
      queues_[c].pop_front();
      ++served;
      if (handler_) handler_(entry.req.id, entry.req.is_write);
    }
    if (served > 0 && profiler_) {
      profiler_->on_depth_change(c, static_cast<uint32_t>(queues_[c].size()), now_);
    }
  }
}

uint64_t DramModel::next_event_cycle() const {
  uint64_t next = kNoEvent;
  for (const auto& queue : queues_) {
    if (queue.empty()) continue;
    next = std::min(next, std::max(queue.front().ready_cycle, now_ + 1));
  }
  return next;
}

void DramModel::trace_counters(uint64_t cycle) {
  trace::Sink* sink = trace::current();
  if (sink == nullptr) return;
  const uint64_t total = stats_.reads + stats_.writes;
  if (total == trace_last_total_) return;
  trace_last_total_ = total;
  uint64_t queued = 0;
  for (const auto& queue : queues_) queued += queue.size();
  // Interned: the sink may outlive this DRAM model.
  sink->counter(sink->intern(trace_name_), trace_tid_, cycle,
                {{"reads", stats_.reads}, {"writes", stats_.writes}, {"queued", queued}});
}

}  // namespace fgpu::mem

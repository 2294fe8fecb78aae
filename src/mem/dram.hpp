// Off-chip memory timing models for the two boards the paper evaluates:
// Stratix 10 SX2800 (DDR4) and MX2100 (HBM2). HBM2 offers many more
// pseudo-channels (higher request throughput) at a slightly lower latency,
// which is the property the paper calls out when comparing the boards.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/memprof.hpp"
#include "mem/ring.hpp"
#include "mem/timing.hpp"

namespace fgpu::mem {

struct DramConfig {
  std::string name = "ddr4";
  uint32_t latency = 100;          // cycles from accept to response
  uint32_t channels = 1;           // independent request pipes
  uint32_t requests_per_channel = 1;  // line requests accepted per channel per cycle
  uint32_t queue_depth = 32;       // per-channel in-flight limit

  static DramConfig ddr4() { return DramConfig{"ddr4", 100, 1, 1, 32}; }
  static DramConfig hbm2() { return DramConfig{"hbm2", 80, 8, 1, 32}; }
};

// Fixed-latency, bandwidth-limited DRAM. Requests are line-granular;
// channel selection is by address interleaving on line index.
class DramModel final : public MemPort {
 public:
  explicit DramModel(DramConfig config);

  bool can_accept() const override;
  // Never reported full: a refused sender (the L2, ticked every cycle
  // while any core is awake) keeps retrying each cycle, as it always has.
  bool full() const override { return false; }
  void send(const MemRequest& req) override;
  void set_response_handler(ResponseHandler handler) override { handler_ = std::move(handler); }
  void tick(uint64_t cycle) override;

  // Earliest future cycle (> the last ticked cycle) at which a queued
  // request matures; kNoEvent when all channels are empty. Queues are
  // served front-gated in FIFO order with nondecreasing ready cycles, so
  // each channel's front holds its earliest event.
  uint64_t next_event_cycle() const {
    return earliest_ready_ == kNoEvent ? kNoEvent : std::max(earliest_ready_, now_ + 1);
  }

  const DramConfig& config() const { return config_; }
  const MemStats& stats() const { return stats_; }
  uint64_t bytes_read() const { return stats_.reads * kLineBytes; }
  uint64_t bytes_written() const { return stats_.writes * kLineBytes; }
  // Peak line requests per cycle across channels (bandwidth ceiling).
  double peak_lines_per_cycle() const {
    return static_cast<double>(config_.channels * config_.requests_per_channel);
  }
  void reset_stats() {
    stats_ = MemStats{};
    trace_last_total_ = 0;
    if (profiler_) profiler_->reset();
  }

  // Delivers every queued request's response now, channel by channel in
  // FIFO order (kernel-launch boundary: their ready cycles belong to the
  // clock of the launch that ended).
  void drain();

  // Full return to construction-time state: reset_stats() plus the
  // per-channel request queues, acceptance counters and the internal clock
  // (the device-reuse contract, DESIGN.md "Device lifecycle").
  void reset() {
    reset_stats();
    for (auto& queue : queues_) queue.clear();
    for (auto& count : accepted_this_cycle_) count = 0;
    accepted_any_ = false;
    earliest_ready_ = kNoEvent;
    now_ = 0;
  }

  // Names this model's counter track in exported traces ("ddr4.d0"),
  // mirroring Cache::set_trace_id so multi-cluster/multi-device traces
  // keep DRAM tracks distinguishable.
  void set_trace_id(uint32_t tid) {
    trace_tid_ = tid;
    trace_name_ = config_.name + ".d" + std::to_string(tid);
  }

  // Turns on the per-channel DRAM profiler (queue-depth histograms,
  // channel imbalance — see memprof.hpp). Runtime opt-in like the cache's.
  void enable_memprof() {
    if (!profiler_) profiler_ = std::make_unique<DramProfiler>(config_.channels);
  }
  bool memprof_enabled() const { return profiler_ != nullptr; }
  DramMemProfile memprof_snapshot(uint64_t final_cycle) const {
    return profiler_ ? profiler_->snapshot(final_cycle) : DramMemProfile{};
  }

 private:
  struct Inflight {
    MemRequest req;
    uint64_t ready_cycle;
  };

  uint32_t channel_of(uint32_t addr) const { return line_of(addr) % config_.channels; }
  void trace_counters(uint64_t cycle);

  DramConfig config_;
  std::vector<Ring<Inflight>> queues_;  // per channel, queue_depth reserved
  std::vector<uint32_t> accepted_this_cycle_;
  bool accepted_any_ = false;  // some accepted_this_cycle_ entry is nonzero
  // Minimum ready cycle over the channel fronts; kNoEvent when every queue
  // is empty. tick() does nothing else until the clock reaches it.
  uint64_t earliest_ready_ = kNoEvent;
  uint64_t now_ = 0;
  ResponseHandler handler_;
  MemStats stats_;
  std::unique_ptr<DramProfiler> profiler_;  // null unless enable_memprof()

  // Trace hook state (see trace/trace.hpp).
  uint32_t trace_tid_ = 0;
  std::string trace_name_;
  uint64_t trace_last_total_ = 0;
};

}  // namespace fgpu::mem

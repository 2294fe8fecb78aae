// N-to-1 interconnect between multiple upstream clients (per-core L1I/L1D
// caches) and one downstream component (shared L2). Tags request ids so
// responses route back to the issuing client — the "Mem-Interconnect" box
// of the Vortex microarchitecture (paper Fig. 4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/timing.hpp"

namespace fgpu::mem {

class Interconnect {
 public:
  explicit Interconnect(MemPort* lower) : lower_(lower) {
    lower_->set_response_handler([this](uint64_t id, bool was_write) {
      // O(1): the route slot is in the tag's low bits; the full tag must
      // match the request that slot carries (stale tags never do).
      const uint64_t slot = id & kSlotMask;
      if (slot >= routes_.size() || routes_[slot].tag != id) return;
      const Route route = routes_[slot];
      routes_[slot].tag = 0;
      free_.push_back(static_cast<uint32_t>(slot));
      if (delivery_hook_) delivery_hook_(route.port);
      Endpoint* ep = endpoints_[route.port].get();
      if (ep->handler) ep->handler(route.original_id, was_write);
    });
  }

  // Creates a new upstream endpoint. Pointers remain valid for the life of
  // the interconnect (endpoints are heap-allocated and never removed).
  MemPort* new_port() {
    endpoints_.push_back(std::make_unique<Endpoint>(this, static_cast<uint32_t>(endpoints_.size())));
    return endpoints_.back().get();
  }

  // Runs with the endpoint index (creation order) just before a response
  // is delivered to that endpoint — the cluster's hook to wake a sleeping
  // core before its L1 sees the response.
  void set_delivery_hook(std::function<void(uint32_t)> hook) { delivery_hook_ = std::move(hook); }

  // Return to construction-time state (device-reuse contract): drops any
  // stale response routes and restarts the tag sequence. Only valid when no
  // traffic is in flight anywhere in the hierarchy — i.e. alongside
  // Cache::reset()/DramModel::reset() from Cluster::hard_reset().
  void reset() {
    routes_.clear();
    free_.clear();
    next_id_ = 1;
  }

 private:
  // Tags carry the route slot in their low 32 bits and a sequence above
  // them; slots are recycled, and the sequence tells a slot's successive
  // requests apart.
  static constexpr uint32_t kSlotBits = 32;
  static constexpr uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Route {
    uint64_t tag = 0;  // 0: slot free
    uint32_t port = 0;
    uint64_t original_id = 0;
  };

  // Claims a route slot for a request from `port` and returns its tag.
  uint64_t route(uint32_t port, uint64_t original_id) {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(routes_.size());
      routes_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    const uint64_t tag = (next_id_++ << kSlotBits) | slot;
    routes_[slot] = Route{tag, port, original_id};
    return tag;
  }

  struct Endpoint final : MemPort {
    Endpoint(Interconnect* owner, uint32_t index) : owner(owner), index(index) {}
    bool can_accept() const override { return owner->lower_->can_accept(); }
    bool full() const override { return owner->lower_->full(); }
    void send(const MemRequest& req) override {
      const uint64_t tagged = owner->route(index, req.id);
      owner->lower_->send(
          MemRequest{.id = tagged, .addr = req.addr, .is_write = req.is_write, .pc = req.pc});
    }
    void set_response_handler(ResponseHandler h) override { handler = std::move(h); }
    void tick(uint64_t /*cycle*/) override {}  // pass-through; lower is ticked by owner

    Interconnect* owner;
    uint32_t index;
    ResponseHandler handler;
  };

  MemPort* lower_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<Route> routes_;  // indexed by tag slot
  std::vector<uint32_t> free_;  // recycled route slots
  uint64_t next_id_ = 1;
  std::function<void(uint32_t)> delivery_hook_;
};

}  // namespace fgpu::mem

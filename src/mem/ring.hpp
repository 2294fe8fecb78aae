// FIFO ring buffer for the memory hierarchy's request queues (cache hit
// and writeback queues, DRAM channel queues). Capacity is a power of two
// reserved up front from the component's configuration; a push into a full
// ring doubles it and keeps FIFO order. Storage is never released, so a
// queue that reached its working size stops allocating (std::deque frees
// and reallocates its chunks as a queue drains and refills).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace fgpu::mem {

template <typename T>
class Ring {
 public:
  explicit Ring(uint32_t capacity = 0) {
    if (capacity > 0) grow(std::bit_ceil(capacity));
  }

  bool empty() const { return size_ == 0; }
  uint32_t size() const { return size_; }
  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }

  const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }
  void push_back(const T& value) {
    if (size_ == slots_.size()) grow(slots_.empty() ? 4 : 2 * capacity());
    slots_[(head_ + size_) & mask_] = value;
    ++size_;
  }
  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void clear() { head_ = size_ = 0; }

 private:
  // Re-lays the entries out from slot 0 in FIFO order.
  void grow(uint32_t capacity) {
    std::vector<T> next(capacity);
    for (uint32_t i = 0; i < size_; ++i) next[i] = slots_[(head_ + i) & mask_];
    slots_.swap(next);
    head_ = 0;
    mask_ = capacity - 1;
  }

  std::vector<T> slots_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  uint32_t mask_ = 0;
};

}  // namespace fgpu::mem

// Bit-manipulation helpers shared by the ISA encoder/decoder, caches and
// the simulator datapath.
#pragma once

#include <bit>
#include <cstdint>

namespace fgpu {

// Extracts bits [lo, lo+len) of `value`.
constexpr uint32_t bits(uint32_t value, unsigned lo, unsigned len) {
  return (value >> lo) & ((len >= 32) ? 0xFFFFFFFFu : ((1u << len) - 1u));
}

// Returns `value` with `field`'s low `len` bits placed at bit `lo`.
constexpr uint32_t place(uint32_t field, unsigned lo, unsigned len) {
  return (field & ((len >= 32) ? 0xFFFFFFFFu : ((1u << len) - 1u))) << lo;
}

// Sign-extends the low `width` bits of `value`.
constexpr int32_t sign_extend(uint32_t value, unsigned width) {
  const uint32_t m = 1u << (width - 1);
  return static_cast<int32_t>((value ^ m) - m);
}

constexpr bool is_pow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr unsigned log2_floor(uint64_t v) {
  return v == 0 ? 0 : 63 - static_cast<unsigned>(std::countl_zero(v));
}

constexpr unsigned log2_ceil(uint64_t v) {
  return v <= 1 ? 0 : log2_floor(v - 1) + 1;
}

constexpr uint64_t align_up(uint64_t v, uint64_t a) {
  return (v + a - 1) & ~(a - 1);
}

// A set of slot indices below a capacity of at most SlotMask::kSlots, one
// bit per slot. The MSHR file and the LSU queue keep one per kind of
// pending work, so their per-cycle loops visit only the slots that hold
// it, in ascending slot order. Both cap their slot count at kSlots: their
// request ids carry the slot in one byte.
class SlotMask {
 public:
  static constexpr uint32_t kSlots = 256;

  // Walks visit only the 64-bit words that slots [0, capacity) occupy.
  explicit SlotMask(uint32_t capacity) : words_in_use_((capacity + 63) / 64) {}

  void set(uint32_t slot) { words_[slot >> 6] |= 1ull << (slot & 63); }
  void reset(uint32_t slot) { words_[slot >> 6] &= ~(1ull << (slot & 63)); }
  bool test(uint32_t slot) const { return (words_[slot >> 6] >> (slot & 63)) & 1; }
  bool any() const { return (words_[0] | words_[1] | words_[2] | words_[3]) != 0; }
  void clear() { words_[0] = words_[1] = words_[2] = words_[3] = 0; }

  // Lowest slot not in the set; the capacity when every slot is.
  uint32_t first_clear() const {
    for (uint32_t w = 0; w < words_in_use_; ++w) {
      if (~words_[w] != 0) return w * 64 + static_cast<uint32_t>(std::countr_one(words_[w]));
    }
    return words_in_use_ * 64;
  }

  // Calls fn(slot) for every slot in the set, in ascending order, until fn
  // returns true. Each word is read once, so fn may clear the slot it is
  // given.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (uint32_t w = 0; w < words_in_use_; ++w) {
      for (uint64_t m = words_[w]; m != 0; m &= m - 1) {
        if (fn(w * 64 + static_cast<uint32_t>(std::countr_zero(m)))) return;
      }
    }
  }

 private:
  uint64_t words_[4] = {0, 0, 0, 0};
  uint32_t words_in_use_;
};

// Bit-casts between float and its IEEE-754 binary32 representation; the
// simulator register file stores all lanes as uint32_t.
inline uint32_t f2u(float f) { return std::bit_cast<uint32_t>(f); }
inline float u2f(uint32_t u) { return std::bit_cast<float>(u); }

}  // namespace fgpu

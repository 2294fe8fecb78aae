// Tests for the common utilities: Status/Result, bit helpers, and the
// deterministic PRNG the workload generators rely on.
#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace fgpu {
namespace {

TEST(StatusTest, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.to_string(), "OK");

  Status err(ErrorKind::kResourceExceeded, "Not enough BRAM");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.kind(), ErrorKind::kResourceExceeded);
  EXPECT_EQ(err.to_string(), "resource-exceeded: Not enough BRAM");
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(42);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad(ErrorKind::kNotFound, "missing");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().kind(), ErrorKind::kNotFound);
}

TEST(ResultTest, TakeMoves) {
  Result<std::string> r(std::string("payload"));
  const std::string taken = r.take();
  EXPECT_EQ(taken, "payload");
}

TEST(BitsTest, ExtractAndPlace) {
  EXPECT_EQ(bits(0xABCD1234, 8, 8), 0x12u);
  EXPECT_EQ(bits(0xFFFFFFFF, 0, 32), 0xFFFFFFFFu);
  EXPECT_EQ(place(0x3, 4, 2), 0x30u);
  EXPECT_EQ(place(0xFF, 0, 4), 0x0Fu);  // masked to field width
}

TEST(BitsTest, SignExtend) {
  EXPECT_EQ(sign_extend(0xFFF, 12), -1);
  EXPECT_EQ(sign_extend(0x7FF, 12), 2047);
  EXPECT_EQ(sign_extend(0x800, 12), -2048);
  EXPECT_EQ(sign_extend(0x0, 12), 0);
}

TEST(BitsTest, PowersAndAlignment) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(17), 4u);
  EXPECT_EQ(log2_ceil(17), 5u);
  EXPECT_EQ(log2_ceil(16), 4u);
  EXPECT_EQ(align_up(13, 8), 16u);
  EXPECT_EQ(align_up(16, 8), 16u);
}

TEST(BitsTest, FloatBitcastRoundTrip) {
  for (float f : {0.0f, -0.0f, 1.5f, -3.25e10f}) {
    EXPECT_EQ(u2f(f2u(f)), f);
  }
  EXPECT_EQ(f2u(1.0f), 0x3F800000u);
}

TEST(SlotMaskTest, WalksFirstClearAndCapacityAcrossWords) {
  SlotMask mask(SlotMask::kSlots);
  EXPECT_FALSE(mask.any());
  EXPECT_EQ(mask.first_clear(), 0u);
  for (const uint32_t slot : {200u, 3u, 64u, 255u, 63u}) mask.set(slot);
  EXPECT_TRUE(mask.any());
  EXPECT_TRUE(mask.test(64));
  EXPECT_FALSE(mask.test(65));
  std::vector<uint32_t> walked;
  mask.for_each([&](uint32_t slot) {
    walked.push_back(slot);
    mask.reset(slot);  // clearing the visited slot is allowed
    return false;
  });
  EXPECT_EQ(walked, (std::vector<uint32_t>{3, 63, 64, 200, 255}));
  EXPECT_FALSE(mask.any());

  for (uint32_t slot = 0; slot < 130; ++slot) mask.set(slot);
  EXPECT_EQ(mask.first_clear(), 130u);
  mask.reset(70);
  EXPECT_EQ(mask.first_clear(), 70u);
  walked.clear();
  mask.for_each([&](uint32_t slot) {
    walked.push_back(slot);
    return slot >= 65;  // stops the walk
  });
  EXPECT_EQ(walked.size(), 66u);
  EXPECT_EQ(walked.back(), 65u);
  mask.clear();
  EXPECT_FALSE(mask.any());

  // Full masks report their capacity.
  SlotMask small(6);
  for (uint32_t slot = 0; slot < 6; ++slot) small.set(slot);
  EXPECT_EQ(small.first_clear(), 6u);
  SlotMask full(64);
  for (uint32_t slot = 0; slot < 64; ++slot) full.set(slot);
  EXPECT_EQ(full.first_clear(), 64u);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
  // Different seeds diverge quickly.
  Rng a2(123);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a2.next_u32() != c.next_u32()) ++differing;
  }
  EXPECT_GT(differing, 8);
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int32_t v = rng.next_range(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
    const float f = rng.next_float(2.0f, 3.0f);
    EXPECT_GE(f, 2.0f);
    EXPECT_LT(f, 3.0f);
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, RoughlyUniform) {
  Rng rng(99);
  int buckets[8] = {0};
  const int draws = 8000;
  for (int i = 0; i < draws; ++i) ++buckets[rng.next_below(8)];
  for (int count : buckets) {
    EXPECT_GT(count, draws / 8 - 200);
    EXPECT_LT(count, draws / 8 + 200);
  }
}

}  // namespace
}  // namespace fgpu

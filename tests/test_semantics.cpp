// Spec tests of the shared ISA definition (arch/semantics.hpp). Both
// execution tiers run these functions, so a tier-vs-tier comparison cannot
// catch a wrong definition; these pin the RISC-V corner cases directly.
#include <gtest/gtest.h>

#include <cstdint>

#include "arch/semantics.hpp"

namespace fgpu::arch::sem {
namespace {

template <Op op>
uint32_t eval(uint32_t a, uint32_t b = 0, uint32_t c = 0) {
  return Lane<op>::eval(a, b, c);
}

constexpr uint32_t kIntMin = 0x80000000u;
constexpr uint32_t kMinusOne = 0xFFFFFFFFu;
constexpr uint32_t kPosZero = 0x00000000u, kNegZero = 0x80000000u;
constexpr uint32_t kPosInf = 0x7F800000u, kNegInf = 0xFF800000u;
constexpr uint32_t kQuietNaN = 0x7FC00000u, kNegQuietNaN = 0xFFC00001u;
constexpr uint32_t kSignalingNaN = 0x7F800001u;
constexpr uint32_t kOne = 0x3F800000u, kTwo = 0x40000000u, kMinusTwo = 0xC0000000u;

TEST(SemanticsTest, DivisionByZeroAndOverflowNeverTrap) {
  EXPECT_EQ(eval<Op::kDiv>(7, 0), kMinusOne);
  EXPECT_EQ(eval<Op::kDivu>(7, 0), kMinusOne);
  EXPECT_EQ(eval<Op::kRem>(7, 0), 7u);
  EXPECT_EQ(eval<Op::kRemu>(7, 0), 7u);
  EXPECT_EQ(eval<Op::kDiv>(kIntMin, kMinusOne), kIntMin);
  EXPECT_EQ(eval<Op::kRem>(kIntMin, kMinusOne), 0u);
  EXPECT_EQ(eval<Op::kDiv>(static_cast<uint32_t>(-7), 2), static_cast<uint32_t>(-3));
  EXPECT_EQ(eval<Op::kRem>(static_cast<uint32_t>(-7), 2), static_cast<uint32_t>(-1));
  EXPECT_EQ(eval<Op::kMulh>(kIntMin, kIntMin), 0x40000000u);
  EXPECT_EQ(eval<Op::kMulhsu>(kMinusOne, kMinusOne), kMinusOne);
  EXPECT_EQ(eval<Op::kMulhu>(kMinusOne, kMinusOne), 0xFFFFFFFEu);
}

TEST(SemanticsTest, ShiftsUseTheLowFiveBits) {
  EXPECT_EQ(eval<Op::kSll>(1, 33), 2u);
  EXPECT_EQ(eval<Op::kSrl>(kIntMin, 63), 1u);
  EXPECT_EQ(eval<Op::kSra>(kIntMin, 31), kMinusOne);
  EXPECT_EQ(eval<Op::kSrai>(kIntMin, 4), 0xF8000000u);
}

TEST(SemanticsTest, FloatToIntConversionSaturates) {
  EXPECT_EQ(eval<Op::kFcvtWS>(kQuietNaN), 0x7FFFFFFFu);
  EXPECT_EQ(eval<Op::kFcvtWS>(kNegQuietNaN), 0x7FFFFFFFu);
  EXPECT_EQ(eval<Op::kFcvtWS>(kPosInf), 0x7FFFFFFFu);
  EXPECT_EQ(eval<Op::kFcvtWS>(kNegInf), kIntMin);
  EXPECT_EQ(eval<Op::kFcvtWS>(0x4F000000u), 0x7FFFFFFFu);  // 2^31
  EXPECT_EQ(eval<Op::kFcvtWS>(0xCF000000u), kIntMin);      // -2^31
  EXPECT_EQ(eval<Op::kFcvtWS>(0xC0F33333u), static_cast<uint32_t>(-7));  // -7.6 truncates
  EXPECT_EQ(eval<Op::kFcvtWuS>(kQuietNaN), kMinusOne);
  EXPECT_EQ(eval<Op::kFcvtWuS>(kPosInf), kMinusOne);
  EXPECT_EQ(eval<Op::kFcvtWuS>(kNegInf), 0u);
  EXPECT_EQ(eval<Op::kFcvtWuS>(0xBF000000u), 0u);  // -0.5 truncates to 0
  EXPECT_EQ(eval<Op::kFcvtWuS>(0x4F800000u), kMinusOne);  // 2^32
  EXPECT_EQ(eval<Op::kFcvtSW>(kIntMin), 0xCF000000u);
  EXPECT_EQ(eval<Op::kFcvtSWu>(kMinusOne), 0x4F800000u);
}

TEST(SemanticsTest, FclassHasTenClasses) {
  EXPECT_EQ(eval<Op::kFclassS>(kNegInf), 1u << 0);
  EXPECT_EQ(eval<Op::kFclassS>(kMinusTwo), 1u << 1);
  EXPECT_EQ(eval<Op::kFclassS>(0x807FFFFFu), 1u << 2);  // negative subnormal
  EXPECT_EQ(eval<Op::kFclassS>(kNegZero), 1u << 3);
  EXPECT_EQ(eval<Op::kFclassS>(kPosZero), 1u << 4);
  EXPECT_EQ(eval<Op::kFclassS>(0x00000001u), 1u << 5);  // positive subnormal
  EXPECT_EQ(eval<Op::kFclassS>(kOne), 1u << 6);
  EXPECT_EQ(eval<Op::kFclassS>(kPosInf), 1u << 7);
  EXPECT_EQ(eval<Op::kFclassS>(kSignalingNaN), 1u << 8);
  EXPECT_EQ(eval<Op::kFclassS>(kQuietNaN), 1u << 9);
  EXPECT_EQ(eval<Op::kFclassS>(kNegQuietNaN), 1u << 9);
}

TEST(SemanticsTest, MinMaxOrderSignedZerosAndSkipNaN) {
  EXPECT_EQ(eval<Op::kFminS>(kPosZero, kNegZero), kNegZero);
  EXPECT_EQ(eval<Op::kFminS>(kNegZero, kPosZero), kNegZero);
  EXPECT_EQ(eval<Op::kFmaxS>(kPosZero, kNegZero), kPosZero);
  EXPECT_EQ(eval<Op::kFmaxS>(kNegZero, kPosZero), kPosZero);
  EXPECT_EQ(eval<Op::kFminS>(kNegQuietNaN, kTwo), kTwo);
  EXPECT_EQ(eval<Op::kFmaxS>(kTwo, kSignalingNaN), kTwo);
  EXPECT_EQ(eval<Op::kFminS>(kSignalingNaN, kNegQuietNaN), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFmaxS>(kNegQuietNaN, kNegQuietNaN), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFminS>(kOne, kMinusTwo), kMinusTwo);
  EXPECT_EQ(eval<Op::kFmaxS>(kOne, kMinusTwo), kOne);
}

TEST(SemanticsTest, ArithmeticNaNIsCanonical) {
  EXPECT_EQ(eval<Op::kFaddS>(kNegQuietNaN, kOne), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFaddS>(kPosInf, kNegInf), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFsubS>(kOne, kSignalingNaN), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFmulS>(kPosZero, kNegInf), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFdivS>(kPosZero, kNegZero), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFsqrtS>(kMinusTwo), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFmaddS>(kPosInf, kPosZero, kOne), kCanonicalNaN);
  EXPECT_EQ(eval<Op::kFnmaddS>(kOne, kOne, kNegQuietNaN), kCanonicalNaN);
  // Sign injection and moves are bit operations: payloads pass through.
  EXPECT_EQ(eval<Op::kFsgnjS>(kNegQuietNaN, kPosZero), 0x7FC00001u);
  EXPECT_EQ(eval<Op::kFmvXW>(kSignalingNaN), kSignalingNaN);
}

TEST(SemanticsTest, FusedFormsRoundTheProductAndKeepZeroSigns) {
  // 2*2 + 1, 2*2 - 1, -(2*2) + 1, -(2*2) - 1
  EXPECT_EQ(eval<Op::kFmaddS>(kTwo, kTwo, kOne), 0x40A00000u);
  EXPECT_EQ(eval<Op::kFmsubS>(kTwo, kTwo, kOne), 0x40400000u);
  EXPECT_EQ(eval<Op::kFnmsubS>(kTwo, kTwo, kOne), 0xC0400000u);
  EXPECT_EQ(eval<Op::kFnmaddS>(kTwo, kTwo, kOne), 0xC0A00000u);
  // -(+0 * 1) - (-0) = -0 + +0 = +0, where a negated sum would give -0.
  EXPECT_EQ(eval<Op::kFnmaddS>(kPosZero, kOne, kNegZero), kPosZero);
  // (1 + 2^-23) * (1 - 2^-23) = 1 - 2^-46 rounds to 1 before the add: 0.
  EXPECT_EQ(eval<Op::kFmsubS>(0x3F800001u, 0x3F7FFFFEu, kOne), kPosZero);
}

TEST(SemanticsTest, BranchesLoadsAndAtomics) {
  EXPECT_TRUE(branch_taken(Op::kBlt, kMinusOne, 0));
  EXPECT_FALSE(branch_taken(Op::kBltu, kMinusOne, 0));
  EXPECT_TRUE(branch_taken(Op::kBgeu, kMinusOne, 0));
  EXPECT_EQ(jalr_target(0x1001, 2), 0x1002u);

  struct Bytes {
    uint8_t b[8] = {0x80, 0xFF, 0x7F, 0x00, 5, 0, 0, 0};
    uint8_t load8(uint32_t a) { return b[a]; }
    uint16_t load16(uint32_t a) { return static_cast<uint16_t>(b[a] | b[a + 1] << 8); }
    uint32_t load32(uint32_t a) { return load16(a) | static_cast<uint32_t>(load16(a + 2)) << 16; }
    void store32(uint32_t a, uint32_t v) {
      for (int i = 0; i < 4; ++i) b[a + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  } m;
  EXPECT_EQ(memory_lane<Op::kLb>(m, 0, 0), 0xFFFFFF80u);
  EXPECT_EQ(memory_lane<Op::kLbu>(m, 0, 0), 0x80u);
  EXPECT_EQ(memory_lane<Op::kLh>(m, 0, 0), 0xFFFFFF80u);
  EXPECT_EQ(memory_lane<Op::kLhu>(m, 0, 0), 0xFF80u);
  EXPECT_EQ(memory_lane<Op::kAmominW>(m, 4, kMinusOne), 5u);  // returns the old value
  EXPECT_EQ(m.load32(4), kMinusOne);                          // signed min(5, -1)
  EXPECT_EQ(memory_lane<Op::kAmomaxW>(m, 4, 3), kMinusOne);
  EXPECT_EQ(m.load32(4), 3u);
  EXPECT_EQ(mem_addr<Op::kAmoaddW>(0x100, 8), 0x100u);  // atomics ignore the offset
  EXPECT_EQ(mem_addr<Op::kLw>(0x100, -4), 0xFCu);
}

TEST(SemanticsTest, SimtTransitions) {
  std::vector<IpdomEntry> ipdom;
  // Divergent SPLIT: run the taken lanes, queue the else side and the restore.
  SimtStep step = split(ipdom, 0b1111, 0b0101, 0x200);
  EXPECT_EQ(step.tmask, 0b0101u);
  EXPECT_EQ(step.next, Next::kFall);
  step = join(ipdom, step.tmask);
  EXPECT_EQ(step.tmask, 0b1010u);
  EXPECT_EQ(step.next, Next::kPc);
  EXPECT_EQ(step.pc, 0x200u);
  step = join(ipdom, step.tmask);
  EXPECT_EQ(step.tmask, 0b1111u);
  EXPECT_EQ(step.next, Next::kTake);
  EXPECT_EQ(join(ipdom, 0b1111).next, Next::kFault);
  // Uniform SPLITs push one entry; none taken jumps to the else side.
  EXPECT_EQ(split(ipdom, 0b11, 0, 0x200).next, Next::kTake);
  EXPECT_EQ(split(ipdom, 0b11, 0b11, 0x200).next, Next::kFall);
  EXPECT_EQ(ipdom.size(), 2u);
  // PRED keeps the live lanes, or exits with the mask unchanged.
  EXPECT_EQ(pred(0b111, 0b010).tmask, 0b010u);
  EXPECT_EQ(pred(0b111, 0).next, Next::kTake);
  EXPECT_EQ(pred(0b111, 0).tmask, 0b111u);

  EXPECT_EQ(tmc_mask(0xFFFF, 8), 0xFFu);
  EXPECT_EQ(tmc_mask(kMinusOne, 64), 0xFFFFFFFFu);
  EXPECT_EQ(first_lane(0b1000), 3u);
  EXPECT_EQ(first_lane(0), 0u);

  Barriers barriers;
  EXPECT_EQ(barrier_id(33), 1u);
  EXPECT_FALSE(barrier_arrive(barriers, 1, 2));
  EXPECT_TRUE(barrier_arrive(barriers, 1, 2));
  EXPECT_FALSE(barrier_arrive(barriers, 1, 2));  // re-armed

  CsrView view{.lane = 3, .warp = 1, .core = 2, .tmask = 0xF0, .threads = 8, .warps = 4,
               .cores = 2, .cycle = 99, .instret = 7};
  EXPECT_EQ(read_csr(kCsrThreadId, view), 3u);
  EXPECT_EQ(read_csr(kCsrTmask, view), 0xF0u);
  EXPECT_EQ(read_csr(kCsrNumWarps, view), 4u);
  EXPECT_EQ(read_csr(kCsrCycle, view), 99u);
  EXPECT_EQ(read_csr(0x123, view), 0u);
}

// The runtime-op form the constant folder uses agrees with the lane table,
// and so do the register-file predicates isa.cpp derives from it.
TEST(SemanticsTest, RuntimeFormsFollowTheTable) {
  EXPECT_EQ(eval_lane(Op::kSub, 3, 5, 0).value(), static_cast<uint32_t>(-2));
  EXPECT_FALSE(eval_lane(Op::kLw, 3, 5, 0).has_value());
  EXPECT_TRUE(is_lane_op(Op::kFnmaddS));
  EXPECT_FALSE(is_lane_op(Op::kSplit));
  EXPECT_TRUE(writes_freg(Op::kFcvtSW));
  EXPECT_FALSE(writes_freg(Op::kFeqS));
  EXPECT_TRUE(writes_freg(Op::kFlw));
  EXPECT_TRUE(reads_freg_rs1(Op::kFclassS));
  EXPECT_FALSE(reads_freg_rs2(Op::kFsqrtS));
  EXPECT_TRUE(reads_freg_rs2(Op::kFsw));
  EXPECT_TRUE(reads_freg_rs3(Op::kFmsubS));
  EXPECT_FALSE(reads_freg_rs3(Op::kFaddS));
}

}  // namespace
}  // namespace fgpu::arch::sem

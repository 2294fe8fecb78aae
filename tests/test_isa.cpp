// Encode/decode round-trip tests for every instruction class of the
// Vortex-style ISA, including the SIMT extension ops.
#include <gtest/gtest.h>

#include "arch/isa.hpp"

namespace fgpu::arch {
namespace {

TEST(IsaTest, EncodeDecodeRType) {
  for (Op op : {Op::kAdd, Op::kSub, Op::kSll, Op::kSlt, Op::kSltu, Op::kXor, Op::kSrl, Op::kSra,
                Op::kOr, Op::kAnd, Op::kMul, Op::kMulh, Op::kMulhsu, Op::kMulhu, Op::kDiv,
                Op::kDivu, Op::kRem, Op::kRemu}) {
    const Instr in{.op = op, .rd = 5, .rs1 = 6, .rs2 = 7};
    auto out = decode(encode(in));
    ASSERT_TRUE(out.has_value()) << op_info(op).name;
    EXPECT_EQ(*out, in) << op_info(op).name;
  }
}

TEST(IsaTest, EncodeDecodeImmediates) {
  for (int32_t imm : {-2048, -1, 0, 1, 42, 2047}) {
    for (Op op : {Op::kAddi, Op::kSlti, Op::kSltiu, Op::kXori, Op::kOri, Op::kAndi, Op::kLw,
                  Op::kLb, Op::kLh, Op::kLbu, Op::kLhu, Op::kJalr, Op::kFlw}) {
      const Instr in{.op = op, .rd = 10, .rs1 = 11, .imm = imm};
      auto out = decode(encode(in));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, in) << op_info(op).name << " imm=" << imm;
    }
  }
}

TEST(IsaTest, EncodeDecodeShifts) {
  for (int32_t sh : {0, 1, 15, 31}) {
    for (Op op : {Op::kSlli, Op::kSrli, Op::kSrai}) {
      const Instr in{.op = op, .rd = 3, .rs1 = 4, .imm = sh};
      auto out = decode(encode(in));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, in);
    }
  }
}

TEST(IsaTest, EncodeDecodeStores) {
  for (int32_t imm : {-2048, -4, 0, 4, 2047}) {
    for (Op op : {Op::kSb, Op::kSh, Op::kSw, Op::kFsw}) {
      const Instr in{.op = op, .rs1 = 8, .rs2 = 9, .imm = imm};
      auto out = decode(encode(in));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, in);
    }
  }
}

TEST(IsaTest, EncodeDecodeBranches) {
  for (int32_t imm : {-4096, -8, 0, 8, 4094}) {
    for (Op op : {Op::kBeq, Op::kBne, Op::kBlt, Op::kBge, Op::kBltu, Op::kBgeu}) {
      const Instr in{.op = op, .rs1 = 1, .rs2 = 2, .imm = imm};
      auto out = decode(encode(in));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, in) << op_info(op).name << " imm=" << imm;
    }
  }
}

TEST(IsaTest, EncodeDecodeUpperAndJumps) {
  const Instr lui{.op = Op::kLui, .rd = 7, .imm = 0xABCDE};
  EXPECT_EQ(*decode(encode(lui)), lui);
  const Instr auipc{.op = Op::kAuipc, .rd = 7, .imm = 0x12345};
  EXPECT_EQ(*decode(encode(auipc)), auipc);
  for (int32_t imm : {-(1 << 20), -4, 0, 4, (1 << 20) - 2}) {
    const Instr jal{.op = Op::kJal, .rd = 1, .imm = imm};
    auto out = decode(encode(jal));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, jal) << imm;
  }
}

TEST(IsaTest, EncodeDecodeCsr) {
  for (uint32_t csr : {kCsrThreadId, kCsrWarpId, kCsrCoreId, kCsrTmask, kCsrNumThreads,
                       kCsrNumWarps, kCsrNumCores, kCsrCycle}) {
    const Instr in{.op = Op::kCsrrs, .rd = 5, .rs1 = 0, .imm = static_cast<int32_t>(csr)};
    auto out = decode(encode(in));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, in);
  }
}

TEST(IsaTest, EncodeDecodeFloat) {
  for (Op op : {Op::kFaddS, Op::kFsubS, Op::kFmulS, Op::kFdivS, Op::kFsgnjS, Op::kFsgnjnS,
                Op::kFsgnjxS, Op::kFminS, Op::kFmaxS, Op::kFeqS, Op::kFltS, Op::kFleS}) {
    const Instr in{.op = op, .rd = 1, .rs1 = 2, .rs2 = 3};
    auto out = decode(encode(in));
    ASSERT_TRUE(out.has_value()) << op_info(op).name;
    EXPECT_EQ(*out, in) << op_info(op).name;
  }
  for (Op op : {Op::kFsqrtS, Op::kFcvtWS, Op::kFcvtWuS, Op::kFcvtSW, Op::kFcvtSWu, Op::kFmvXW,
                Op::kFmvWX, Op::kFclassS}) {
    const Instr in{.op = op, .rd = 4, .rs1 = 5};
    auto out = decode(encode(in));
    ASSERT_TRUE(out.has_value()) << op_info(op).name;
    EXPECT_EQ(*out, in) << op_info(op).name;
  }
  for (Op op : {Op::kFmaddS, Op::kFmsubS, Op::kFnmsubS, Op::kFnmaddS}) {
    const Instr in{.op = op, .rd = 1, .rs1 = 2, .rs2 = 3, .rs3 = 4};
    auto out = decode(encode(in));
    ASSERT_TRUE(out.has_value()) << op_info(op).name;
    EXPECT_EQ(*out, in) << op_info(op).name;
  }
}

TEST(IsaTest, EncodeDecodeAtomics) {
  for (Op op : {Op::kLrW, Op::kScW, Op::kAmoswapW, Op::kAmoaddW, Op::kAmoandW, Op::kAmoorW,
                Op::kAmoxorW, Op::kAmominW, Op::kAmomaxW}) {
    const Instr in{.op = op, .rd = 10, .rs1 = 11, .rs2 = 12};
    auto out = decode(encode(in));
    ASSERT_TRUE(out.has_value()) << op_info(op).name;
    EXPECT_EQ(*out, in) << op_info(op).name;
  }
}

TEST(IsaTest, EncodeDecodeSimtExtension) {
  const Instr tmc{.op = Op::kTmc, .rs1 = 5};
  EXPECT_EQ(*decode(encode(tmc)), tmc);
  const Instr wspawn{.op = Op::kWspawn, .rs1 = 5, .rs2 = 6};
  EXPECT_EQ(*decode(encode(wspawn)), wspawn);
  const Instr bar{.op = Op::kBar, .rs1 = 5, .rs2 = 6};
  EXPECT_EQ(*decode(encode(bar)), bar);
  for (int32_t imm : {-64, 8, 1024}) {
    const Instr split{.op = Op::kSplit, .rs1 = 7, .imm = imm};
    EXPECT_EQ(*decode(encode(split)), split);
    const Instr pred{.op = Op::kPred, .rs1 = 7, .imm = imm};
    EXPECT_EQ(*decode(encode(pred)), pred);
    const Instr join{.op = Op::kJoin, .imm = imm};
    EXPECT_EQ(*decode(encode(join)), join);
  }
}

// Every op in the table round-trips with generic operand values.
class IsaRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(IsaRoundTrip, RoundTrips) {
  const Op op = static_cast<Op>(GetParam());
  const auto& info = op_info(op);
  Instr in{.op = op};
  switch (info.fmt) {
    case Format::kR: in.rd = 1; in.rs1 = 2; in.rs2 = info.match_rs2 ? 0 : 3; break;
    case Format::kR4: in.rd = 1; in.rs1 = 2; in.rs2 = 3; in.rs3 = 4; break;
    case Format::kI: in.rd = 1; in.rs1 = 2; in.imm = -3; break;
    case Format::kIShift: in.rd = 1; in.rs1 = 2; in.imm = 3; break;
    case Format::kS: in.rs1 = 1; in.rs2 = 2; in.imm = -4; break;
    case Format::kB: in.rs1 = 1; in.rs2 = 2; in.imm = -8; break;
    case Format::kJr: in.rs1 = 2; in.imm = -8; break;
    case Format::kU: in.rd = 1; in.imm = 0x12345; break;
    case Format::kJ: in.rd = op == Op::kJoin ? 0 : 1; in.imm = 16; break;
    case Format::kCsr: in.rd = 1; in.rs1 = 0; in.imm = 0xCC0; break;
    case Format::kAmo: in.rd = 1; in.rs1 = 2; in.rs2 = 3; break;
    case Format::kSys: break;
  }
  auto out = decode(encode(in));
  ASSERT_TRUE(out.has_value()) << info.name;
  EXPECT_EQ(*out, in) << info.name;
}

INSTANTIATE_TEST_SUITE_P(AllOps, IsaRoundTrip, ::testing::Range(1, kNumOps),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = op_info(static_cast<Op>(info.param)).name;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST(IsaTest, MnemonicLookup) {
  EXPECT_EQ(op_by_name("add"), Op::kAdd);
  EXPECT_EQ(op_by_name("fmadd.s"), Op::kFmaddS);
  EXPECT_EQ(op_by_name("split"), Op::kSplit);
  EXPECT_EQ(op_by_name("wspawn"), Op::kWspawn);
  EXPECT_EQ(op_by_name("bogus"), std::nullopt);
}

TEST(IsaTest, RegisterNames) {
  EXPECT_EQ(xreg_by_name("zero"), 0u);
  EXPECT_EQ(xreg_by_name("sp"), 2u);
  EXPECT_EQ(xreg_by_name("a0"), 10u);
  EXPECT_EQ(xreg_by_name("t6"), 31u);
  EXPECT_EQ(xreg_by_name("x17"), 17u);
  EXPECT_EQ(xreg_by_name("nope"), std::nullopt);
  EXPECT_EQ(freg_by_name("f31"), 31u);
}

TEST(IsaTest, ToStringSmoke) {
  EXPECT_EQ(to_string(Instr{.op = Op::kAddi, .rd = 5, .rs1 = 0, .imm = 42}), "addi t0, zero, 42");
  EXPECT_EQ(to_string(Instr{.op = Op::kLw, .rd = 10, .rs1 = 2, .imm = 8}), "lw a0, 8(sp)");
  EXPECT_EQ(to_string(Instr{.op = Op::kTmc, .rs1 = 5}), "tmc t0");
  EXPECT_EQ(to_string(Instr{.op = Op::kSplit, .rs1 = 6, .imm = 16}), "split t1, 16");
}

TEST(IsaTest, InvalidWordsRejected) {
  EXPECT_FALSE(decode(0x00000000).has_value());
  EXPECT_FALSE(decode(0xFFFFFFFF).has_value());
}

}  // namespace
}  // namespace fgpu::arch

// Assembler / disassembler tests: text -> binary -> text round trips and
// label/fixup resolution in the programmatic builder.
#include <gtest/gtest.h>

#include "vasm/assembler.hpp"
#include "vasm/builder.hpp"

namespace fgpu::vasm {
namespace {

TEST(AsmBuilderTest, LiSmallAndLarge) {
  AsmBuilder b;
  b.li(5, 42);
  b.li(6, 0x12345678);
  b.li(7, -1);
  b.li(8, 0x7FFFF800);  // low 12 bits are 0x800 -> needs rounding compensation
  auto prog = b.finalize();
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  // Simulate the li sequences.
  auto run_li = [&](size_t first, size_t count) -> uint32_t {
    uint32_t reg = 0;
    for (size_t i = first; i < first + count; ++i) {
      auto in = arch::decode(prog->words[i]);
      EXPECT_TRUE(in.has_value());
      if (in->op == arch::Op::kLui) {
        reg = static_cast<uint32_t>(in->imm) << 12;
      } else {
        reg += static_cast<uint32_t>(in->imm);
      }
    }
    return reg;
  };
  EXPECT_EQ(run_li(0, 1), 42u);
  EXPECT_EQ(run_li(1, 2), 0x12345678u);
  EXPECT_EQ(run_li(3, 1), 0xFFFFFFFFu);
  EXPECT_EQ(run_li(4, 2), 0x7FFFF800u);
}

TEST(AsmBuilderTest, BranchFixups) {
  AsmBuilder b;
  auto loop = b.make_label();
  auto done = b.make_label();
  b.li(5, 3);
  b.bind(loop);
  b.emit_branch(arch::Op::kBeq, 5, 0, done);
  b.emit_i(arch::Op::kAddi, 5, 5, -1);
  b.j(loop);
  b.bind(done);
  b.tmc(0);
  auto prog = b.finalize();
  ASSERT_TRUE(prog.is_ok());
  auto beq = arch::decode(prog->words[1]);
  EXPECT_EQ(beq->imm, 12);  // forward to tmc
  auto jal = arch::decode(prog->words[3]);
  EXPECT_EQ(jal->imm, -8);  // back to beq
}

TEST(AsmBuilderTest, UnboundLabelIsError) {
  AsmBuilder b;
  auto ghost = b.make_label();
  b.j(ghost);
  auto prog = b.finalize();
  EXPECT_FALSE(prog.is_ok());
}

TEST(AsmBuilderTest, LaResolvesAbsoluteAddress) {
  AsmBuilder b;
  auto target = b.make_label();
  b.la(5, target);
  b.nop();
  b.bind(target);
  b.nop();
  auto prog = b.finalize(0x10000);
  ASSERT_TRUE(prog.is_ok());
  auto auipc = arch::decode(prog->words[0]);
  auto addi = arch::decode(prog->words[1]);
  const uint32_t value =
      (0x10000 + (static_cast<uint32_t>(auipc->imm) << 12)) + static_cast<uint32_t>(addi->imm);
  EXPECT_EQ(value, 0x10000u + 12);  // label is the 4th instruction
}

TEST(AssemblerTest, BasicProgram) {
  auto prog = assemble(R"(
    # simple countdown
    li t0, 3
  loop:
    beq t0, zero, done
    addi t0, t0, -1
    j loop
  done:
    tmc zero
  )");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  EXPECT_EQ(prog->words.size(), 5u);
  EXPECT_TRUE(prog->symbols.contains("loop"));
  EXPECT_TRUE(prog->symbols.contains("done"));
  EXPECT_EQ(prog->symbols.at("loop"), prog->base + 4);
}

TEST(AssemblerTest, MemoryOperands) {
  auto prog = assemble(R"(
    lw a0, 8(sp)
    sw a0, -4(s0)
    flw f1, 0(a1)
    fsw f1, 12(a1)
    amoadd.w t0, t1, (a2)
  )");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  auto lw = arch::decode(prog->words[0]);
  EXPECT_EQ(lw->op, arch::Op::kLw);
  EXPECT_EQ(lw->imm, 8);
  auto sw = arch::decode(prog->words[1]);
  EXPECT_EQ(sw->imm, -4);
  auto amo = arch::decode(prog->words[4]);
  EXPECT_EQ(amo->op, arch::Op::kAmoaddW);
}

TEST(AssemblerTest, SimtOps) {
  auto prog = assemble(R"(
    csrr t0, 0xCC0
    andi t1, t0, 1
    split t1, odd
    addi t2, zero, 1
    join merge
  odd:
    addi t2, zero, 2
    join merge
  merge:
    tmc zero
  )");
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  auto split = arch::decode(prog->words[2]);
  EXPECT_EQ(split->op, arch::Op::kSplit);
  EXPECT_EQ(split->imm, 12);  // to 'odd'
}

TEST(AssemblerTest, ErrorsAreReported) {
  EXPECT_FALSE(assemble("frobnicate t0, t1").is_ok());
  EXPECT_FALSE(assemble("addi t0, t1").is_ok());
  EXPECT_FALSE(assemble("addi q9, t1, 0").is_ok());
  EXPECT_FALSE(assemble("lw a0, nowhere").is_ok());
  EXPECT_FALSE(assemble("j missing_label").is_ok());
}

// I/S-type offsets are signed 12-bit and U-type values 20-bit: an
// out-of-range immediate is a line-numbered error, never a silent wrap
// (2048 used to assemble as -2048, 4096 as 0, -3000 as 1096).
TEST(AssemblerTest, ImmediatesOutOfRangeAreRejected) {
  for (const char* bad : {"sw t3, 2048(t1)", "addi t0, t0, 4096", "lw t0, -3000(t1)",
                          "flw f1, 4096(t1)", "slti t0, t1, -2049", "lui t0, 0x100000",
                          "lui t0, -1"}) {
    auto prog = assemble(std::string("li t1, 0\n") + bad);
    ASSERT_FALSE(prog.is_ok()) << bad;
    const std::string message = prog.status().to_string();
    EXPECT_NE(message.find("line 2: immediate out of range"), std::string::npos) << message;
  }
  auto edges = assemble(R"(
    addi t0, t0, 2047
    addi t0, t0, -2048
    sw t3, 2047(t1)
    lw t0, -2048(t1)
    lui t0, 0xFFFFF
  )");
  ASSERT_TRUE(edges.is_ok()) << edges.status().to_string();
  EXPECT_EQ(arch::decode(edges->words[0])->imm, 2047);
  EXPECT_EQ(arch::decode(edges->words[1])->imm, -2048);
  EXPECT_EQ(arch::decode(edges->words[2])->imm, 2047);
  EXPECT_EQ(arch::decode(edges->words[3])->imm, -2048);
  EXPECT_EQ(arch::decode(edges->words[4])->imm, 0xFFFFF);
}

TEST(AssemblerTest, DisassembleRoundTrip) {
  const char* source = R"(
    li t0, 100
    add t1, t0, t0
    fadd.s f1, f2, f3
    tmc zero
  )";
  auto prog = assemble(source);
  ASSERT_TRUE(prog.is_ok());
  const std::string dis = prog->disassemble();
  EXPECT_NE(dis.find("add t1, t0, t0"), std::string::npos);
  EXPECT_NE(dis.find("fadd.s f1, f2, f3"), std::string::npos);
  EXPECT_NE(dis.find("tmc zero"), std::string::npos);
}

// The synthetic-label listing must survive a full assemble -> disassemble
// -> assemble cycle bit-for-bit, including the SIMT extension (SPLIT /
// JOIN / PRED / TMC / WSPAWN / BAR), branches, and memory operands. This
// is what makes profiler listings pasteable back into the assembler.
TEST(DisassemblerTest, SynthLabelListingReassemblesBitExactly) {
  const char* source = R"(
    csrr t0, 0xCC0
    andi t1, t0, 1
    wspawn t2, t3
    split t1, odd
    addi t2, zero, 1
    join merge
  odd:
    addi t2, zero, 2
    join merge
  merge:
    pred t1, after_pred
  after_pred:
    bar t0, t1
    lw a0, 8(sp)
    fadd.s f1, f2, f3
    fsw f1, 12(a1)
    amoadd.w t0, t1, (a2)
  loop:
    beq t2, zero, done
    addi t2, t2, -1
    jal ra, helper
    j loop
  helper:
    sw a0, -4(s0)
  done:
    tmc zero
  )";
  auto prog = assemble(source);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();

  DisasmOptions options;
  options.addresses = false;
  options.synth_labels = true;
  const std::string listing = prog->disassemble(options);
  EXPECT_EQ(listing.find("0x00"), std::string::npos) << "addresses leaked into the listing";

  auto again = assemble(listing, prog->base);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string() << "\nlisting was:\n" << listing;
  EXPECT_EQ(again->words, prog->words);
  EXPECT_EQ(again->base, prog->base);
}

TEST(DisassemblerTest, UndecodableWordRendersAsInvalid) {
  auto prog = assemble("tmc zero");
  ASSERT_TRUE(prog.is_ok());
  ASSERT_FALSE(arch::decode(0u).has_value());  // opcode 0 is unassigned
  prog->words.push_back(0u);
  EXPECT_NE(prog->disassemble().find("<invalid>"), std::string::npos);
}

TEST(DisassemblerTest, AnnotateColumnAndSourceCommentsInterleave) {
  auto prog = assemble(R"(
    addi t0, zero, 1
    addi t1, zero, 2
    tmc zero
  )");
  ASSERT_TRUE(prog.is_ok());

  SourceMap map;
  map.sources = {"first statement", "second statement"};
  map.word_source = {0, 0, 1};
  DisasmOptions options;
  options.source_map = &map;
  options.annotate = [](uint32_t, size_t index) {
    std::string column = "[";  // appended piecewise: GCC 12 -Wrestrict
    column += std::to_string(index);
    column += "] ";
    return column;
  };
  const std::string listing = prog->disassemble(options);

  // One comment per source-id *change*, not one per word.
  size_t count = 0;
  for (size_t at = listing.find("# first statement"); at != std::string::npos;
       at = listing.find("# first statement", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_NE(listing.find("# second statement"), std::string::npos);
  // The annotate column precedes every word, and the comment precedes the
  // word it describes.
  EXPECT_NE(listing.find("[0] "), std::string::npos);
  EXPECT_NE(listing.find("[2] "), std::string::npos);
  EXPECT_LT(listing.find("# second statement"), listing.find("[2] "));
}

TEST(SourceMapTest, SourceForHandlesUnmappedWords) {
  SourceMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.source_for(0), "");
  map.sources = {"only"};
  map.word_source = {-1, 0};
  EXPECT_FALSE(map.empty());
  EXPECT_EQ(map.source_for(0), "");   // unmapped word
  EXPECT_EQ(map.source_for(1), "only");
  EXPECT_EQ(map.source_for(99), "");  // out of range
}

// Property: every encodable instruction disassembles to text that the
// mnemonic table recognizes.
TEST(AssemblerTest, DisassemblyMentionsMnemonic) {
  for (int i = 1; i < arch::kNumOps; ++i) {
    const auto op = static_cast<arch::Op>(i);
    const auto& info = arch::op_info(op);
    arch::Instr in{.op = op, .rd = 1, .rs1 = 2, .rs2 = 3, .imm = 0};
    if (info.fmt == arch::Format::kB || info.fmt == arch::Format::kJ) in.imm = 8;
    if (info.fmt == arch::Format::kJ && op == arch::Op::kJoin) in.rd = 0;
    const std::string text = arch::to_string(in);
    EXPECT_EQ(text.rfind(info.name, 0), 0u) << text;
  }
}

}  // namespace
}  // namespace fgpu::vasm

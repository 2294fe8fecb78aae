#include "arch/isa.hpp"

#include <array>
#include <cassert>
#include <cstdio>
#include <unordered_map>

#include "arch/semantics.hpp"

namespace fgpu::arch {
namespace {

// RISC-V major opcodes used here.
constexpr uint8_t kOpLui = 0x37, kOpAuipc = 0x17, kOpJal = 0x6F, kOpJalr = 0x67;
constexpr uint8_t kOpBranch = 0x63, kOpLoad = 0x03, kOpStore = 0x23;
constexpr uint8_t kOpImm = 0x13, kOpReg = 0x33, kOpMisc = 0x0F, kOpSys = 0x73;
constexpr uint8_t kOpAmo = 0x2F;
constexpr uint8_t kOpLoadFp = 0x07, kOpStoreFp = 0x27, kOpFp = 0x53;
constexpr uint8_t kOpFmadd = 0x43, kOpFmsub = 0x47, kOpFnmsub = 0x4B, kOpFnmadd = 0x4F;
// Vortex extension opcodes (RISC-V custom-0/1/2 spaces).
constexpr uint8_t kOpVx0 = 0x0B;  // TMC/WSPAWN/BAR (R-type)
constexpr uint8_t kOpVx1 = 0x2B;  // SPLIT (J-type range, rs1 in rd slot)
constexpr uint8_t kOpVx3 = 0x7B;  // PRED (J-type range, rs1 in rd slot)
constexpr uint8_t kOpVx2 = 0x5B;  // JOIN (J-type)

constexpr uint8_t amo(uint8_t funct5) { return static_cast<uint8_t>(funct5 << 2); }

const std::array<OpInfo, kNumOps>& table() {
  static const std::array<OpInfo, kNumOps> t = [] {
    std::array<OpInfo, kNumOps> a{};
    auto set = [&](Op op, const char* name, Format fmt, uint8_t opc, uint8_t f3, uint8_t f7,
                   bool mf3, bool mf7, FuClass fu, uint8_t lat, uint8_t rs2sel = 0,
                   bool mrs2 = false) {
      a[static_cast<size_t>(op)] =
          OpInfo{op, name, fmt, opc, f3, f7, mf3, mf7, rs2sel, mrs2, fu, lat};
    };
    using enum Format;
    using Fu = FuClass;
    // RV32I -------------------------------------------------------------
    set(Op::kLui, "lui", kU, kOpLui, 0, 0, false, false, Fu::kAlu, 1);
    set(Op::kAuipc, "auipc", kU, kOpAuipc, 0, 0, false, false, Fu::kAlu, 1);
    set(Op::kJal, "jal", kJ, kOpJal, 0, 0, false, false, Fu::kBranch, 1);
    set(Op::kJalr, "jalr", kI, kOpJalr, 0, 0, true, false, Fu::kBranch, 1);
    set(Op::kBeq, "beq", kB, kOpBranch, 0, 0, true, false, Fu::kBranch, 1);
    set(Op::kBne, "bne", kB, kOpBranch, 1, 0, true, false, Fu::kBranch, 1);
    set(Op::kBlt, "blt", kB, kOpBranch, 4, 0, true, false, Fu::kBranch, 1);
    set(Op::kBge, "bge", kB, kOpBranch, 5, 0, true, false, Fu::kBranch, 1);
    set(Op::kBltu, "bltu", kB, kOpBranch, 6, 0, true, false, Fu::kBranch, 1);
    set(Op::kBgeu, "bgeu", kB, kOpBranch, 7, 0, true, false, Fu::kBranch, 1);
    set(Op::kLb, "lb", kI, kOpLoad, 0, 0, true, false, Fu::kLsu, 2);
    set(Op::kLh, "lh", kI, kOpLoad, 1, 0, true, false, Fu::kLsu, 2);
    set(Op::kLw, "lw", kI, kOpLoad, 2, 0, true, false, Fu::kLsu, 2);
    set(Op::kLbu, "lbu", kI, kOpLoad, 4, 0, true, false, Fu::kLsu, 2);
    set(Op::kLhu, "lhu", kI, kOpLoad, 5, 0, true, false, Fu::kLsu, 2);
    set(Op::kSb, "sb", kS, kOpStore, 0, 0, true, false, Fu::kLsu, 1);
    set(Op::kSh, "sh", kS, kOpStore, 1, 0, true, false, Fu::kLsu, 1);
    set(Op::kSw, "sw", kS, kOpStore, 2, 0, true, false, Fu::kLsu, 1);
    set(Op::kAddi, "addi", kI, kOpImm, 0, 0, true, false, Fu::kAlu, 1);
    set(Op::kSlti, "slti", kI, kOpImm, 2, 0, true, false, Fu::kAlu, 1);
    set(Op::kSltiu, "sltiu", kI, kOpImm, 3, 0, true, false, Fu::kAlu, 1);
    set(Op::kXori, "xori", kI, kOpImm, 4, 0, true, false, Fu::kAlu, 1);
    set(Op::kOri, "ori", kI, kOpImm, 6, 0, true, false, Fu::kAlu, 1);
    set(Op::kAndi, "andi", kI, kOpImm, 7, 0, true, false, Fu::kAlu, 1);
    set(Op::kSlli, "slli", kIShift, kOpImm, 1, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kSrli, "srli", kIShift, kOpImm, 5, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kSrai, "srai", kIShift, kOpImm, 5, 0x20, true, true, Fu::kAlu, 1);
    set(Op::kAdd, "add", kR, kOpReg, 0, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kSub, "sub", kR, kOpReg, 0, 0x20, true, true, Fu::kAlu, 1);
    set(Op::kSll, "sll", kR, kOpReg, 1, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kSlt, "slt", kR, kOpReg, 2, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kSltu, "sltu", kR, kOpReg, 3, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kXor, "xor", kR, kOpReg, 4, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kSrl, "srl", kR, kOpReg, 5, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kSra, "sra", kR, kOpReg, 5, 0x20, true, true, Fu::kAlu, 1);
    set(Op::kOr, "or", kR, kOpReg, 6, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kAnd, "and", kR, kOpReg, 7, 0x00, true, true, Fu::kAlu, 1);
    set(Op::kFence, "fence", kSys, kOpMisc, 0, 0, true, false, Fu::kLsu, 1);
    set(Op::kEcall, "ecall", kSys, kOpSys, 0, 0, true, false, Fu::kSfu, 1);
    set(Op::kCsrrw, "csrrw", kCsr, kOpSys, 1, 0, true, false, Fu::kCsr, 1);
    set(Op::kCsrrs, "csrrs", kCsr, kOpSys, 2, 0, true, false, Fu::kCsr, 1);
    set(Op::kCsrrc, "csrrc", kCsr, kOpSys, 3, 0, true, false, Fu::kCsr, 1);
    // RV32M -------------------------------------------------------------
    set(Op::kMul, "mul", kR, kOpReg, 0, 0x01, true, true, Fu::kMulDiv, 3);
    set(Op::kMulh, "mulh", kR, kOpReg, 1, 0x01, true, true, Fu::kMulDiv, 3);
    set(Op::kMulhsu, "mulhsu", kR, kOpReg, 2, 0x01, true, true, Fu::kMulDiv, 3);
    set(Op::kMulhu, "mulhu", kR, kOpReg, 3, 0x01, true, true, Fu::kMulDiv, 3);
    set(Op::kDiv, "div", kR, kOpReg, 4, 0x01, true, true, Fu::kMulDiv, 16);
    set(Op::kDivu, "divu", kR, kOpReg, 5, 0x01, true, true, Fu::kMulDiv, 16);
    set(Op::kRem, "rem", kR, kOpReg, 6, 0x01, true, true, Fu::kMulDiv, 16);
    set(Op::kRemu, "remu", kR, kOpReg, 7, 0x01, true, true, Fu::kMulDiv, 16);
    // RV32A -------------------------------------------------------------
    set(Op::kLrW, "lr.w", kAmo, kOpAmo, 2, amo(0x02), true, true, Fu::kLsu, 2);
    set(Op::kScW, "sc.w", kAmo, kOpAmo, 2, amo(0x03), true, true, Fu::kLsu, 2);
    set(Op::kAmoswapW, "amoswap.w", kAmo, kOpAmo, 2, amo(0x01), true, true, Fu::kLsu, 2);
    set(Op::kAmoaddW, "amoadd.w", kAmo, kOpAmo, 2, amo(0x00), true, true, Fu::kLsu, 2);
    set(Op::kAmoandW, "amoand.w", kAmo, kOpAmo, 2, amo(0x0C), true, true, Fu::kLsu, 2);
    set(Op::kAmoorW, "amoor.w", kAmo, kOpAmo, 2, amo(0x08), true, true, Fu::kLsu, 2);
    set(Op::kAmoxorW, "amoxor.w", kAmo, kOpAmo, 2, amo(0x04), true, true, Fu::kLsu, 2);
    set(Op::kAmominW, "amomin.w", kAmo, kOpAmo, 2, amo(0x10), true, true, Fu::kLsu, 2);
    set(Op::kAmomaxW, "amomax.w", kAmo, kOpAmo, 2, amo(0x14), true, true, Fu::kLsu, 2);
    // RV32F -------------------------------------------------------------
    set(Op::kFlw, "flw", kI, kOpLoadFp, 2, 0, true, false, Fu::kLsu, 2);
    set(Op::kFsw, "fsw", kS, kOpStoreFp, 2, 0, true, false, Fu::kLsu, 1);
    set(Op::kFaddS, "fadd.s", kR, kOpFp, 0, 0x00, false, true, Fu::kFpu, 4);
    set(Op::kFsubS, "fsub.s", kR, kOpFp, 0, 0x04, false, true, Fu::kFpu, 4);
    set(Op::kFmulS, "fmul.s", kR, kOpFp, 0, 0x08, false, true, Fu::kFpu, 4);
    set(Op::kFdivS, "fdiv.s", kR, kOpFp, 0, 0x0C, false, true, Fu::kSfu, 16);
    set(Op::kFsqrtS, "fsqrt.s", kR, kOpFp, 0, 0x2C, false, true, Fu::kSfu, 16, 0, true);
    set(Op::kFsgnjS, "fsgnj.s", kR, kOpFp, 0, 0x10, true, true, Fu::kFpu, 1);
    set(Op::kFsgnjnS, "fsgnjn.s", kR, kOpFp, 1, 0x10, true, true, Fu::kFpu, 1);
    set(Op::kFsgnjxS, "fsgnjx.s", kR, kOpFp, 2, 0x10, true, true, Fu::kFpu, 1);
    set(Op::kFminS, "fmin.s", kR, kOpFp, 0, 0x14, true, true, Fu::kFpu, 2);
    set(Op::kFmaxS, "fmax.s", kR, kOpFp, 1, 0x14, true, true, Fu::kFpu, 2);
    set(Op::kFcvtWS, "fcvt.w.s", kR, kOpFp, 0, 0x60, false, true, Fu::kFpu, 3, 0, true);
    set(Op::kFcvtWuS, "fcvt.wu.s", kR, kOpFp, 0, 0x60, false, true, Fu::kFpu, 3, 1, true);
    set(Op::kFcvtSW, "fcvt.s.w", kR, kOpFp, 0, 0x68, false, true, Fu::kFpu, 3, 0, true);
    set(Op::kFcvtSWu, "fcvt.s.wu", kR, kOpFp, 0, 0x68, false, true, Fu::kFpu, 3, 1, true);
    set(Op::kFmvXW, "fmv.x.w", kR, kOpFp, 0, 0x70, true, true, Fu::kFpu, 1, 0, true);
    set(Op::kFclassS, "fclass.s", kR, kOpFp, 1, 0x70, true, true, Fu::kFpu, 1, 0, true);
    set(Op::kFmvWX, "fmv.w.x", kR, kOpFp, 0, 0x78, true, true, Fu::kFpu, 1, 0, true);
    set(Op::kFeqS, "feq.s", kR, kOpFp, 2, 0x50, true, true, Fu::kFpu, 2);
    set(Op::kFltS, "flt.s", kR, kOpFp, 1, 0x50, true, true, Fu::kFpu, 2);
    set(Op::kFleS, "fle.s", kR, kOpFp, 0, 0x50, true, true, Fu::kFpu, 2);
    set(Op::kFmaddS, "fmadd.s", kR4, kOpFmadd, 0, 0x00, false, false, Fu::kFpu, 4);
    set(Op::kFmsubS, "fmsub.s", kR4, kOpFmsub, 0, 0x00, false, false, Fu::kFpu, 4);
    set(Op::kFnmsubS, "fnmsub.s", kR4, kOpFnmsub, 0, 0x00, false, false, Fu::kFpu, 4);
    set(Op::kFnmaddS, "fnmadd.s", kR4, kOpFnmadd, 0, 0x00, false, false, Fu::kFpu, 4);
    // Vortex SIMT extension ----------------------------------------------
    set(Op::kTmc, "tmc", kR, kOpVx0, 0, 0x00, true, true, Fu::kSimt, 1);
    set(Op::kWspawn, "wspawn", kR, kOpVx0, 0, 0x01, true, true, Fu::kSimt, 1);
    set(Op::kBar, "bar", kR, kOpVx0, 0, 0x04, true, true, Fu::kSimt, 1);
    set(Op::kSplit, "split", kJr, kOpVx1, 0, 0, false, false, Fu::kSimt, 1);
    set(Op::kPred, "pred", kJr, kOpVx3, 0, 0, false, false, Fu::kSimt, 1);
    set(Op::kJoin, "join", kJ, kOpVx2, 0, 0, false, false, Fu::kSimt, 1);
    return a;
  }();
  return t;
}

uint32_t encode_b_imm(int32_t imm) {
  // imm[12|10:5] in [31:25], imm[4:1|11] in [11:7]
  const auto u = static_cast<uint32_t>(imm);
  return place(bits(u, 12, 1), 31, 1) | place(bits(u, 5, 6), 25, 6) |
         place(bits(u, 1, 4), 8, 4) | place(bits(u, 11, 1), 7, 1);
}

int32_t decode_b_imm(uint32_t w) {
  const uint32_t u = place(bits(w, 31, 1), 12, 1) | place(bits(w, 7, 1), 11, 1) |
                     place(bits(w, 25, 6), 5, 6) | place(bits(w, 8, 4), 1, 4);
  return sign_extend(u, 13);
}

uint32_t encode_j_imm(int32_t imm) {
  // imm[20|10:1|11|19:12] in [31:12]
  const auto u = static_cast<uint32_t>(imm);
  return place(bits(u, 20, 1), 31, 1) | place(bits(u, 1, 10), 21, 10) |
         place(bits(u, 11, 1), 20, 1) | place(bits(u, 12, 8), 12, 8);
}

int32_t decode_j_imm(uint32_t w) {
  const uint32_t u = place(bits(w, 31, 1), 20, 1) | place(bits(w, 12, 8), 12, 8) |
                     place(bits(w, 20, 1), 11, 1) | place(bits(w, 21, 10), 1, 10);
  return sign_extend(u, 21);
}

}  // namespace

const OpInfo& op_info(Op op) {
  assert(op != Op::kInvalid && op != Op::kCount);
  return table()[static_cast<size_t>(op)];
}

std::optional<Op> op_by_name(const std::string& name) {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, Op>();
    for (int i = 1; i < kNumOps; ++i) {
      const auto& info = table()[static_cast<size_t>(i)];
      if (info.op != Op::kInvalid) (*m)[info.name] = info.op;
    }
    return m;
  }();
  auto it = map->find(name);
  if (it == map->end()) return std::nullopt;
  return it->second;
}

uint32_t encode(const Instr& in) {
  const OpInfo& info = op_info(in.op);
  uint32_t w = info.opcode;
  switch (info.fmt) {
    case Format::kR:
      w |= place(in.rd, 7, 5) | place(info.funct3, 12, 3) | place(in.rs1, 15, 5) |
           place(info.match_rs2 ? info.rs2sel : in.rs2, 20, 5) | place(info.funct7, 25, 7);
      break;
    case Format::kR4:
      w |= place(in.rd, 7, 5) | place(0, 12, 3) | place(in.rs1, 15, 5) | place(in.rs2, 20, 5) |
           place(0, 25, 2) | place(in.rs3, 27, 5);
      break;
    case Format::kI:
      assert(in.imm >= -2048 && in.imm <= 2047);
      w |= place(in.rd, 7, 5) | place(info.funct3, 12, 3) | place(in.rs1, 15, 5) |
           place(static_cast<uint32_t>(in.imm), 20, 12);
      break;
    case Format::kIShift:
      assert(in.imm >= 0 && in.imm < 32);
      w |= place(in.rd, 7, 5) | place(info.funct3, 12, 3) | place(in.rs1, 15, 5) |
           place(static_cast<uint32_t>(in.imm), 20, 5) | place(info.funct7, 25, 7);
      break;
    case Format::kS:
      assert(in.imm >= -2048 && in.imm <= 2047);
      w |= place(bits(static_cast<uint32_t>(in.imm), 0, 5), 7, 5) | place(info.funct3, 12, 3) |
           place(in.rs1, 15, 5) | place(in.rs2, 20, 5) |
           place(bits(static_cast<uint32_t>(in.imm), 5, 7), 25, 7);
      break;
    case Format::kB:
      assert(in.imm >= -4096 && in.imm <= 4095 && (in.imm & 1) == 0);
      w |= place(info.funct3, 12, 3) | place(in.rs1, 15, 5) | place(in.rs2, 20, 5) |
           encode_b_imm(in.imm);
      break;
    case Format::kU:
      w |= place(in.rd, 7, 5) | place(static_cast<uint32_t>(in.imm), 12, 20);
      break;
    case Format::kJ:
      assert(in.imm >= -(1 << 20) && in.imm < (1 << 20) && (in.imm & 1) == 0);
      w |= place(in.rd, 7, 5) | encode_j_imm(in.imm);
      break;
    case Format::kJr:
      assert(in.imm >= -(1 << 20) && in.imm < (1 << 20) && (in.imm & 1) == 0);
      w |= place(in.rs1, 7, 5) | encode_j_imm(in.imm);
      break;
    case Format::kCsr:
      w |= place(in.rd, 7, 5) | place(info.funct3, 12, 3) | place(in.rs1, 15, 5) |
           place(static_cast<uint32_t>(in.imm), 20, 12);
      break;
    case Format::kAmo:
      w |= place(in.rd, 7, 5) | place(info.funct3, 12, 3) | place(in.rs1, 15, 5) |
           place(in.rs2, 20, 5) | place(info.funct7, 25, 7);
      break;
    case Format::kSys:
      w |= place(info.funct3, 12, 3);
      break;
  }
  return w;
}

std::optional<Instr> decode(uint32_t w) {
  const uint8_t opcode = w & 0x7F;
  const uint8_t f3 = bits(w, 12, 3);
  const uint8_t f7 = bits(w, 25, 7);
  const uint8_t rs2f = bits(w, 20, 5);
  for (int i = 1; i < kNumOps; ++i) {
    const OpInfo& info = table()[static_cast<size_t>(i)];
    if (info.op == Op::kInvalid || info.opcode != opcode) continue;
    if (info.match_f3 && info.funct3 != f3) continue;
    if ((info.match_f7 || info.fmt == Format::kIShift || info.fmt == Format::kAmo) &&
        info.funct7 != (info.fmt == Format::kAmo ? (f7 & 0x7C) : f7))
      continue;
    if (info.fmt == Format::kR && info.match_f7 && info.funct7 != f7) continue;
    if (info.match_rs2 && info.rs2sel != rs2f) continue;
    Instr out;
    out.op = info.op;
    switch (info.fmt) {
      case Format::kR:
        out.rd = bits(w, 7, 5);
        out.rs1 = bits(w, 15, 5);
        out.rs2 = info.match_rs2 ? 0 : rs2f;
        break;
      case Format::kR4:
        out.rd = bits(w, 7, 5);
        out.rs1 = bits(w, 15, 5);
        out.rs2 = rs2f;
        out.rs3 = bits(w, 27, 5);
        break;
      case Format::kI:
        out.rd = bits(w, 7, 5);
        out.rs1 = bits(w, 15, 5);
        out.imm = sign_extend(bits(w, 20, 12), 12);
        break;
      case Format::kIShift:
        out.rd = bits(w, 7, 5);
        out.rs1 = bits(w, 15, 5);
        out.imm = static_cast<int32_t>(bits(w, 20, 5));
        break;
      case Format::kS:
        out.rs1 = bits(w, 15, 5);
        out.rs2 = rs2f;
        out.imm = sign_extend(bits(w, 25, 7) << 5 | bits(w, 7, 5), 12);
        break;
      case Format::kB:
        out.rs1 = bits(w, 15, 5);
        out.rs2 = rs2f;
        out.imm = decode_b_imm(w);
        break;
      case Format::kU:
        out.rd = bits(w, 7, 5);
        out.imm = static_cast<int32_t>(bits(w, 12, 20));
        break;
      case Format::kJ:
        out.rd = bits(w, 7, 5);
        out.imm = decode_j_imm(w);
        break;
      case Format::kJr:
        out.rs1 = bits(w, 7, 5);
        out.imm = decode_j_imm(w);
        break;
      case Format::kCsr:
        out.rd = bits(w, 7, 5);
        out.rs1 = bits(w, 15, 5);
        out.imm = static_cast<int32_t>(bits(w, 20, 12));
        break;
      case Format::kAmo:
        out.rd = bits(w, 7, 5);
        out.rs1 = bits(w, 15, 5);
        out.rs2 = rs2f;
        break;
      case Format::kSys:
        break;
    }
    return out;
  }
  return std::nullopt;
}

namespace {
const char* kXregNames[32] = {"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
                              "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
                              "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
}  // namespace

const char* xreg_name(unsigned index) {
  assert(index < 32);
  return kXregNames[index];
}

const char* freg_name(unsigned index) {
  static const char* names[32] = {"f0",  "f1",  "f2",  "f3",  "f4",  "f5",  "f6",  "f7",
                                  "f8",  "f9",  "f10", "f11", "f12", "f13", "f14", "f15",
                                  "f16", "f17", "f18", "f19", "f20", "f21", "f22", "f23",
                                  "f24", "f25", "f26", "f27", "f28", "f29", "f30", "f31"};
  assert(index < 32);
  return names[index];
}

std::optional<unsigned> xreg_by_name(const std::string& name) {
  for (unsigned i = 0; i < 32; ++i) {
    if (name == kXregNames[i]) return i;
  }
  if (name.size() >= 2 && name[0] == 'x') {
    unsigned v = 0;
    for (size_t i = 1; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') return std::nullopt;
      v = v * 10 + static_cast<unsigned>(name[i] - '0');
    }
    if (v < 32) return v;
  }
  if (name == "fp") return 8;
  return std::nullopt;
}

std::optional<unsigned> freg_by_name(const std::string& name) {
  if (name.size() >= 2 && name[0] == 'f') {
    unsigned v = 0;
    for (size_t i = 1; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') return std::nullopt;
      v = v * 10 + static_cast<unsigned>(name[i] - '0');
    }
    if (v < 32) return v;
  }
  return std::nullopt;
}

// Register files follow the lane table (arch/semantics.hpp); the FP load
// and store are the only other ops touching the FP file.
namespace {
bool lane_slot_is_f(Op op, sem::Src sem::LaneShape::*slot) {
  const auto shape = sem::lane_shape(op);
  return shape && (*shape).*slot == sem::Src::kF;
}
}  // namespace

bool writes_freg(Op op) { return op == Op::kFlw || lane_slot_is_f(op, &sem::LaneShape::rd); }
bool reads_freg_rs1(Op op) { return lane_slot_is_f(op, &sem::LaneShape::a); }
bool reads_freg_rs2(Op op) { return op == Op::kFsw || lane_slot_is_f(op, &sem::LaneShape::b); }
bool reads_freg_rs3(Op op) { return lane_slot_is_f(op, &sem::LaneShape::c); }

std::string to_string(const Instr& in) {
  const OpInfo& info = op_info(in.op);
  char buf[96];
  auto xr = [](unsigned r) { return xreg_name(r); };
  auto fr = [](unsigned r) { return freg_name(r); };
  const bool fd = writes_freg(in.op);
  const bool f1 = reads_freg_rs1(in.op);
  const bool f2 = reads_freg_rs2(in.op);
  switch (info.fmt) {
    case Format::kR:
      if (in.op == Op::kTmc || in.op == Op::kFsqrtS || in.op == Op::kFmvXW ||
          in.op == Op::kFmvWX || in.op == Op::kFclassS || in.op == Op::kFcvtWS ||
          in.op == Op::kFcvtWuS || in.op == Op::kFcvtSW || in.op == Op::kFcvtSWu) {
        if (in.op == Op::kTmc) {
          std::snprintf(buf, sizeof(buf), "%s %s", info.name, xr(in.rs1));
        } else {
          std::snprintf(buf, sizeof(buf), "%s %s, %s", info.name, fd ? fr(in.rd) : xr(in.rd),
                        f1 ? fr(in.rs1) : xr(in.rs1));
        }
      } else if (in.op == Op::kWspawn || in.op == Op::kBar) {
        std::snprintf(buf, sizeof(buf), "%s %s, %s", info.name, xr(in.rs1), xr(in.rs2));
      } else {
        std::snprintf(buf, sizeof(buf), "%s %s, %s, %s", info.name, fd ? fr(in.rd) : xr(in.rd),
                      f1 ? fr(in.rs1) : xr(in.rs1), f2 ? fr(in.rs2) : xr(in.rs2));
      }
      break;
    case Format::kR4:
      std::snprintf(buf, sizeof(buf), "%s %s, %s, %s, %s", info.name, fr(in.rd), fr(in.rs1),
                    fr(in.rs2), fr(in.rs3));
      break;
    case Format::kI:
      if (in.op == Op::kLb || in.op == Op::kLh || in.op == Op::kLw || in.op == Op::kLbu ||
          in.op == Op::kLhu || in.op == Op::kFlw || in.op == Op::kJalr) {
        std::snprintf(buf, sizeof(buf), "%s %s, %d(%s)", info.name, fd ? fr(in.rd) : xr(in.rd),
                      in.imm, xr(in.rs1));
      } else {
        std::snprintf(buf, sizeof(buf), "%s %s, %s, %d", info.name, xr(in.rd), xr(in.rs1), in.imm);
      }
      break;
    case Format::kIShift:
      std::snprintf(buf, sizeof(buf), "%s %s, %s, %d", info.name, xr(in.rd), xr(in.rs1), in.imm);
      break;
    case Format::kS:
      std::snprintf(buf, sizeof(buf), "%s %s, %d(%s)", info.name, f2 ? fr(in.rs2) : xr(in.rs2),
                    in.imm, xr(in.rs1));
      break;
    case Format::kB:
      std::snprintf(buf, sizeof(buf), "%s %s, %s, %d", info.name, xr(in.rs1), xr(in.rs2),
                    in.imm);
      break;
    case Format::kJr:
      std::snprintf(buf, sizeof(buf), "%s %s, %d", info.name, xr(in.rs1), in.imm);
      break;
    case Format::kU:
      std::snprintf(buf, sizeof(buf), "%s %s, %d", info.name, xr(in.rd), in.imm);
      break;
    case Format::kJ:
      if (in.op == Op::kJoin) {
        std::snprintf(buf, sizeof(buf), "%s %d", info.name, in.imm);
      } else {
        std::snprintf(buf, sizeof(buf), "%s %s, %d", info.name, xr(in.rd), in.imm);
      }
      break;
    case Format::kCsr:
      std::snprintf(buf, sizeof(buf), "%s %s, 0x%x, %s", info.name, xr(in.rd),
                    static_cast<unsigned>(in.imm), xr(in.rs1));
      break;
    case Format::kAmo:
      std::snprintf(buf, sizeof(buf), "%s %s, %s, (%s)", info.name, xr(in.rd), xr(in.rs2),
                    xr(in.rs1));
      break;
    case Format::kSys:
      std::snprintf(buf, sizeof(buf), "%s", info.name);
      break;
  }
  return buf;
}

}  // namespace fgpu::arch

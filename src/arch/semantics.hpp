// The one definition of what each guest instruction does architecturally.
//
// The cycle-exact core (vortex/core.cpp), the turbo translator
// (vortex/jit/turbo.cpp) and the compiler's constant folder
// (codegen/peephole.cpp) all evaluate instructions through this file, so
// "same bits on every tier" holds by construction rather than by keeping
// copies in step. What stays tier-specific is machinery: register layout,
// lane iteration, the memory path, scheduling and timing.
//
//   FGPU_ARCH_LANE_OPS    every op whose whole effect is rd = f(a, b, c) in
//                         each active lane (ALU, M, F), with where a, b, c
//                         and rd come from; Lane<op>::eval is that f
//   FGPU_ARCH_MEMORY_OPS  loads, stores, LR/SC and AMOs; memory_lane<op> is
//                         one lane's access (extension, width, AMO combine)
//   branch_taken, jalr_target, link
//   SIMT transitions      tmc_mask, split, join, pred, barrier_arrive,
//                         read_csr (isa.hpp documents the IPDOM scheme)
//
// Lane loops instantiate Lane<op> / memory_lane<op> with the op known at
// compile time; the runtime-op forms (eval_lane, lane_shape) are for callers
// outside lane loops.
//
// Floating point follows the RISC-V F rules, not the host's: an arithmetic
// result that is NaN is the canonical NaN 0x7fc00000, and fmin/fmax order
// -0 < +0 and return the other operand when one is NaN (both NaN: canonical).
// Sign injection, moves, loads and stores pass NaN payloads through. So no
// result depends on the host's NaN propagation, on operand order inside a
// vectorized loop, or on compiler flags. a*b+c is rounded twice (the product
// is a separate statement), matching the guest compiler's use of the FMA
// opcodes as multiply-then-add.
//
// Linkage: turbo.cpp is built with -O3 -march=native and core.cpp with the
// baseline flags. Every function here has internal linkage (the unnamed
// namespace), so the linker can never hand one TU an out-of-line copy
// compiled for the other's target. The types are plain data.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/isa.hpp"

namespace fgpu::arch {

// One IPDOM stack entry (SPLIT pushes, JOIN pops).
struct IpdomEntry {
  enum Kind : uint8_t { kUniform, kElse, kRestore };
  Kind kind;
  uint64_t mask;
  uint32_t pc;
};

// A core's 32 hardware barriers: warps arrived and warps expected per id.
struct Barriers {
  uint32_t arrived[32] = {};
  uint32_t expected[32] = {};
};

// What the machine-information CSRs read for one lane.
struct CsrView {
  uint32_t lane = 0;
  uint32_t warp = 0;
  uint32_t core = 0;
  uint64_t tmask = 0;
  uint32_t threads = 0;
  uint32_t warps = 0;
  uint32_t cores = 0;
  uint64_t cycle = 0;  // 0 on the functional tier, which has no clock
  uint64_t instret = 0;
};

namespace sem {

// Where a lane op's operand or result lives: the integer or FP register
// named by rd/rs1/rs2/rs3, the decoded immediate, or the instruction's PC.
enum class Src : uint8_t { kNone, kX, kF, kImm, kPc };

struct LaneShape {
  Src rd, a, b, c;
};

// What the next PC of a SIMT control instruction is.
enum class Next : uint8_t {
  kFall,   // the following instruction
  kTake,   // the instruction's PC-relative target
  kPc,     // SimtStep::pc (an ELSE side popped off the IPDOM stack)
  kFault,  // JOIN with an empty IPDOM stack: the warp stops
};

struct SimtStep {
  uint64_t tmask;  // the warp's thread mask afterwards
  Next next;
  uint32_t pc = 0;  // for Next::kPc
};

inline constexpr uint32_t kCanonicalNaN = 0x7fc00000u;

// X(Name, rd, a, b, c, expression over the uint32_t operand values a, b, c)
// with rd in {X, F} and a, b, c in {None, X, F, Imm, Pc}. a comes from rs1,
// b from rs2, c from rs3 when they name registers.
#define FGPU_ARCH_LANE_OPS(ROW)                                            \
  /* RV32I */                                                              \
  ROW(Lui, X, None, Imm, None, b << 12)                                    \
  ROW(Auipc, X, Pc, Imm, None, a + (b << 12))                              \
  ROW(Addi, X, X, Imm, None, a + b)                                        \
  ROW(Slti, X, X, Imm, None, i32(a) < i32(b))                              \
  ROW(Sltiu, X, X, Imm, None, a < b)                                       \
  ROW(Xori, X, X, Imm, None, a ^ b)                                        \
  ROW(Ori, X, X, Imm, None, a | b)                                         \
  ROW(Andi, X, X, Imm, None, a & b)                                        \
  ROW(Slli, X, X, Imm, None, a << (b & 31))                                \
  ROW(Srli, X, X, Imm, None, a >> (b & 31))                                \
  ROW(Srai, X, X, Imm, None, sra(a, b))                                    \
  ROW(Add, X, X, X, None, a + b)                                           \
  ROW(Sub, X, X, X, None, a - b)                                           \
  ROW(Sll, X, X, X, None, a << (b & 31))                                   \
  ROW(Slt, X, X, X, None, i32(a) < i32(b))                                 \
  ROW(Sltu, X, X, X, None, a < b)                                          \
  ROW(Xor, X, X, X, None, a ^ b)                                           \
  ROW(Srl, X, X, X, None, a >> (b & 31))                                   \
  ROW(Sra, X, X, X, None, sra(a, b))                                       \
  ROW(Or, X, X, X, None, a | b)                                            \
  ROW(And, X, X, X, None, a & b)                                           \
  /* RV32M: division never traps (x/0 = -1, x%0 = x, INT_MIN/-1 = INT_MIN) */ \
  ROW(Mul, X, X, X, None, a * b)                                           \
  ROW(Mulh, X, X, X, None, high(int64_t{i32(a)} * int64_t{i32(b)}))        \
  ROW(Mulhsu, X, X, X, None, high(int64_t{i32(a)} * int64_t{b}))           \
  ROW(Mulhu, X, X, X, None, high(uint64_t{a} * uint64_t{b}))               \
  ROW(Div, X, X, X, None, div(a, b))                                       \
  ROW(Divu, X, X, X, None, b == 0 ? ~0u : a / b)                           \
  ROW(Rem, X, X, X, None, rem(a, b))                                       \
  ROW(Remu, X, X, X, None, b == 0 ? a : a % b)                             \
  /* RV32F */                                                              \
  ROW(FaddS, F, F, F, None, canon(fl(a) + fl(b)))                          \
  ROW(FsubS, F, F, F, None, canon(fl(a) - fl(b)))                          \
  ROW(FmulS, F, F, F, None, canon(fl(a) * fl(b)))                          \
  ROW(FdivS, F, F, F, None, canon(fl(a) / fl(b)))                          \
  ROW(FsqrtS, F, F, None, None, canon(std::sqrt(fl(a))))                   \
  ROW(FsgnjS, F, F, F, None, (a & 0x7FFFFFFFu) | (b & 0x80000000u))        \
  ROW(FsgnjnS, F, F, F, None, (a & 0x7FFFFFFFu) | (~b & 0x80000000u))      \
  ROW(FsgnjxS, F, F, F, None, a ^ (b & 0x80000000u))                       \
  ROW(FminS, F, F, F, None, fmin(a, b))                                    \
  ROW(FmaxS, F, F, F, None, fmax(a, b))                                    \
  ROW(FcvtWS, X, F, None, None, fcvt_w(a))                                 \
  ROW(FcvtWuS, X, F, None, None, fcvt_wu(a))                               \
  ROW(FcvtSW, F, X, None, None, std::bit_cast<uint32_t>(static_cast<float>(i32(a)))) \
  ROW(FcvtSWu, F, X, None, None, std::bit_cast<uint32_t>(static_cast<float>(a)))     \
  ROW(FmvXW, X, F, None, None, a)                                          \
  ROW(FmvWX, F, X, None, None, a)                                          \
  ROW(FclassS, X, F, None, None, fclass(a))                                \
  ROW(FeqS, X, F, F, None, fl(a) == fl(b))                                 \
  ROW(FltS, X, F, F, None, fl(a) < fl(b))                                  \
  ROW(FleS, X, F, F, None, fl(a) <= fl(b))                                 \
  ROW(FmaddS, F, F, F, F, fmadd(a, b, c, false, false))                    \
  ROW(FmsubS, F, F, F, F, fmadd(a, b, c, false, true))                     \
  ROW(FnmsubS, F, F, F, F, fmadd(a, b, c, true, false))                    \
  ROW(FnmaddS, F, F, F, F, fmadd(a, b, c, true, true))

#define FGPU_ARCH_MEMORY_OPS(ROW)                                          \
  ROW(Lb) ROW(Lh) ROW(Lw) ROW(Lbu) ROW(Lhu) ROW(Flw)                       \
  ROW(Sb) ROW(Sh) ROW(Sw) ROW(Fsw)                                         \
  ROW(LrW) ROW(ScW)                                                        \
  ROW(AmoswapW) ROW(AmoaddW) ROW(AmoandW) ROW(AmoorW) ROW(AmoxorW)         \
  ROW(AmominW) ROW(AmomaxW)

namespace {

// --- lane arithmetic helpers ------------------------------------------------

constexpr int32_t i32(uint32_t v) { return static_cast<int32_t>(v); }
constexpr uint32_t sra(uint32_t a, uint32_t b) { return static_cast<uint32_t>(i32(a) >> (b & 31)); }
constexpr uint32_t high(int64_t p) { return static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32); }
constexpr uint32_t high(uint64_t p) { return static_cast<uint32_t>(p >> 32); }

constexpr uint32_t div(uint32_t a, uint32_t b) {
  if (b == 0) return ~0u;
  if (a == 0x80000000u && b == ~0u) return a;
  return static_cast<uint32_t>(i32(a) / i32(b));
}

constexpr uint32_t rem(uint32_t a, uint32_t b) {
  if (b == 0) return a;
  if (a == 0x80000000u && b == ~0u) return 0;
  return static_cast<uint32_t>(i32(a) % i32(b));
}

constexpr float fl(uint32_t bits) { return std::bit_cast<float>(bits); }

// Bits of an arithmetic result: every NaN becomes the canonical NaN.
constexpr uint32_t canon(float r) { return r != r ? kCanonicalNaN : std::bit_cast<uint32_t>(r); }

constexpr bool is_nan(uint32_t bits) { return (bits & 0x7FFFFFFFu) > 0x7F800000u; }

// Equal operands differ at most in the sign of a zero: min keeps a set sign
// bit (-0), max a clear one (+0).
constexpr uint32_t fmin(uint32_t a, uint32_t b) {
  if (is_nan(a)) return is_nan(b) ? kCanonicalNaN : b;
  if (is_nan(b)) return a;
  if (fl(a) == fl(b)) return a | b;
  return fl(a) < fl(b) ? a : b;
}

constexpr uint32_t fmax(uint32_t a, uint32_t b) {
  if (is_nan(a)) return is_nan(b) ? kCanonicalNaN : b;
  if (is_nan(b)) return a;
  if (fl(a) == fl(b)) return a & b;
  return fl(a) > fl(b) ? a : b;
}

// (negate_product ? -(a*b) : a*b) (subtract ? - : +) c, rounding the product.
inline uint32_t fmadd(uint32_t a, uint32_t b, uint32_t c, bool negate_product, bool subtract) {
  const float p = fl(a) * fl(b);
  const float signed_p = negate_product ? -p : p;
  return canon(subtract ? signed_p - fl(c) : signed_p + fl(c));
}

// Float to integer, rounding toward zero and saturating; NaN reads as +max.
constexpr uint32_t fcvt_w(uint32_t bits) {
  const float v = fl(bits);
  if (v != v || v >= 2147483648.0f) return 0x7FFFFFFFu;
  if (v <= -2147483648.0f) return 0x80000000u;
  return static_cast<uint32_t>(static_cast<int32_t>(v));
}

constexpr uint32_t fcvt_wu(uint32_t bits) {
  const float v = fl(bits);
  if (v != v || v >= 4294967296.0f) return 0xFFFFFFFFu;
  if (v <= -1.0f) return 0;
  return static_cast<uint32_t>(v);
}

// One-hot class: bit 0 -inf, 1 -normal, 2 -subnormal, 3 -0, 4 +0,
// 5 +subnormal, 6 +normal, 7 +inf, 8 signaling NaN, 9 quiet NaN.
constexpr uint32_t fclass(uint32_t bits) {
  const bool neg = (bits >> 31) != 0;
  const uint32_t exp = (bits >> 23) & 0xFF;
  const uint32_t man = bits & 0x7FFFFFu;
  if (exp == 0xFF) {
    if (man == 0) return neg ? 1u << 0 : 1u << 7;
    return (man & 0x400000u) != 0 ? 1u << 9 : 1u << 8;
  }
  if (exp == 0) {
    if (man == 0) return neg ? 1u << 3 : 1u << 4;
    return neg ? 1u << 2 : 1u << 5;
  }
  return neg ? 1u << 1 : 1u << 6;
}

// --- lane ops ---------------------------------------------------------------

template <Op op>
struct Lane;  // defined for every FGPU_ARCH_LANE_OPS row

#define FGPU_ARCH_DEFINE_LANE(name, rd, a_src, b_src, c_src, ...)                         \
  template <>                                                                          \
  struct Lane<Op::k##name> {                                                           \
    static constexpr Src kRd = Src::k##rd, kA = Src::k##a_src, kB = Src::k##b_src,     \
                         kC = Src::k##c_src;                                           \
    [[gnu::always_inline]] static uint32_t eval([[maybe_unused]] uint32_t a,           \
                                                [[maybe_unused]] uint32_t b,           \
                                                [[maybe_unused]] uint32_t c) {         \
      return __VA_ARGS__;                                                              \
    }                                                                                  \
  };
FGPU_ARCH_LANE_OPS(FGPU_ARCH_DEFINE_LANE)
#undef FGPU_ARCH_DEFINE_LANE

constexpr bool is_lane_op(Op op) {
  switch (op) {
#define FGPU_ARCH_LANE_CASE(name, ...) case Op::k##name:
    FGPU_ARCH_LANE_OPS(FGPU_ARCH_LANE_CASE)
#undef FGPU_ARCH_LANE_CASE
    return true;
    default:
      return false;
  }
}

constexpr std::optional<LaneShape> lane_shape(Op op) {
  switch (op) {
#define FGPU_ARCH_SHAPE_CASE(name, ...) \
  case Op::k##name:                     \
    return LaneShape{Lane<Op::k##name>::kRd, Lane<Op::k##name>::kA, Lane<Op::k##name>::kB, \
                     Lane<Op::k##name>::kC};
    FGPU_ARCH_LANE_OPS(FGPU_ARCH_SHAPE_CASE)
#undef FGPU_ARCH_SHAPE_CASE
    default:
      return std::nullopt;
  }
}

// The lane result of `op` with a runtime opcode; nullopt if it is not a lane op.
inline std::optional<uint32_t> eval_lane(Op op, uint32_t a, uint32_t b, uint32_t c) {
  switch (op) {
#define FGPU_ARCH_EVAL_CASE(name, ...) \
  case Op::k##name:                    \
    return Lane<Op::k##name>::eval(a, b, c);
    FGPU_ARCH_LANE_OPS(FGPU_ARCH_EVAL_CASE)
#undef FGPU_ARCH_EVAL_CASE
    default:
      return std::nullopt;
  }
}

// --- memory -----------------------------------------------------------------

constexpr bool is_store(Op op) {
  return op == Op::kSb || op == Op::kSh || op == Op::kSw || op == Op::kFsw;
}
// LR/SC and the AMOs: address rs1 alone, one request per lane, rd = old value.
constexpr bool is_atomic(Op op) { return op >= Op::kLrW && op <= Op::kAmomaxW; }

// Effective address: rs1 + offset, or rs1 alone for the atomics.
template <Op op>
constexpr uint32_t mem_addr(uint32_t base, int32_t imm) {
  return is_atomic(op) ? base : base + static_cast<uint32_t>(imm);
}

// One lane's access through `m` (anything with load8/16/32 and
// store8/16/32). `src` is rs2's value (stores, SC, AMOs). Returns what the
// op writes to rd; 0 for stores. SC always succeeds: there is one memory
// context, so no reservation can be lost.
template <Op op, typename Memory>
[[gnu::always_inline]] inline uint32_t memory_lane(Memory& m, uint32_t addr, uint32_t src) {
  if constexpr (op == Op::kLb) return static_cast<uint32_t>(static_cast<int8_t>(m.load8(addr)));
  if constexpr (op == Op::kLbu) return m.load8(addr);
  if constexpr (op == Op::kLh) return static_cast<uint32_t>(static_cast<int16_t>(m.load16(addr)));
  if constexpr (op == Op::kLhu) return m.load16(addr);
  if constexpr (op == Op::kLw || op == Op::kFlw || op == Op::kLrW) return m.load32(addr);
  if constexpr (op == Op::kSb) m.store8(addr, static_cast<uint8_t>(src));
  if constexpr (op == Op::kSh) m.store16(addr, static_cast<uint16_t>(src));
  if constexpr (op == Op::kSw || op == Op::kFsw || op == Op::kScW) m.store32(addr, src);
  if constexpr (op >= Op::kAmoswapW && op <= Op::kAmomaxW) {
    const uint32_t old = m.load32(addr);
    uint32_t next = src;  // amoswap
    if constexpr (op == Op::kAmoaddW) next = old + src;
    if constexpr (op == Op::kAmoandW) next = old & src;
    if constexpr (op == Op::kAmoorW) next = old | src;
    if constexpr (op == Op::kAmoxorW) next = old ^ src;
    if constexpr (op == Op::kAmominW) next = static_cast<uint32_t>(std::min(i32(old), i32(src)));
    if constexpr (op == Op::kAmomaxW) next = static_cast<uint32_t>(std::max(i32(old), i32(src)));
    m.store32(addr, next);
    return old;
  }
  return 0;
}

// --- control flow -----------------------------------------------------------

// Condition of a conditional branch over rs1/rs2 (of the first active lane).
constexpr bool branch_taken(Op op, uint32_t a, uint32_t b) {
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt: return i32(a) < i32(b);
    case Op::kBge: return i32(a) >= i32(b);
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default: return false;
  }
}

constexpr uint32_t link(uint32_t pc) { return pc + 4; }
constexpr uint32_t jalr_target(uint32_t base, int32_t imm) {
  return (base + static_cast<uint32_t>(imm)) & ~1u;
}

// --- SIMT -------------------------------------------------------------------

// Lowest set lane of a thread mask (0 for an empty mask): the lane whose
// registers warp-uniform operands (branches, TMC, WSPAWN, BAR) are read from.
constexpr uint32_t first_lane(uint64_t mask) {
  return mask != 0 ? static_cast<uint32_t>(std::countr_zero(mask)) : 0;
}

// TMC: the new thread mask, rs1 clipped to the warp width; 0 ends the warp.
constexpr uint64_t tmc_mask(uint32_t value, uint32_t threads) {
  return value & (threads >= 64 ? ~0ull : (1ull << threads) - 1);
}

// SPLIT with `taken` = active lanes whose rs1 is nonzero.
inline SimtStep split(std::vector<IpdomEntry>& ipdom, uint64_t tmask, uint64_t taken,
                      uint32_t else_pc) {
  const uint64_t not_taken = tmask & ~taken;
  if (not_taken == 0 || taken == 0) {
    ipdom.push_back({IpdomEntry::kUniform, 0, 0});
    return {tmask, taken == 0 ? Next::kTake : Next::kFall};
  }
  ipdom.push_back({IpdomEntry::kRestore, tmask, 0});
  ipdom.push_back({IpdomEntry::kElse, not_taken, else_pc});
  return {taken, Next::kFall};
}

inline SimtStep join(std::vector<IpdomEntry>& ipdom, uint64_t tmask) {
  if (ipdom.empty()) return {tmask, Next::kFault};
  const IpdomEntry entry = ipdom.back();
  ipdom.pop_back();
  switch (entry.kind) {
    case IpdomEntry::kElse: return {entry.mask, Next::kPc, entry.pc};
    case IpdomEntry::kRestore: return {entry.mask, Next::kTake};
    case IpdomEntry::kUniform: break;
  }
  return {tmask, Next::kTake};
}

// PRED with `alive` = active lanes whose rs1 is nonzero. When none is left
// the loop exits with the mask unchanged (the compiler restores it by TMC).
constexpr SimtStep pred(uint64_t tmask, uint64_t alive) {
  return alive == 0 ? SimtStep{tmask, Next::kTake} : SimtStep{alive, Next::kFall};
}

// BAR rs1, rs2: one warp arrives at barrier rs1 % 32, which expects rs2
// warps. True when this arrival releases the barrier (and re-arms it).
inline bool barrier_arrive(Barriers& b, uint32_t id, uint32_t count) {
  b.expected[id] = count;
  if (++b.arrived[id] < b.expected[id]) return false;
  b.arrived[id] = 0;
  return true;
}
constexpr uint32_t barrier_id(uint32_t rs1) { return rs1 & 31; }

// Machine-information CSRs are read-only: writes are ignored, unknown
// numbers read 0.
constexpr uint32_t read_csr(uint32_t csr, const CsrView& v) {
  switch (csr) {
    case kCsrThreadId: return v.lane;
    case kCsrWarpId: return v.warp;
    case kCsrCoreId: return v.core;
    case kCsrTmask: return static_cast<uint32_t>(v.tmask);
    case kCsrNumThreads: return v.threads;
    case kCsrNumWarps: return v.warps;
    case kCsrNumCores: return v.cores;
    case kCsrCycle: return static_cast<uint32_t>(v.cycle);
    case kCsrInstret: return static_cast<uint32_t>(v.instret);
    default: return 0;
  }
}

}  // namespace
}  // namespace sem
}  // namespace fgpu::arch

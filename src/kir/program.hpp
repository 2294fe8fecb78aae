// Flat, index-addressed form of a KIR kernel: what the reference
// interpreter (kir/interp.hpp) runs.
//
// A Program is built once per kernel and then run any number of times. The
// expression trees become one contiguous node array and the statement trees
// one contiguous statement array, both addressed by uint32_t index; each
// block's statements are consecutive. Opcodes fold the operand type in, so
// the evaluator switches once per node visit, never per lane. Variables
// resolve to dense slots at build time, every load and store is numbered as
// an access site, and each store carries the buffers its operands load
// from, so the interpreter decides per launch, not per execution, whether
// the store must run item by item.
//
// Nodes keep their origin Expr*/Stmt* so callers attribute counts to the
// same site identities the HLS analyzer uses. A Program points into its
// kernel, which must outlive it and stay unmodified; it is read-only after
// construction and safe to share across threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kir/kir.hpp"

namespace fgpu::kir {

// One memory-access site: a load expression, or a store or atomic
// statement. Several occurrences of one shared Expr are one site.
struct ProgramSite {
  const void* origin = nullptr;  // const Expr* (load) or const Stmt* (store, atomic)
  bool is_store = false;
  bool is_local = false;
  int buffer = -1;  // kernel param index, or __local slot when is_local
};

struct Program {
  static constexpr uint32_t kNone = ~0u;

  enum class Op : uint8_t {
    // Leaves. kConst and the three launch-uniform sizes read a buffer
    // filled when the launch starts; the ids read per-group arrays.
    kConst, kParam, kVar,
    kGlobalId, kLocalId, kGroupId, kGlobalSize, kLocalSize, kNumGroups,
    // Integer binary ops (comparisons produce 0/1).
    kAdd, kSub, kMul, kDiv, kRem, kAnd, kOr, kXor, kShl, kShr, kMin, kMax,
    kLt, kLe, kGt, kGe, kEq, kNe,
    // Float binary ops.
    kFAdd, kFSub, kFMul, kFDiv, kFMin, kFMax, kFLt, kFLe, kFGt, kFGe, kFEq, kFNe,
    kFInvalid,    // an integer-only op on float operands: fails when reached
    kLAnd, kLOr,  // short-circuit: the right operand sees a narrowed mask
    // Unary ops and conversions.
    kNeg, kFNeg, kNot, kAbs, kFAbs, kBitcast, kI2F, kF2I,
    kSelect,  // each lane evaluates only its taken arm
    kLoad,
    // Math built-ins (f32).
    kSqrt, kRsqrt, kExp, kLog, kFloor, kPowi,
  };

  struct Node {
    Op op = Op::kConst;
    bool is_local = false;  // kLoad
    uint8_t dim = 0;        // work-item built-ins
    int32_t index = 0;      // kParam/kLoad: param index or __local slot; kVar: slot
    uint32_t imm = 0;       // kConst: value bits
    uint32_t args[3] = {kNone, kNone, kNone};
    uint32_t site = kNone;  // kLoad: index into sites
    uint32_t mask = kNone;  // kLAnd/kLOr: one mask; kSelect: two, from here
    const Expr* origin = nullptr;
  };

  struct Statement {
    StmtKind kind = StmtKind::kBarrier;
    AtomicOp atomic = AtomicOp::kAdd;
    bool is_local = false;  // kStore/kAtomic target
    int32_t buffer = -1;
    uint32_t var = kNone;  // kLet/kAssign/kFor target, kAtomic result slot
    uint32_t a = kNone, b = kNone, c = kNone;  // root nodes, as in Stmt
    uint32_t body = 0, body_end = 0;           // [body, body_end) of statements
    uint32_t else_body = 0, else_end = 0;
    // kPrint: argument roots in print_args; kStore: the buffers its
    // operands load from, in alias_loads.
    uint32_t list = 0, list_end = 0;
    uint32_t site = kNone;  // kStore/kAtomic
    uint32_t mask = kNone;  // kIf: two masks, from here; kFor/kWhile: one
    const Stmt* origin = nullptr;
  };

  struct BufferRef {
    int32_t index = -1;
    bool is_local = false;
  };

  explicit Program(const Kernel& kernel);

  const Kernel* kernel;
  std::vector<Node> nodes;
  std::vector<Statement> statements;
  uint32_t body = 0, body_end = 0;  // the kernel's top-level block
  std::vector<uint32_t> print_args;
  std::vector<BufferRef> alias_loads;
  std::vector<std::string> var_names;  // slot -> name
  std::vector<ProgramSite> sites;
  uint32_t masks = 0;  // per-lane mask buffers the nodes and statements own
};

}  // namespace fgpu::kir

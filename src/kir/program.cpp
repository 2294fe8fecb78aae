#include "kir/program.hpp"

#include <tuple>
#include <unordered_map>

#include "common/bits.hpp"

namespace fgpu::kir {
namespace {

using Op = Program::Op;

Op binary_op(BinOp op, bool flt) {
  if (op == BinOp::kLAnd) return Op::kLAnd;
  if (op == BinOp::kLOr) return Op::kLOr;
  if (flt) {
    switch (op) {
      case BinOp::kAdd: return Op::kFAdd;
      case BinOp::kSub: return Op::kFSub;
      case BinOp::kMul: return Op::kFMul;
      case BinOp::kDiv: return Op::kFDiv;
      case BinOp::kMin: return Op::kFMin;
      case BinOp::kMax: return Op::kFMax;
      case BinOp::kLt: return Op::kFLt;
      case BinOp::kLe: return Op::kFLe;
      case BinOp::kGt: return Op::kFGt;
      case BinOp::kGe: return Op::kFGe;
      case BinOp::kEq: return Op::kFEq;
      case BinOp::kNe: return Op::kFNe;
      default: return Op::kFInvalid;
    }
  }
  switch (op) {
    case BinOp::kAdd: return Op::kAdd;
    case BinOp::kSub: return Op::kSub;
    case BinOp::kMul: return Op::kMul;
    case BinOp::kDiv: return Op::kDiv;
    case BinOp::kRem: return Op::kRem;
    case BinOp::kAnd: return Op::kAnd;
    case BinOp::kOr: return Op::kOr;
    case BinOp::kXor: return Op::kXor;
    case BinOp::kShl: return Op::kShl;
    case BinOp::kShr: return Op::kShr;
    case BinOp::kMin: return Op::kMin;
    case BinOp::kMax: return Op::kMax;
    case BinOp::kLt: return Op::kLt;
    case BinOp::kLe: return Op::kLe;
    case BinOp::kGt: return Op::kGt;
    case BinOp::kGe: return Op::kGe;
    case BinOp::kEq: return Op::kEq;
    case BinOp::kNe: return Op::kNe;
    case BinOp::kLAnd: return Op::kLAnd;
    case BinOp::kLOr: return Op::kLOr;
  }
  return Op::kAdd;
}

Op special_op(SpecialReg reg) {
  switch (reg) {
    case SpecialReg::kGlobalId: return Op::kGlobalId;
    case SpecialReg::kLocalId: return Op::kLocalId;
    case SpecialReg::kGroupId: return Op::kGroupId;
    case SpecialReg::kGlobalSize: return Op::kGlobalSize;
    case SpecialReg::kLocalSize: return Op::kLocalSize;
    case SpecialReg::kNumGroups: return Op::kNumGroups;
  }
  return Op::kGlobalId;
}

Op call_op(Builtin fn) {
  switch (fn) {
    case Builtin::kSqrt: return Op::kSqrt;
    case Builtin::kRsqrt: return Op::kRsqrt;
    case Builtin::kExp: return Op::kExp;
    case Builtin::kLog: return Op::kLog;
    case Builtin::kFloor: return Op::kFloor;
    case Builtin::kPowi: return Op::kPowi;
  }
  return Op::kSqrt;
}

class Builder {
 public:
  explicit Builder(Program& p) : p_(p) {}

  // Lays the block's statements out consecutively, then their nested
  // blocks after them.
  std::pair<uint32_t, uint32_t> block(const std::vector<StmtPtr>& stmts) {
    const auto begin = static_cast<uint32_t>(p_.statements.size());
    p_.statements.resize(p_.statements.size() + stmts.size());
    for (size_t i = 0; i < stmts.size(); ++i) {
      statement(begin + static_cast<uint32_t>(i), *stmts[i]);
    }
    return {begin, static_cast<uint32_t>(begin + stmts.size())};
  }

 private:
  uint32_t slot(const std::string& name) {
    auto [it, inserted] = slots_.try_emplace(name, static_cast<uint32_t>(p_.var_names.size()));
    if (inserted) p_.var_names.push_back(name);
    return it->second;
  }

  uint32_t site(const void* origin, bool is_store, bool is_local, int buffer) {
    auto [it, inserted] = sites_.try_emplace(origin, static_cast<uint32_t>(p_.sites.size()));
    if (inserted) p_.sites.push_back(ProgramSite{origin, is_store, is_local, buffer});
    return it->second;
  }

  // Every occurrence gets its own node (and so its own output buffer), even
  // when the tree shares a subexpression.
  uint32_t expr(const ExprPtr& e) {
    Program::Node n;
    n.origin = e.get();
    n.index = e->index;
    n.dim = static_cast<uint8_t>(e->index);
    switch (e->kind) {
      case ExprKind::kConstInt:
        n.op = Op::kConst;
        n.imm = static_cast<uint32_t>(e->ival);
        break;
      case ExprKind::kConstFloat:
        n.op = Op::kConst;
        n.imm = f2u(e->fval);
        break;
      case ExprKind::kVar:
        n.op = Op::kVar;
        n.index = static_cast<int32_t>(slot(e->var));
        break;
      case ExprKind::kParam: n.op = Op::kParam; break;
      case ExprKind::kSpecial: n.op = special_op(e->special); break;
      case ExprKind::kBinary:
        n.op = binary_op(e->bin, e->a()->type == Scalar::kF32);
        if (n.op == Op::kLAnd || n.op == Op::kLOr) n.mask = p_.masks++;
        break;
      case ExprKind::kUnary: {
        const bool flt = e->type == Scalar::kF32;
        switch (e->un) {
          case UnOp::kNeg: n.op = flt ? Op::kFNeg : Op::kNeg; break;
          case UnOp::kNot: n.op = Op::kNot; break;
          case UnOp::kAbs: n.op = flt ? Op::kFAbs : Op::kAbs; break;
          case UnOp::kBitcastI2F:
          case UnOp::kBitcastF2I: n.op = Op::kBitcast; break;
        }
        break;
      }
      case ExprKind::kSelect:
        n.op = Op::kSelect;
        n.mask = p_.masks;
        p_.masks += 2;
        break;
      case ExprKind::kCast: n.op = e->type == Scalar::kF32 ? Op::kI2F : Op::kF2I; break;
      case ExprKind::kLoad:
        n.op = Op::kLoad;
        n.is_local = e->is_local;
        n.site = site(e.get(), false, e->is_local, e->index);
        break;
      case ExprKind::kCall: n.op = call_op(e->call); break;
    }
    // Operands as the tree walk visits them: a call reads its second
    // argument only for powi.
    size_t arity = 0;
    switch (e->kind) {
      case ExprKind::kBinary: arity = 2; break;
      case ExprKind::kSelect: arity = 3; break;
      case ExprKind::kUnary:
      case ExprKind::kCast:
      case ExprKind::kLoad: arity = 1; break;
      case ExprKind::kCall: arity = e->call == Builtin::kPowi ? 2 : 1; break;
      default: break;
    }
    const auto id = static_cast<uint32_t>(p_.nodes.size());
    p_.nodes.push_back(n);
    for (size_t i = 0; i < arity; ++i) {
      const uint32_t child = expr(e->args[i]);
      p_.nodes[id].args[i] = child;
    }
    return id;
  }

  void collect_loads(const ExprPtr& e) {
    if (!e) return;
    if (e->kind == ExprKind::kLoad) p_.alias_loads.push_back({e->index, e->is_local});
    for (const auto& arg : e->args) collect_loads(arg);
  }

  void statement(uint32_t id, const Stmt& s) {
    Program::Statement st;
    st.kind = s.kind;
    st.origin = &s;
    st.atomic = s.atomic;
    st.is_local = s.is_local;
    st.buffer = s.buffer;
    switch (s.kind) {
      case StmtKind::kLet:
      case StmtKind::kAssign:
        st.var = slot(s.var);
        st.a = expr(s.a);
        break;
      case StmtKind::kStore:
        st.site = site(&s, true, s.is_local, s.buffer);
        st.a = expr(s.a);
        st.b = expr(s.b);
        st.list = static_cast<uint32_t>(p_.alias_loads.size());
        collect_loads(s.a);
        collect_loads(s.b);
        st.list_end = static_cast<uint32_t>(p_.alias_loads.size());
        break;
      case StmtKind::kIf:
        st.a = expr(s.a);
        st.mask = p_.masks;
        p_.masks += 2;
        break;
      case StmtKind::kFor:
        st.var = slot(s.var);
        st.a = expr(s.a);
        st.b = expr(s.b);
        st.c = expr(s.c);
        st.mask = p_.masks++;
        break;
      case StmtKind::kWhile:
        st.a = expr(s.a);
        st.mask = p_.masks++;
        break;
      case StmtKind::kBarrier: break;
      case StmtKind::kAtomic:
        if (!s.result_var.empty()) st.var = slot(s.result_var);
        st.site = site(&s, true, s.is_local, s.buffer);
        st.a = expr(s.a);
        st.b = expr(s.b);
        if (s.c) st.c = expr(s.c);  // cmpxchg's compare value
        break;
      case StmtKind::kPrint:
        st.list = static_cast<uint32_t>(p_.print_args.size());
        for (const auto& arg : s.print_args) p_.print_args.push_back(expr(arg));
        st.list_end = static_cast<uint32_t>(p_.print_args.size());
        break;
    }
    if (s.kind == StmtKind::kIf || s.kind == StmtKind::kFor || s.kind == StmtKind::kWhile) {
      std::tie(st.body, st.body_end) = block(s.body);
      std::tie(st.else_body, st.else_end) = block(s.else_body);
    }
    p_.statements[id] = st;
  }

  Program& p_;
  std::unordered_map<std::string, uint32_t> slots_;
  std::unordered_map<const void*, uint32_t> sites_;
};

}  // namespace

Program::Program(const Kernel& k) : kernel(&k) {
  Builder builder(*this);
  std::tie(body, body_end) = builder.block(k.body);
}

}  // namespace fgpu::kir

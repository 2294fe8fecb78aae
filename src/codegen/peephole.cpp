#include "codegen/peephole.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "arch/isa.hpp"
#include "arch/semantics.hpp"

namespace fgpu::codegen {
namespace {

using arch::FuClass;
using arch::Op;

bool is_virtual(int reg) { return reg >= kFirstVirtual; }

bool is_simt(const MInstr& m) {
  if (m.is_label() || m.is_li || m.is_la) return false;
  return arch::op_info(m.op).fu == FuClass::kSimt;
}

// Pure value-producing computation: safe to value-number and to delete when
// its destination is dead. Loads are excluded (another lane's store may land
// between two textually identical loads), as are CSR reads (the thread-mask
// CSR mutates with SPLIT/PRED/TMC).
bool pure_compute(const MInstr& m) {
  if (m.is_li || m.is_la) return true;
  if (m.is_label() || m.target >= 0) return false;
  switch (arch::op_info(m.op).fu) {
    case FuClass::kAlu:
    case FuClass::kMulDiv:
    case FuClass::kFpu:
      return true;
    default:
      return false;
  }
}

bool is_cond_branch(Op op) {
  switch (op) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      return true;
    default:
      return false;
  }
}

Op invert_branch(Op op) {
  switch (op) {
    case Op::kBeq: return Op::kBne;
    case Op::kBne: return Op::kBeq;
    case Op::kBlt: return Op::kBge;
    case Op::kBge: return Op::kBlt;
    case Op::kBltu: return Op::kBgeu;
    case Op::kBgeu: return Op::kBltu;
    default: return op;
  }
}

bool fits_imm12(int64_t v) { return v >= -2048 && v <= 2047; }

bool is_pow2_u32(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

int log2_u32(uint32_t v) {
  int n = 0;
  while (v > 1) {
    v >>= 1;
    ++n;
  }
  return n;
}

// Folded value of an integer instruction over constant operands: the
// guest's own lane semantics (arch/semantics.hpp), so a folded result is
// exactly what either execution tier would compute.
int32_t fold_int(Op op, int32_t a, int32_t b) {
  return static_cast<int32_t>(*arch::sem::eval_lane(op, static_cast<uint32_t>(a),
                                                    static_cast<uint32_t>(b), 0));
}

// Integer I-form for an R-form op (constant in rs2), if one exists.
std::optional<Op> imm_form(Op op) {
  switch (op) {
    case Op::kAdd: return Op::kAddi;
    case Op::kAnd: return Op::kAndi;
    case Op::kOr: return Op::kOri;
    case Op::kXor: return Op::kXori;
    case Op::kSlt: return Op::kSlti;
    case Op::kSltu: return Op::kSltiu;
    case Op::kSll: return Op::kSlli;
    case Op::kSrl: return Op::kSrli;
    case Op::kSra: return Op::kSrai;
    default: return std::nullopt;
  }
}

bool is_commutative(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kMul:
      return true;
    default:
      return false;
  }
}

// Whether `op` is an integer I-form whose imm participates in folding.
bool is_int_imm_op(Op op) {
  switch (op) {
    case Op::kAddi:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kSlli:
    case Op::kSrli:
    case Op::kSrai:
      return true;
    default:
      return false;
  }
}

bool is_int_r_op(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kMul:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kRem:
    case Op::kRemu:
      return true;
    default:
      return false;
  }
}

// Ops producing a 0/1 boolean — used to validate xori-by-1 inversion chains.
bool produces_bool(const MInstr& d) {
  if (d.is_li) return d.imm == 0 || d.imm == 1;
  if (d.is_label()) return false;
  switch (d.op) {
    case Op::kSlt:
    case Op::kSltu:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kFeqS:
    case Op::kFltS:
    case Op::kFleS:
      return true;
    default:
      return false;
  }
}

// Per-round def/use summary of the virtual registers.
struct Analysis {
  int base = kFirstVirtual;
  std::vector<int> def_count;
  std::vector<int> use_count;
  std::vector<int> def_pos;  // position of the unique def (single-def only)
  std::vector<std::optional<int32_t>> const_val;

  explicit Analysis(const MFunction& fn) {
    const int n = fn.next_vreg > base ? fn.next_vreg - base : 0;
    def_count.assign(n, 0);
    use_count.assign(n, 0);
    def_pos.assign(n, -1);
    const_val.assign(n, std::nullopt);
    for (size_t i = 0; i < fn.code.size(); ++i) {
      const MInstr& m = fn.code[i];
      if (m.is_label()) continue;
      for (int r : {m.rs1, m.rs2, m.rs3}) {
        if (is_virtual(r)) ++use_count[r - base];
      }
      if (is_virtual(m.rd)) {
        ++def_count[m.rd - base];
        def_pos[m.rd - base] = static_cast<int>(i);
      }
    }
    for (const MInstr& m : fn.code) {
      if (m.is_li && is_virtual(m.rd) && def_count[m.rd - base] == 1) {
        const_val[m.rd - base] = m.imm;
      }
    }
  }

  bool single_def(int reg) const {
    return is_virtual(reg) && def_count[reg - base] == 1;
  }
};

// LVN key: op identity plus the (already canonicalized) operands.
using LvnKey = std::array<int64_t, 6>;

LvnKey lvn_key(const MInstr& m) {
  int64_t opcode = static_cast<int64_t>(m.op);
  if (m.is_li) opcode = 1 << 20;
  if (m.is_la) opcode = 2 << 20;
  return {opcode, m.rs1, m.rs2, m.rs3, m.imm, m.target};
}

class Peep {
 public:
  Peep(MFunction& fn, int opt_level, PeepholeStats& stats, RemarkSink* sink)
      : fn_(fn), opt_(opt_level), stats_(stats), sink_(sink) {}

  // One full round. Returns true if anything changed.
  bool round() {
    const int before = stats_.total();
    Analysis analysis(fn_);
    deleted_.assign(fn_.code.size(), false);
    replace_.assign(analysis.def_count.size(), -1);
    forward_scan(analysis);
    if (opt_ >= 2) control_flow();
    dce();
    compact();
    return stats_.total() != before;
  }

 private:
  // Site-level remark for the high-signal rewrites (LVN hits, branch
  // fusions, far-branch collapses). Null sink = remarks off; the cheap
  // per-instruction rewrites (folds, copy propagation, dead deletes) are
  // reported as pass-level counts by compile_kernel instead.
  void note(const MInstr& m, const char* name, const char* detail) {
    if (sink_ == nullptr) return;
    const std::string& site =
        m.src >= 0 && m.src < static_cast<int>(fn_.sources.size())
            ? fn_.sources[static_cast<size_t>(m.src)]
            : kUnknownSite;
    sink_->add("peephole", "applied", name, site, detail);
  }

  static const std::string kUnknownSite;

  int resolve(int r) const {
    for (int guard = 0; guard < 64; ++guard) {
      if (!is_virtual(r)) return r;
      const int next = replace_[r - kFirstVirtual];
      if (next < 0) return r;
      r = next;
    }
    return r;
  }

  // Constant value of an *integer* operand register, if known.
  std::optional<int32_t> cval(const Analysis& a, int r) const {
    if (r == 0) return 0;
    if (is_virtual(r) && a.single_def(r)) return a.const_val[r - a.base];
    return std::nullopt;
  }

  void rewrite_to_li(MInstr& m, int32_t value) {
    m.op = Op::kInvalid;
    m.is_li = true;
    m.is_la = false;
    m.rs1 = m.rs2 = m.rs3 = -1;
    m.imm = value;
    ++stats_.folded;
  }

  void rewrite_to_copy(MInstr& m, int src) {
    m.op = Op::kAddi;
    m.is_li = m.is_la = false;
    m.rs1 = src;
    m.rs2 = m.rs3 = -1;
    m.imm = 0;
    ++stats_.folded;
  }

  // Constant folding + R->I immediate rewrites for one integer instruction.
  void fold_instr(const Analysis& a, MInstr& m) {
    if (m.is_li || m.is_la || m.is_label() || m.target >= 0) return;
    if (is_int_imm_op(m.op)) {
      if (auto c = cval(a, m.rs1)) rewrite_to_li(m, fold_int(m.op, *c, m.imm));
      return;
    }
    if (!is_int_r_op(m.op)) return;
    auto c1 = cval(a, m.rs1);
    auto c2 = cval(a, m.rs2);
    if (c1 && c2) {
      rewrite_to_li(m, fold_int(m.op, *c1, *c2));
      return;
    }
    if (c1 && !c2 && is_commutative(m.op)) {
      std::swap(m.rs1, m.rs2);
      std::swap(c1, c2);
    }
    if (!c2) return;
    const int32_t c = *c2;
    if (m.op == Op::kMul) {
      if (c == 0) {
        rewrite_to_li(m, 0);
      } else if (c == 1) {
        rewrite_to_copy(m, m.rs1);
      } else if (c > 1 && is_pow2_u32(static_cast<uint32_t>(c))) {
        m.op = Op::kSlli;
        m.imm = log2_u32(static_cast<uint32_t>(c));
        m.rs2 = -1;
        ++stats_.folded;
      }
      return;
    }
    if (m.op == Op::kSub) {
      if (fits_imm12(-static_cast<int64_t>(c))) {
        m.op = Op::kAddi;
        m.imm = -c;
        m.rs2 = -1;
        ++stats_.folded;
      }
      return;
    }
    if (auto iop = imm_form(m.op)) {
      const bool is_shift = m.op == Op::kSll || m.op == Op::kSrl || m.op == Op::kSra;
      const int32_t imm = is_shift ? (c & 31) : c;
      if (is_shift || fits_imm12(imm)) {
        m.op = *iop;
        m.imm = imm;
        m.rs2 = -1;
        ++stats_.folded;
      }
    }
  }

  // addi / load-offset chain folding: addi d, s, c where s is a single-def
  // `addi s, base, c0` (base stable) becomes addi d, base, c0+c.
  void fold_addi_chain(const Analysis& a, MInstr& m) {
    if (m.is_li || m.is_la || m.op != Op::kAddi) return;
    const int s = m.rs1;
    if (!a.single_def(s)) return;
    const int dp = a.def_pos[s - a.base];
    if (dp < 0 || deleted_[dp]) return;
    const MInstr& d = fn_.code[dp];
    if (d.is_li || d.is_la || d.op != Op::kAddi) return;
    const int base = d.rs1;
    if (!(base == 0 || a.single_def(base))) return;
    const int64_t sum = static_cast<int64_t>(d.imm) + m.imm;
    if (!fits_imm12(sum)) return;
    m.rs1 = base;
    m.imm = static_cast<int32_t>(sum);
    ++stats_.folded;
  }

  // True when no label sits strictly between positions `from` and `to` and no
  // instruction in that window writes any register in `guards`.
  bool window_safe(int from, int to, std::initializer_list<int> guards) const {
    for (int k = from + 1; k < to; ++k) {
      if (deleted_[k]) continue;
      const MInstr& w = fn_.code[k];
      if (w.is_label()) return false;
      for (int g : guards) {
        if (g > 0 && w.rd == g) return false;
      }
    }
    return true;
  }

  // Folds the boolean idioms the expression lowerer emits (sltiu t,s,1 for
  // ==0, sltu t,x0,s for !=0, sub for ==/!=, slt/sltu for orderings, xori
  // for negation) into the conditional branch that consumes them.
  void fuse_branch(const Analysis& a, MInstr& m, int pos) {
    for (int depth = 0; depth < 4; ++depth) {
      if (!(m.op == Op::kBeq || m.op == Op::kBne) || m.rs2 != 0) return;
      const int t = m.rs1;
      if (auto c = cval(a, t)) {
        // Branch on a constant: always or never taken.
        const bool taken = arch::sem::branch_taken(m.op, static_cast<uint32_t>(*c), 0);
        note(m, "peep.const-branch",
             taken ? "branch on constant made unconditional" : "never-taken branch removed");
        if (taken) {
          m.op = Op::kJal;
          m.rd = 0;
          m.rs1 = m.rs2 = -1;
        } else {
          deleted_[pos] = true;
        }
        ++stats_.fused;
        return;
      }
      if (!a.single_def(t)) return;
      const int dp = a.def_pos[t - a.base];
      if (dp < 0 || dp >= pos || deleted_[dp]) return;
      const MInstr& d = fn_.code[dp];
      if (d.is_li || d.is_la || d.is_label()) return;
      // The operands we are about to read at the branch must still hold
      // their def-time values: virtual (or x0) and unwritten in between.
      auto stable = [&](int r) {
        return r == 0 || (is_virtual(r) && a.single_def(r));
      };
      const bool is_ne = m.op == Op::kBne;
      if (d.op == Op::kSltiu && d.imm == 1 && stable(d.rs1)) {
        // t = (s == 0); bne t -> beq s; beq t -> bne s.
        if (!window_safe(dp, pos, {d.rs1})) return;
        note(m, "peep.fuse-branch", "== 0 test fused into branch");
        m.op = is_ne ? Op::kBeq : Op::kBne;
        m.rs1 = d.rs1;
        ++stats_.fused;
        continue;
      }
      if (d.op == Op::kSltu && d.rs1 == 0 && stable(d.rs2)) {
        // t = (s != 0): same branch sense on s directly.
        if (!window_safe(dp, pos, {d.rs2})) return;
        note(m, "peep.fuse-branch", "!= 0 test fused into branch");
        m.rs1 = d.rs2;
        ++stats_.fused;
        continue;
      }
      if (d.op == Op::kXori && d.imm == 1 && a.single_def(d.rs1)) {
        const int sp = a.def_pos[d.rs1 - a.base];
        if (sp >= 0 && !deleted_[sp] && produces_bool(fn_.code[sp])) {
          // t = !s for a 0/1 s: invert the branch sense.
          if (!window_safe(dp, pos, {d.rs1})) return;
          note(m, "peep.fuse-branch", "boolean negation fused into branch");
          m.op = is_ne ? Op::kBeq : Op::kBne;
          m.rs1 = d.rs1;
          ++stats_.fused;
          continue;
        }
        return;
      }
      if (d.op == Op::kSub && stable(d.rs1) && stable(d.rs2)) {
        // t = a - b; bne t -> bne a, b; beq t -> beq a, b.
        if (!window_safe(dp, pos, {d.rs1, d.rs2})) return;
        note(m, "peep.fuse-branch", "subtract-compare fused into branch");
        m.rs1 = d.rs1;
        m.rs2 = d.rs2;
        ++stats_.fused;
        return;
      }
      if ((d.op == Op::kSlt || d.op == Op::kSltu) && stable(d.rs1) && stable(d.rs2)) {
        // t = (a < b); bne t -> blt(u) a, b; beq t -> bge(u) a, b.
        if (!window_safe(dp, pos, {d.rs1, d.rs2})) return;
        note(m, "peep.fuse-branch", "ordered compare fused into branch");
        const bool uns = d.op == Op::kSltu;
        m.op = is_ne ? (uns ? Op::kBltu : Op::kBlt) : (uns ? Op::kBgeu : Op::kBge);
        m.rs1 = d.rs1;
        m.rs2 = d.rs2;
        ++stats_.fused;
        return;
      }
      return;
    }
  }

  void forward_scan(const Analysis& a) {
    // Value table entries expire after kLvnWindow instructions: reusing a
    // computation from far above stretches the canonical vreg's live range
    // across the whole run, and on this machine the resulting spill traffic
    // (per-lane stacks never coalesce) costs far more than a recompute.
    constexpr int kLvnWindow = 48;
    std::map<LvnKey, std::pair<int, int>> lvn;  // key -> (vreg, position)
    for (size_t i = 0; i < fn_.code.size(); ++i) {
      MInstr& m = fn_.code[i];
      if (deleted_[i]) continue;
      if (m.is_label()) {
        lvn.clear();
        continue;
      }
      m.rs1 = resolve(m.rs1);
      m.rs2 = resolve(m.rs2);
      m.rs3 = resolve(m.rs3);
      if (is_simt(m)) {
        // SPLIT/JOIN/PRED/TMC/BAR change the active lane mask; a value
        // computed under one mask must not canonicalize one computed under
        // another, so the value table resets here (and at labels).
        lvn.clear();
        continue;
      }
      fold_instr(a, m);
      fold_addi_chain(a, m);
      // Copy propagation: addi d, s, 0 (int) or fsgnj d, s, s (float) with
      // single-def d and stable s — every later use of d reads s instead.
      const bool int_copy = !m.is_li && !m.is_la && m.op == Op::kAddi && m.imm == 0;
      const bool float_copy = !m.is_li && !m.is_la && m.op == Op::kFsgnjS && m.rs1 == m.rs2;
      if ((int_copy || float_copy) && a.single_def(m.rd)) {
        const int src = m.rs1;
        const bool ok = float_copy ? a.single_def(src)
                                   : (src == 0 || a.single_def(src));
        if (ok) {
          replace_[m.rd - kFirstVirtual] = src;
          ++stats_.propagated;
          continue;  // the now-dead copy falls to DCE
        }
      }
      if (opt_ >= 2 && is_cond_branch(m.op)) {
        fuse_branch(a, m, static_cast<int>(i));
        continue;
      }
      if (opt_ >= 2 && pure_compute(m) && a.single_def(m.rd)) {
        // rs==0 means x0 for integer slots but physical f0 for float slots;
        // f0 is allocatable, so it is only a stable operand for integer ops.
        bool float_operands = false;
        if (!m.is_li && !m.is_la) {
          float_operands = arch::reads_freg_rs1(m.op) || arch::reads_freg_rs2(m.op) ||
                           arch::reads_freg_rs3(m.op);
        }
        bool ok = true;
        for (int r : {m.rs1, m.rs2, m.rs3}) {
          if (r < 0) continue;
          if (r == 0) {
            ok = ok && !float_operands;
          } else {
            ok = ok && is_virtual(r) && a.single_def(r);
          }
        }
        if (ok) {
          const LvnKey key = lvn_key(m);
          auto it = lvn.find(key);
          if (it != lvn.end() &&
              static_cast<int>(i) - it->second.second <= kLvnWindow) {
            note(m, "peep.lvn", "recomputation replaced by earlier value");
            replace_[m.rd - kFirstVirtual] = it->second.first;
            deleted_[i] = true;
            ++stats_.numbered;
          } else {
            lvn[key] = {m.rd, static_cast<int>(i)};
          }
        }
      }
    }
  }

  // Branch-shape cleanups that need label positions: far-branch collapse,
  // jump-to-next and branch-to-next elimination.
  void control_flow() {
    // Collapse `bcc -> skip; jal -> L; label skip` back into `b!cc -> L`
    // when L is close enough that the final B-type immediate cannot
    // overflow. Worst case an MInstr expands to ~6 words (li/la are 2;
    // spill resolution adds up to 4 around a use), so 100 MInstrs stay well
    // inside the ±1024-word B-type reach.
    constexpr int kNearLimit = 100;
    std::vector<int> label_pos(fn_.num_labels, -1);
    for (size_t i = 0; i < fn_.code.size(); ++i) {
      if (!deleted_[i] && fn_.code[i].is_label()) {
        label_pos[fn_.code[i].bind_label] = static_cast<int>(i);
      }
    }
    auto next_live = [&](int k) {
      for (int j = k + 1; j < static_cast<int>(fn_.code.size()); ++j) {
        if (!deleted_[j]) return j;
      }
      return -1;
    };
    // True when every live instruction between pos and the binding of
    // `label` is itself a label (i.e. the branch falls through to its own
    // target).
    auto falls_through_to = [&](int pos, int label) {
      for (int j = pos + 1; j < static_cast<int>(fn_.code.size()); ++j) {
        if (deleted_[j]) continue;
        const MInstr& w = fn_.code[j];
        if (!w.is_label()) return false;
        if (w.bind_label == label) return true;
      }
      return false;
    };
    for (size_t i = 0; i < fn_.code.size(); ++i) {
      if (deleted_[i]) continue;
      MInstr& m = fn_.code[i];
      if (m.is_li || m.is_la || m.is_label() || m.target < 0) continue;
      if (is_cond_branch(m.op)) {
        if (falls_through_to(static_cast<int>(i), m.target)) {
          note(m, "peep.branch-fallthrough", "branch to next instruction removed");
          deleted_[i] = true;
          ++stats_.fused;
          continue;
        }
        const int j = next_live(static_cast<int>(i));
        if (j < 0) continue;
        const MInstr& jmp = fn_.code[j];
        if (jmp.is_li || jmp.is_la || jmp.is_label() || jmp.op != Op::kJal ||
            jmp.rd != 0 || jmp.target < 0) {
          continue;
        }
        const int k = next_live(j);
        if (k < 0) continue;
        const MInstr& skip = fn_.code[k];
        if (!skip.is_label() || skip.bind_label != m.target) continue;
        const int target_pos = label_pos[jmp.target];
        if (target_pos < 0) continue;
        const int dist = target_pos > static_cast<int>(i)
                             ? target_pos - static_cast<int>(i)
                             : static_cast<int>(i) - target_pos;
        if (dist > kNearLimit) continue;
        note(m, "peep.far-branch", "inverted-branch-over-jump collapsed to near branch");
        m.op = invert_branch(m.op);
        m.target = jmp.target;
        deleted_[j] = true;
        ++stats_.fused;
      } else if (m.op == Op::kJal && m.rd == 0) {
        if (falls_through_to(static_cast<int>(i), m.target)) {
          note(m, "peep.jump-fallthrough", "jump to next instruction removed");
          deleted_[i] = true;
          ++stats_.fused;
        }
      }
    }
  }

  void dce() {
    std::vector<int> uses(replace_.size(), 0);
    for (size_t i = 0; i < fn_.code.size(); ++i) {
      if (deleted_[i]) continue;
      const MInstr& m = fn_.code[i];
      if (m.is_label()) continue;
      for (int r : {m.rs1, m.rs2, m.rs3}) {
        if (is_virtual(r)) ++uses[r - kFirstVirtual];
      }
    }
    auto deletable = [](const MInstr& m) {
      if (pure_compute(m)) return true;
      // csrrs rd, csr, x0 reads without writing the CSR.
      return !m.is_li && !m.is_la && !m.is_label() && m.target < 0 &&
             m.op == Op::kCsrrs && m.rs1 == 0;
    };
    bool changed = true;
    while (changed) {
      changed = false;
      for (int i = static_cast<int>(fn_.code.size()) - 1; i >= 0; --i) {
        if (deleted_[i]) continue;
        const MInstr& m = fn_.code[i];
        if (m.is_label() || !is_virtual(m.rd)) continue;
        if (uses[m.rd - kFirstVirtual] != 0 || !deletable(m)) continue;
        deleted_[i] = true;
        ++stats_.removed;
        changed = true;
        for (int r : {m.rs1, m.rs2, m.rs3}) {
          if (is_virtual(r)) --uses[r - kFirstVirtual];
        }
      }
    }
  }

  void compact() {
    std::vector<MInstr> kept;
    kept.reserve(fn_.code.size());
    for (size_t i = 0; i < fn_.code.size(); ++i) {
      if (!deleted_[i]) kept.push_back(fn_.code[i]);
    }
    fn_.code = std::move(kept);
  }

  MFunction& fn_;
  int opt_;
  PeepholeStats& stats_;
  RemarkSink* sink_;
  std::vector<bool> deleted_;
  std::vector<int> replace_;
};

const std::string Peep::kUnknownSite = "<unknown>";

}  // namespace

PeepholeStats peephole(MFunction& fn, int opt_level, RemarkSink* sink) {
  PeepholeStats stats;
  if (opt_level <= 0) return stats;
  for (int round = 0; round < 4; ++round) {
    Peep peep(fn, opt_level, stats, sink);
    if (!peep.round()) break;
  }
  return stats;
}

}  // namespace fgpu::codegen

#include "kir/interp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/bits.hpp"

namespace fgpu::kir {
namespace {

using Op = Program::Op;

// RISC-V-compatible integer division semantics so the reference model and
// the soft-GPU binary agree bit for bit.
int32_t div_i32(int32_t a, int32_t b) {
  if (b == 0) return -1;
  if (a == std::numeric_limits<int32_t>::min() && b == -1) return a;
  return a / b;
}
int32_t rem_i32(int32_t a, int32_t b) {
  if (b == 0) return a;
  if (a == std::numeric_limits<int32_t>::min() && b == -1) return 0;
  return a % b;
}

int32_t s32(uint32_t v) { return static_cast<int32_t>(v); }

// fcvt.w.s: truncation with clamping, NaN to INT_MAX.
uint32_t f2i(uint32_t bits) {
  const float f = u2f(bits);
  if (std::isnan(f)) return 0x7FFFFFFFu;
  if (f <= -2147483648.0f) return 0x80000000u;
  if (f >= 2147483648.0f) return 0x7FFFFFFFu;
  return static_cast<uint32_t>(static_cast<int32_t>(f));
}

float powi(float base, int32_t n) {
  uint32_t magnitude = n < 0 ? 0u - static_cast<uint32_t>(n) : static_cast<uint32_t>(n);
  float result = 1.0f;
  while (magnitude > 0) {
    if (magnitude & 1) result *= base;
    base *= base;
    magnitude >>= 1;
  }
  return n < 0 ? 1.0f / result : result;
}

// Element-wise loops over the lane range [lo, hi). Lanes outside the mask
// are computed too (their values are never read), so every op passed here
// must be total on arbitrary bits.
template <typename F>
void map1(uint32_t* __restrict out, const uint32_t* __restrict a, uint32_t lo, uint32_t hi, F f) {
  for (uint32_t i = lo; i < hi; ++i) out[i] = f(a[i]);
}
template <typename F>
void map2(uint32_t* __restrict out, const uint32_t* __restrict a, const uint32_t* __restrict b,
          uint32_t lo, uint32_t hi, F f) {
  for (uint32_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
}
template <typename F>
void mapf2(uint32_t* __restrict out, const uint32_t* __restrict a, const uint32_t* __restrict b,
           uint32_t lo, uint32_t hi, F f) {
  for (uint32_t i = lo; i < hi; ++i) out[i] = f(u2f(a[i]), u2f(b[i]));
}

// Active lanes of a mask, with the tight range [lo, hi) that holds them.
struct Lanes {
  uint32_t n = 0, lo = 0, hi = 0;
};

// Writes out[i] = m[i] && pred(i) over [lo, hi).
template <typename P>
Lanes narrow(const uint8_t* m, uint32_t lo, uint32_t hi, uint8_t* out, P pred) {
  Lanes l{0, hi, lo};
  for (uint32_t i = lo; i < hi; ++i) {
    const bool on = m[i] && pred(i);
    out[i] = on;
    if (on) {
      ++l.n;
      l.lo = std::min(l.lo, i);
      l.hi = i + 1;
    }
  }
  return l;
}

// One run of a program and its per-launch state. A mask is only
// meaningful inside the lane range passed with it. eval returns the node's
// per-lane values — its own buffer, or the variable slot or id array it
// reads — and null on failure, with the error in error_.
class Run {
 public:
  Run(const Program& p, const std::vector<KernelArg>& args, const NDRange& ndrange,
      const InterpOptions& options, InterpWork& work, std::vector<uint64_t>& site_counts)
      : p_(p),
        kernel_(*p.kernel),
        args_(args),
        ndrange_(ndrange),
        options_(options),
        work_(work),
        site_counts_(site_counts),
        items_(ndrange.local_items()) {}

  Status run();

 private:
  uint32_t* value(uint32_t node) { return values_.data() + size_t{node} * items_; }
  uint8_t* mask(uint32_t id) { return masks_.data() + size_t{id} * items_; }

  // Variables exist from their first assignment in a group on, zero-filled.
  uint32_t* define(uint32_t slot) {
    uint32_t* v = vars_.data() + size_t{slot} * items_;
    if (var_group_[slot] != group_serial_) {
      std::fill_n(v, items_, 0u);
      var_group_[slot] = group_serial_;
    }
    return v;
  }

  bool fail(const std::string& message) {
    error_ = Status(ErrorKind::kRuntimeError, kernel_.name + ": " + message);
    return false;
  }

  std::vector<uint32_t>* target(int index, bool is_local);
  bool out_of_bounds(int index, bool is_local, uint32_t elem, size_t size);
  bool store_may_alias(const Program::Statement& s) const;

  const uint32_t* eval(uint32_t id, const uint8_t* m, uint32_t n, uint32_t lo, uint32_t hi);
  bool exec_block(uint32_t begin, uint32_t end, const uint8_t* m, uint32_t n, uint32_t lo,
                  uint32_t hi);
  bool exec(uint32_t id, const uint8_t* m, uint32_t n, uint32_t lo, uint32_t hi);
  bool exec_store(uint32_t id, const uint8_t* m, uint32_t n, uint32_t lo, uint32_t hi);
  bool exec_atomic(const Program::Statement& s, const uint8_t* m, uint32_t lo, uint32_t hi);
  bool exec_print(const Program::Statement& s, const uint8_t* m, uint32_t lo, uint32_t hi);

  const Program& p_;
  const Kernel& kernel_;
  const std::vector<KernelArg>& args_;
  const NDRange& ndrange_;
  const InterpOptions& options_;
  InterpWork& work_;
  std::vector<uint64_t>& site_counts_;
  const uint32_t items_;

  // One output buffer per node, one slot per variable and one mask per
  // mask owner, each `items_` lanes wide.
  std::vector<uint32_t> values_;
  std::vector<uint32_t> vars_;
  std::vector<uint8_t> masks_;
  std::vector<std::vector<uint32_t>> locals_;
  std::vector<uint32_t> lid_[3], gid_[3], grp_[3];
  std::vector<uint64_t> var_group_;  // group serial of each slot's definition
  uint64_t group_serial_ = 0;
  std::vector<uint8_t> sequential_;  // per statement: a store that may alias
  std::vector<uint8_t> full_;
  uint64_t statements_ = 0;
  Status error_;
};

// The storage a load or store targets; null (with the error set) when the
// index names no buffer.
std::vector<uint32_t>* Run::target(int index, bool is_local) {
  if (is_local) {
    if (index < 0 || static_cast<size_t>(index) >= locals_.size()) {
      fail("bad local array slot " + std::to_string(index));
      return nullptr;
    }
    return &locals_[static_cast<size_t>(index)];
  }
  if (index < 0 || static_cast<size_t>(index) >= args_.size()) {
    fail("bad buffer param " + std::to_string(index));
    return nullptr;
  }
  const KernelArg& arg = args_[static_cast<size_t>(index)];
  if (!arg.is_buffer || arg.data == nullptr) {
    fail("param " + std::to_string(index) + " is not a buffer");
    return nullptr;
  }
  return arg.data;
}

bool Run::out_of_bounds(int index, bool is_local, uint32_t elem, size_t size) {
  if (is_local) {
    return fail("out-of-bounds __local access: " + kernel_.locals[index].name + "[" +
                std::to_string(elem) + "] size " + std::to_string(size));
  }
  return fail("out-of-bounds access: " + kernel_.params[index].name + "[" + std::to_string(elem) +
              "] size " + std::to_string(size));
}

// True when a load in the store's index/value expressions may read the
// stored buffer (including two buffer params bound to the same host vector,
// and an index that names no buffer).
bool Run::store_may_alias(const Program::Statement& s) const {
  if (s.list == s.list_end) return false;
  auto identity = [&](int index, bool is_local) -> const void* {
    if (is_local) {
      if (index < 0 || static_cast<size_t>(index) >= locals_.size()) return nullptr;
      return &locals_[static_cast<size_t>(index)];
    }
    if (index < 0 || static_cast<size_t>(index) >= args_.size()) return nullptr;
    const KernelArg& arg = args_[static_cast<size_t>(index)];
    return arg.is_buffer ? arg.data : nullptr;
  };
  const void* stored = identity(s.buffer, s.is_local);
  if (stored == nullptr) return true;
  for (uint32_t k = s.list; k < s.list_end; ++k) {
    const void* loaded = identity(p_.alias_loads[k].index, p_.alias_loads[k].is_local);
    if (loaded == nullptr || loaded == stored) return true;
  }
  return false;
}

const uint32_t* Run::eval(uint32_t id, const uint8_t* m, uint32_t n, uint32_t lo, uint32_t hi) {
  ++work_.node_visits;
  work_.lane_ops += n;
  const Program::Node& e = p_.nodes[id];
  uint32_t* out = value(id);
  const uint32_t* a = nullptr;
  const uint32_t* b = nullptr;
  switch (e.op) {
    case Op::kConst:
    case Op::kGlobalSize:
    case Op::kLocalSize:
    case Op::kNumGroups:
      return out;  // filled when the run started
    case Op::kParam:
      if (static_cast<size_t>(e.index) >= args_.size() ||
          args_[static_cast<size_t>(e.index)].is_buffer) {
        fail("scalar read of buffer param");
        return nullptr;
      }
      return out;
    case Op::kVar:
      if (var_group_[static_cast<size_t>(e.index)] != group_serial_) {
        fail("use of undefined variable '" + p_.var_names[static_cast<size_t>(e.index)] + "'");
        return nullptr;
      }
      return vars_.data() + static_cast<size_t>(e.index) * items_;
    case Op::kGlobalId: return gid_[e.dim].data();
    case Op::kLocalId: return lid_[e.dim].data();
    case Op::kGroupId: return grp_[e.dim].data();
    case Op::kLAnd:
    case Op::kLOr: {
      // C short-circuit: the right operand evaluates only for the lanes the
      // left one did not decide.
      if ((a = eval(e.args[0], m, n, lo, hi)) == nullptr) return nullptr;
      const bool is_and = e.op == Op::kLAnd;
      std::fill(out + lo, out + hi, is_and ? 0u : 1u);
      uint8_t* rest = mask(e.mask);
      const Lanes r = narrow(m, lo, hi, rest, [&](uint32_t i) { return (a[i] != 0) == is_and; });
      if (r.n > 0) {
        if ((b = eval(e.args[1], rest, r.n, r.lo, r.hi)) == nullptr) return nullptr;
        for (uint32_t i = r.lo; i < r.hi; ++i) {
          if (rest[i]) out[i] = b[i] != 0 ? 1u : 0u;
        }
      }
      return out;
    }
    case Op::kSelect: {
      // Each lane evaluates only its taken arm.
      if ((a = eval(e.args[0], m, n, lo, hi)) == nullptr) return nullptr;
      for (int arm = 0; arm < 2; ++arm) {
        uint8_t* arm_mask = mask(e.mask + static_cast<uint32_t>(arm));
        const Lanes l =
            narrow(m, lo, hi, arm_mask, [&](uint32_t i) { return (a[i] != 0) == (arm == 0); });
        if (l.n == 0) continue;
        if ((b = eval(e.args[1 + arm], arm_mask, l.n, l.lo, l.hi)) == nullptr) return nullptr;
        for (uint32_t i = l.lo; i < l.hi; ++i) {
          if (arm_mask[i]) out[i] = b[i];
        }
      }
      return out;
    }
    case Op::kLoad: {
      if ((a = eval(e.args[0], m, n, lo, hi)) == nullptr) return nullptr;
      const std::vector<uint32_t>* data = target(e.index, e.is_local);
      if (data == nullptr) return nullptr;
      uint64_t done = 0;
      bool ok = true;
      for (uint32_t i = lo; i < hi; ++i) {
        if (!m[i]) continue;
        const uint32_t elem = a[i];
        if (elem >= data->size()) {
          ok = out_of_bounds(e.index, e.is_local, elem, data->size());
          break;
        }
        ++done;
        if (options_.on_load_addr) options_.on_load_addr(e.origin, e.index, e.is_local, elem);
        out[i] = (*data)[elem];
      }
      work_.loads += done;
      site_counts_[e.site] += done;
      return ok ? out : nullptr;
    }
    default:
      break;
  }

  // Element-wise ops: operands in tree order, then one loop over the lanes.
  if ((a = eval(e.args[0], m, n, lo, hi)) == nullptr) return nullptr;
  if (e.args[1] != Program::kNone && (b = eval(e.args[1], m, n, lo, hi)) == nullptr) {
    return nullptr;
  }
  using U = uint32_t;
  auto unary = [&](auto f) { map1(out, a, lo, hi, f); };
  auto binary = [&](auto f) { map2(out, a, b, lo, hi, f); };
  auto fbinary = [&](auto f) { mapf2(out, a, b, lo, hi, f); };
  switch (e.op) {
    case Op::kAdd: binary([](U x, U y) { return x + y; }); break;
    case Op::kSub: binary([](U x, U y) { return x - y; }); break;
    case Op::kMul: binary([](U x, U y) { return x * y; }); break;
    case Op::kDiv: binary([](U x, U y) { return U(div_i32(s32(x), s32(y))); }); break;
    case Op::kRem: binary([](U x, U y) { return U(rem_i32(s32(x), s32(y))); }); break;
    case Op::kAnd: binary([](U x, U y) { return x & y; }); break;
    case Op::kOr: binary([](U x, U y) { return x | y; }); break;
    case Op::kXor: binary([](U x, U y) { return x ^ y; }); break;
    case Op::kShl: binary([](U x, U y) { return x << (y & 31); }); break;
    case Op::kShr: binary([](U x, U y) { return U(s32(x) >> (y & 31)); }); break;
    case Op::kMin: binary([](U x, U y) { return U(std::min(s32(x), s32(y))); }); break;
    case Op::kMax: binary([](U x, U y) { return U(std::max(s32(x), s32(y))); }); break;
    case Op::kLt: binary([](U x, U y) { return U(s32(x) < s32(y)); }); break;
    case Op::kLe: binary([](U x, U y) { return U(s32(x) <= s32(y)); }); break;
    case Op::kGt: binary([](U x, U y) { return U(s32(x) > s32(y)); }); break;
    case Op::kGe: binary([](U x, U y) { return U(s32(x) >= s32(y)); }); break;
    case Op::kEq: binary([](U x, U y) { return U(x == y); }); break;
    case Op::kNe: binary([](U x, U y) { return U(x != y); }); break;
    case Op::kFAdd: fbinary([](float x, float y) { return f2u(x + y); }); break;
    case Op::kFSub: fbinary([](float x, float y) { return f2u(x - y); }); break;
    case Op::kFMul: fbinary([](float x, float y) { return f2u(x * y); }); break;
    case Op::kFDiv: fbinary([](float x, float y) { return f2u(x / y); }); break;
    case Op::kFMin: fbinary([](float x, float y) { return f2u(std::fmin(x, y)); }); break;
    case Op::kFMax: fbinary([](float x, float y) { return f2u(std::fmax(x, y)); }); break;
    case Op::kFLt: fbinary([](float x, float y) { return U(x < y); }); break;
    case Op::kFLe: fbinary([](float x, float y) { return U(x <= y); }); break;
    case Op::kFGt: fbinary([](float x, float y) { return U(x > y); }); break;
    case Op::kFGe: fbinary([](float x, float y) { return U(x >= y); }); break;
    case Op::kFEq: fbinary([](float x, float y) { return U(x == y); }); break;
    case Op::kFNe: fbinary([](float x, float y) { return U(x != y); }); break;
    case Op::kFInvalid: fail("invalid float binary op"); return nullptr;
    case Op::kNeg: unary([](U x) { return 0u - x; }); break;
    case Op::kFNeg: unary([](U x) { return x ^ 0x80000000u; }); break;
    case Op::kNot: unary([](U x) { return U(x == 0); }); break;
    case Op::kAbs: unary([](U x) { return s32(x) < 0 ? 0u - x : x; }); break;
    case Op::kFAbs: unary([](U x) { return x & 0x7FFFFFFFu; }); break;
    case Op::kBitcast: return a;
    case Op::kI2F: unary([](U x) { return f2u(static_cast<float>(s32(x))); }); break;
    case Op::kF2I: unary(f2i); break;
    case Op::kSqrt: unary([](U x) { return f2u(std::sqrt(u2f(x))); }); break;
    case Op::kRsqrt: unary([](U x) { return f2u(1.0f / std::sqrt(u2f(x))); }); break;
    case Op::kExp: unary([](U x) { return f2u(std::exp(u2f(x))); }); break;
    case Op::kLog: unary([](U x) { return f2u(std::log(u2f(x))); }); break;
    case Op::kFloor: unary([](U x) { return f2u(std::floor(u2f(x))); }); break;
    case Op::kPowi:
      // Data-dependent trip count: active lanes only.
      for (uint32_t i = lo; i < hi; ++i) {
        if (m[i]) out[i] = f2u(powi(u2f(a[i]), s32(b[i])));
      }
      break;
    default: fail("unreachable expression kind"); return nullptr;
  }
  return out;
}

bool Run::exec_block(uint32_t begin, uint32_t end, const uint8_t* m, uint32_t n, uint32_t lo,
                     uint32_t hi) {
  for (uint32_t s = begin; s < end; ++s) {
    if (!exec(s, m, n, lo, hi)) return false;
  }
  return true;
}

// A store that may read what it writes runs item by item (one-lane ranges),
// so later items observe earlier items' writes.
bool Run::exec_store(uint32_t id, const uint8_t* m, uint32_t n, uint32_t lo, uint32_t hi) {
  const Program::Statement& s = p_.statements[id];
  const bool sequential = sequential_[id] != 0;
  for (uint32_t first = lo; first < hi;) {
    uint32_t last = hi, count = n;
    if (sequential) {
      while (!m[first]) {
        if (++first == hi) return true;
      }
      last = first + 1;
      count = 1;
    }
    const uint32_t* index = eval(s.a, m, count, first, last);
    if (index == nullptr) return false;
    const uint32_t* val = eval(s.b, m, count, first, last);
    if (val == nullptr) return false;
    std::vector<uint32_t>* data = target(s.buffer, s.is_local);
    if (data == nullptr) return false;
    for (uint32_t i = first; i < last; ++i) {
      if (!m[i]) continue;
      if (index[i] >= data->size()) {
        return out_of_bounds(s.buffer, s.is_local, index[i], data->size());
      }
      ++work_.stores;
      ++site_counts_[s.site];
      (*data)[index[i]] = val[i];
    }
    first = last;
  }
  return true;
}

// Item by item so each read-modify-write observes every earlier item's
// update (tests assert ticket ordering).
bool Run::exec_atomic(const Program::Statement& s, const uint8_t* m, uint32_t lo, uint32_t hi) {
  uint32_t* result = s.var == Program::kNone ? nullptr : define(s.var);
  for (uint32_t i = lo; i < hi; ++i) {
    if (!m[i]) continue;
    const uint32_t* index = eval(s.a, m, 1, i, i + 1);
    if (index == nullptr) return false;
    const uint32_t* val = eval(s.b, m, 1, i, i + 1);
    if (val == nullptr) return false;
    std::vector<uint32_t>* data = target(s.buffer, s.is_local);
    if (data == nullptr) return false;
    if (index[i] >= data->size()) {
      return out_of_bounds(s.buffer, s.is_local, index[i], data->size());
    }
    ++work_.stores;
    ++site_counts_[s.site];
    const uint32_t old = (*data)[index[i]];
    const uint32_t operand = val[i];
    uint32_t next = old;
    switch (s.atomic) {
      case AtomicOp::kAdd: next = old + operand; break;
      case AtomicOp::kMin: next = static_cast<uint32_t>(std::min(s32(old), s32(operand))); break;
      case AtomicOp::kMax: next = static_cast<uint32_t>(std::max(s32(old), s32(operand))); break;
      case AtomicOp::kAnd: next = old & operand; break;
      case AtomicOp::kOr: next = old | operand; break;
      case AtomicOp::kXor: next = old ^ operand; break;
      case AtomicOp::kExchange: next = operand; break;
      case AtomicOp::kCmpxchg: {
        const uint32_t* expected = eval(s.c, m, 1, i, i + 1);
        if (expected == nullptr) return false;
        next = old == expected[i] ? operand : old;
        break;
      }
    }
    (*data)[index[i]] = next;
    if (result != nullptr) result[i] = old;
  }
  return true;
}

bool Run::exec_print(const Program::Statement& s, const uint8_t* m, uint32_t lo, uint32_t hi) {
  const std::string& fmt = s.origin->text;
  for (uint32_t i = lo; i < hi; ++i) {
    if (!m[i]) continue;
    std::string rendered;
    uint32_t arg = s.list;
    for (size_t p = 0; p < fmt.size(); ++p) {
      if (fmt[p] != '%' || p + 1 == fmt.size()) {
        rendered += fmt[p];
        continue;
      }
      const char spec = fmt[++p];
      if (spec == '%') {
        rendered += '%';
        continue;
      }
      uint32_t value = 0;
      if (arg < s.list_end) {
        const uint32_t* v = eval(p_.print_args[arg++], m, 1, i, i + 1);
        if (v == nullptr) return false;
        value = v[i];
      }
      char buf[48];
      switch (spec) {
        case 'd': std::snprintf(buf, sizeof(buf), "%d", s32(value)); break;
        case 'u': std::snprintf(buf, sizeof(buf), "%u", value); break;
        case 'x': std::snprintf(buf, sizeof(buf), "%x", value); break;
        case 'f': std::snprintf(buf, sizeof(buf), "%f", u2f(value)); break;
        default: std::snprintf(buf, sizeof(buf), "%%%c", spec); break;
      }
      rendered += buf;
    }
    if (!rendered.empty() && rendered.back() == '\n') rendered.pop_back();
    if (options_.print_sink) options_.print_sink(rendered);
  }
  return true;
}

bool Run::exec(uint32_t id, const uint8_t* m, uint32_t n, uint32_t lo, uint32_t hi) {
  if (++statements_ > options_.max_statements) {
    return fail("statement budget exceeded (runaway kernel?)");
  }
  const Program::Statement& s = p_.statements[id];
  switch (s.kind) {
    case StmtKind::kLet:
    case StmtKind::kAssign: {
      // Define the slot before evaluating so a self-referencing initializer
      // reads the zero-filled slot instead of failing as undefined.
      uint32_t* slot = define(s.var);
      const uint32_t* v = eval(s.a, m, n, lo, hi);
      if (v == nullptr) return false;
      for (uint32_t i = lo; i < hi; ++i) slot[i] = m[i] ? v[i] : slot[i];
      return true;
    }
    case StmtKind::kStore: return exec_store(id, m, n, lo, hi);
    case StmtKind::kIf: {
      const uint32_t* c = eval(s.a, m, n, lo, hi);
      if (c == nullptr) return false;
      uint8_t* then_mask = mask(s.mask);
      uint8_t* else_mask = mask(s.mask + 1);
      const Lanes t = narrow(m, lo, hi, then_mask, [&](uint32_t i) { return c[i] != 0; });
      const Lanes f = narrow(m, lo, hi, else_mask, [&](uint32_t i) { return c[i] == 0; });
      if (t.n > 0 && !exec_block(s.body, s.body_end, then_mask, t.n, t.lo, t.hi)) return false;
      return f.n == 0 || exec_block(s.else_body, s.else_end, else_mask, f.n, f.lo, f.hi);
    }
    case StmtKind::kFor: {
      uint32_t* v = define(s.var);
      const uint32_t* init = eval(s.a, m, n, lo, hi);
      if (init == nullptr) return false;
      for (uint32_t i = lo; i < hi; ++i) v[i] = m[i] ? init[i] : v[i];
      uint8_t* loop = mask(s.mask);
      while (true) {
        // Iterations count against the statement budget even when the body
        // is empty, so runaway loops always trip the guard.
        if (++statements_ > options_.max_statements) {
          return fail("statement budget exceeded (runaway kernel?)");
        }
        // The bound re-evaluates for every still-active item each
        // iteration, matching per-item execution.
        const uint32_t* bound = eval(s.b, m, n, lo, hi);
        if (bound == nullptr) return false;
        const Lanes l =
            narrow(m, lo, hi, loop, [&](uint32_t i) { return s32(v[i]) < s32(bound[i]); });
        if (l.n == 0) return true;
        if (!exec_block(s.body, s.body_end, loop, l.n, l.lo, l.hi)) return false;
        const uint32_t* step = eval(s.c, loop, l.n, l.lo, l.hi);
        if (step == nullptr) return false;
        for (uint32_t i = l.lo; i < l.hi; ++i) v[i] += loop[i] ? step[i] : 0u;
      }
    }
    case StmtKind::kWhile: {
      uint8_t* loop = mask(s.mask);
      while (true) {
        if (++statements_ > options_.max_statements) {
          return fail("statement budget exceeded (runaway kernel?)");
        }
        const uint32_t* c = eval(s.a, m, n, lo, hi);
        if (c == nullptr) return false;
        const Lanes l = narrow(m, lo, hi, loop, [&](uint32_t i) { return c[i] != 0; });
        if (l.n == 0) return true;
        if (!exec_block(s.body, s.body_end, loop, l.n, l.lo, l.hi)) return false;
      }
    }
    case StmtKind::kBarrier:
      // OpenCL requires barriers to be reached by every item of the group;
      // lockstep execution leaves nothing else to synchronize.
      if (n != items_) return fail("barrier reached under divergent control flow (OpenCL UB)");
      return true;
    case StmtKind::kAtomic: return exec_atomic(s, m, lo, hi);
    case StmtKind::kPrint: return exec_print(s, m, lo, hi);
  }
  return fail("unreachable statement kind");
}

Status Run::run() {
  const size_t items = items_;
  values_.assign(p_.nodes.size() * items, 0u);
  vars_.assign(p_.var_names.size() * items, 0u);
  masks_.assign(size_t{p_.masks} * items, 0);
  site_counts_.assign(p_.sites.size(), 0);
  for (const auto& array : kernel_.locals) locals_.emplace_back(array.size, 0u);
  var_group_.assign(p_.var_names.size(), 0);
  full_.assign(items, 1);

  // Launch-uniform leaves hold their value in every lane for the whole run.
  for (size_t id = 0; id < p_.nodes.size(); ++id) {
    const Program::Node& e = p_.nodes[id];
    uint32_t fill = 0;
    switch (e.op) {
      case Op::kConst: fill = e.imm; break;
      case Op::kParam:
        if (static_cast<size_t>(e.index) >= args_.size()) continue;
        fill = args_[static_cast<size_t>(e.index)].scalar_bits;
        break;
      case Op::kGlobalSize: fill = ndrange_.global[e.dim]; break;
      case Op::kLocalSize: fill = ndrange_.local[e.dim]; break;
      case Op::kNumGroups: fill = ndrange_.num_groups(e.dim); break;
      default: continue;
    }
    std::fill_n(value(static_cast<uint32_t>(id)), items, fill);
  }
  // Whether a store runs item by item depends only on the launch's bindings.
  sequential_.assign(p_.statements.size(), 0);
  for (size_t id = 0; id < p_.statements.size(); ++id) {
    const Program::Statement& s = p_.statements[id];
    if (s.kind == StmtKind::kStore) sequential_[id] = store_may_alias(s);
  }

  for (int d = 0; d < 3; ++d) {
    lid_[d].resize(items);
    gid_[d].resize(items);
    grp_[d].resize(items);
  }
  for (uint32_t i = 0; i < items_; ++i) {
    lid_[0][i] = i % ndrange_.local[0];
    lid_[1][i] = (i / ndrange_.local[0]) % ndrange_.local[1];
    lid_[2][i] = i / (ndrange_.local[0] * ndrange_.local[1]);
  }

  uint32_t group[3];
  for (group[2] = 0; group[2] < ndrange_.num_groups(2); ++group[2]) {
    for (group[1] = 0; group[1] < ndrange_.num_groups(1); ++group[1]) {
      for (group[0] = 0; group[0] < ndrange_.num_groups(0); ++group[0]) {
        ++group_serial_;  // every variable is undefined again
        for (int d = 0; d < 3; ++d) {
          const uint32_t base = group[d] * ndrange_.local[d];
          for (uint32_t i = 0; i < items_; ++i) gid_[d][i] = base + lid_[d][i];
          std::fill(grp_[d].begin(), grp_[d].end(), group[d]);
        }
        for (auto& array : locals_) std::fill(array.begin(), array.end(), 0u);
        if (!exec_block(p_.body, p_.body_end, full_.data(), items_, 0, items_)) return error_;
      }
    }
  }
  return Status::ok();
}

}  // namespace

KernelArg KernelArg::scalar_f32(float v) { return KernelArg{false, f2u(v), nullptr}; }

Status Interpreter::run(const Kernel& kernel, const std::vector<KernelArg>& args,
                        const NDRange& ndrange) {
  return run(Program(kernel), args, ndrange);
}

Status Interpreter::run(const Program& program, const std::vector<KernelArg>& args,
                        const NDRange& ndrange) {
  const Kernel& kernel = *program.kernel;
  if (args.size() != kernel.params.size()) {
    return Status(ErrorKind::kInvalidArgument,
                  kernel.name + ": expected " + std::to_string(kernel.params.size()) +
                      " args, got " + std::to_string(args.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].is_buffer != kernel.params[i].is_buffer) {
      return Status(ErrorKind::kInvalidArgument,
                    kernel.name + ": arg " + std::to_string(i) + " buffer/scalar mismatch");
    }
  }
  for (int d = 0; d < 3; ++d) {
    if (ndrange.local[d] == 0 || ndrange.global[d] % ndrange.local[d] != 0) {
      return Status(ErrorKind::kInvalidArgument,
                    kernel.name + ": global size not divisible by local size in dim " +
                        std::to_string(d));
    }
  }
  ++work_.launches;
  return Run(program, args, ndrange, options_, work_, site_counts_).run();
}

}  // namespace fgpu::kir

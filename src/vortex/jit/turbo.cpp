// Threaded-code binary translation for the turbo tier (see turbo.hpp for
// the tier contract). Structure:
//
//   TurboCore::lookup(pc)     block cache: start PC -> TranslatedBlock
//   TurboCore::translate(pc)  decode a straight-line run of guest words
//                             into per-instruction handler pointers, ending
//                             at the first control-flow/SIMT instruction
//   TurboCore::run_warp(w)    dispatch loop: execute block bodies
//                             (run_body: hot ops inline, the rest through
//                             their handler pointers), resolve terminators,
//                             and hop to the successor block through the
//                             chain pointers (cache lookup only on a cold
//                             edge or a dynamic target)
//
// Warp scheduling is run-to-block: each warp executes until it hits a
// barrier, deactivates, or errors; the core round-robins over runnable
// warps until none is active. This reorders memory operations relative to
// the cycle-exact interleaving, which is safe for output digests because
// the generated code's cross-warp side effects are commutative (AMOs; no
// LR/SC is emitted) — the property the -O0/-O2 digest differential already
// relies on. Every instruction's architectural effect comes from
// arch/semantics.hpp, the definition the cycle-exact core runs too; this file
// adds only the translation and dispatch machinery.
#include "vortex/jit/turbo.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "arch/semantics.hpp"
#include "common/log.hpp"

namespace fgpu::vortex::jit {
namespace {

using arch::Instr;
using arch::Op;

// Straight-line translation cap: a block longer than this is split, ending
// without a terminator and falling through to its successor.
constexpr size_t kMaxBlockInstrs = 256;

// Terminators end a translated block: everything that can move a warp's PC
// or scheduling state. ECALL/FENCE/memory ops stay in the block body.
bool is_terminator(Op op) {
  switch (op) {
    case Op::kJal:
    case Op::kJalr:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kTmc:
    case Op::kWspawn:
    case Op::kSplit:
    case Op::kJoin:
    case Op::kPred:
    case Op::kBar:
      return true;
    default:
      return false;
  }
}

// Static jump target of a terminator (PC-relative immediates); 0 for the
// dynamic ones (JALR, JOIN's else-side PC comes off the IPDOM stack).
uint32_t static_take_pc(const Instr& in, uint32_t pc) {
  switch (in.op) {
    case Op::kJal:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kSplit:
    case Op::kJoin:
    case Op::kPred:
      return pc + static_cast<uint32_t>(in.imm);
    default:
      return 0;
  }
}

}  // namespace

class TurboCore {
 public:
  struct TranslatedBlock;

  // One translated guest instruction: the decoded form plus its
  // precomputed handler — the "threaded code" unit of dispatch.
  struct TI {
    void (*fn)(TurboCore&, uint32_t, const TI&) = nullptr;
    Instr instr;
    uint32_t pc = 0;
    uint8_t fast = 0;  // FastOp dispatch code; 0 = dispatch through fn
    // Guest instructions of the block retired up to and including this
    // one: a mid-block instret CSR read adds it to the block-entry count.
    uint32_t retired = 0;
  };

  struct TranslatedBlock {
    uint32_t start_pc = 0;
    std::vector<TI> body;  // straight-line, non-control-flow
    // Guest instructions the body represents. Exceeds body.size() when the
    // constant-fusion peephole merged adjacent guest instructions into one
    // TI — retirement counts (stats, instret CSR, budget) stay exact.
    uint32_t body_retired = 0;
    Instr term;            // valid when has_term
    uint32_t term_pc = 0;
    bool has_term = false;  // false: capped block, plain fallthrough
    uint32_t fall_pc = 0;   // next PC when the terminator is not taken
    uint32_t take_pc = 0;   // static jump target (0 = dynamic or none)
    // Chained dispatch: resolved successors, so hot edges skip the cache.
    TranslatedBlock* next_fall = nullptr;
    TranslatedBlock* next_take = nullptr;
  };

  TurboCore(const Config& config, uint32_t core_id, mem::MainMemory& gmem,
            EcallHandler& ecall_handler, TurboStats& stats)
      : config_(config),
        core_id_(core_id),
        gmem_(gmem),
        ecall_handler_(ecall_handler),
        stats_(stats),
        warps_(config.warps),
        xregs_(config.warps * config.threads * kXRows, 0),
        fregs_(config.warps * config.threads * 32, 0) {}

  void invalidate() {
    bool any = false;
    for (const auto& [kernel, cache] : caches_) any |= !cache.empty();
    caches_.clear();
    blocks_ = &caches_[active_kernel_];
    if (any) ++stats_.invalidations;
  }

  // Silent variant of invalidate() for the device-reuse boundary
  // (TurboDevice::reset between benchmarks): the drop is lifecycle
  // bookkeeping, not a kernel reload, so it must not perturb the
  // invalidations counter — per-benchmark jit-stat deltas stay identical
  // between a pooled device and a fresh one. Also deselects the kernel so
  // the next build starts from a construction-state cache map.
  void clear_blocks() {
    caches_.clear();
    active_kernel_.clear();
    blocks_ = &caches_[active_kernel_];
  }

  // Switches the active block cache to `kernel`'s. Each kernel of a build
  // keeps its own cache, so alternating launches (gaussian's Fan1/Fan2)
  // re-enter warm caches instead of re-translating; only build()'s
  // invalidate() drops translations.
  void select_kernel(const std::string& kernel) {
    if (kernel == active_kernel_) return;
    active_kernel_ = kernel;
    blocks_ = &caches_[kernel];
  }

  void reset(uint32_t entry_pc) {
    for (auto& warp : warps_) warp = TWarp{};
    std::fill(xregs_.begin(), xregs_.end(), 0u);
    std::fill(fregs_.begin(), fregs_.end(), 0u);
    barriers_ = arch::Barriers{};
    local_mem_.clear();
    tlb_.fill(TlbEntry{});  // local pages were just dropped
    instret_ = 0;
    error_ = Status::ok();
    warps_[0].active = true;
    warps_[0].pc = entry_pc;
    warps_[0].tmask = 1;
  }

  // Runs every warp to completion; `run_instrs` is the launch-wide retired
  // counter shared across cores, checked against `budget`.
  Status run(uint64_t* run_instrs, uint64_t budget) {
    run_instrs_ = run_instrs;
    budget_ = budget;
    for (;;) {
      bool progressed = false;
      for (uint32_t w = 0; w < config_.warps; ++w) {
        if (!warps_[w].active || warps_[w].at_barrier) continue;
        progressed = true;
        if (!run_warp(w)) return error_;
      }
      bool any_active = false;
      for (const auto& warp : warps_) any_active |= warp.active;
      if (!any_active) return Status::ok();
      if (!progressed) {
        return Status(ErrorKind::kRuntimeError,
                      "turbo: barrier deadlock on core " + std::to_string(core_id_) +
                          " (every active warp is blocked)");
      }
    }
  }

  // --- register file --------------------------------------------------------
  // Register-major ("structure of arrays") layout, unlike core.cpp's
  // lane-major one: register r of lane l lives at [(warp*rows + r)*threads + l],
  // so one warp-instruction's operand rows are contiguous runs of `threads`
  // words — the layout the lane loops need to autovectorize. Purely an
  // internal representation choice; values are bit-identical.
  //
  // The integer file has one row past x31: translate() points every write
  // to x0 at it, so x0 stays zero without a per-lane check.
  static constexpr uint32_t kXRows = 33;
  static constexpr uint8_t kXDiscard = 32;
  uint32_t& xr(uint32_t warp, uint32_t lane, uint32_t index) {
    return xregs_[(warp * kXRows + index) * config_.threads + lane];
  }
  uint32_t& fr(uint32_t warp, uint32_t lane, uint32_t index) {
    return fregs_[(warp * 32 + index) * config_.threads + lane];
  }
  // Warp-base pointers for the handler hot paths: register row r starts at
  // base[r * threads]. Hoisting the base (and a local Instr copy) out of the
  // lane loop matters because register stores are uint32_t writes, which
  // TBAA says may alias config_ fields and Instr bytes — without the locals
  // the compiler must re-derive addresses from memory every lane.
  uint32_t* xwarp(uint32_t w) { return xregs_.data() + w * kXRows * config_.threads; }
  uint32_t* fwarp(uint32_t w) { return fregs_.data() + w * 32 * config_.threads; }
  uint32_t nthreads() const { return config_.threads; }

  template <typename Fn>
  void lanes(uint32_t w, Fn&& fn) {
    const uint64_t mask = warps_[w].tmask;
    // Full-mask fast path with a compile-time bound: the dominant case is
    // every lane of an 8-thread warp active, and the constant-8 loop lets
    // the compiler unroll the handler body with no per-lane mask tests.
    if (mask == 0xFFull && config_.threads == 8) {
      for (uint32_t lane = 0; lane < 8; ++lane) fn(lane);
      return;
    }
    // Partial masks (divergence, scalar prologues with tmask=1) iterate set
    // bits only — the trip count is the active-lane count, not the warp
    // width, which is what makes scalar-heavy kernels cheap.
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      fn(static_cast<uint32_t>(__builtin_ctzll(m)));
    }
  }

  // True when every lane of an 8-thread warp is active — the precondition
  // of both the lanes() constant-8 loop and the coalesced memory fast path
  // in the word load/store handlers.
  bool full8(uint32_t w) const { return warps_[w].tmask == 0xFFull && config_.threads == 8; }

  // Functional tier: no cycle model, so the cycle CSR reads 0. Instret
  // counts this core's retired instructions, as in the cycle simulator;
  // instret_ is the count at block entry (the CSR handler adds its
  // position in the block).
  arch::CsrView csr_view(uint32_t w) const {
    return arch::CsrView{.warp = w, .core = core_id_, .tmask = warps_[w].tmask,
                         .threads = config_.threads, .warps = config_.warps,
                         .cores = config_.cores, .cycle = 0, .instret = instret_};
  }

  bool is_local_addr(uint32_t addr) const {
    return addr >= arch::kLocalBase && addr < arch::kLocalBase + arch::kLocalSize;
  }
  mem::MainMemory& memory_for(uint32_t addr) {
    return is_local_addr(addr) ? local_mem_ : gmem_;
  }

  // Software TLB over MainMemory's sparse 64 KiB pages: the dominant cost of
  // a functional memory op is the per-access page-map hash lookup, so cache
  // page pointers direct-mapped by page index. Page tags are full 32-bit
  // addresses, so local vs. global routing is already baked into the tag.
  // Reset per launch (local_mem_ is cleared then); page storage is otherwise
  // stable until MainMemory::clear().
  uint8_t* page(uint32_t addr) {
    const uint32_t tag = addr >> mem::MainMemory::kPageBits;
    TlbEntry& entry = tlb_[tag & (kTlbSize - 1)];
    if (entry.tag != tag) {
      entry.tag = tag;
      entry.data = memory_for(addr).page_data(addr);
    }
    return entry.data;
  }
  static constexpr uint32_t kPageMask = mem::MainMemory::kPageSize - 1;

  uint32_t load32(uint32_t addr) {
    if ((addr & kPageMask) <= kPageMask - 3) [[likely]] {
      uint32_t v;
      std::memcpy(&v, page(addr) + (addr & kPageMask), 4);
      return v;
    }
    return memory_for(addr).load32(addr);  // page-straddling access
  }
  uint16_t load16(uint32_t addr) {
    if ((addr & kPageMask) <= kPageMask - 1) [[likely]] {
      uint16_t v;
      std::memcpy(&v, page(addr) + (addr & kPageMask), 2);
      return v;
    }
    return memory_for(addr).load16(addr);
  }
  uint8_t load8(uint32_t addr) { return page(addr)[addr & kPageMask]; }
  void store32(uint32_t addr, uint32_t v) {
    if ((addr & kPageMask) <= kPageMask - 3) [[likely]] {
      std::memcpy(page(addr) + (addr & kPageMask), &v, 4);
      return;
    }
    memory_for(addr).store32(addr, v);
  }
  void store16(uint32_t addr, uint16_t v) {
    if ((addr & kPageMask) <= kPageMask - 1) [[likely]] {
      std::memcpy(page(addr) + (addr & kPageMask), &v, 2);
      return;
    }
    memory_for(addr).store16(addr, v);
  }
  void store8(uint32_t addr, uint8_t v) { page(addr)[addr & kPageMask] = v; }

  void do_ecall(uint32_t w) {
    ++stats_.ecalls;
    lanes(w, [&](uint32_t l) {
      if (ecall_handler_) {
        ecall_handler_(EcallRequest{core_id_, w, l, xr(w, l, 17), xr(w, l, 10)}, gmem_);
      }
    });
  }

  uint64_t tmask(uint32_t w) const { return warps_[w].tmask; }

 private:
  struct TWarp {
    bool active = false;
    uint32_t pc = 0;
    uint64_t tmask = 0;
    std::vector<arch::IpdomEntry> ipdom;
    bool at_barrier = false;
    uint32_t barrier_id = 0;
  };

  TranslatedBlock* lookup(uint32_t pc) {
    ++stats_.block_lookups;
    auto it = blocks_->find(pc);
    if (it != blocks_->end()) {
      ++stats_.block_hits;
      return it->second.get();
    }
    return translate(pc);
  }

  TranslatedBlock* translate(uint32_t start_pc);

  TranslatedBlock* next_fall(TranslatedBlock* blk) {
    if (blk->next_fall != nullptr) {
      ++stats_.chained_dispatches;
      return blk->next_fall;
    }
    return blk->next_fall = lookup(blk->fall_pc);
  }
  TranslatedBlock* next_take(TranslatedBlock* blk) {
    if (blk->next_take != nullptr) {
      ++stats_.chained_dispatches;
      return blk->next_take;
    }
    return blk->next_take = lookup(blk->take_pc);
  }

  // Applies a terminator's outcome to the warp and returns the block it
  // continues at: the fall-through or static target through the chain
  // slots, a dynamic target (JALR, an ELSE side off the IPDOM stack)
  // through the cache.
  TranslatedBlock* step(TWarp& warp, TranslatedBlock* blk, const arch::sem::SimtStep& next) {
    warp.tmask = next.tmask;
    switch (next.next) {
      case arch::sem::Next::kFall:
        warp.pc = blk->fall_pc;
        return next_fall(blk);
      case arch::sem::Next::kTake:
        warp.pc = blk->take_pc;
        return next_take(blk);
      case arch::sem::Next::kPc:
      case arch::sem::Next::kFault:  // a faulting JOIN stops the warp first
        break;
    }
    warp.pc = next.pc;
    return lookup(next.pc);  // dynamic target: no chain slot
  }

  void barrier_arrive(uint32_t warp_id, uint32_t id, uint32_t count) {
    TWarp& warp = warps_[warp_id];
    warp.at_barrier = true;
    warp.barrier_id = id;
    ++stats_.barriers;
    if (!arch::sem::barrier_arrive(barriers_, id, count)) return;
    for (auto& other : warps_) {
      if (other.at_barrier && other.barrier_id == id) other.at_barrier = false;
    }
  }

  // Active lanes of warp `w` whose register x[reg] is nonzero.
  uint64_t lanes_nonzero(uint32_t w, uint8_t reg) {
    uint64_t bits = 0;
    lanes(w, [&](uint32_t l) {
      if (xr(w, l, reg) != 0) bits |= (1ull << l);
    });
    return bits;
  }

  void run_body(uint32_t w, const std::vector<TI>& body);

  // Dispatch loop: returns false when error_ is set (budget, deadlock
  // cannot happen here). Returning true means the warp blocked or retired.
  bool run_warp(uint32_t w);

  const Config& config_;
  uint32_t core_id_;
  mem::MainMemory& gmem_;
  mem::MainMemory local_mem_;  // per-core OpenCL __local scratchpad
  EcallHandler& ecall_handler_;
  TurboStats& stats_;

  std::vector<TWarp> warps_;
  std::vector<uint32_t> xregs_;  // [warp][reg][lane], lanes of a register adjacent
  std::vector<uint32_t> fregs_;
  arch::Barriers barriers_;
  uint64_t instret_ = 0;

  static constexpr uint32_t kTlbSize = 64;  // power of two
  struct TlbEntry {
    uint32_t tag = 0xFFFFFFFFu;  // no valid page has index 0xFFFF
    uint8_t* data = nullptr;
  };
  std::array<TlbEntry, kTlbSize> tlb_;

  // Block caches, one per kernel name: start PC -> translated block.
  // Binaries share a load base, so PCs from different kernels must never
  // share a cache; keeping them separate (instead of flushing on kernel
  // switch) is what makes alternating-kernel launch sequences warm.
  // unique_ptr storage keeps chain pointers stable as a map grows; chains
  // never cross caches because lookup/translate only touch the active one.
  // Invalidated wholesale at the kernel-reload boundary
  // (TurboEngine::invalidate, i.e. device build()).
  using BlockCache = std::unordered_map<uint32_t, std::unique_ptr<TranslatedBlock>>;
  std::unordered_map<std::string, BlockCache> caches_;
  std::string active_kernel_;
  BlockCache* blocks_ = &caches_[active_kernel_];

  uint64_t* run_instrs_ = nullptr;
  uint64_t budget_ = 0;
  Status error_;
};

namespace {

using TI = TurboCore::TI;
using Handler = void (*)(TurboCore&, uint32_t, const TI&);
using arch::sem::Src;

// Hot-path handlers are always_inline: run_warp folds the hot ones into its
// dispatch switch, and the out-of-line copies back the handler table.
#define FGPU_TURBO_HOT inline __attribute__((always_inline))

// Coalesced warp word access: GPU kernels overwhelmingly issue unit-stride
// (or at least same-page) warp loads and stores, so when all 8 lanes of a
// full warp hit one 64 KiB page — and none straddles its end — one TLB
// translation serves the whole warp instead of eight. The address and
// same-page checks are branch-free lane loops the compiler vectorizes; the
// per-lane load32/store32 path remains the fallback (partial masks,
// cross-page scatters, straddles). Lane order is ascending in both store
// paths, so same-address conflicts resolve identically.
FGPU_TURBO_HOT void warp_load32(TurboCore& c, uint32_t w, const uint32_t* rs1, uint32_t imm,
                                uint32_t* rd) {
  if (c.full8(w)) {
    uint32_t addr[8];
    uint32_t tag_diff = 0, straddle = 0;
    for (uint32_t l = 0; l < 8; ++l) {
      addr[l] = rs1[l] + imm;
      tag_diff |= (addr[l] ^ addr[0]) >> mem::MainMemory::kPageBits;
      straddle |= static_cast<uint32_t>((addr[l] & TurboCore::kPageMask) >
                                        TurboCore::kPageMask - 3);
    }
    if ((tag_diff | straddle) == 0) {
      const uint8_t* const base = c.page(addr[0]);
      for (uint32_t l = 0; l < 8; ++l) {
        std::memcpy(&rd[l], base + (addr[l] & TurboCore::kPageMask), 4);
      }
      return;
    }
    for (uint32_t l = 0; l < 8; ++l) rd[l] = c.load32(addr[l]);
    return;
  }
  c.lanes(w, [&](uint32_t l) { rd[l] = c.load32(rs1[l] + imm); });
}

FGPU_TURBO_HOT void warp_store32(TurboCore& c, uint32_t w, const uint32_t* rs1, uint32_t imm,
                                 const uint32_t* rs2) {
  if (c.full8(w)) {
    uint32_t addr[8];
    uint32_t tag_diff = 0, straddle = 0;
    for (uint32_t l = 0; l < 8; ++l) {
      addr[l] = rs1[l] + imm;
      tag_diff |= (addr[l] ^ addr[0]) >> mem::MainMemory::kPageBits;
      straddle |= static_cast<uint32_t>((addr[l] & TurboCore::kPageMask) >
                                        TurboCore::kPageMask - 3);
    }
    if ((tag_diff | straddle) == 0) {
      uint8_t* const base = c.page(addr[0]);
      for (uint32_t l = 0; l < 8; ++l) {
        std::memcpy(base + (addr[l] & TurboCore::kPageMask), &rs2[l], 4);
      }
      return;
    }
    for (uint32_t l = 0; l < 8; ++l) c.store32(addr[l], rs2[l]);
    return;
  }
  c.lanes(w, [&](uint32_t l) { c.store32(rs1[l] + imm, rs2[l]); });
}

// One lane-op operand: a register row's lane, the immediate or the PC.
template <Src src>
FGPU_TURBO_HOT uint32_t operand(const uint32_t* row, uint32_t lane, uint32_t imm, uint32_t pc) {
  if constexpr (src == Src::kX || src == Src::kF) return row[lane];
  if constexpr (src == Src::kImm) return imm;
  if constexpr (src == Src::kPc) return pc;
  return 0;
}

// The handler of one body op, instantiated per op: lane and memory ops run
// the shared definitions (arch/semantics.hpp) over the warp's active lanes.
// Operand rows are hoisted out of the lane loop, with a local Instr copy,
// because register stores are uint32_t writes that TBAA says may alias
// config_ fields and Instr bytes.
template <Op op>
FGPU_TURBO_HOT void exec(TurboCore& c, uint32_t w, const TI& i) {
  namespace sem = arch::sem;
  const Instr in = i.instr;
  const uint32_t T = c.nthreads();
  uint32_t* const xw = c.xwarp(w);
  uint32_t* const fw = c.fwarp(w);
  const auto row = [&](Src file, uint8_t reg) { return (file == Src::kF ? fw : xw) + reg * T; };
  const uint32_t imm = static_cast<uint32_t>(in.imm);
  if constexpr (sem::is_lane_op(op)) {
    using L = sem::Lane<op>;
    uint32_t* const rd = row(L::kRd, in.rd);
    const uint32_t* const ra = row(L::kA, in.rs1);
    const uint32_t* const rb = row(L::kB, in.rs2);
    const uint32_t* const rc = row(L::kC, in.rs3);
    const uint32_t pc = i.pc;
    c.lanes(w, [&](uint32_t l) {
      rd[l] = L::eval(operand<L::kA>(ra, l, imm, pc), operand<L::kB>(rb, l, imm, pc),
                      operand<L::kC>(rc, l, imm, pc));
    });
  } else if constexpr (op == Op::kLw || op == Op::kFlw) {
    warp_load32(c, w, row(Src::kX, in.rs1), imm, row(op == Op::kFlw ? Src::kF : Src::kX, in.rd));
  } else if constexpr (op == Op::kSw || op == Op::kFsw) {
    warp_store32(c, w, row(Src::kX, in.rs1), imm,
                 row(op == Op::kFsw ? Src::kF : Src::kX, in.rs2));
  } else if constexpr (sem::is_store(op) || sem::is_atomic(op) ||
                       (op >= Op::kLb && op <= Op::kLhu)) {
    const uint32_t* const base = row(Src::kX, in.rs1);
    const uint32_t* const src = row(Src::kX, in.rs2);
    uint32_t* const rd = row(Src::kX, in.rd);
    c.lanes(w, [&](uint32_t l) {
      const uint32_t value = sem::memory_lane<op>(c, sem::mem_addr<op>(base[l], in.imm), src[l]);
      if constexpr (!sem::is_store(op)) rd[l] = value;
    });
  } else if constexpr (op == Op::kCsrrw || op == Op::kCsrrs || op == Op::kCsrrc) {
    uint32_t* const rd = row(Src::kX, in.rd);
    arch::CsrView view = c.csr_view(w);
    view.instret += i.retired;
    c.lanes(w, [&](uint32_t l) {
      view.lane = l;
      rd[l] = sem::read_csr(imm, view);
    });
  } else if constexpr (op == Op::kEcall) {
    c.do_ecall(w);
  } else {
    static_assert(op == Op::kFence, "every body op has a handler");
  }
}

// Fused-superinstruction handlers (see the FastOp codes below): guest code
// materializes constants as `lui r, hi` / `lui; addi r, r, lo` /
// `...; fmv.w.x f, r` chains — up to three dispatches to broadcast one
// 32-bit literal. translate()'s peephole collapses each chain into a single
// TI carrying the folded constant in instr.imm; every architectural write
// of the original sequence is preserved (ConstXF still writes the x
// register — later code may read it).
FGPU_TURBO_HOT void exec_ConstX(TurboCore& c, uint32_t w, const TI& i) {
  const Instr in = i.instr;
  uint32_t* xw = c.xwarp(w);
  const uint32_t T = c.nthreads();
  uint32_t* const xp_rd = xw + in.rd * T;
  const uint32_t v = static_cast<uint32_t>(in.imm);
  c.lanes(w, [&](uint32_t l) { xp_rd[l] = v; });
}

FGPU_TURBO_HOT void exec_ConstXF(TurboCore& c, uint32_t w, const TI& i) {
  // instr.rs1 = x destination (the lui's rd), instr.rd = f destination.
  const Instr in = i.instr;
  uint32_t* xw = c.xwarp(w);
  uint32_t* fw = c.fwarp(w);
  const uint32_t T = c.nthreads();
  uint32_t* const xp = xw + in.rs1 * T;
  uint32_t* const fp = fw + in.rd * T;
  const uint32_t v = static_cast<uint32_t>(in.imm);
  c.lanes(w, [&](uint32_t l) {
    xp[l] = v;
    fp[l] = v;
  });
}

// The ops run_warp dispatches through its inline switch, bodies folded into
// the dispatch loop, instead of through the handler pointer.
#define FGPU_TURBO_INLINE_OPS(ROW)                                                     \
  ROW(Lui) ROW(Auipc) ROW(Addi) ROW(Andi) ROW(Ori) ROW(Xori) ROW(Slli) ROW(Srli)        \
  ROW(Srai) ROW(Slti) ROW(Sltiu) ROW(Add) ROW(Sub) ROW(And) ROW(Or) ROW(Xor) ROW(Sll)   \
  ROW(Srl) ROW(Sra) ROW(Slt) ROW(Sltu) ROW(Mul) ROW(FaddS) ROW(FsubS) ROW(FmulS)        \
  ROW(FmaddS) ROW(FcvtSW) ROW(FcvtSWu) ROW(FcvtWS) ROW(FmvWX) ROW(FmvXW) ROW(FsgnjS)    \
  ROW(FltS) ROW(Lw) ROW(Sw) ROW(Flw) ROW(Fsw)

// Dispatch codes for the inline fast path; kFastNone falls back to the
// instruction's handler pointer.
enum : uint8_t {
  kFastNone = 0,
#define FGPU_TURBO_FAST_CODE(name) kFast##name,
  FGPU_TURBO_INLINE_OPS(FGPU_TURBO_FAST_CODE)
#undef FGPU_TURBO_FAST_CODE
  // Fused superinstructions, produced only by translate()'s peephole (no
  // single guest op maps to these): constant materialization chains.
  kFastConstX,   // lui[+addi] collapsed: write imm to x[rd]
  kFastConstXF,  // lui[+addi]+fmv.w.x collapsed: write imm to x[rs1] and f[rd]
};

uint8_t fast_op_for(Op op) {
  switch (op) {
#define FGPU_TURBO_FAST_OP(name) \
  case Op::k##name:              \
    return kFast##name;
    FGPU_TURBO_INLINE_OPS(FGPU_TURBO_FAST_OP)
#undef FGPU_TURBO_FAST_OP
    default:
      return kFastNone;
  }
}

// The threaded-code handler table, bound once at translation time: one
// exec<op> instantiation per op a block body can hold.
const std::array<Handler, arch::kNumOps>& handler_table() {
  static const std::array<Handler, arch::kNumOps> table = [] {
    std::array<Handler, arch::kNumOps> t{};
#define FGPU_TURBO_HANDLER(name, ...) t[static_cast<size_t>(Op::k##name)] = exec<Op::k##name>;
    FGPU_ARCH_LANE_OPS(FGPU_TURBO_HANDLER)
    FGPU_ARCH_MEMORY_OPS(FGPU_TURBO_HANDLER)
    FGPU_TURBO_HANDLER(Csrrw)
    FGPU_TURBO_HANDLER(Csrrs)
    FGPU_TURBO_HANDLER(Csrrc)
    FGPU_TURBO_HANDLER(Ecall)
    FGPU_TURBO_HANDLER(Fence)
#undef FGPU_TURBO_HANDLER
    return t;
  }();
  return table;
}

}  // namespace

TurboCore::TranslatedBlock* TurboCore::translate(uint32_t start_pc) {
  auto blk = std::make_unique<TranslatedBlock>();
  blk->start_pc = start_pc;
  uint32_t pc = start_pc;
  for (;;) {
    if (blk->body.size() >= kMaxBlockInstrs) {
      blk->has_term = false;
      blk->fall_pc = pc;
      break;
    }
    const uint32_t word = gmem_.load32(pc);
    auto decoded = arch::decode(word);
    if (!decoded) {
      // Terminate on the undecodable word; dispatch reports the error.
      blk->term = Instr{};
      blk->term_pc = pc;
      blk->has_term = true;
      break;
    }
    if (is_terminator(decoded->op)) {
      blk->term = *decoded;
      blk->term_pc = pc;
      blk->has_term = true;
      blk->fall_pc = pc + 4;
      blk->take_pc = static_take_pc(*decoded, pc);
      break;
    }
    // x0 is hardwired: a body instruction's write to it lands in the
    // discard row (terminators guard their own link writes).
    if (decoded->rd == 0 && !arch::writes_freg(decoded->op)) decoded->rd = kXDiscard;
    // Constant-fusion peephole: collapse `lui r, hi` [+ `addi r, r, lo`]
    // [+ `fmv.w.x f, r`] chains into one superinstruction TI. Legal within
    // a block because the thread mask only changes at terminators, so every
    // instruction of the chain executes under the same lanes; a jump into
    // the middle of a chain translates its own block starting there, so
    // fusion never swallows a branch target. body_retired keeps guest
    // retirement exact.
    bool fused = false;
    if (!blk->body.empty()) {
      TI& prev = blk->body.back();
      const bool prev_const_x = prev.fast == kFastLui || prev.fast == kFastConstX;
      if (prev_const_x) {
        const uint32_t prev_val = prev.fast == kFastLui
                                      ? static_cast<uint32_t>(prev.instr.imm) << 12
                                      : static_cast<uint32_t>(prev.instr.imm);
        if (decoded->op == Op::kAddi && decoded->rd == prev.instr.rd &&
            decoded->rs1 == prev.instr.rd) {
          prev.instr.op = Op::kAddi;
          prev.instr.imm = static_cast<int32_t>(prev_val + static_cast<uint32_t>(decoded->imm));
          prev.fast = kFastConstX;
          prev.fn = exec_ConstX;
          fused = true;
        } else if (decoded->op == Op::kFmvWX && decoded->rs1 == prev.instr.rd) {
          prev.instr.op = Op::kFmvWX;
          prev.instr.rs1 = prev.instr.rd;  // x destination (the chain's register)
          prev.instr.rd = decoded->rd;     // f destination
          prev.instr.imm = static_cast<int32_t>(prev_val);
          prev.fast = kFastConstXF;
          prev.fn = exec_ConstXF;
          fused = true;
        }
      }
    }
    if (!fused) {
      blk->body.push_back(TI{handler_table()[static_cast<size_t>(decoded->op)], *decoded, pc,
                             fast_op_for(decoded->op)});
    }
    blk->body.back().retired = ++blk->body_retired;
    pc += 4;
  }
  ++stats_.blocks_translated;
  TranslatedBlock* raw = blk.get();
  blocks_->emplace(start_pc, std::move(blk));
  return raw;
}

// Executes one block body for warp `w`. A function of its own so the
// dispatch loop keeps its few live values in registers.
void TurboCore::run_body(uint32_t w, const std::vector<TI>& body) {
  for (const TI& ti : body) {
    switch (ti.fast) {
#define FGPU_TURBO_FAST_CASE(name)   \
  case kFast##name:                  \
    exec<Op::k##name>(*this, w, ti); \
    break;
      FGPU_TURBO_INLINE_OPS(FGPU_TURBO_FAST_CASE)
#undef FGPU_TURBO_FAST_CASE
      case kFastConstX: exec_ConstX(*this, w, ti); break;
      case kFastConstXF: exec_ConstXF(*this, w, ti); break;
      default: ti.fn(*this, w, ti); break;
    }
  }
}

bool TurboCore::run_warp(uint32_t w) {
  TWarp& warp = warps_[w];
  TranslatedBlock* blk = lookup(warp.pc);
  // Retired counts accumulate in a local and flush once per run_warp exit:
  // stats_ and the launch-wide counter live behind pointers whose targets
  // handler stores may alias (TBAA), so per-block RMWs through them would
  // reload every block. instret_ advances per block; CSR reads inside one
  // add their TI's block-relative count.
  uint64_t local_retired = 0;
  struct Flush {
    TurboCore& c;
    const uint64_t& n;
    ~Flush() {
      c.stats_.instrs += n;
      *c.run_instrs_ += n;
    }
  } flush{*this, local_retired};
  for (;;) {
    if (*run_instrs_ + local_retired > budget_) {
      error_ = Status(ErrorKind::kRuntimeError,
                      "turbo: kernel exceeded instruction budget=" + std::to_string(budget_) +
                          " (possible deadlock or runaway loop)");
      return false;
    }
    run_body(w, blk->body);
    const uint64_t retired = blk->body_retired + (blk->has_term ? 1 : 0);
    instret_ += retired;
    local_retired += retired;
    if (!blk->has_term) {
      blk = next_fall(blk);
      continue;
    }

    const Instr& in = blk->term;
    const uint32_t pc = blk->term_pc;
    const uint64_t mask = warp.tmask;
    // Warp-uniform operands (branches, jumps, SIMT) come from the first active lane.
    const uint32_t lead = arch::sem::first_lane(mask);
    arch::sem::SimtStep next{mask, arch::sem::Next::kFall};
    switch (in.op) {
      case Op::kJal:
        if (in.rd != 0) lanes(w, [&](uint32_t l) { xr(w, l, in.rd) = arch::sem::link(pc); });
        next.next = arch::sem::Next::kTake;
        break;
      case Op::kJalr:
        next = {mask, arch::sem::Next::kPc, arch::sem::jalr_target(xr(w, lead, in.rs1), in.imm)};
        if (in.rd != 0) lanes(w, [&](uint32_t l) { xr(w, l, in.rd) = arch::sem::link(pc); });
        break;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu:
        if (arch::sem::branch_taken(in.op, xr(w, lead, in.rs1), xr(w, lead, in.rs2))) {
          next.next = arch::sem::Next::kTake;
        }
        break;
      case Op::kTmc:
        next.tmask = arch::sem::tmc_mask(xr(w, lead, in.rs1), config_.threads);
        if (next.tmask == 0) {
          warp.tmask = 0;
          warp.active = false;
          return true;
        }
        break;
      case Op::kWspawn: {
        const uint32_t count = std::min(xr(w, lead, in.rs1), config_.warps);
        const uint32_t target = xr(w, lead, in.rs2);
        for (uint32_t s = 1; s < count; ++s) {
          TWarp& spawned = warps_[s];
          if (spawned.active) continue;
          spawned = TWarp{};
          spawned.active = true;
          spawned.pc = target;
          spawned.tmask = 1;
        }
        break;
      }
      case Op::kSplit:
        next = arch::sem::split(warp.ipdom, mask, lanes_nonzero(w, in.rs1), blk->take_pc);
        break;
      case Op::kJoin:
        next = arch::sem::join(warp.ipdom, mask);
        if (next.next == arch::sem::Next::kFault) {
          FGPU_LOG(kError, "turbo core %u warp %u: JOIN with empty IPDOM stack at %08x",
                   core_id_, w, pc);
          warp.active = false;
          return true;
        }
        break;
      case Op::kPred:
        next = arch::sem::pred(mask, lanes_nonzero(w, in.rs1));
        break;
      case Op::kBar:
        barrier_arrive(w, arch::sem::barrier_id(xr(w, lead, in.rs1)), xr(w, lead, in.rs2));
        if (warp.at_barrier) {  // blocked; resumes after the BAR
          warp.pc = blk->fall_pc;
          return true;
        }
        break;
      default:
        FGPU_LOG(kError, "turbo core %u warp %u: invalid instruction at %08x", core_id_, w, pc);
        warp.active = false;
        return true;
    }
    blk = step(warp, blk, next);
  }
}

TurboEngine::TurboEngine(const Config& config, mem::MainMemory& gmem, EcallHandler ecall_handler)
    : config_(config), gmem_(gmem), ecall_handler_(std::move(ecall_handler)) {
  cores_.reserve(config_.cores);
  for (uint32_t c = 0; c < config_.cores; ++c) {
    cores_.push_back(std::make_unique<TurboCore>(config_, c, gmem_, ecall_handler_, stats_));
  }
}

TurboEngine::~TurboEngine() = default;

void TurboEngine::invalidate() {
  for (auto& core : cores_) core->invalidate();
}

void TurboEngine::reset_blocks() {
  for (auto& core : cores_) core->clear_blocks();
}

void TurboEngine::select_kernel(const std::string& kernel) {
  for (auto& core : cores_) core->select_kernel(kernel);
}

Status TurboEngine::run(uint32_t entry_pc) {
  last_run_instrs_ = 0;
  uint64_t run_instrs = 0;
  // Cores execute sequentially over shared global memory; Config::max_cycles
  // doubles as the launch-wide guest-instruction ceiling (an instruction
  // takes at least a cycle, so any kernel the cycle tier completes fits).
  for (auto& core : cores_) {
    core->reset(entry_pc);
    const Status status = core->run(&run_instrs, config_.max_cycles);
    if (!status.is_ok()) {
      last_run_instrs_ = run_instrs;
      return status;
    }
  }
  last_run_instrs_ = run_instrs;
  return Status::ok();
}

}  // namespace fgpu::vortex::jit

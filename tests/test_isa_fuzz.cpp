// Differential ISA fuzzer: seeded random vasm programs run on the
// cycle-exact cluster and on the turbo translator at several shapes, and
// must leave the same architectural state. Each program ends by spilling
// every x and f register of every active lane to a per-lane slot, so the
// comparison is register for register, lane for lane, plus the memory the
// program wrote and the retired instruction count.
//
// Four program classes reach what the KIR-level fuzzer never emits:
//   kAluMulFp       straight-line ALU/M/F code over special FP operands
//                   (NaN payloads, +-inf, +-0, subnormals, INT_MIN as float)
//                   and lane-private loads/stores of every width
//   kDivergence     nested SPLIT/JOIN and PRED loops on lane-varying predicates
//   kSpawnBarrier   WSPAWN'd warps exchanging registers across a BAR
//   kAtomics        commutative AMOs with rd = x0 from every warp and core
//
// Two tier-independent invariants are checked as well: x0 reads zero, and
// every NaN an FP arithmetic op produces is the canonical 0x7fc00000.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "sim_tiers.hpp"

namespace fgpu::vortex {
namespace {

constexpr int kProgramsPerClass = 300;

// Per-lane slot: x0..x31, f0..f31, then lane-private scratch memory.
constexpr uint32_t kSlotBase = arch::kHeapBase;
constexpr uint32_t kSlotBytes = 512;
constexpr uint32_t kScratch = 256;
// AMO targets (host-initialized) and the cross-warp exchange area.
constexpr uint32_t kAmoBase = arch::kHeapBase + 0x10'0000;
constexpr uint32_t kAmoWords = 48;  // 8 words per AMO kind
constexpr uint32_t kExchangeBase = arch::kHeapBase + 0x20'0000;

struct Shape {
  uint32_t cores, warps, threads;
};
// RISC-V's canonical NaN, the only NaN an FP arithmetic op may produce.
constexpr uint32_t kCanonicalNaN = 0x7FC00000;
bool is_nan(uint32_t bits) { return (bits & 0x7FFFFFFF) > 0x7F800000; }

constexpr Shape kShapes[] = {{1, 1, 8}, {1, 2, 4}, {2, 2, 8}, {1, 1, 32}, {1, 4, 2}};

enum class Class { kAluMulFp, kDivergence, kSpawnBarrier, kAtomics };

// Concatenates its arguments' stream output (program text, messages).
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

// Register conventions: t6 (x31) holds the lane's slot address and is never
// written after the prologue; t5/t4 (x30/x29) are PRED-loop and exchange
// state; t3 (x28) is the SPLIT/PRED predicate. Random code writes x0..x28.
constexpr int kMaxRandomRd = 28;

constexpr uint32_t kFpSeeds[] = {
    0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF812345, 0x7FBFFFFF,  // NaNs
    0x7F800000, 0xFF800000,                                      // +-inf
    0x00000000, 0x80000000,                                      // +-0
    0x00000001, 0x807FFFFF, 0x00800000,                          // subnormals, min normal
    0xCF000000, 0x4F000000, 0x4F800000,                          // -2^31, 2^31, 2^32
    0x3F800000, 0xBF800000, 0xBF000000, 0x40490FDB, 0x7F7FFFFF,  // 1, -1, -0.5, pi, max
};
constexpr uint32_t kIntSeeds[] = {0, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 2, 31, 32, 0xFFFF};

const char* const kAluR[] = {"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
                             "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"};
const char* const kAluI[] = {"addi", "slti", "sltiu", "xori", "ori", "andi"};
const char* const kShiftI[] = {"slli", "srli", "srai"};
const char* const kFpArith[] = {"fadd.s", "fsub.s", "fmul.s", "fdiv.s", "fmin.s", "fmax.s"};
const char* const kFpSign[] = {"fsgnj.s", "fsgnjn.s", "fsgnjx.s"};
const char* const kFpCmp[] = {"feq.s", "flt.s", "fle.s"};
const char* const kFma[] = {"fmadd.s", "fmsub.s", "fnmsub.s", "fnmadd.s"};
const char* const kAmos[] = {"amoadd.w", "amoand.w", "amoor.w", "amoxor.w", "amomin.w",
                             "amomax.w"};
// Lane, warp, core, thread mask and machine-size CSRs (cycle is timing,
// not architecture: the functional tier does not model it).
const uint32_t kCsrs[] = {0xCC0, 0xCC1, 0xCC2, 0xCC3, 0xFC0, 0xFC1, 0xFC2};
// Plus instret, in the classes where one warp runs per core: instret
// counts the core's retirements, and the tiers interleave warps
// differently.
const uint32_t kSingleWarpCsrs[] = {0xCC0, 0xCC1, 0xCC2, 0xCC3, 0xFC0, 0xFC1, 0xFC2, 0xC02};

class ProgramGen {
 public:
  ProgramGen(uint32_t seed, Shape shape, Class cls) : rng_(seed), shape_(shape), cls_(cls) {}

  std::string generate() {
    if (cls_ == Class::kSpawnBarrier || (cls_ == Class::kAtomics && coin(2))) {
      emit(cat("li t0, ", shape_.warps));
      emit("la t1, warp_entry");
      emit("wspawn t0, t1");
      label("warp_entry");
    }
    prologue();
    switch (cls_) {
      case Class::kAluMulFp:
        for (int i = 0; i < 48; ++i) random_op(/*memory=*/true);
        break;
      case Class::kDivergence:
        block(0, false, 10);
        break;
      case Class::kSpawnBarrier:
        block(1, true, 8);
        exchange(0);
        block(1, true, 6);
        exchange(1 + uniform(30));
        break;
      case Class::kAtomics:
        for (int i = 0; i < 32; ++i) coin(2) ? amo() : random_op(false);
        break;
    }
    epilogue();
    return out_.str();
  }

  // f registers last written by an FP arithmetic op (straight-line code).
  uint32_t arith_f_mask() const { return arith_f_; }

 private:
  uint32_t uniform(uint32_t n) { return static_cast<uint32_t>(rng_() % n); }
  bool coin(uint32_t one_in) { return uniform(one_in) == 0; }
  template <typename T, size_t N>
  T pick(const T (&items)[N]) {
    return items[uniform(N)];
  }
  std::string x(int r) { return arch::xreg_name(static_cast<unsigned>(r)); }
  std::string f(int r) { return cat("f", r); }
  std::string xsrc() { return x(static_cast<int>(uniform(32))); }
  std::string xdst() { return x(coin(16) ? 0 : 1 + static_cast<int>(uniform(kMaxRandomRd))); }
  int fdst() {
    const int r = static_cast<int>(uniform(32));
    arith_f_ &= ~(1u << r);
    return r;
  }
  std::string fsrc() { return f(static_cast<int>(uniform(32))); }

  void emit(const std::string& line) { out_ << "  " << line << "\n"; }
  void label(const std::string& name) { out_ << name << ":\n"; }
  std::string fresh(const char* stem) { return cat(stem, labels_++); }

  int32_t imm12() {
    switch (uniform(4)) {
      case 0: return static_cast<int32_t>(uniform(33)) - 16;
      case 1: return pick<int32_t>({-2048, 2047, 0, -1, 1});
      default: return static_cast<int32_t>(uniform(4096)) - 2048;
    }
  }
  uint32_t int_seed() { return coin(3) ? static_cast<uint32_t>(rng_()) : pick(kIntSeeds); }

  void prologue() {
    const uint32_t full = shape_.threads >= 32 ? 0xFFFFFFFFu : (1u << shape_.threads) - 1;
    uint32_t mask = full;
    if (coin(3)) mask = std::max(1u, static_cast<uint32_t>(rng_()) & full);
    emit(cat("li t0, ", static_cast<int32_t>(mask)));
    emit("tmc t0");
    // t6 = slot base of this (core, warp, lane); t5 = lane id.
    emit("csrr t3, 0xCC2");
    emit("csrr t4, 0xCC1");
    emit("csrr t5, 0xCC0");
    emit(cat("li t6, ", shape_.warps));
    emit("mul t3, t3, t6");
    emit("add t3, t3, t4");
    emit(cat("li t6, ", shape_.threads));
    emit("mul t3, t3, t6");
    emit("add t3, t3, t5");
    emit("slli t3, t3, 9");
    emit(cat("li t6, ", kSlotBase));
    emit("add t6, t6, t3");
    for (int r = 0; r < 32; ++r) {
      const uint32_t bits = coin(4) ? static_cast<uint32_t>(rng_()) : pick(kFpSeeds);
      emit(cat("li t0, ", static_cast<int32_t>(bits)));
      if (coin(3)) emit("add t0, t0, t5");  // lane-varying payload or value
      emit(cat("fmv.w.x ", f(r), ", t0"));
    }
    for (int r = 1; r <= 30; ++r) {
      emit(cat("li ", x(r), ", ", static_cast<int32_t>(int_seed())));
      if (r != 30 && coin(2)) emit(cat(coin(2) ? "add " : "mul ", x(r), ", ", x(r), ", t5"));
    }
  }

  void epilogue() {
    for (int r = 0; r < 31; ++r) emit(cat("sw ", x(r), ", ", 4 * r, "(t6)"));
    for (int r = 0; r < 32; ++r) emit(cat("fsw ", f(r), ", ", 128 + 4 * r, "(t6)"));
    emit("tmc zero");
  }

  void random_op(bool memory) {
    const uint32_t kind = uniform(memory ? 12 : 10);
    switch (kind) {
      case 0:
      case 1:
        emit(cat(pick(kAluR), " ", xdst(), ", ", xsrc(), ", ", xsrc()));
        break;
      case 2:
        emit(cat(pick(kAluI), " ", xdst(), ", ", xsrc(), ", ", imm12()));
        break;
      case 3:
        if (coin(3)) {
          emit(cat(coin(2) ? "lui " : "auipc ", xdst(), ", ", uniform(1u << 20)));
        } else {
          emit(cat(pick(kShiftI), " ", xdst(), ", ", xsrc(), ", ", uniform(32)));
        }
        break;
      case 4:
      case 5: {
        const int rd = fdst();
        emit(cat(pick(kFpArith), " ", f(rd), ", ", fsrc(), ", ", fsrc()));
        arith_f_ |= 1u << rd;
        break;
      }
      case 6: {
        const int rd = fdst();
        emit(cat(pick(kFma), " ", f(rd), ", ", fsrc(), ", ", fsrc(), ", ", fsrc()));
        arith_f_ |= 1u << rd;
        break;
      }
      case 7:
        switch (uniform(6)) {
          case 0: {
            const int rd = fdst();
            emit(cat("fsqrt.s ", f(rd), ", ", fsrc()));
            arith_f_ |= 1u << rd;
            break;
          }
          case 1: emit(cat(pick(kFpSign), " ", f(fdst()), ", ", fsrc(), ", ", fsrc())); break;
          case 2: emit(cat(coin(2) ? "fcvt.s.w " : "fcvt.s.wu ", f(fdst()), ", ", xsrc())); break;
          case 3: emit(cat("fmv.w.x ", f(fdst()), ", ", xsrc())); break;
          default: emit(cat(coin(2) ? "fcvt.w.s " : "fcvt.wu.s ", xdst(), ", ", fsrc())); break;
        }
        break;
      case 8:
        switch (uniform(3)) {
          case 0: emit(cat(pick(kFpCmp), " ", xdst(), ", ", fsrc(), ", ", fsrc())); break;
          case 1: emit(cat(coin(2) ? "fclass.s " : "fmv.x.w ", xdst(), ", ", fsrc())); break;
          default: {
            const bool single_warp = cls_ == Class::kAluMulFp || cls_ == Class::kDivergence;
            emit(cat("csrr ", xdst(), ", ", single_warp ? pick(kSingleWarpCsrs) : pick(kCsrs)));
            break;
          }
        }
        break;
      case 9:
        emit(cat(pick(kAluR), " ", xdst(), ", ", xsrc(), ", ", xsrc()));
        break;
      default: {  // lane-private scratch access of every width
        static const char* const kLoads[] = {"lb", "lbu", "lh", "lhu", "lw", "flw"};
        static const char* const kStores[] = {"sb", "sh", "sw", "fsw"};
        static const uint32_t kLoadWidth[] = {1, 1, 2, 2, 4, 4};
        static const uint32_t kStoreWidth[] = {1, 2, 4, 4};
        if (coin(2)) {
          const uint32_t i = uniform(6);
          const uint32_t offset = kScratch + kLoadWidth[i] * uniform(256 / kLoadWidth[i]);
          const std::string rd = i == 5 ? f(fdst()) : xdst();
          emit(cat(kLoads[i], " ", rd, ", ", offset, "(t6)"));
        } else {
          const uint32_t i = uniform(4);
          const uint32_t offset = kScratch + kStoreWidth[i] * uniform(256 / kStoreWidth[i]);
          const std::string src = i == 3 ? fsrc() : xsrc();
          emit(cat(kStores[i], " ", src, ", ", offset, "(t6)"));
        }
        break;
      }
    }
  }

  // Random code with nested SPLIT/JOIN regions and (outside loops) PRED loops.
  void block(int depth, bool in_loop, int ops) {
    for (int i = 0; i < ops; ++i) {
      const uint32_t r = uniform(100);
      if (depth < 3 && r < 15) {
        split_region(depth, in_loop);
      } else if (!in_loop && depth < 3 && r < 25) {
        pred_loop(depth);
      } else {
        random_op(true);
      }
    }
  }

  void predicate() {
    switch (uniform(4)) {
      case 0:
        emit("csrr t3, 0xCC0");
        emit(cat("andi t3, t3, ", 1 + uniform(7)));
        break;
      case 1: emit(cat("andi t3, ", xsrc(), ", ", 1u << uniform(5))); break;
      case 2: emit(cat(coin(2) ? "slt t3, " : "sltu t3, ", xsrc(), ", ", xsrc())); break;
      default: emit(cat(pick(kFpCmp), " t3, ", fsrc(), ", ", fsrc())); break;
    }
  }

  void split_region(int depth, bool in_loop) {
    const std::string else_label = fresh("else"), merge_label = fresh("merge");
    predicate();
    emit(cat("split t3, ", else_label));
    block(depth + 1, in_loop, 1 + static_cast<int>(uniform(4)));
    emit(cat("join ", merge_label));
    label(else_label);
    block(depth + 1, in_loop, static_cast<int>(uniform(4)));
    emit(cat("join ", merge_label));
    label(merge_label);
  }

  // Lane l iterates (lane & 3) [+1] times; the mask is restored by TMC.
  void pred_loop(int depth) {
    const std::string loop_label = fresh("loop"), exit_label = fresh("exit");
    emit("csrr t5, 0xCC3");
    emit("csrr t4, 0xCC0");
    emit("andi t4, t4, 3");
    if (coin(2)) emit("addi t4, t4, 1");
    label(loop_label);
    emit("sltu t3, zero, t4");
    emit(cat("pred t3, ", exit_label));
    block(depth + 1, true, 1 + static_cast<int>(uniform(4)));
    emit("addi t4, t4, -1");
    emit(cat("j ", loop_label));
    label(exit_label);
    emit("tmc t5");
  }

  // Each lane publishes a register, every warp meets at barrier `id`, then
  // each lane reads the same lane's value from the next warp.
  void exchange(uint32_t id) {
    const std::string stride = std::to_string(shape_.threads);
    auto slot_of = [&](const char* warp_reg) {
      emit("csrr t5, 0xCC2");
      emit(cat("li t3, ", shape_.warps));
      emit("mul t5, t5, t3");
      emit(cat("add t5, t5, ", warp_reg));
      emit(cat("li t3, ", stride));
      emit("mul t5, t5, t3");
      emit("csrr t3, 0xCC0");
      emit("add t5, t5, t3");
      emit("slli t5, t5, 2");
      emit(cat("li t3, ", kExchangeBase + id * 0x1000));
      emit("add t5, t5, t3");
    };
    emit("csrr t4, 0xCC1");
    slot_of("t4");
    emit(cat("sw ", xsrc(), ", 0(t5)"));
    emit(cat("li t3, ", id));
    emit(cat("li t4, ", shape_.warps));
    emit("bar t3, t4");
    emit("csrr t4, 0xCC1");
    emit("addi t4, t4, 1");
    emit(cat("li t3, ", shape_.warps));
    emit("remu t4, t4, t3");
    slot_of("t4");
    emit(cat("lw ", xdst(), ", 0(t5)"));
  }

  // rd = x0: the returned old value depends on the interleaving of warps
  // and cores, the final memory word does not, as long as each word only
  // ever sees one kind of AMO (add and xor, say, do not commute).
  void amo() {
    const uint32_t kind = uniform(std::size(kAmos));
    emit(cat("andi t5, ", xsrc(), ", 24"));
    emit(cat("li t3, ", kAmoBase + 32 * kind));
    emit("add t5, t5, t3");
    emit(cat(kAmos[kind], " zero, ", xsrc(), ", (t5)"));
  }

  std::mt19937 rng_;
  Shape shape_;
  Class cls_;
  std::ostringstream out_;
  int labels_ = 0;
  uint32_t arith_f_ = 0;
};

struct Outcome {
  bool ok = false;
  std::string error;
  uint64_t instrs = 0;
  std::vector<uint32_t> slots, amo, exchange;
};

Outcome run_tier(Tier tier, const vasm::Program& prog, const Config& config, uint32_t seed) {
  mem::MainMemory memory;
  memory.write(prog.base, prog.words.data(), prog.size_bytes());
  std::mt19937 rng(seed);
  for (uint32_t i = 0; i < kAmoWords; ++i) memory.store32(kAmoBase + 4 * i, rng());
  Outcome outcome;
  auto result = run_loaded(tier, prog.entry(), config, std::move(memory));
  if (!result.is_ok()) {
    outcome.error = result.status().to_string();
    return outcome;
  }
  outcome.ok = true;
  outcome.instrs = result->instrs;
  auto words = [&](uint32_t base, uint32_t count) {
    std::vector<uint32_t> v(count);
    result->mem.read(base, v.data(), count * 4);
    return v;
  };
  const uint32_t lanes = config.cores * config.warps * config.threads;
  outcome.slots = words(kSlotBase, lanes * kSlotBytes / 4);
  outcome.amo = words(kAmoBase, kAmoWords);
  outcome.exchange = words(kExchangeBase, 0x8000 / 4);
  return outcome;
}

// What differs between the tiers' outcomes, or broke an invariant; empty
// when the program passes.
std::string check(const Outcome& cycle, const Outcome& turbo, uint32_t arith_f) {
  if (!cycle.ok || !turbo.ok) return cat("run failed: ", cycle.error, " | ", turbo.error);
  std::ostringstream why;
  if (cycle.instrs != turbo.instrs) {
    why << "retired " << cycle.instrs << " (cycle-exact) vs " << turbo.instrs << " (turbo); ";
  }
  for (size_t i = 0; i < cycle.slots.size(); ++i) {
    const uint32_t word = static_cast<uint32_t>(i % (kSlotBytes / 4));
    const uint32_t lane = static_cast<uint32_t>(i / (kSlotBytes / 4));
    if (cycle.slots[i] != turbo.slots[i]) {
      why << "lane slot " << lane << " word " << word << ": " << std::hex << cycle.slots[i]
          << " vs " << turbo.slots[i] << std::dec << "; ";
    }
    for (const Outcome* o : {&cycle, &turbo}) {
      const uint32_t v = o->slots[i];
      if (word == 0 && v != 0) why << "x0 reads " << v << " in lane slot " << lane << "; ";
      const bool is_f = word >= 32 && word < 64;
      if (is_f && (arith_f >> (word - 32) & 1) != 0 && is_nan(v) && v != kCanonicalNaN) {
        why << "non-canonical NaN " << std::hex << v << std::dec << " in f" << word - 32 << "; ";
      }
    }
  }
  if (cycle.amo != turbo.amo) why << "AMO targets differ; ";
  if (cycle.exchange != turbo.exchange) why << "exchange area differs; ";
  return why.str();
}

void fuzz(Class cls, const char* name) {
  const LogLevel saved = Log::level();
  Log::level() = LogLevel::kOff;
  int divergent = 0;
  std::string first_failures;
  for (int i = 0; i < kProgramsPerClass; ++i) {
    const uint32_t seed = static_cast<uint32_t>(static_cast<int>(cls) * 100'000 + i);
    const Shape shape = kShapes[static_cast<size_t>(i) % std::size(kShapes)];
    ProgramGen gen(seed, shape, cls);
    const std::string source = gen.generate();
    auto prog = vasm::assemble(source);
    ASSERT_TRUE(prog.is_ok()) << prog.status().to_string() << "\n" << source;
    Config config = Config::with(shape.cores, shape.warps, shape.threads);
    config.max_cycles = 5'000'000;
    const Outcome cycle = run_tier(Tier::kCycleExact, *prog, config, seed);
    const Outcome turbo = run_tier(Tier::kTurbo, *prog, config, seed);
    // The NaN check needs straight-line provenance: only the ALU class has it.
    const std::string why =
        check(cycle, turbo, cls == Class::kAluMulFp ? gen.arith_f_mask() : 0);
    if (why.empty()) continue;
    if (++divergent <= 2) {
      first_failures += cat("seed ", seed, " at C", shape.cores, "W", shape.warps, "T",
                            shape.threads, ": ", why.substr(0, 600), "\n", source, "\n");
    }
  }
  Log::level() = saved;
  std::printf("[ isa-fuzz ] %s: %d programs, %d divergent\n", name, kProgramsPerClass, divergent);
  EXPECT_EQ(divergent, 0) << first_failures;
}

TEST(IsaFuzzTest, AluMulFpMatchesAcrossTiers) { fuzz(Class::kAluMulFp, "alu/mul/fp"); }
TEST(IsaFuzzTest, DivergenceMatchesAcrossTiers) { fuzz(Class::kDivergence, "split/join/pred"); }
TEST(IsaFuzzTest, SpawnBarrierMatchesAcrossTiers) { fuzz(Class::kSpawnBarrier, "wspawn+bar"); }
TEST(IsaFuzzTest, AtomicsMatchAcrossTiers) { fuzz(Class::kAtomics, "atomics"); }

}  // namespace
}  // namespace fgpu::vortex

// Functional reference interpreter for KIR kernels.
//
// Executes a work-group in SIMT lockstep (all items advance statement by
// statement under an active mask), which gives OpenCL barrier semantics for
// free and matches how both backends execute. Serves as the golden model:
// codegen+simulator results and HLS executor results are verified against
// it, and it doubles as the host-side reference implementation for the
// benchmark suite. It runs the flat form of a kernel (kir/program.hpp):
// each node is evaluated once per active-lane set into its own per-lane
// buffer, so per-item dispatch and variable lookup cost nothing.
//
// Observable behaviour is that of evaluating each item on its own:
//   * InterpWork::lane_ops advances by the active-lane count at every node
//     visit, including lanes narrowed by && / || short-circuit and select;
//   * loads, stores and on_load_addr happen once per executed per-item
//     access, in item order within a node;
//   * atomics, printf, and stores whose operands may read the stored buffer
//     run item by item, so later items observe earlier items' writes.
//
// It also performs dynamic checking that hardware would not: out-of-bounds
// buffer accesses and barriers reached under divergent control flow are
// reported as errors.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "kir/kir.hpp"
#include "kir/program.hpp"

namespace fgpu::kir {

struct KernelArg {
  bool is_buffer = false;
  uint32_t scalar_bits = 0;
  std::vector<uint32_t>* data = nullptr;  // not owned; element bits

  static KernelArg scalar_i32(int32_t v) {
    return KernelArg{false, static_cast<uint32_t>(v), nullptr};
  }
  static KernelArg scalar_f32(float v);
  static KernelArg buffer(std::vector<uint32_t>* data) { return KernelArg{true, 0, data}; }
};

// Deterministic interpreter work, summed over runs (fgpu.host.v1 kir_work).
struct InterpWork {
  uint64_t launches = 0;     // Interpreter::run calls that got past validation
  uint64_t node_visits = 0;  // expression-node evaluations (one per active-lane set)
  uint64_t lane_ops = 0;     // active lanes summed over node visits
  uint64_t loads = 0;        // executed per-item loads (global and __local)
  uint64_t stores = 0;       // executed per-item stores and atomics

  void accumulate(const InterpWork& other) {
    launches += other.launches;
    node_visits += other.node_visits;
    lane_ops += other.lane_ops;
    loads += other.loads;
    stores += other.stores;
  }
};

struct InterpOptions {
  std::function<void(const std::string&)> print_sink;  // printf output
  uint64_t max_statements = 4'000'000'000ull;          // runaway guard

  // Address-carrying load hook for the memory-hierarchy profiler: fires
  // once per executed per-item load, in execution order, with the static
  // site, the target buffer (kernel param index, or local slot when
  // is_local), and the accessed element index. The only per-lane hook:
  // request counting reads Interpreter::site_counts() after the run.
  std::function<void(const Expr* site, int buffer, bool is_local, uint32_t elem)> on_load_addr;
};

class Interpreter {
 public:
  explicit Interpreter(InterpOptions options = {}) : options_(std::move(options)) {}

  // Runs the kernel over the whole NDRange (group by group): builds its
  // Program, then runs that. Buffer args are mutated in place.
  Status run(const Kernel& kernel, const std::vector<KernelArg>& args, const NDRange& ndrange);
  // Runs a program built once by the caller (the per-kernel scopes of the
  // oracle, the analytical profiler and the HLS cache).
  Status run(const Program& program, const std::vector<KernelArg>& args, const NDRange& ndrange);

  // Work of every run of this interpreter so far.
  const InterpWork& work() const { return work_; }
  // Executed per-item accesses of each site of the most recently run
  // program, indexed like its Program::sites (stores and atomics count
  // once per item, loads once per item that read).
  const std::vector<uint64_t>& site_counts() const { return site_counts_; }

 private:
  InterpOptions options_;
  InterpWork work_;
  std::vector<uint64_t> site_counts_;
};

}  // namespace fgpu::kir

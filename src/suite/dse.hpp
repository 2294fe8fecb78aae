// Design-space exploration engine (fgpu.dse.v1) — the production answer to
// the paper's §IV-A observation that Vortex's configuration space is too
// large to sweep with cycle-level simulation alone ("a valuable opportunity
// exists for research aimed at minimizing or circumventing the exploration
// space").
//
// The sweep covers (cores x warps x threads x L1D geometry x L2 geometry x
// DRAM/HBM channel timing x board) as a three-stage funnel:
//
//   1. analytical — vortex::predict_cycles evaluates the full grid at
//      microseconds per configuration (cache-geometry and channel-bandwidth
//      aware, so every axis is prunable), and vortex::estimate_area +
//      Board::fits drop configurations that cannot synthesize. Barrier
//      workloads additionally require warps*threads >= the largest
//      work-group (the dispatch constraint a real run would hit).
//   2. screen — survivors are deduplicated by (C, W, T) shape (cache and
//      DRAM geometry cannot change function) and each shape is functionally
//      validated once on the turbo tier against the interpreter oracle.
//   3. exact — a top-K + stratified slice of the screened survivors runs
//      cycle-exact on a work-stealing runner with per-identity pooled
//      devices, memoized workloads/references (suite.hpp shared_* caches)
//      and the process-wide kernel cache.
//
// The exported fgpu.dse.v1 document is byte-identical across --jobs and
// fresh-vs-pooled devices: candidate order is the canonical grid order,
// results are written into pre-sized slots, and host wall-clock throughput
// is quarantined behind the host_in_stats opt-in (the fgpu.host.v1 rule).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fpga/board.hpp"
#include "suite/device_pool.hpp"
#include "suite/suite.hpp"
#include "vortex/analytical.hpp"
#include "vortex/config.hpp"

namespace fgpu::suite {

struct DseOptions {
  std::vector<std::string> benchmarks = {"vecadd"};
  // "quick" (CI-sized, 216 configurations) or "full" (12,000 — the
  // documented production sweep; EXPERIMENTS.md "Design-space exploration").
  std::string grid = "quick";
  uint32_t jobs = 1;            // exact-stage worker threads
  size_t exact_budget = 32;     // cycle-exact slice size (stage 3)
  size_t screen_budget = 0;     // max shapes screened in stage 2; 0 = all
  int opt_level = 2;
  // Memoize workloads/references (shared_* caches) and pool stage-3
  // devices. Off = fresh everything; the exported document is identical
  // either way (the reset() contract, asserted in tests/test_dse.cpp).
  bool reuse_devices = true;
  // Embed per-stage wall-clock + configs/sec in the document. Default off:
  // host timing is nondeterministic and would break the byte-gate.
  bool host_in_stats = false;
  // External device pool for cross-run reuse (nullptr = a run-local pool,
  // capped at 2*jobs+2 identities, when reuse_devices is set).
  DevicePool* pool = nullptr;
};

// One grid point, annotated as it moves down the funnel. `label` is the
// canonical identity ("C4W8T8:l1d16k:l2128k:ddr4@Stratix10-SX2800") used
// for pool keying and in the exported document.
struct DseCandidate {
  vortex::Config config;
  const fpga::Board* board = nullptr;
  std::string label;

  // Stage 1 (analytical).
  fpga::AreaReport area;
  double utilization = 0.0;  // worst board resource, 1.0 == full
  bool fits = false;
  bool feasible = true;  // barrier work-group fits warps*threads
  double predicted_cycles = 0.0;
  std::string bottleneck;

  // Stage 2 (turbo screen, via this candidate's (C,W,T) shape).
  bool screened = false;
  bool screen_ok = false;

  // Stage 3 (cycle-exact).
  bool selected = false;
  bool simulated = false;
  bool sim_ok = false;
  uint64_t simulated_cycles = 0;  // summed over benchmarks
  bool pareto = false;            // on the (cycles, utilization) frontier
};

// Host-side throughput of one funnel stage (fgpu.host.v1-class data; only
// exported under DseOptions::host_in_stats).
struct DseStageHost {
  double wall_ms = 0.0;
  double configs_per_sec = 0.0;
};

struct DseResult {
  std::vector<DseCandidate> candidates;  // canonical grid order

  // Funnel counts.
  size_t grid_total = 0;
  size_t infeasible = 0;            // barrier work-group cannot dispatch
  size_t unfit = 0;                 // feasible but exceeds board resources
  size_t analytical_survivors = 0;  // reached stage 2
  size_t shapes_total = 0;          // distinct (C,W,T) among survivors
  size_t shapes_screened = 0;
  size_t shapes_failed = 0;
  size_t screen_survivors = 0;  // candidates whose shape passed
  size_t exact_selected = 0;
  size_t exact_ok = 0;

  // Spearman rank correlation of predicted vs simulated cycles over the
  // cycle-exact slice (the model's ranking fidelity — what makes stage-1
  // pruning trustworthy).
  double spearman = 0.0;

  DseStageHost host_analytical, host_screen, host_exact;
  std::string error;  // non-empty when setup failed (bad benchmark, ...)
};

// Enumerates the named grid ("quick" | "full") in canonical order; empty on
// an unknown grid name.
std::vector<DseCandidate> enumerate_grid(const std::string& grid);

// Profiles every launch of `bench` with the interpreter counting hooks
// (vortex::profile_kernel), threading buffer state through the launch
// sequence exactly like reference_run. Configuration-independent: computed
// once per workload, reused across the whole grid.
Result<std::vector<vortex::KernelProfile>> profile_benchmark(const Benchmark& bench);

// Sums per-launch predictions on `config`; the reported bottleneck is the
// dominant (largest-cycles) launch's.
vortex::Prediction predict_benchmark(const std::vector<vortex::KernelProfile>& profiles,
                                     const vortex::Config& config);

// Spearman rank correlation with average-rank tie handling. Returns 0 when
// the inputs are degenerate (size < 2, mismatched, or constant).
double spearman_rank(const std::vector<double>& a, const std::vector<double>& b);

// Canonical config identity string (also the device-pool key prefix).
std::string dse_config_label(const vortex::Config& config, const fpga::Board& board);

// --- shared cycle-exact grid runner (stage 3 here; bench/fig7 grid) ------

struct ExactPoint {
  vortex::Config config;
  const fpga::Board* board = nullptr;
};

// One (grid point, benchmark) cycle-exact result.
struct ExactCell {
  bool ok = false;
  uint64_t cycles = 0;
  uint64_t lsu_stalls = 0;  // final-launch LSU stall cycles (Fig. 7 metric)
  vortex::HostWork work;    // simulator work over all launches (host-only)
  std::string fail;
};

struct ExactGridOptions {
  uint32_t jobs = 1;
  int opt_level = 2;
  // Memoize workloads/references via the shared_* caches.
  bool reuse_workloads = true;
  // Pool devices per grid-point identity (nullptr = fresh device per point).
  DevicePool* pool = nullptr;
};

// Runs every benchmark on every grid point cycle-exact, work-stealing over
// points with `jobs` threads. Results land in pre-sized [point][benchmark]
// slots, so the output is identical for any job count; devices are checked
// out of `pool` by per-point identity and re-armed with reset(), so pooled
// and fresh runs are cycle-identical too (DESIGN.md "Device lifecycle").
std::vector<std::vector<ExactCell>> run_exact_grid(const std::vector<ExactPoint>& points,
                                                   const std::vector<std::string>& benchmarks,
                                                   const ExactGridOptions& options);

// Runs the full three-stage funnel.
DseResult run_dse(const DseOptions& options);

// fgpu.dse.v1 exporter (schema-versioned, OBSERVABILITY.md). Deterministic
// modulo the host_in_stats opt-in.
void write_dse_json(std::ostream& os, const DseOptions& options, const DseResult& result);

}  // namespace fgpu::suite

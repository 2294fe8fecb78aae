// The benchmark's phased harness. Each iteration of a workload starts from
// cold process-wide caches and runs two timed phases:
//
//   setup  fills every cache a warm process would already hold: generated
//          workloads (suite::shared_benchmark), reference outputs
//          (suite::shared_reference), compiled kernels
//          (vcl::KernelCache::compile) and synthesized designs
//          (vcl::HlsCache::synthesize) for the workload's targets, device
//          construction, and suite::profile_benchmark where it predicts;
//   run    the workload's launches and the check of every output.
//
// The run phase makes the same public calls suite::run_benchmark makes
// (reset, build, upload, launch, download, verify), one call at a time, so
// spans around them split run time by layer. The harness-equivalence test
// (tests/test_perfbench.cpp) proves it measures the same program as
// suite::run_all: identical cycles, instruction counts and output digests.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "suite/dse.hpp"

namespace perfbench {

enum class Workload { kTable1Exact, kTable1Functional, kFig7Dse };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

// One checked operation: a (benchmark x tier) run, a screened shape or a
// cycle-exact cell.
struct OpResult {
  std::string id;  // request id, e.g. "lbm/vortex" or "C4W8T8/screen"
  bool ok = false;
  std::string detail;  // failure reason, or the expected HLS failure met
  uint64_t cycles = 0;
  uint64_t instrs = 0;
  uint64_t digest = 0;  // FNV-1a over the checked output buffers

  bool operator==(const OpResult&) const = default;
};

// Deterministic counts of one iteration, keyed by per-layer metric name
// ("vortex.cycles", "mem.l1d_hits", ...).
using Counts = std::map<std::string, uint64_t>;

struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<OpResult> ops;  // sorted by id, so order permutations compare
  Counts counts;
  // Guest-side results, computed outside the timed phases. On
  // table1-functional they stay 0 until cycle_exact_crosscheck fills them.
  double guest_cycles_gm = 0.0;
  double model_error_gm = 0.0;
  double spearman = 0.0;  // fig7-dse: predicted vs simulated ranking
};

// Runs one cold iteration. `index` varies the benchmark order on the
// table1 workloads; the fig7-dse slice depends on `seed` only.
Iteration run_iteration(Workload workload, uint64_t seed, uint32_t index);

struct GuestMetrics {
  bool ok = false;
  double guest_cycles_gm = 0.0;
  double model_error_gm = 0.0;
};

// Untimed cycle-exact pass over the 28 benchmarks through suite::run_all,
// so table1-functional reports the same guest metrics as table1-exact.
GuestMetrics cycle_exact_crosscheck();

// --- pieces with their own unit tests -----------------------------------

// Seeded Fisher-Yates permutation of 0..n-1 (splitmix64; identical on
// every platform, unlike std::shuffle).
std::vector<size_t> seeded_permutation(size_t n, uint64_t seed);

// The fig7-dse cycle-exact slice: one candidate per (cores, warps, threads)
// shape among `eligible` (indices into `grid`), drawn with `seed`, in
// canonical grid order. The seed picks each shape's cache, DRAM and board
// variant; the draw never looks at predictions.
std::vector<size_t> draw_slice(const std::vector<fgpu::suite::DseCandidate>& grid,
                               const std::vector<size_t>& eligible, uint64_t seed);

// Table I: the reason the HLS build of `bench` is expected to fail, or ""
// when it is expected to build.
std::string expected_hls_failure(const std::string& bench);

// True when an HLS build outcome matches Table I. `fail_reason` is ""
// for a successful build, else the short reason ("Not enough BRAM").
bool hls_build_matches_table1(const std::string& bench, const std::string& fail_reason);

// max(predicted/measured, measured/predicted): 0.5x and 2x both give 2.
double error_factor(double predicted, double measured);

double geomean(const std::vector<double>& values);

}  // namespace perfbench

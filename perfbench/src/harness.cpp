#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "codegen/codegen.hpp"
#include "fpga/board.hpp"
#include "runtime/hls_cache.hpp"
#include "runtime/hls_device.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/turbo_device.hpp"
#include "runtime/vortex_device.hpp"
#include "spans.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "vortex/area.hpp"

namespace perfbench {

namespace suite = fgpu::suite;
namespace vcl = fgpu::vcl;
namespace vortex = fgpu::vortex;
using fgpu::ErrorKind;
using fgpu::Status;

namespace {

using Clock = std::chrono::steady_clock;
using Buffers = std::vector<std::vector<uint32_t>>;
using Shape = std::tuple<uint32_t, uint32_t, uint32_t>;

// Worker threads of the fig7-dse cycle-exact stage.
constexpr uint32_t kExactJobs = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum class Tier { kVortex, kTurbo, kHls };

const char* launch_span(Tier tier) {
  switch (tier) {
    case Tier::kVortex: return "vortex.launch";
    case Tier::kTurbo: return "jit.launch";
    case Tier::kHls: return "hls.launch";
  }
  return "";
}

// The codegen options suite::run_all gives both soft-GPU tiers at -O2; the
// prefill must use the same KernelCache key the devices will.
fgpu::codegen::Options soft_gpu_options() {
  fgpu::codegen::Options options;
  options.opt_level = 2;
  return options;
}

std::string target_of(const vortex::Config& config, const fgpu::fpga::Board& board) {
  return config.to_string() + "@" + board.name;
}

void make_cold() {
  vcl::KernelCache::instance().clear();
  vcl::HlsCache::instance().clear();
  suite::clear_workload_cache();
}

uint64_t cache_misses() {
  const suite::WorkloadCacheStats w = suite::workload_cache_stats();
  return vcl::KernelCache::instance().stats().misses + vcl::HlsCache::instance().stats().misses +
         w.misses + w.reference_misses;
}

// suite::run_benchmark's Table-I-style short reason for a failed build.
std::string fail_reason(const Status& status) {
  switch (status.kind()) {
    case ErrorKind::kResourceExceeded:
      return status.message().find("BRAM") != std::string::npos ? "Not enough BRAM"
                                                                : "Not enough resources";
    case ErrorKind::kUnsupported:
      return "Atomics";
    default:
      return "Compile error";
  }
}

// suite::run_benchmark's output digest: FNV-1a over (index, length, words)
// of every checked buffer.
uint64_t output_digest(const suite::Benchmark& bench, const Buffers& buffers) {
  std::vector<int> indices = bench.checked_buffers;
  if (indices.empty()) {
    for (size_t i = 0; i < buffers.size(); ++i) indices.push_back(static_cast<int>(i));
  }
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (int index : indices) {
    const auto& buf = buffers[static_cast<size_t>(index)];
    mix(static_cast<uint64_t>(index));
    mix(buf.size());
    for (uint32_t w : buf) mix(w);
  }
  return h;
}

Status verify(const suite::Benchmark& bench, const Buffers* reference, const Buffers& got,
              const std::vector<std::string>& console) {
  if (bench.custom_verify) return bench.custom_verify(got, console);
  if (reference == nullptr) {
    return Status(ErrorKind::kRuntimeError, bench.name + ": reference run failed");
  }
  std::vector<int> indices = bench.checked_buffers;
  if (indices.empty()) {
    for (size_t i = 0; i < got.size(); ++i) indices.push_back(static_cast<int>(i));
  }
  for (int index : indices) {
    const auto& have = got[static_cast<size_t>(index)];
    const auto& want = (*reference)[static_cast<size_t>(index)];
    const auto diff = std::mismatch(have.begin(), have.end(), want.begin(), want.end());
    if (diff.first != have.end() || diff.second != want.end()) {
      return Status(ErrorKind::kRuntimeError,
                    bench.name + ": buffer " + std::to_string(index) + " element " +
                        std::to_string(diff.first - have.begin()) + " differs from the reference");
    }
  }
  return Status::ok();
}

void add_launch(Counts& counts, const vcl::LaunchStats& s) {
  counts["vortex.cycles"] += s.device_cycles;
  counts["vortex.instrs"] += s.perf.instrs;
  counts["vortex.stall_scoreboard"] += s.perf.stall_scoreboard;
  counts["vortex.stall_lsu"] += s.perf.stall_lsu;
  counts["vortex.stall_fu"] += s.perf.stall_fu;
  counts["vortex.stall_ibuffer"] += s.perf.stall_ibuffer;
  counts["vortex.stall_barrier"] += s.perf.stall_barrier;
  counts["vortex.idle_cycles"] += s.perf.idle_cycles;
  counts["mem.l1d_accesses"] += s.l1d.reads + s.l1d.writes;
  counts["mem.l1d_hits"] += s.l1d.hits;
  counts["mem.l1d_misses"] += s.l1d.misses;
  counts["mem.l1d_mshr_merges"] += s.l1d.mshr_merges;
  counts["mem.l2_accesses"] += s.l2.reads + s.l2.writes;
  counts["mem.l2_hits"] += s.l2.hits;
  counts["mem.l2_misses"] += s.l2.misses;
  counts["mem.dram_accesses"] += s.dram.reads + s.dram.writes;
  counts["mem.dram_bytes"] += s.dram_bytes;
  counts["mem.stall_rejects"] +=
      s.l1d.stall_rejects + s.l2.stall_rejects + s.dram.stall_rejects;
}

void add_jit(Counts& counts, const vortex::jit::TurboStats& s) {
  counts["jit.instrs"] += s.instrs;
  counts["jit.blocks_translated"] += s.blocks_translated;
  counts["jit.block_lookups"] += s.block_lookups;
  counts["jit.block_hits"] += s.block_hits;
  counts["jit.chained_dispatches"] += s.chained_dispatches;
}

void merge(Counts& into, const Counts& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

// A benchmark after setup: the shared workload, its memoized reference
// output and, where the workload predicts, its analytical profiles.
struct Prepared {
  std::shared_ptr<const suite::Benchmark> bench;
  std::shared_ptr<const Buffers> reference;  // null for custom-verify benchmarks
  std::vector<vortex::KernelProfile> profiles;  // empty when not predicting
};

Prepared prepare(const std::string& name, bool profile, Counts& counts) {
  Prepared p;
  {
    ScopedSpan span("suite.gen", name);
    p.bench = suite::shared_benchmark(name);
  }
  if (!p.bench->custom_verify) {
    ScopedSpan span("kir.reference", name);
    p.reference = suite::shared_reference(name);
    counts["kir.reference_launches"] += p.bench->launches.size();
  }
  if (profile) {
    ScopedSpan span("analytical.profile", name);
    auto profiles = suite::profile_benchmark(*p.bench);
    if (profiles.is_ok()) p.profiles = profiles.take();
  }
  return p;
}

void compile_for(const suite::Benchmark& bench, const std::string& target, Counts& counts) {
  for (const auto& kernel : bench.module.kernels) {
    ScopedSpan span("codegen.compile", bench.name + "@" + target);
    const auto entry = vcl::KernelCache::instance().compile(kernel, soft_gpu_options(), target);
    ++counts["codegen.kernels"];
    if (entry.compiled) counts["codegen.binary_words"] += entry.compiled->program.words.size();
  }
}

void synthesize_for(const suite::Benchmark& bench) {
  for (const auto& kernel : bench.module.kernels) {
    ScopedSpan span("hls.synth", bench.name);
    vcl::HlsCache::instance().synthesize(kernel, fgpu::fpga::stratix10_mx2100(),
                                         fgpu::hls::HlsOptions{});
  }
}

// One benchmark on one device, through the calls suite::run_benchmark makes.
OpResult run_on(vcl::Device& device, Tier tier, const Prepared& p, const std::string& id,
                Counts& counts) {
  const suite::Benchmark& bench = *p.bench;
  OpResult op;
  op.id = id;
  {
    ScopedSpan span("runtime.reset", id);
    device.reset();
  }
  device.clear_console();
  Status built;
  {
    ScopedSpan span("runtime.build", id);
    built = device.build(bench.module);
  }
  const std::string reason = built.is_ok() ? "" : fail_reason(built);
  if (tier == Tier::kHls) {
    if (!hls_build_matches_table1(bench.name, reason)) {
      op.detail = built.is_ok() ? "built, but Table I expects '" +
                                      expected_hls_failure(bench.name) + "'"
                                : built.message();
      return op;
    }
    if (!built.is_ok()) {
      op.ok = true;
      op.detail = reason;
      ++counts["hls.fit_failures"];
      return op;
    }
  } else if (!built.is_ok()) {
    op.detail = built.message();
    return op;
  }

  std::vector<vcl::Buffer> buffers;
  {
    ScopedSpan span("runtime.transfer", id);
    buffers.reserve(bench.buffers.size());
    for (const auto& host : bench.buffers) {
      const vcl::Buffer b = device.alloc(host.size() * 4);
      device.write(b, host.data(), host.size() * 4, 0);
      buffers.push_back(b);
    }
  }
  for (const auto& launch : bench.launches) {
    std::vector<vcl::Arg> args;
    for (const auto& spec : launch.args) {
      switch (spec.kind) {
        case suite::ArgSpec::Kind::kBuffer:
          args.push_back(buffers[static_cast<size_t>(spec.buffer)]);
          break;
        case suite::ArgSpec::Kind::kI32:
          args.push_back(spec.i32);
          break;
        case suite::ArgSpec::Kind::kF32:
          args.push_back(spec.f32);
          break;
      }
    }
    std::optional<fgpu::Result<vcl::LaunchStats>> stats;
    {
      ScopedSpan span(launch_span(tier), id);
      stats.emplace(device.launch(launch.kernel, args, launch.ndrange));
    }
    if (!stats->is_ok()) {
      op.detail = "launch " + launch.kernel + ": " + stats->status().message();
      return op;
    }
    op.cycles += (*stats)->device_cycles;
    op.instrs += (*stats)->perf.instrs;
    if (tier == Tier::kVortex) add_launch(counts, **stats);
  }
  Buffers got;
  {
    ScopedSpan span("runtime.transfer", id);
    got.reserve(buffers.size());
    for (size_t i = 0; i < buffers.size(); ++i) {
      std::vector<uint32_t> host(bench.buffers[i].size());
      device.read(buffers[i], host.data(), host.size() * 4, 0);
      got.push_back(std::move(host));
    }
  }
  op.digest = output_digest(bench, got);
  Status verdict;
  {
    ScopedSpan span("suite.verify", id);
    verdict = verify(bench, p.reference.get(), got, device.console());
  }
  op.ok = verdict.is_ok();
  if (!op.ok) op.detail = verdict.message();
  return op;
}

void sort_ops(std::vector<OpResult>& ops) {
  std::sort(ops.begin(), ops.end(),
            [](const OpResult& a, const OpResult& b) { return a.id < b.id; });
}

// --- table1-exact / table1-functional ---------------------------------------

Iteration run_table1(bool exact, uint64_t seed, uint32_t index) {
  const std::string workload = exact ? "table1-exact" : "table1-functional";
  const std::vector<std::string>& names = suite::all_benchmark_names();
  const std::vector<size_t> order =
      seeded_permutation(names.size(), seed + 0x9E3779B97F4A7C15ull * index);
  const vortex::Config config = vortex::Config::with(4, 8, 8);
  const fgpu::fpga::Board& soft_board = fgpu::fpga::stratix10_sx2800();
  const std::string target = target_of(config, soft_board);

  Iteration it;
  make_cold();
  std::vector<Prepared> prepared(names.size());
  std::unique_ptr<vcl::VortexDevice> soft_gpu;
  std::unique_ptr<vcl::TurboDevice> turbo;
  std::unique_ptr<vcl::HlsDevice> hls;

  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan phase("phase.setup", workload);
    for (size_t i : order) {
      prepared[i] = prepare(names[i], exact, it.counts);
      compile_for(*prepared[i].bench, target, it.counts);
      synthesize_for(*prepared[i].bench);
    }
    ScopedSpan span("runtime.device_new", workload);
    if (exact) {
      soft_gpu = std::make_unique<vcl::VortexDevice>(config, soft_board, soft_gpu_options());
    } else {
      turbo = std::make_unique<vcl::TurboDevice>(config, soft_board, soft_gpu_options());
    }
    hls = std::make_unique<vcl::HlsDevice>(fgpu::fpga::stratix10_mx2100());
  }
  it.setup_s = seconds_since(t0);

  const uint64_t misses_before = cache_misses();
  t0 = Clock::now();
  {
    ScopedSpan phase("phase.run", workload);
    for (size_t i : order) {
      const std::string& name = names[i];
      if (soft_gpu) {
        it.ops.push_back(
            run_on(*soft_gpu, Tier::kVortex, prepared[i], name + "/vortex", it.counts));
      }
      if (turbo) {
        it.ops.push_back(run_on(*turbo, Tier::kTurbo, prepared[i], name + "/turbo", it.counts));
      }
      it.ops.push_back(run_on(*hls, Tier::kHls, prepared[i], name + "/hls", it.counts));
    }
  }
  it.run_s = seconds_since(t0);
  it.counts["runtime.run_cache_misses"] = cache_misses() - misses_before;
  if (turbo) add_jit(it.counts, turbo->jit_stats());
  sort_ops(it.ops);

  if (exact) {
    std::vector<double> cycles, errors;
    for (size_t i = 0; i < names.size(); ++i) {
      const auto op = std::find_if(it.ops.begin(), it.ops.end(), [&](const OpResult& o) {
        return o.id == names[i] + "/vortex";
      });
      if (op == it.ops.end() || !op->ok || op->cycles == 0 || prepared[i].profiles.empty()) {
        continue;
      }
      cycles.push_back(static_cast<double>(op->cycles));
      errors.push_back(error_factor(suite::predict_benchmark(prepared[i].profiles, config).cycles,
                                    static_cast<double>(op->cycles)));
    }
    it.guest_cycles_gm = geomean(cycles);
    it.model_error_gm = geomean(errors);
  }
  return it;
}

// --- fig7-dse ----------------------------------------------------------------

Shape shape_of(const vortex::Config& c) { return {c.cores, c.warps, c.threads}; }

vortex::Config config_of(const Shape& s) {
  return vortex::Config::with(std::get<0>(s), std::get<1>(s), std::get<2>(s));
}

// Largest work-group among launches that use barriers (suite::run_dse's
// dispatch-feasibility bound).
uint32_t barrier_lanes(const std::vector<Prepared>& prepared) {
  uint32_t lanes = 0;
  for (const Prepared& p : prepared) {
    for (size_t l = 0; l < p.profiles.size(); ++l) {
      if (p.profiles[l].uses_barriers) {
        lanes = std::max(lanes, p.bench->launches[l].ndrange.local_items());
      }
    }
  }
  return lanes;
}

bool fits(const suite::DseCandidate& c) {
  return c.board->utilization(vortex::estimate_area(c.config)) <= 1.0;
}

bool feasible(const suite::DseCandidate& c, uint32_t lanes) {
  return lanes == 0 || c.config.warps * c.config.threads >= lanes;
}

Iteration run_fig7(uint64_t seed) {
  const std::string workload = "fig7-dse";
  const std::vector<std::string> names = {"vecadd", "transpose"};
  const fgpu::fpga::Board& screen_board = fgpu::fpga::stratix10_sx2800();

  Iteration it;
  make_cold();
  std::vector<Prepared> prepared;
  std::vector<suite::DseCandidate> grid;
  std::vector<size_t> slice;
  std::map<Shape, std::unique_ptr<vcl::TurboDevice>> screen;
  std::vector<std::unique_ptr<vcl::VortexDevice>> exact;

  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan phase("phase.setup", workload);
    for (const auto& name : names) prepared.push_back(prepare(name, true, it.counts));
    grid = suite::enumerate_grid("full");
    const uint32_t lanes = barrier_lanes(prepared);
    std::vector<size_t> eligible;
    {
      ScopedSpan span("analytical.fit", workload);
      for (size_t i = 0; i < grid.size(); ++i) {
        if (feasible(grid[i], lanes) && fits(grid[i])) eligible.push_back(i);
      }
    }
    for (size_t i : eligible) screen[shape_of(grid[i].config)] = nullptr;
    slice = draw_slice(grid, eligible, seed);

    std::set<std::string> targets;
    for (const auto& entry : screen) {
      targets.insert(target_of(config_of(entry.first), screen_board));
    }
    for (size_t i : slice) targets.insert(target_of(grid[i].config, *grid[i].board));
    for (const auto& target : targets) {
      for (const Prepared& p : prepared) compile_for(*p.bench, target, it.counts);
    }

    ScopedSpan span("runtime.device_new", workload);
    for (auto& [s, device] : screen) {
      device = std::make_unique<vcl::TurboDevice>(config_of(s), screen_board, soft_gpu_options());
    }
    for (size_t i : slice) {
      // The device takes its DRAM timing from the board: overlay the
      // candidate's, as suite::run_exact_grid does.
      fgpu::fpga::Board board = *grid[i].board;
      board.dram = grid[i].config.dram;
      exact.push_back(
          std::make_unique<vcl::VortexDevice>(grid[i].config, board, soft_gpu_options()));
    }
  }
  it.setup_s = seconds_since(t0);

  const uint64_t misses_before = cache_misses();
  std::vector<double> predicted(grid.size());
  std::vector<std::vector<OpResult>> cells(slice.size(), std::vector<OpResult>(names.size()));
  t0 = Clock::now();
  {
    ScopedSpan phase("phase.run", workload);

    // Stage 1: area fit, dispatch feasibility and the analytical model on
    // every candidate.
    std::set<Shape> survivors;
    {
      ScopedSpan span("analytical.predict", workload);
      std::vector<vortex::KernelProfile> combined;
      for (const Prepared& p : prepared) {
        combined.insert(combined.end(), p.profiles.begin(), p.profiles.end());
      }
      const uint32_t lanes = barrier_lanes(prepared);
      for (size_t i = 0; i < grid.size(); ++i) {
        const bool ok = feasible(grid[i], lanes) && fits(grid[i]);
        predicted[i] = suite::predict_benchmark(combined, grid[i].config).cycles;
        if (ok) {
          survivors.insert(shape_of(grid[i].config));
        } else {
          ++it.counts["dse.unfit"];
        }
      }
    }
    OpResult funnel;
    funnel.id = "analytical/survivors";
    funnel.ok = survivors.size() == screen.size() &&
                std::all_of(survivors.begin(), survivors.end(),
                            [&](const Shape& s) { return screen.count(s) == 1; });
    if (!funnel.ok) funnel.detail = "run-phase survivors differ from the set-up targets";
    it.ops.push_back(funnel);

    // Stage 2: functional screen of every surviving (C, W, T) shape.
    {
      ScopedSpan span("dse.screen", workload);
      for (auto& [s, device] : screen) {
        const std::string shape = config_of(s).to_string();
        OpResult op;
        op.id = shape + "/screen";
        op.ok = true;
        for (const Prepared& p : prepared) {
          const OpResult r =
              run_on(*device, Tier::kTurbo, p, shape + "/" + p.bench->name, it.counts);
          op.instrs += r.instrs;
          op.digest = (op.digest * 1099511628211ull) ^ r.digest;
          if (!r.ok) {
            op.ok = false;
            op.detail += r.id + ": " + r.detail + "; ";
          }
        }
        it.ops.push_back(op);
      }
    }

    // Stage 3: the cycle-exact slice, work-stealing over configs.
    {
      ScopedSpan stage("dse.exact", workload);
      std::atomic<size_t> next{0};
      std::vector<Counts> worker_counts(kExactJobs);
      std::vector<std::thread> workers;
      for (uint32_t w = 0; w < kExactJobs; ++w) {
        workers.emplace_back([&, w, parent = stage.id()] {
          AdoptParent adopt(parent);
          for (size_t i = next.fetch_add(1); i < slice.size(); i = next.fetch_add(1)) {
            for (size_t b = 0; b < prepared.size(); ++b) {
              cells[i][b] = run_on(*exact[i], Tier::kVortex, prepared[b],
                                   grid[slice[i]].label + "/" + names[b], worker_counts[w]);
            }
          }
        });
      }
      for (auto& worker : workers) worker.join();
      for (const Counts& c : worker_counts) merge(it.counts, c);
    }
  }
  it.run_s = seconds_since(t0);
  it.counts["runtime.run_cache_misses"] = cache_misses() - misses_before;
  for (const auto& entry : screen) add_jit(it.counts, entry.second->jit_stats());
  it.counts["dse.grid"] = grid.size();
  it.counts["dse.shapes"] = screen.size();
  it.counts["dse.exact_configs"] = slice.size();

  std::vector<double> cycles, errors, slice_predicted, slice_simulated;
  for (size_t i = 0; i < slice.size(); ++i) {
    const vortex::Config& config = grid[slice[i]].config;
    double simulated = 0.0;
    bool all_ok = true;
    for (size_t b = 0; b < prepared.size(); ++b) {
      const OpResult& cell = cells[i][b];
      it.ops.push_back(cell);
      all_ok = all_ok && cell.ok && cell.cycles > 0;
      if (!cell.ok || cell.cycles == 0) continue;
      simulated += static_cast<double>(cell.cycles);
      cycles.push_back(static_cast<double>(cell.cycles));
      errors.push_back(error_factor(suite::predict_benchmark(prepared[b].profiles, config).cycles,
                                    static_cast<double>(cell.cycles)));
    }
    if (all_ok) {
      slice_predicted.push_back(predicted[slice[i]]);
      slice_simulated.push_back(simulated);
    }
  }
  it.guest_cycles_gm = geomean(cycles);
  it.model_error_gm = geomean(errors);
  it.spearman = suite::spearman_rank(slice_predicted, slice_simulated);
  sort_ops(it.ops);
  return it;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kTable1Exact, Workload::kTable1Functional, Workload::kFig7Dse}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kTable1Exact: return "table1-exact";
    case Workload::kTable1Functional: return "table1-functional";
    case Workload::kFig7Dse: return "fig7-dse";
  }
  return "";
}

Iteration run_iteration(Workload workload, uint64_t seed, uint32_t index) {
  switch (workload) {
    case Workload::kTable1Exact: return run_table1(true, seed, index);
    case Workload::kTable1Functional: return run_table1(false, seed, index);
    case Workload::kFig7Dse: return run_fig7(seed);
  }
  return {};
}

GuestMetrics cycle_exact_crosscheck() {
  suite::RunnerOptions options;
  options.run_hls = false;
  auto result = suite::run_all(options);
  GuestMetrics m;
  if (!result.is_ok()) return m;
  m.ok = true;
  std::vector<double> cycles, errors;
  for (const auto& outcome : result->outcomes) {
    const auto profiles = suite::profile_benchmark(*suite::shared_benchmark(outcome.name));
    if (!outcome.vortex.ok() || outcome.vortex.total_cycles == 0 || !profiles.is_ok()) {
      m.ok = false;
      continue;
    }
    const double measured = static_cast<double>(outcome.vortex.total_cycles);
    cycles.push_back(measured);
    errors.push_back(error_factor(
        suite::predict_benchmark(*profiles, options.vortex_config).cycles, measured));
  }
  m.guest_cycles_gm = geomean(cycles);
  m.model_error_gm = geomean(errors);
  return m;
}

std::vector<size_t> seeded_permutation(size_t n, uint64_t seed) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  uint64_t state = seed;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[splitmix64(state) % i]);
  return p;
}

std::vector<size_t> draw_slice(const std::vector<suite::DseCandidate>& grid,
                               const std::vector<size_t>& eligible, uint64_t seed) {
  std::map<Shape, std::vector<size_t>> strata;
  for (size_t i : eligible) strata[shape_of(grid[i].config)].push_back(i);
  uint64_t state = seed;
  std::vector<size_t> slice;
  for (const auto& entry : strata) {
    const std::vector<size_t>& members = entry.second;
    slice.push_back(members[splitmix64(state) % members.size()]);
  }
  std::sort(slice.begin(), slice.end());
  return slice;
}

std::string expected_hls_failure(const std::string& bench) {
  static const std::map<std::string, std::string> kTable1 = {
      {"lbm", "Not enough BRAM"},   {"backprop", "Not enough BRAM"},
      {"b+tree", "Not enough BRAM"}, {"dwt2d", "Not enough BRAM"},
      {"lud", "Not enough BRAM"},   {"hybridsort", "Atomics"},
  };
  const auto it = kTable1.find(bench);
  return it == kTable1.end() ? "" : it->second;
}

bool hls_build_matches_table1(const std::string& bench, const std::string& fail_reason) {
  return fail_reason == expected_hls_failure(bench);
}

double error_factor(double predicted, double measured) {
  return std::max(predicted / measured, measured / predicted);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench

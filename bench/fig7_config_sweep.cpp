// Reproduces Fig. 7: cycle counts of vector addition and transpose across
// warp/thread configurations on a 4-core soft GPU (the paper's SimX design-
// space exploration). Cycles are normalized to each benchmark's minimum,
// matching the paper's heat-map presentation.
//
//   fig7_config_sweep [--json=PATH] [--jobs=N]   # JSON dump / worker threads
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "suite/dse.hpp"
#include "suite/suite.hpp"
#include "trace/json.hpp"

using namespace fgpu;

namespace {

struct SweepResult {
  uint64_t cycles[4][4] = {};  // [warp index][thread index]
  uint64_t lsu_stalls[4][4] = {};
  uint32_t best_w = 0, best_t = 0;
  vortex::HostWork work;  // simulator work over the grid (stdout only)
};

const uint32_t kSizes[4] = {2, 4, 8, 16};

// The 4x4 grid runs on the DSE exact-grid runner (suite/dse.hpp): one
// work-stealing pass over the 16 configurations, devices pooled per
// identity and re-armed with reset(), workloads/references memoized, and
// compiled kernels shared through the process-wide KernelCache (the -O0
// binary compiles once, not 16 times). Grid values are bit-identical to
// the historical fresh-device-per-cell loop — the reset() contract — and
// to any --jobs (results land in pre-sized slots).
std::vector<SweepResult> sweep_all(const std::vector<std::string>& bench_names,
                                   uint32_t jobs) {
  std::vector<suite::ExactPoint> points;
  points.reserve(16);
  for (uint32_t w : kSizes) {
    for (uint32_t t : kSizes) {
      // Fig. 7 studies *hardware* configuration sensitivity, so the guest
      // code is pinned at -O0 (straight lowering): one fixed instruction
      // stream across the sweep, matching the stream the grid was
      // calibrated against. At -O2 transpose picks up ~1% of LSU-phase
      // jitter (EXPERIMENTS.md) — enough to blur the 4w8t/8w8t ordering
      // the paper's named comparison points sit on.
      points.push_back(suite::ExactPoint{vortex::Config::with(4, w, t),
                                         &fpga::stratix10_sx2800()});
    }
  }
  suite::DevicePool pool;
  suite::ExactGridOptions options;
  options.jobs = jobs;
  options.opt_level = 0;
  options.reuse_workloads = true;
  options.pool = &pool;
  const auto cells = suite::run_exact_grid(points, bench_names, options);

  std::vector<SweepResult> results(bench_names.size());
  for (size_t b = 0; b < bench_names.size(); ++b) {
    SweepResult& result = results[b];
    uint64_t best = ~0ull;
    for (int wi = 0; wi < 4; ++wi) {
      for (int ti = 0; ti < 4; ++ti) {
        const suite::ExactCell& cell = cells[static_cast<size_t>(wi) * 4 + ti][b];
        result.cycles[wi][ti] = cell.ok ? cell.cycles : 0;
        result.lsu_stalls[wi][ti] = cell.lsu_stalls;
        result.work.accumulate(cell.work);
        if (cell.ok && cell.cycles < best) {
          best = cell.cycles;
          result.best_w = kSizes[wi];
          result.best_t = kSizes[ti];
        }
      }
    }
  }
  return results;
}

void print_sweep(const std::string& name, const SweepResult& r) {
  uint64_t best = ~0ull;
  for (const auto& row : r.cycles) {
    for (uint64_t v : row) {
      if (v != 0 && v < best) best = v;
    }
  }
  printf("%s (4 cores), cycles normalized to minimum %llu:\n        ", name.c_str(),
         (unsigned long long)best);
  for (uint32_t t : kSizes) printf("T=%-8u", t);
  printf("\n");
  for (int wi = 0; wi < 4; ++wi) {
    printf("  W=%-2u  ", kSizes[wi]);
    for (int ti = 0; ti < 4; ++ti) {
      if (r.cycles[wi][ti] == 0) {
        printf("%-9s ", "-");
      } else {
        printf("%-9.3f ", static_cast<double>(r.cycles[wi][ti]) / static_cast<double>(best));
      }
    }
    printf("\n");
  }
  printf("  optimum: %uw / %ut\n", r.best_w, r.best_t);
  printf("  LSU stall cycles at (4w,4t) vs (8w,8t): %llu vs %llu\n\n",
         (unsigned long long)r.lsu_stalls[1][1], (unsigned long long)r.lsu_stalls[2][2]);
}

double pct(uint64_t a, uint64_t b) {
  return 100.0 * (static_cast<double>(a) - static_cast<double>(b)) / static_cast<double>(b);
}

// Raw (un-normalized) sweep grid as JSON, schema fgpu.fig7.v1 — see
// OBSERVABILITY.md. Rows are warps, columns threads, both in kSizes order.
void write_sweep_json(trace::JsonWriter& w, const std::string& name, const SweepResult& r) {
  w.begin_object();
  w.field("name", name);
  w.field("best_warps", r.best_w);
  w.field("best_threads", r.best_t);
  w.key("cycles").begin_array();
  for (const auto& row : r.cycles) {
    w.begin_array();
    for (uint64_t v : row) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.key("lsu_stalls").begin_array();
  for (const auto& row : r.lsu_stalls) {
    w.begin_array();
    for (uint64_t v : row) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Log::level() = LogLevel::kOff;
  std::string json_path;
  uint32_t jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = static_cast<uint32_t>(std::stoul(argv[i] + 7));
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--jobs=N]\n", argv[0]);
      return 2;
    }
  }
  printf("Fig. 7 — Cycle comparison for warp/thread configurations (Vortex simulator, 4 cores)\n\n");

  const auto grids = sweep_all({"vecadd", "transpose"}, jobs);
  const auto& vec = grids[0];
  const auto& tr = grids[1];
  print_sweep("Vector addition", vec);
  print_sweep("Transpose", tr);

  // The paper's headline comparisons (cycles at named configs).
  printf("Paper comparison points:\n");
  printf("  vecadd 8w8t vs 4w4t:         %+6.1f%%   [paper: +27%% (4w4t optimal)]\n",
         pct(vec.cycles[2][2], vec.cycles[1][1]));
  printf("  vecadd 8w4t vs 4w4t:         %+6.1f%%   [paper: +11%%]\n",
         pct(vec.cycles[2][1], vec.cycles[1][1]));
  printf("  transpose 4w4t vs 8w8t:      %+6.1f%%   [paper: +44%% (8w8t optimal)]\n",
         pct(tr.cycles[1][1], tr.cycles[2][2]));
  printf("  transpose 8w4t vs 8w8t:      %+6.1f%%   [paper: +17%%]\n",
         pct(tr.cycles[2][1], tr.cycles[2][2]));

  // Shape check over the paper's named configurations: within the
  // {4,8}x{4,8} subgrid, vecadd is best at 4w4t and materially worse at
  // 8w8t, while transpose is best at 8w8t and materially worse at 4w4t.
  const uint64_t v44 = vec.cycles[1][1], v88 = vec.cycles[2][2], v84 = vec.cycles[2][1],
                 v48 = vec.cycles[1][2];
  const uint64_t t44 = tr.cycles[1][1], t88 = tr.cycles[2][2], t84 = tr.cycles[2][1];
  const bool vec_shape = v44 < v88 && v44 < v48 && v44 <= v84 && pct(v88, v44) > 10.0;
  const bool tr_shape = t88 < t44 && t88 < t84 && pct(t44, t88) > 8.0;
  printf("\nShape check (vecadd optimal at 4w4t, 8w8t >10%% worse;\n"
         "transpose optimal at 8w8t among the paper's configs): %s\n",
         (vec_shape && tr_shape) ? "HOLDS" : "VIOLATED");

  // Simulator work (deterministic, but it depends on idle skipping, so it
  // is printed only and kept out of the byte-compared JSON).
  vortex::HostWork work = vec.work;
  work.accumulate(tr.work);
  printf("\nSimulator work over both grids: %llu cluster ticks, %llu core ticks "
         "(%llu slept), %llu cycles skipped, %llu capacity wakes\n",
         (unsigned long long)work.cluster_ticks, (unsigned long long)work.core_ticks,
         (unsigned long long)work.core_ticks_slept, (unsigned long long)work.cycles_skipped,
         (unsigned long long)work.capacity_wakes);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "fig7_config_sweep: cannot write '%s'\n", json_path.c_str());
      return 2;
    }
    trace::JsonWriter w(out, /*pretty=*/true);
    w.begin_object();
    w.field("schema", "fgpu.fig7.v1");
    w.field("cores", static_cast<uint32_t>(4));
    w.key("sizes").begin_array();
    for (uint32_t s : kSizes) w.value(s);
    w.end_array();
    w.key("benchmarks").begin_array();
    write_sweep_json(w, "vecadd", vec);
    write_sweep_json(w, "transpose", tr);
    w.end_array();
    w.field("shape_check", vec_shape && tr_shape);
    w.end_object();
    out << '\n';
    printf("stats -> %s\n", json_path.c_str());
  }
  return (vec_shape && tr_shape) ? 0 : 1;
}

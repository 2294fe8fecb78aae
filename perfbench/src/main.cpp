// perfbench: the repository benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//
// Repeats cold iterations (set-up + run, see harness.hpp) of one workload
// for S seconds, closed-loop with one caller, checks every output, and
// prints one JSON result object as the last stdout line. --trace 0 reports
// the end-to-end metrics; --trace 1 alternates untraced and traced
// iterations and reports the per-layer split, the tracing overhead and the
// share of traced wall time no layer span covers. Workloads, metrics and
// the layer -> end-to-end mapping are described in perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "spans.hpp"

namespace {

using perfbench::Iteration;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// Per-layer metrics of a traced run. `times` holds the median summed span
// duration per span name over the traced iterations.
std::vector<Metric> per_layer(const std::map<std::string, double>& times, const Iteration& first,
                              double setup_overhead_s, double run_overhead_s, double uncovered) {
  auto time = [&](const char* span) {
    const auto it = times.find(span);
    return it == times.end() ? 0.0 : it->second;
  };
  auto count = [&](const char* key) {
    const auto it = first.counts.find(key);
    return it == first.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  return {
      {"suite.gen_s", "s", time("suite.gen")},
      {"suite.verify_s", "s", time("suite.verify")},
      {"kir.reference_s", "s", time("kir.reference")},
      {"kir.reference_launches", "count", count("kir.reference_launches")},
      {"codegen.compile_s", "s", time("codegen.compile")},
      {"codegen.kernels", "count", count("codegen.kernels")},
      {"codegen.binary_words", "words", count("codegen.binary_words")},
      {"hls.synth_s", "s", time("hls.synth")},
      {"hls.launch_s", "s", time("hls.launch")},
      {"hls.fit_failures", "count", count("hls.fit_failures")},
      {"runtime.device_new_s", "s", time("runtime.device_new")},
      {"runtime.reset_s", "s", time("runtime.reset")},
      {"runtime.build_s", "s", time("runtime.build")},
      {"runtime.transfer_s", "s", time("runtime.transfer")},
      {"runtime.run_cache_misses", "count", count("runtime.run_cache_misses")},
      {"vortex.launch_s", "s", time("vortex.launch")},
      {"vortex.mcps", "Mcycle/s", ratio(count("vortex.cycles"), time("vortex.launch")) / 1e6},
      {"vortex.ns_per_instr", "ns", ratio(time("vortex.launch") * 1e9, count("vortex.instrs"))},
      {"vortex.cycles", "cycles", count("vortex.cycles")},
      {"vortex.instrs", "count", count("vortex.instrs")},
      {"vortex.ipc", "instr/cycle", ratio(count("vortex.instrs"), count("vortex.cycles"))},
      {"vortex.stall_scoreboard", "cycles", count("vortex.stall_scoreboard")},
      {"vortex.stall_lsu", "cycles", count("vortex.stall_lsu")},
      {"vortex.stall_fu", "cycles", count("vortex.stall_fu")},
      {"vortex.stall_ibuffer", "cycles", count("vortex.stall_ibuffer")},
      {"vortex.stall_barrier", "cycles", count("vortex.stall_barrier")},
      {"vortex.idle_cycles", "cycles", count("vortex.idle_cycles")},
      {"mem.l1d_accesses", "count", count("mem.l1d_accesses")},
      {"mem.l1d_hit_ratio", "ratio",
       ratio(count("mem.l1d_hits"), count("mem.l1d_hits") + count("mem.l1d_misses"))},
      {"mem.l1d_mshr_merges", "count", count("mem.l1d_mshr_merges")},
      {"mem.l2_accesses", "count", count("mem.l2_accesses")},
      {"mem.l2_hit_ratio", "ratio",
       ratio(count("mem.l2_hits"), count("mem.l2_hits") + count("mem.l2_misses"))},
      {"mem.dram_accesses", "count", count("mem.dram_accesses")},
      {"mem.dram_bytes", "B", count("mem.dram_bytes")},
      {"mem.stall_rejects", "count", count("mem.stall_rejects")},
      {"jit.launch_s", "s", time("jit.launch")},
      {"jit.mips", "MIPS", ratio(count("jit.instrs"), time("jit.launch")) / 1e6},
      {"jit.instrs", "count", count("jit.instrs")},
      {"jit.blocks_translated", "count", count("jit.blocks_translated")},
      {"jit.block_hit_ratio", "ratio",
       ratio(count("jit.block_hits"), count("jit.block_lookups"))},
      {"jit.chained_ratio", "ratio",
       ratio(count("jit.chained_dispatches"),
             count("jit.chained_dispatches") + count("jit.block_lookups"))},
      {"analytical.profile_s", "s", time("analytical.profile")},
      {"analytical.predict_s", "s", time("analytical.predict")},
      {"analytical.configs_per_s", "1/s", ratio(count("dse.grid"), time("analytical.predict"))},
      {"analytical.spearman", "rho", first.spearman},
      {"dse.grid", "count", count("dse.grid")},
      {"dse.unfit", "count", count("dse.unfit")},
      {"dse.shapes", "count", count("dse.shapes")},
      {"dse.exact_configs", "count", count("dse.exact_configs")},
      {"dse.screen_s", "s", time("dse.screen")},
      {"dse.exact_s", "s", time("dse.exact")},
      {"dse.exact_configs_per_s", "1/s", ratio(count("dse.exact_configs"), time("dse.exact"))},
      {"trace.setup_overhead_s", "s", setup_overhead_s},
      {"trace.run_overhead_s", "s", run_overhead_s},
      {"trace.uncovered_frac", "ratio", uncovered},
  };
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<perfbench::Span>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d",
                  s.start_s, s.end_s, s.parent);
    out << "  {\"name\": \"" << s.name << "\", \"request\": \"" << json_escape(s.request)
        << "\", " << times << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table1-exact|table1-functional|fig7-dse --seed N "
               "--seconds S --trace 0|1 [--spans-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg, spans_dir;
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_arg = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans-dir") {
      spans_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  const auto workload = perfbench::parse_workload(workload_arg);
  if (argc % 2 != 1 || !workload || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }

  // Closed loop: one caller, iterations back to back. At least three per
  // mode so no reported figure rests on a single sample. Set-up time is
  // reported as the median over iterations; run time as the fastest
  // iteration, because co-tenant contention on shared hosts only ever slows
  // an iteration down and drifts over seconds to minutes, which moves a
  // median between runs far more than a minimum (README.md "Statistics").
  const bool traced_run = trace == 1;
  const uint32_t min_iterations = traced_run ? 6 : 3;
  std::vector<Iteration> iterations;
  std::vector<double> setup_s, run_s, traced_setup_s, traced_run_s, uncovered;
  std::map<std::string, std::vector<double>> span_totals;
  std::vector<perfbench::Span> last_spans;
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (i >= min_iterations && elapsed >= seconds) break;
    const bool traced = traced_run && i % 2 == 1;
    perfbench::Tracer tracer;
    perfbench::set_tracer(traced ? &tracer : nullptr);
    iterations.push_back(perfbench::run_iteration(*workload, seed, i));
    perfbench::set_tracer(nullptr);
    const Iteration& it = iterations.back();
    std::printf("iteration %u%s: setup %.6f s, run %.6f s\n", i, traced ? " (traced)" : "",
                it.setup_s, it.run_s);
    if (traced) {
      traced_setup_s.push_back(it.setup_s);
      traced_run_s.push_back(it.run_s);
      last_spans = tracer.spans();
      for (const auto& [name, t] : perfbench::span_times(last_spans)) {
        span_totals[name].push_back(t.total_s);
      }
      uncovered.push_back(perfbench::uncovered_share(last_spans));
    } else {
      setup_s.push_back(it.setup_s);
      run_s.push_back(it.run_s);
    }
  }
  const double rss_mb = peak_rss_mb();

  Iteration& first = iterations.front();
  bool correct = true;
  if (*workload == perfbench::Workload::kTable1Functional) {
    const perfbench::GuestMetrics guest = perfbench::cycle_exact_crosscheck();
    if (!guest.ok) {
      std::printf("FAIL cycle-exact cross-check pass\n");
      correct = false;
    }
    for (Iteration& it : iterations) {
      it.guest_cycles_gm = guest.guest_cycles_gm;
      it.model_error_gm = guest.model_error_gm;
    }
  }

  // Every operation of every iteration is checked; each failure is printed
  // once per iteration that saw it.
  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < iterations.size(); ++i) {
    for (const perfbench::OpResult& op : iterations[i].ops) {
      ++attempted;
      if (op.ok) continue;
      ++failed;
      std::printf("FAIL iteration %zu %s: %s\n", i, op.id.c_str(), op.detail.c_str());
    }
  }
  // Determinism self-check: guest results, output digests and every count
  // must be identical across iterations (and, on the table1 workloads,
  // across the benchmark orders they ran in).
  for (size_t i = 1; i < iterations.size(); ++i) {
    const Iteration& it = iterations[i];
    if (it.ops != first.ops || it.counts != first.counts ||
        it.guest_cycles_gm != first.guest_cycles_gm ||
        it.model_error_gm != first.model_error_gm || it.spearman != first.spearman) {
      std::printf("FAIL determinism: iteration %zu differs from iteration 0\n", i);
      correct = false;
    }
  }
  if (first.counts["runtime.run_cache_misses"] != 0) {
    std::printf("FAIL run phase missed a cache the set-up should have filled (%" PRIu64 ")\n",
                first.counts["runtime.run_cache_misses"]);
    correct = false;
  }
  correct = correct && failed == 0;

  std::vector<Metric> metrics;
  if (traced_run) {
    std::map<std::string, double> times;
    for (const auto& [name, totals] : span_totals) times[name] = median(totals);
    const double setup_overhead = median(traced_setup_s) - median(setup_s);
    const double run_overhead = min_of(traced_run_s) - min_of(run_s);
    const double uncovered_frac = median(uncovered);
    std::printf("%s tracing overhead: setup %+.6f s, run %+.6f s (traced minus untraced)\n",
                perfbench::workload_name(*workload), setup_overhead, run_overhead);
    std::printf("%s uncovered share of traced wall time: %.4f\n",
                perfbench::workload_name(*workload), uncovered_frac);
    for (const auto& [name, t] : perfbench::span_times(last_spans)) {
      std::printf("  span %-22s total %.6f s  self %.6f s\n", name.c_str(), t.total_s, t.self_s);
    }
    metrics = per_layer(times, first, setup_overhead, run_overhead, uncovered_frac);
    if (!spans_dir.empty()) {
      write_spans(spans_dir + "/spans-" + perfbench::workload_name(*workload) + ".json",
                  last_spans);
    }
  } else {
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"run_s", "s", min_of(run_s)},
        {"peak_rss_mb", "MB", rss_mb},
        {"ok_frac", "ratio",
         1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted))},
        {"guest_cycles_gm", "cycles", first.guest_cycles_gm},
        {"model_error_gm", "ratio", first.model_error_gm},
    };
  }
  std::printf("%s: %zu iterations, %" PRIu64 " operations, %" PRIu64 " failed\n",
              perfbench::workload_name(*workload), iterations.size(), attempted, failed);

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

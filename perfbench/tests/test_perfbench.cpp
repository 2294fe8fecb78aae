// Tests of the benchmark itself: the span arithmetic, the metric
// definitions, the seeded input generation, and the harness-equivalence
// check proving the phased harness measures the same program as
// suite::run_all and suite::run_exact_grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "harness.hpp"
#include "spans.hpp"
#include "suite/dse.hpp"
#include "suite/runner.hpp"

namespace {

using perfbench::Iteration;
using perfbench::OpResult;
using perfbench::Span;
using perfbench::Workload;

const OpResult* find_op(const Iteration& it, const std::string& id) {
  for (const OpResult& op : it.ops) {
    if (op.id == id) return &op;
  }
  return nullptr;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // Root [0, 10] with overlapping children [1, 4] and [3, 6] (union 5 s),
  // and one child [9, 12] that outlives it (clipped to 1 s).
  const std::vector<Span> spans = {
      {"phase.run", "w", 0.0, 10.0, -1},
      {"vortex.launch", "a", 1.0, 4.0, 0},
      {"vortex.launch", "b", 3.0, 6.0, 0},
      {"runtime.reset", "c", 9.0, 12.0, 0},
      {"runtime.build", "d", 1.5, 2.0, 1},
  };
  const auto times = perfbench::span_times(spans);
  EXPECT_DOUBLE_EQ(times.at("phase.run").total_s, 10.0);
  EXPECT_DOUBLE_EQ(times.at("phase.run").self_s, 4.0);
  EXPECT_DOUBLE_EQ(times.at("vortex.launch").total_s, 6.0);
  EXPECT_DOUBLE_EQ(times.at("vortex.launch").self_s, 5.5);
  EXPECT_DOUBLE_EQ(times.at("runtime.reset").self_s, 3.0);
  EXPECT_DOUBLE_EQ(times.at("runtime.build").self_s, 0.5);
  EXPECT_DOUBLE_EQ(perfbench::uncovered_share(spans), 0.4);
}

TEST(Spans, ScopedSpansNestPerThreadAndAreFreeWhenUntraced) {
  {
    perfbench::ScopedSpan untraced("phase.run", "w");
    EXPECT_EQ(untraced.id(), -1);
  }
  perfbench::Tracer tracer;
  perfbench::set_tracer(&tracer);
  {
    perfbench::ScopedSpan root("phase.run", "w");
    { perfbench::ScopedSpan child("suite.verify", "w/a"); }
    perfbench::AdoptParent adopt(root.id());
    perfbench::ScopedSpan adopted("vortex.launch", "w/b");
  }
  perfbench::set_tracer(nullptr);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  for (const Span& s : spans) EXPECT_LE(s.start_s, s.end_s);
}

TEST(Metrics, ModelErrorIsSymmetric) {
  EXPECT_DOUBLE_EQ(perfbench::error_factor(0.5, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::error_factor(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::error_factor(3.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::geomean({perfbench::error_factor(0.5, 1.0),
                                       perfbench::error_factor(2.0, 1.0)}),
                   2.0);
  EXPECT_DOUBLE_EQ(perfbench::geomean({1.0, 4.0}), 2.0);
}

TEST(Metrics, ExpectedHlsFailuresCountAsSuccessesOnlyWithTheirReason) {
  const std::map<std::string, std::string> table1 = {
      {"lbm", "Not enough BRAM"},   {"backprop", "Not enough BRAM"},
      {"b+tree", "Not enough BRAM"}, {"dwt2d", "Not enough BRAM"},
      {"lud", "Not enough BRAM"},   {"hybridsort", "Atomics"},
  };
  int expected_failures = 0;
  for (const auto& name : fgpu::suite::all_benchmark_names()) {
    const auto it = table1.find(name);
    const std::string reason = it == table1.end() ? "" : it->second;
    EXPECT_EQ(perfbench::expected_hls_failure(name), reason) << name;
    EXPECT_TRUE(perfbench::hls_build_matches_table1(name, reason)) << name;
    if (!reason.empty()) ++expected_failures;
  }
  EXPECT_EQ(expected_failures, 6);
  EXPECT_FALSE(perfbench::hls_build_matches_table1("lbm", ""));
  EXPECT_FALSE(perfbench::hls_build_matches_table1("lbm", "Atomics"));
  EXPECT_FALSE(perfbench::hls_build_matches_table1("hybridsort", "Not enough BRAM"));
  EXPECT_FALSE(perfbench::hls_build_matches_table1("vecadd", "Not enough BRAM"));
}

TEST(Inputs, SeededPermutationIsReproducible) {
  const auto a = perfbench::seeded_permutation(28, 7);
  EXPECT_EQ(a, perfbench::seeded_permutation(28, 7));
  EXPECT_NE(a, perfbench::seeded_permutation(28, 8));
  std::vector<size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Inputs, SliceDrawIsReproducibleAndStratified) {
  const auto grid = fgpu::suite::enumerate_grid("full");
  std::vector<size_t> eligible;
  for (size_t i = 0; i < grid.size(); i += 3) eligible.push_back(i);
  const auto a = perfbench::draw_slice(grid, eligible, 11);
  EXPECT_EQ(a, perfbench::draw_slice(grid, eligible, 11));
  EXPECT_NE(a, perfbench::draw_slice(grid, eligible, 12));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  std::set<std::string> strata, drawn;
  for (size_t i : eligible) strata.insert(grid[i].config.to_string());
  for (size_t i : a) {
    EXPECT_TRUE(std::binary_search(eligible.begin(), eligible.end(), i));
    drawn.insert(grid[i].config.to_string());
  }
  EXPECT_EQ(a.size(), strata.size());
  EXPECT_EQ(drawn, strata);
}

// The phased harness against suite::run_all with the matching options:
// same per-benchmark cycles, instruction counts and output digests, and a
// run phase that never misses a cache the set-up filled.
void expect_matches_run_all(Workload workload, const fgpu::suite::RunnerOptions& options) {
  const Iteration it = perfbench::run_iteration(workload, 3, 0);
  EXPECT_EQ(it.counts.at("runtime.run_cache_misses"), 0u);
  auto reference = fgpu::suite::run_all(options);
  ASSERT_TRUE(reference.is_ok());
  for (const auto& outcome : reference->outcomes) {
    const std::vector<std::pair<const char*, const fgpu::suite::DeviceRun*>> tiers = {
        {"vortex", outcome.ran_vortex ? &outcome.vortex : nullptr},
        {"turbo", outcome.ran_turbo ? &outcome.turbo : nullptr},
        {"hls", &outcome.hls},
    };
    for (const auto& [tier, run] : tiers) {
      const OpResult* op = find_op(it, outcome.name + "/" + tier);
      if (run == nullptr) {
        EXPECT_EQ(op, nullptr);
        continue;
      }
      ASSERT_NE(op, nullptr) << outcome.name << "/" << tier;
      EXPECT_TRUE(op->ok) << op->id << ": " << op->detail;
      EXPECT_EQ(op->cycles, run->total_cycles) << op->id;
      EXPECT_EQ(op->instrs, run->total_instrs) << op->id;
      EXPECT_EQ(op->digest, run->output_digest) << op->id;
    }
  }
}

TEST(HarnessEquivalence, Table1ExactMatchesRunAll) {
  fgpu::suite::RunnerOptions options;  // the default "both" flow
  expect_matches_run_all(Workload::kTable1Exact, options);
}

TEST(HarnessEquivalence, Table1FunctionalMatchesRunAll) {
  fgpu::suite::RunnerOptions options;
  options.run_vortex = false;
  options.run_turbo = true;
  expect_matches_run_all(Workload::kTable1Functional, options);
}

TEST(HarnessEquivalence, Table1ResultsDoNotDependOnOrder) {
  const Iteration a = perfbench::run_iteration(Workload::kTable1Functional, 1, 0);
  const Iteration b = perfbench::run_iteration(Workload::kTable1Functional, 2, 5);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(HarnessEquivalence, Fig7ExactCellsMatchRunExactGrid) {
  const Iteration it = perfbench::run_iteration(Workload::kFig7Dse, 5, 0);
  EXPECT_EQ(it.counts.at("runtime.run_cache_misses"), 0u);
  const auto grid = fgpu::suite::enumerate_grid("full");
  std::map<std::string, const fgpu::suite::DseCandidate*> by_label;
  for (const auto& c : grid) by_label[c.label] = &c;

  const std::vector<std::string> names = {"vecadd", "transpose"};
  std::vector<fgpu::suite::ExactPoint> points;
  std::vector<std::string> labels;
  for (const OpResult& op : it.ops) {
    const std::string label = op.id.substr(0, op.id.rfind('/'));
    if (op.id != label + "/vecadd" || by_label.count(label) == 0) continue;
    labels.push_back(label);
    points.push_back({by_label[label]->config, by_label[label]->board});
  }
  ASSERT_EQ(points.size(), it.counts.at("dse.exact_configs"));
  fgpu::suite::ExactGridOptions options;
  options.jobs = 2;
  const auto cells = fgpu::suite::run_exact_grid(points, names, options);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t b = 0; b < names.size(); ++b) {
      const OpResult* op = find_op(it, labels[i] + "/" + names[b]);
      ASSERT_NE(op, nullptr);
      EXPECT_TRUE(op->ok && cells[i][b].ok) << op->id;
      EXPECT_EQ(op->cycles, cells[i][b].cycles) << op->id;
    }
  }
}

}  // namespace

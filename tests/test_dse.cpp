// Design-space exploration engine tests (suite/dse.hpp): Spearman rank
// correlation math, grid enumeration, ranking fidelity of the analytical
// model against the cycle-exact Fig. 7 grids, fgpu.dse.v1 determinism
// (jobs and fresh-vs-pooled), funnel invariants, and the keyed device pool.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/log.hpp"
#include "suite/device_pool.hpp"
#include "suite/dse.hpp"
#include "suite/suite.hpp"

namespace fgpu::suite {
namespace {

TEST(SpearmanTest, KnownVectors) {
  // Perfect monotone agreement — any monotone transform of the same order.
  EXPECT_DOUBLE_EQ(spearman_rank({1, 2, 3, 4}, {10, 200, 3000, 40000}), 1.0);
  // Perfect inversion.
  EXPECT_DOUBLE_EQ(spearman_rank({1, 2, 3, 4}, {4, 3, 2, 1}), -1.0);
  // Textbook partial agreement: one adjacent swap among n=4 distinct ranks
  // costs exactly 6 d^2 / (n(n^2-1)) = 0.2.
  EXPECT_NEAR(spearman_rank({1, 2, 3, 4}, {1, 3, 2, 4}), 0.8, 1e-12);
}

TEST(SpearmanTest, TiesUseAverageRanks) {
  // {5, 5} tie in `a` gets average rank 1.5 each; the result must sit
  // strictly between the untied extremes, symmetric in which tied element
  // comes first.
  const double s1 = spearman_rank({5, 5, 7}, {1, 2, 3});
  const double s2 = spearman_rank({5, 5, 7}, {2, 1, 3});
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_GT(s1, 0.0);
  EXPECT_LT(s1, 1.0);
}

TEST(SpearmanTest, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(spearman_rank({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank({1.0}, {2.0}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank({1, 2}, {1, 2, 3}), 0.0);  // mismatched
  EXPECT_DOUBLE_EQ(spearman_rank({3, 3, 3}, {1, 2, 3}), 0.0);  // constant
}

TEST(DseGridTest, CanonicalEnumeration) {
  const auto quick = enumerate_grid("quick");
  const auto full = enumerate_grid("full");
  EXPECT_EQ(quick.size(), 216u);
  EXPECT_EQ(full.size(), 12000u);
  EXPECT_TRUE(enumerate_grid("bogus").empty());

  // Canonical order is deterministic: the first quick candidate is the
  // smallest configuration on the default board, and labels are unique.
  EXPECT_EQ(quick.front().label, "C1W2T2:l1d8k:l264k:ddr4@Stratix10-SX2800");
  std::vector<std::string> labels;
  for (const auto& c : quick) labels.push_back(c.label);
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(std::unique(labels.begin(), labels.end()), labels.end());
}

// The model's job is ranking, not absolute cycles (analytical.hpp). Gate
// its rank fidelity on the 16-point Fig. 7 grid (4 cores, W x T in
// {2,4,8,16}^2) for both paper kernels. Documented floors (EXPERIMENTS.md
// "Spearman methodology"): vecadd >= 0.75, transpose >= 0.6. A fixed-core
// grid deliberately isolates the warp/thread scheduling axis — the model's
// noisiest dimension, where the simulator shows +/-15% effects with no
// first-order cause — while the DSE's primary pruning axes (cores, DRAM,
// fit) correlate at >= 0.8 on the full 12,000-point grid (the CI-gated
// number). Current values: vecadd 0.78, transpose 0.66.
TEST(DseRankingTest, Fig7GridSpearmanAboveFloor) {
  Log::level() = LogLevel::kOff;
  const uint32_t sizes[4] = {2, 4, 8, 16};
  std::vector<ExactPoint> points;
  for (uint32_t w : sizes) {
    for (uint32_t t : sizes) {
      points.push_back(ExactPoint{vortex::Config::with(4, w, t), &fpga::stratix10_sx2800()});
    }
  }
  ExactGridOptions options;
  options.opt_level = 0;  // the fig7 contract: one fixed instruction stream
  const std::vector<std::string> benchmarks = {"vecadd", "transpose"};
  const auto cells = run_exact_grid(points, benchmarks, options);
  ASSERT_EQ(cells.size(), points.size());

  const double floors[2] = {0.75, 0.6};
  for (size_t b = 0; b < benchmarks.size(); ++b) {
    const auto bench = shared_benchmark(benchmarks[b]);
    ASSERT_TRUE(bench != nullptr);
    const auto profiles = profile_benchmark(*bench);
    ASSERT_TRUE(profiles.is_ok()) << profiles.status().message();
    std::vector<double> predicted, simulated;
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(cells[i][b].ok) << benchmarks[b] << " point " << i << ": "
                                  << cells[i][b].fail;
      predicted.push_back(predict_benchmark(*profiles, points[i].config).cycles);
      simulated.push_back(static_cast<double>(cells[i][b].cycles));
    }
    EXPECT_GE(spearman_rank(predicted, simulated), floors[b]) << benchmarks[b];
  }
}

// The byte-gate behind BENCH_dse.json: the exported document must not
// depend on worker count or device pooling. Small exact budget keeps this
// CI-cheap; determinism is structural (pre-sized slots, canonical order),
// not budget-dependent.
TEST(DseDeterminismTest, DocumentIdenticalAcrossJobsAndPooling) {
  Log::level() = LogLevel::kOff;
  DseOptions base;
  base.exact_budget = 6;
  base.opt_level = 2;

  const auto render = [](const DseOptions& options) {
    const DseResult result = run_dse(options);
    EXPECT_TRUE(result.error.empty()) << result.error;
    std::ostringstream os;
    write_dse_json(os, options, result);
    return os.str();
  };

  DseOptions jobs1 = base;
  jobs1.jobs = 1;
  DseOptions jobs4 = base;
  jobs4.jobs = 4;
  DseOptions fresh = base;
  fresh.jobs = 2;
  fresh.reuse_devices = false;

  const std::string doc = render(jobs1);
  EXPECT_EQ(doc, render(jobs4));
  EXPECT_EQ(doc, render(fresh));
  EXPECT_NE(doc.find("\"schema\": \"fgpu.dse.v1\""), std::string::npos);
  // Host wall-clock stays quarantined unless opted in.
  EXPECT_EQ(doc.find("\"host\""), std::string::npos);
}

TEST(DseFunnelTest, CountsAndParetoInvariants) {
  Log::level() = LogLevel::kOff;
  DseOptions options;
  options.exact_budget = 8;
  const DseResult r = run_dse(options);
  ASSERT_TRUE(r.error.empty()) << r.error;

  EXPECT_EQ(r.grid_total, 216u);
  EXPECT_EQ(r.candidates.size(), r.grid_total);
  EXPECT_EQ(r.analytical_survivors, r.grid_total - r.infeasible - r.unfit);
  EXPECT_GT(r.analytical_survivors, 0u);
  EXPECT_LE(r.shapes_screened, r.shapes_total);
  EXPECT_LE(r.screen_survivors, r.analytical_survivors);
  EXPECT_LE(r.exact_selected, options.exact_budget);
  EXPECT_LE(r.exact_ok, r.exact_selected);
  EXPECT_GT(r.exact_ok, 0u);

  size_t selected = 0, sim_ok = 0;
  for (const auto& c : r.candidates) {
    if (c.selected) ++selected;
    if (c.sim_ok) ++sim_ok;
    if (c.selected) {
      EXPECT_TRUE(c.fits && c.feasible && c.screen_ok) << c.label;
    }
    if (c.pareto) {
      EXPECT_TRUE(c.sim_ok) << c.label;
    }
  }
  EXPECT_EQ(selected, r.exact_selected);
  EXPECT_EQ(sim_ok, r.exact_ok);

  // Pareto frontier over (simulated_cycles, utilization): no member may be
  // strictly dominated by any sim-ok candidate.
  for (const auto& p : r.candidates) {
    if (!p.pareto) continue;
    for (const auto& q : r.candidates) {
      if (!q.sim_ok) continue;
      const bool dominates = q.simulated_cycles <= p.simulated_cycles &&
                             q.utilization <= p.utilization &&
                             (q.simulated_cycles < p.simulated_cycles ||
                              q.utilization < p.utilization);
      EXPECT_FALSE(dominates) << q.label << " dominates " << p.label;
    }
  }
}

TEST(DevicePoolTest, KeyedRetentionAndCap) {
  DevicePool pool(/*max_identities=*/2);
  // Releasing under an identity pools the set; acquiring the same identity
  // hands it back warm and counts the reuse.
  DeviceSet set;
  set.turbo = std::make_unique<vcl::TurboDevice>(vortex::Config::with(1, 2, 2));
  pool.release("A", std::move(set));
  EXPECT_EQ(pool.identity_count(), 1u);
  EXPECT_EQ(pool.reuse_count(), 0u);

  DeviceSet warm = pool.acquire("A");
  EXPECT_NE(warm.turbo, nullptr);
  EXPECT_EQ(pool.reuse_count(), 1u);
  // A different identity never receives another identity's set.
  EXPECT_EQ(pool.acquire("B").turbo, nullptr);

  // The cap bounds distinct identities: the third identity is dropped.
  pool.release("A", std::move(warm));
  DeviceSet b;
  b.turbo = std::make_unique<vcl::TurboDevice>(vortex::Config::with(1, 2, 2));
  pool.release("B", std::move(b));
  DeviceSet c;
  c.turbo = std::make_unique<vcl::TurboDevice>(vortex::Config::with(1, 2, 2));
  pool.release("C", std::move(c));
  EXPECT_EQ(pool.identity_count(), 2u);
  EXPECT_EQ(pool.acquire("C").turbo, nullptr);
}

}  // namespace
}  // namespace fgpu::suite

/// Tests for the design-space-exploration machinery: area model, Pareto
/// pruning, Kill rule, and a miniature sweep.

#include <gtest/gtest.h>

#include "dse/area.h"
#include "dse/pareto.h"
#include "dse/sweep.h"

namespace medea::dse {
namespace {

// ---------------------------------------------------------------------
// Area model
// ---------------------------------------------------------------------

TEST(Area, MonotonicInCoresAndCache) {
  AreaModel m;
  EXPECT_LT(m.chip_area_mm2(2, 2048, 32768), m.chip_area_mm2(3, 2048, 32768));
  EXPECT_LT(m.chip_area_mm2(4, 2048, 32768), m.chip_area_mm2(4, 65536, 32768));
}

TEST(Area, CalibrationAnchorsNearPaperAxes) {
  AreaModel m;
  // Fig. 7 anchors (see DESIGN.md): 11P+16kB near 10 mm², 15P+32kB near
  // 21 mm², 2P starting point below 3 mm².
  EXPECT_NEAR(m.chip_area_mm2(11, 16 * 1024, 32 * 1024), 10.0, 2.0);
  EXPECT_NEAR(m.chip_area_mm2(15, 32 * 1024, 32 * 1024), 19.0, 4.0);
  EXPECT_LT(m.chip_area_mm2(2, 2 * 1024, 32 * 1024), 3.5);
}

TEST(Area, NocOverheadDoublesLogic) {
  AreaModel m;
  AreaModel no_noc = m;
  no_noc.noc_overhead = 0.0;
  const double with_noc = m.chip_area_mm2(4, 0, 0);
  const double without = no_noc.chip_area_mm2(4, 0, 0);
  EXPECT_DOUBLE_EQ(with_noc, 2.0 * without);
}

// ---------------------------------------------------------------------
// Pareto / Kill rule
// ---------------------------------------------------------------------

TEST(Pareto, RemovesDominatedPoints) {
  std::vector<DesignPoint> pts{
      {1.0, 100.0, "a"}, {2.0, 120.0, "dominated"}, {2.5, 80.0, "b"},
      {3.0, 90.0, "dominated2"}, {4.0, 40.0, "c"},
  };
  auto f = pareto_frontier(pts);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].label, "a");
  EXPECT_EQ(f[1].label, "b");
  EXPECT_EQ(f[2].label, "c");
}

TEST(Pareto, KeepsFastestAmongEqualArea) {
  std::vector<DesignPoint> pts{{1.0, 100.0, "slow"}, {1.0, 50.0, "fast"}};
  auto f = pareto_frontier(pts);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].label, "fast");
}

TEST(Pareto, EmptyAndSingleton) {
  EXPECT_TRUE(pareto_frontier({}).empty());
  auto f = pareto_frontier({{1.0, 1.0, "x"}});
  ASSERT_EQ(f.size(), 1u);
}

TEST(KillRule, StopsWhereGainFallsBelowCost) {
  // Doubling area for 3x perf: keep.  Then doubling area for +5%: kill.
  std::vector<DesignPoint> f{
      {1.0, 300.0, "a"},
      {2.0, 100.0, "b"},   // 3x perf for 2x area: keep
      {4.0, 95.0, "c"},    // 1.05x perf for 2x area: kill
  };
  EXPECT_EQ(kill_rule_knee(f), 1u);
}

TEST(KillRule, KeepsGrowingWhileLinear) {
  std::vector<DesignPoint> f{
      {1.0, 100.0, "a"}, {2.0, 45.0, "b"}, {4.0, 20.0, "c"},
  };
  EXPECT_EQ(kill_rule_knee(f), 2u);
}

TEST(SpeedupCurve, NormalizesAgainstBaseline) {
  std::vector<DesignPoint> f{{1.0, 100.0, "a"}, {2.0, 25.0, "b"}};
  auto s = speedup_curve(f, 100.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(s[1].speedup, 4.0);
}

// ---------------------------------------------------------------------
// Miniature sweep (small grid so the test stays fast)
// ---------------------------------------------------------------------

TEST(Sweep, MiniatureDesignSpaceProducesSanePoints) {
  SweepSpec spec;
  spec.n = 8;
  spec.cores = {2, 4};
  spec.cache_kb = {2, 8};
  spec.policies = {mem::WritePolicy::kWriteBack};
  spec.threads = 2;
  const auto pts = run_sweep(spec);
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& p : pts) {
    EXPECT_GT(p.cycles_per_iteration, 0.0);
    EXPECT_GT(p.area_mm2, 0.0);
    EXPECT_FALSE(p.label.empty());
  }
  // Deterministic order: cores-major.
  EXPECT_EQ(pts[0].cores, 2);
  EXPECT_EQ(pts[3].cores, 4);
}

TEST(Sweep, ResultsIndependentOfThreadCount) {
  // Workers claim points costliest first (WT, then small L1), out of job
  // order; results must still come back in job order, with the same
  // values, whatever the thread count.
  SweepSpec spec;
  spec.n = 8;
  spec.cores = {2, 3};
  spec.cache_kb = {2, 4};
  spec.policies = {mem::WritePolicy::kWriteBack,
                   mem::WritePolicy::kWriteThrough};
  spec.threads = 1;
  const auto seq = run_sweep(spec);
  spec.threads = 4;
  const auto par = run_sweep(spec);
  ASSERT_EQ(seq.size(), 8u);
  ASSERT_EQ(par.size(), seq.size());
  std::size_t i = 0;
  for (int c : spec.cores) {
    for (auto kb : spec.cache_kb) {
      for (auto pol : spec.policies) {
        const std::string label = make_design_config(c, kb, pol).label();
        EXPECT_EQ(seq[i].label, label);
        EXPECT_EQ(par[i].label, label);
        EXPECT_EQ(seq[i].cycles_per_iteration, par[i].cycles_per_iteration)
            << label;
        ++i;
      }
    }
  }
}

TEST(Sweep, DesignConfigMatchesPaperTopology) {
  const auto cfg = make_design_config(15, 16, mem::WritePolicy::kWriteBack);
  EXPECT_EQ(cfg.noc_width, 4);
  EXPECT_EQ(cfg.noc_height, 4);
  EXPECT_EQ(cfg.num_compute_cores, 15);
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace medea::dse

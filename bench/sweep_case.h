#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dse/report.h"
#include "dse/sweep.h"
#include "harness.h"

/// \file sweep_case.h
/// The body of the two figure harnesses, bench_fig6_exec_time_60x60
/// (Figs. 6 and 7) and bench_fig8_exec_time_30x30 (Figs. 8 and 9): one
/// sweep of the paper's whole 168-point space at their grid size, as the
/// bench case "sweep/<n>x<n>", printed through dse/report.h.  The case's
/// cycle count sums per-iteration cycles over the simulated points, a
/// deterministic simulated-work proxy; implied points
/// (SweepPoint::implied) cost no simulation and are counted apart.

namespace medea::bench {

/// MEDEA_REPORT_DIR, checked before any sweep runs: nullptr when unset.
/// A directory no file can be created in exits 1 with an error naming it.
inline const char* report_dir() {
  // Single-threaded bench startup; no concurrent env access.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* dir = std::getenv("MEDEA_REPORT_DIR");
  if (dir == nullptr) return nullptr;
  const std::string probe = std::string(dir) + "/.medea_report_probe";
  if (!std::ofstream(probe)) {
    std::fprintf(stderr, "error: MEDEA_REPORT_DIR: cannot write in %s\n",
                 dir);
    std::exit(1);  // NOLINT(concurrency-mt-unsafe): no thread started yet
  }
  std::remove(probe.c_str());
  return dir;
}

/// One figure harness at n x n.  Prints the Fig. `fig` table of
/// `table(points)`, the point counts, the Fig. `fig + 1` frontier and
/// knee of every point, and the 6-core knee check; writes
/// BENCH_fig<fig>_exec_time_<n>x<n>.json; and with MEDEA_REPORT_DIR set
/// writes fig<fig>_<n>.{dat,gp} (the table's curves), fig<fig>_<n>.csv
/// (every point) and fig<fig + 1>_<n>.{dat,gp} (the frontier) there.
template <typename Select>
int figure_harness(int argc, char** argv, int n, int fig, Select table) {
  const char* dir = report_dir();
  const std::string grid = std::to_string(n) + "x" + std::to_string(n);
  // The sweep is deterministic in simulated cycles: one timed repetition.
  Report report("fig" + std::to_string(fig) + "_exec_time_" + grid, argc,
                argv, RunOptions{.warmup = 0, .repetitions = 1});
  dse::SweepSpec spec;  // the paper's space
  spec.n = n;
  std::vector<dse::SweepPoint> points;
  auto m = run_case("sweep/" + grid,
                    "n=" + std::to_string(n) +
                        " cores=2..15 l1_kb=2..64 policy=WB+WT "
                        "variant=hybrid_mp",
                    report.options(), [&] {
                      points = dse::run_sweep(spec);
                      double total = 0.0;
                      for (const auto& p : points) {
                        if (!p.implied) total += p.cycles_per_iteration;
                      }
                      return static_cast<std::uint64_t>(total);
                    });
  const auto shown = table(points);
  std::printf("# Fig. %d — Jacobi execution time per iteration, %s array\n",
              fig, grid.c_str());
  std::fputs(dse::exec_time_table(shown).c_str(), stdout);
  std::fputs(dse::point_counts(points).c_str(), stdout);
  std::printf("\n# Fig. %d — optimal speedup vs chip area, %s array\n",
              fig + 1, grid.c_str());
  std::fputs(dse::frontier_text(points).c_str(), stdout);

  // The paper's cross-size observation ("in the 30x30 case cache must be
  // at least 4kB large, a value 4x less than the larger 60x60 case"), at
  // 6 cores: the smallest WB L1 within 25% of the best 6-core WB time.
  const auto six_wb = [](const dse::SweepPoint& p) {
    return p.cores == 6 && p.policy == mem::WritePolicy::kWriteBack;
  };
  double best = std::numeric_limits<double>::infinity();
  for (const auto& p : points) {
    if (six_wb(p)) best = std::min(best, p.cycles_per_iteration);
  }
  std::uint32_t knee_kb = 0;
  for (const auto& p : points) {  // cores-major, then ascending L1 size
    if (six_wb(p) && p.cycles_per_iteration <= best * 1.25) {
      knee_kb = p.cache_kb;
      break;
    }
  }
  std::printf("# knee check (6 cores), %s: %uk$ is the smallest WB L1 "
              "within 25%% of the best time (%.0f cycles)\n",
              grid.c_str(), knee_kb, best);

  const auto cycles_of = [&points](const char* label) {
    for (const auto& p : points) {
      if (p.label == label) return p.cycles_per_iteration;
    }
    return -1.0;
  };
  const dse::Frontier f = dse::speedup_frontier(points);
  m.metric("design_points", static_cast<double>(points.size()));
  m.metric("simulated_points",
           static_cast<double>(points.size() - dse::count_implied(points)));
  // The paper's reference points, tracked in the perf trajectory.
  m.metric("cycles_8c_16kB_WB", cycles_of("8P_16k$_WB"));
  m.metric("cycles_15c_64kB_WB", cycles_of("15P_64k$_WB"));
  m.metric("frontier_points", static_cast<double>(f.points.size()));
  m.metric("knee_area_mm2", f.points[f.knee].area_mm2);
  m.metric("knee_speedup", f.points[f.knee].speedup);
  m.metric("knee_cache_kb_" + grid, knee_kb);
  report.add(std::move(m));

  if (dir != nullptr) {
    const auto base = [&](int k) {
      return std::string(dir) + "/fig" + std::to_string(k) + "_" +
             std::to_string(n);
    };
    const auto curves = dse::exec_time_curves(shown);
    dse::write_file(base(fig) + ".dat", dse::exec_time_dat(curves));
    dse::write_file(base(fig) + ".gp",
                    dse::exec_time_gp(curves, base(fig) + ".dat",
                                      "Execution time, " + grid + " array"));
    dse::write_file(base(fig) + ".csv", dse::to_csv(points));
    dse::write_file(base(fig + 1) + ".dat", dse::speedup_dat(f.points));
    dse::write_file(base(fig + 1) + ".gp",
                    dse::speedup_gp(base(fig + 1) + ".dat",
                                    "Optimal speedup vs chip area, " + grid));
    std::printf("# artifacts written to %s.{dat,gp,csv} and %s.{dat,gp}\n",
                base(fig).c_str(), base(fig + 1).c_str());
  }
  return report.finish();
}

}  // namespace medea::bench

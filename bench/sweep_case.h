#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dse/sweep.h"
#include "harness.h"

/// \file sweep_case.h
/// Shared glue for the figure harnesses (fig6-fig9): run a DSE sweep as
/// one bench case.  The returned cycle count is the sum of per-iteration
/// cycles over the simulated design points — a deterministic
/// simulated-work proxy that makes sim_speed comparable across sweeps.
/// Implied points (SweepPoint::implied) cost no simulation, so they are
/// left out of it and counted apart: `design_points` counts every point,
/// `simulated_points` the ones that ran.

namespace medea::bench {

/// "N design points: S simulated, I implied" for the harnesses' output.
inline void print_point_counts(const std::vector<dse::SweepPoint>& pts) {
  const std::size_t implied = dse::count_implied(pts);
  std::printf("# %zu design points: %zu simulated, %zu implied\n",
              pts.size(), pts.size() - implied, implied);
}

inline Measurement sweep_case(std::string name, std::string config,
                              const RunOptions& opt,
                              const dse::SweepSpec& spec,
                              std::vector<dse::SweepPoint>& points) {
  auto m = run_case(std::move(name), std::move(config), opt, [&] {
    points = dse::run_sweep(spec);
    double total = 0.0;
    for (const auto& p : points) {
      if (!p.implied) total += p.cycles_per_iteration;
    }
    return static_cast<std::uint64_t>(total);
  });
  m.metric("design_points", static_cast<double>(points.size()));
  m.metric("simulated_points",
           static_cast<double>(points.size() - dse::count_implied(points)));
  return m;
}

}  // namespace medea::bench

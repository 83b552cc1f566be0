/// design_explorer — the paper's methodology in miniature.
///
/// Sweeps a user-sized design space (cores x cache x policy), then runs
/// the paper's §III cost analysis: area model, Pareto pruning and the
/// Kill rule, printing the optimal-speedup-vs-area curve with the same
/// "NP_Mk$" labels the paper's Figs. 7/9 use.
///
/// Usage: ./examples/design_explorer [grid_n] [max_cores]
///
///   grid_n      Jacobi grid size, >= 4 (default 30)
///   max_cores   sweep 2..max_cores compute cores, 2..15 (default 8)
///
/// A malformed argument exits 1 with an error naming it.

#include <cstddef>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "cli_flags.h"
#include "dse/pareto.h"
#include "dse/sweep.h"

using namespace medea;

namespace {

/// argv[i] as an int in [lo, hi], or `fallback` when it was not given.
int positional(int argc, char** argv, int i, const char* name, int fallback,
               int lo, int hi) {
  if (argc <= i) return fallback;
  try {
    return cli::parse_num<int>(argv[i], lo, hi);
  } catch (const std::invalid_argument& e) {
    std::string msg = name;
    msg += ": ";
    msg += e.what();
    throw std::invalid_argument(msg);
  }
}

int explore(int argc, char** argv) {
  const int n = positional(argc, argv, 1, "grid_n", 30, 4,
                           std::numeric_limits<int>::max());
  const int max_cores = positional(argc, argv, 2, "max_cores", 8, 2, 15);

  dse::SweepSpec spec;
  spec.n = n;
  spec.cores.clear();
  for (int c = 2; c <= max_cores; ++c) spec.cores.push_back(c);
  spec.cache_kb = {2, 4, 8, 16, 32};
  spec.progress = true;  // live points/sec + ETA line on stderr

  std::printf("exploring %zu design points (%dx%d Jacobi)...\n",
              spec.cores.size() * spec.cache_kb.size() * spec.policies.size(),
              n, n);
  const auto points = dse::run_sweep(spec);
  const std::size_t implied = dse::count_implied(points);
  std::printf("%zu simulated, %zu implied by an eviction-free smaller L1\n",
              points.size() - implied, implied);

  std::printf("\nall points:\n%-14s %10s %12s\n", "config", "area mm2",
              "cycles/iter");
  for (const auto& p : points) {
    std::printf("%-14s %10.2f %12.0f\n", p.label.c_str(), p.area_mm2,
                p.cycles_per_iteration);
  }

  const auto frontier = dse::pareto_frontier(dse::to_design_points(points));
  const double baseline = frontier.front().exec_cycles;
  const auto curve = dse::speedup_curve(frontier, baseline);
  const std::size_t knee = dse::kill_rule_knee(frontier);

  std::printf("\nPareto frontier (speedup vs the smallest-area point):\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::printf("  %6.2f mm2  %6.2fx  %-14s%s\n", curve[i].area_mm2,
                curve[i].speedup, curve[i].label.c_str(),
                i == knee ? "  <- Kill rule stops here" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return explore(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// design_explorer — the paper's methodology in miniature.
///
/// Sweeps a user-sized design space (cores x cache x policy), then runs
/// the paper's §III cost analysis: area model, Pareto pruning and the
/// Kill rule.  Prints every point as CSV and the speedup-vs-area frontier
/// and knee as the paper-figure goldens do, labelled "NP_Mk$".
///
/// Usage: ./examples/design_explorer [grid_n] [max_cores]
///
///   grid_n      Jacobi grid size, >= 4 (default 30)
///   max_cores   sweep 2..max_cores compute cores, 2..15 (default 8)
///
/// A malformed argument exits 1 with an error naming it.

#include <cstdio>
#include <exception>
#include <limits>

#include "cli_flags.h"
#include "dse/report.h"
#include "dse/sweep.h"

using namespace medea;

namespace {

int explore(int argc, char** argv) {
  const int n = cli::positional(argc, argv, 1, "grid_n", 30, 4,
                                std::numeric_limits<int>::max());
  const int max_cores = cli::positional(argc, argv, 2, "max_cores", 8, 2, 15);

  dse::SweepSpec spec;
  spec.n = n;
  spec.cores.clear();
  for (int c = 2; c <= max_cores; ++c) spec.cores.push_back(c);
  spec.cache_kb = {2, 4, 8, 16, 32};
  spec.progress = true;  // live points/sec + ETA line on stderr

  std::printf("# exploring %zu design points (%dx%d Jacobi)\n",
              spec.cores.size() * spec.cache_kb.size() * spec.policies.size(),
              n, n);
  const auto points = dse::run_sweep(spec);
  std::fputs(dse::point_counts(points).c_str(), stdout);
  std::fputs(dse::to_csv(points).c_str(), stdout);
  std::printf("\n# Pareto frontier in ascending area, then the Kill-rule "
              "knee (speedup vs the smallest-area point)\n");
  std::fputs(dse::frontier_text(points).c_str(), stdout);
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

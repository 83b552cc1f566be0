/// Fig. 8 harness: execution time for the 30x30 array, write-back only,
/// cache 2..32 kB, cores 2..15.
///
/// Expected shape (paper): scalability is hampered unless caches are
/// properly sized; the 30x30 case needs at least 4 kB — 4x less than the
/// 60x60 case because the array is 4x smaller.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "dse/sweep.h"
#include "harness.h"
#include "sweep_case.h"

using namespace medea;

int main(int argc, char** argv) {
  std::printf("# Fig. 8 — Jacobi execution time per iteration, 30x30 array, "
              "write-back only\n");

  dse::SweepSpec spec;
  spec.n = 30;
  spec.cache_kb = {2, 4, 8, 16, 32};
  spec.policies = {mem::WritePolicy::kWriteBack};

  bench::Report report("fig8_exec_time_30x30", argc, argv,
                       bench::RunOptions{.warmup = 0, .repetitions = 1});

  std::vector<dse::SweepPoint> points;
  auto m = bench::sweep_case(
      "sweep/30x30", "n=30 cores=2..15 l1_kb=2..32 policy=WB variant=hybrid_mp",
      report.options(), spec, points);

  auto find = [&](int cores, std::uint32_t kb) {
    for (const auto& p : points) {
      if (p.cores == cores && p.cache_kb == kb) return p.cycles_per_iteration;
    }
    return -1.0;
  };

  std::printf("%-6s", "cores");
  for (auto kb : spec.cache_kb) {
    std::printf("%10s", (std::to_string(kb) + "k$WB").c_str());
  }
  std::printf("\n");
  for (int cores = 2; cores <= 15; ++cores) {
    std::printf("%-6d", cores);
    for (auto kb : spec.cache_kb) std::printf("%10.0f", find(cores, kb));
    std::printf("\n");
  }
  bench::print_point_counts(points);

  // The paper's cross-size observation: "In the 30x30 case cache must be
  // at least 4kB large, a value 4x less than the larger 60x60 case
  // because the array is 4x smaller".  Checked at 6 cores, where both
  // sizes have a clear knee.
  std::printf("\n# knee check (6 cores): smallest WB cache within 25%% of "
              "the best time\n");
  for (int n : {30, 60}) {
    dse::SweepSpec s2;
    s2.n = n;
    s2.cores = {6};
    s2.cache_kb = {2, 4, 8, 16, 32, 64};
    s2.policies = {mem::WritePolicy::kWriteBack};
    const auto pts = dse::run_sweep(s2);
    double best = 1e300;
    for (const auto& p : pts) best = std::min(best, p.cycles_per_iteration);
    for (const auto& p : pts) {
      if (p.cycles_per_iteration <= best * 1.25) {
        std::printf("  %dx%d: %uk$ (best=%.0f cycles)\n", n, n, p.cache_kb,
                    best);
        m.metric("knee_cache_kb_" + std::to_string(n) + "x" +
                     std::to_string(n),
                 p.cache_kb);
        break;
      }
    }
  }
  report.add(std::move(m));
  return report.finish();
}

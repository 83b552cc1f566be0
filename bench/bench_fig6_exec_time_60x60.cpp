/// Fig. 6 harness: execution time (clock cycles) of one Jacobi iteration
/// after cache warm-up, 60x60 doubles, versus number of cores (2..15),
/// L1 cache size (2..64 kB) and write policy (WB / WT).
///
/// Prints the paper's series as a table (one row per core count, one
/// column per cache/policy curve).  Pass a grid size as argv[1] to
/// regenerate the same sweep for the 16x16 or 30x30 cases discussed in
/// §III ("./bench_fig6_exec_time_60x60 16").
///
/// Expected shape (paper): Write-Through is poor at every size due to
/// store traffic; Write-Back is miss-dominated (flat, no speedup) until
/// the per-core block fits in L1, then drops sharply and scales ~1/P.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dse/report.h"
#include "dse/sweep.h"
#include "harness.h"
#include "sweep_case.h"

using namespace medea;

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 60;
  if (n < 4) n = 60;  // ignore non-numeric argv (e.g. harness flags)
  std::printf("# Fig. 6 — Jacobi execution time per iteration, %dx%d array\n",
              n, n);
  std::printf("# (cycles; hybrid MP variant; 4x4 folded torus, 1 MPMMU)\n");

  const std::vector<std::uint32_t> cache_kb{2, 4, 8, 16, 32, 64};

  dse::SweepSpec spec;
  spec.n = n;
  spec.cache_kb = cache_kb;
  spec.warmup_iterations = 1;
  spec.timed_iterations = 1;

  // The sweep is deterministic in simulated cycles: one timed repetition.
  bench::Report report("fig6_exec_time_" + std::to_string(n) + "x" +
                           std::to_string(n),
                       argc, argv,
                       bench::RunOptions{.warmup = 0, .repetitions = 1});

  std::vector<dse::SweepPoint> points;
  auto m = bench::sweep_case(
      "sweep/" + std::to_string(n) + "x" + std::to_string(n),
      "n=" + std::to_string(n) + " cores=2..15 l1_kb=2..64 policy=WB+WT "
                                 "variant=hybrid_mp",
      report.options(), spec, points);

  // Index results: [policy][cache][cores]
  auto find = [&](int cores, std::uint32_t kb, mem::WritePolicy pol) {
    for (const auto& p : points) {
      if (p.cores == cores && p.cache_kb == kb && p.policy == pol) {
        return p.cycles_per_iteration;
      }
    }
    return -1.0;
  };

  std::printf("%-6s", "cores");
  for (auto kb : cache_kb) {
    std::printf("%10s", (std::to_string(kb) + "k$WB").c_str());
  }
  for (auto kb : cache_kb) {
    std::printf("%10s", (std::to_string(kb) + "k$WT").c_str());
  }
  std::printf("\n");
  for (int cores = 2; cores <= 15; ++cores) {
    std::printf("%-6d", cores);
    for (auto kb : cache_kb) {
      std::printf("%10.0f", find(cores, kb, mem::WritePolicy::kWriteBack));
    }
    for (auto kb : cache_kb) {
      std::printf("%10.0f", find(cores, kb, mem::WritePolicy::kWriteThrough));
    }
    std::printf("\n");
  }
  bench::print_point_counts(points);

  // Track the paper's reference points in the perf trajectory.
  m.metric("cycles_8c_16kB_WB", find(8, 16, mem::WritePolicy::kWriteBack));
  m.metric("cycles_15c_64kB_WB", find(15, 64, mem::WritePolicy::kWriteBack));
  report.add(std::move(m));

  // With MEDEA_REPORT_DIR set, also emit gnuplot artifacts reproducing
  // the figure ("gnuplot fig6.gp") plus a CSV of the raw sweep.
  // Single-threaded bench startup; no concurrent env access.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dir = std::getenv("MEDEA_REPORT_DIR")) {
    const std::string base = std::string(dir) + "/fig6_" + std::to_string(n);
    const auto curves = dse::exec_time_curves(points);
    dse::write_file(base + ".dat", dse::exec_time_dat(curves));
    dse::write_file(base + ".gp",
                    dse::exec_time_gp(curves, base + ".dat",
                                      "Execution time, " + std::to_string(n) +
                                          "x" + std::to_string(n) + " array"));
    dse::write_file(base + ".csv", dse::to_csv(points));
    std::printf("# artifacts written to %s.{dat,gp,csv}\n", base.c_str());
  }
  return report.finish();
}

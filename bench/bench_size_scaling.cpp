/// §III data-size study: the paper runs 16x16, 30x30 and 60x60 arrays to
/// cover "small, moderate and large amount of data per core": the
/// smallest case is dominated by communication costs, the largest by
/// computation (for a properly designed system).  This harness prints
/// execution time and parallel efficiency for all three sizes.

#include <cstdint>
#include <cstdio>
#include <string>

#include "apps/jacobi.h"
#include "core/medea.h"
#include "dse/sweep.h"
#include "harness.h"

using namespace medea;

int main(int argc, char** argv) {
  bench::Report report("size_scaling", argc, argv,
                       bench::RunOptions{.warmup = 0, .repetitions = 1});
  std::printf("# Data-size scaling, hybrid MP, 16 kB WB caches\n");
  std::printf("# (speedup vs 1 core at the same size; >P-fold speedup is\n");
  std::printf("#  real cache aggregation: P cores bring P x 16 kB of L1,\n");
  std::printf("#  the same effect behind the paper's superlinear Fig. 7)\n");
  std::printf("%-6s %12s %8s %12s %8s %12s %8s\n", "cores", "16x16", "spdup",
              "30x30", "spdup", "60x60", "spdup");

  double base[3] = {0, 0, 0};
  for (int cores : {1, 2, 4, 6, 8, 10, 12, 15}) {
    double t[3];
    auto m = bench::run_case(
        "jacobi/" + std::to_string(cores) + "c",
        "cores=" + std::to_string(cores) +
            " l1_kb=16 policy=WB variant=hybrid_mp n=16,30,60",
        report.options(), [&] {
          std::uint64_t total = 0;
          int i = 0;
          for (int n : {16, 30, 60}) {
            core::MedeaSystem sys(dse::make_design_config(
                cores, 16, mem::WritePolicy::kWriteBack));
            apps::JacobiParams p;
            p.n = n;
            p.variant = apps::JacobiVariant::kHybridMp;
            const auto res = apps::run_jacobi(sys, p);
            t[i++] = res.cycles_per_iteration;
            total += res.total_cycles;
          }
          return total;
        });
    if (cores == 1) {
      base[0] = t[0];
      base[1] = t[1];
      base[2] = t[2];
    }
    std::printf("%-6d %12.0f %7.1fx %12.0f %7.1fx %12.0f %7.1fx\n", cores,
                t[0], base[0] / t[0], t[1], base[1] / t[1], t[2],
                base[2] / t[2]);
    m.metric("cycles_16x16", t[0]);
    m.metric("cycles_30x30", t[1]);
    m.metric("cycles_60x60", t[2]);
    m.metric("speedup_16x16", base[0] / t[0]);
    m.metric("speedup_30x30", base[1] / t[1]);
    m.metric("speedup_60x60", base[2] / t[2]);
    report.add(std::move(m));
  }
  std::printf("\n# expectation: relative to ideal P-fold scaling, the\n"
              "# 16x16 case falls off first (communication-dominated), the\n"
              "# 60x60 case last (computation-dominated), per §III.\n");
  return report.finish();
}

/// §III comparison harness: the paper's programming-model ablation on the
/// 60x60 array.
///
///  * hybrid full message passing (Medea)          — data + sync over MP
///  * hybrid sync-only                              — data via shared
///    memory, barriers over MP
///  * pure shared memory                            — lock-based barrier,
///    everything through the MPMMU
///
/// Paper's numbers to compare against:
///  * Medea vs pure SM: ~2x below the lower knee, growing from 2x at 6
///    cores to >5x at 10 cores (16 kB caches).
///  * sync-only within 2-20% of full MP where miss rate matters; 2x-2.8x
///    (vs 2x-5x) where the miss rate is negligible.
///  * => at least 100*2.8/5 = 56% of the peak 5x gain comes from
///    synchronization alone.
///
/// `run_workload jacobi|jacobi-sync|jacobi-sm --size=N` runs the three
/// variants at any other array size.

#include <cstdint>
#include <cstdio>
#include <string>

#include "apps/jacobi.h"
#include "core/medea.h"
#include "dse/sweep.h"
#include "harness.h"

using namespace medea;

namespace {

double run_variant(int n, int cores, std::uint32_t cache_kb,
                   apps::JacobiVariant v, std::uint64_t* total_cycles) {
  core::MedeaSystem sys(
      dse::make_design_config(cores, cache_kb, mem::WritePolicy::kWriteBack));
  apps::JacobiParams p;
  p.n = n;
  p.variant = v;
  p.warmup_iterations = 1;
  p.timed_iterations = 1;
  const auto res = apps::run_jacobi(sys, p);
  *total_cycles += res.total_cycles;
  return res.cycles_per_iteration;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("hybrid_vs_sm", argc, argv,
                       bench::RunOptions{.warmup = 0, .repetitions = 1});
  const int n = 60;
  std::printf("# Hybrid vs shared memory, %dx%d array, write-back\n", n, n);
  std::printf("%-5s %-6s %10s %12s %10s %9s %9s %12s\n", "cores", "L1",
              "hybridMP", "sync-only", "pureSM", "mp/sm", "sync/sm",
              "sync_share");

  for (std::uint32_t kb : {4u, 16u}) {
    for (int cores : {2, 4, 6, 8, 10, 12, 15}) {
      double mp = 0.0, so = 0.0, sm = 0.0;
      auto m = bench::run_case(
          std::to_string(cores) + "c_" + std::to_string(kb) + "kB",
          "cores=" + std::to_string(cores) + " l1_kb=" + std::to_string(kb) +
              " policy=WB n=" + std::to_string(n) +
              " variants=hybrid_mp,sync_only,pure_sm",
          report.options(), [&] {
            std::uint64_t total = 0;
            mp = run_variant(n, cores, kb, apps::JacobiVariant::kHybridMp,
                             &total);
            so = run_variant(n, cores, kb,
                             apps::JacobiVariant::kHybridSyncOnly, &total);
            sm = run_variant(n, cores, kb,
                             apps::JacobiVariant::kPureSharedMemory, &total);
            return total;
          });
      // Fraction of the full-MP gain attributable to synchronization
      // alone (paper: >= 56% at the 5x peak, up to 100% in the 2x cases).
      // Only meaningful where the hybrid actually gains.
      const double gain_mp = sm / mp - 1.0;
      const double gain_so = sm / so - 1.0;
      char share[16] = "-";
      if (gain_mp > 0.05) {
        std::snprintf(share, sizeof share, "%.0f%%",
                      100.0 * gain_so / gain_mp);
      }
      std::printf("%-5d %-6s %10.0f %12.0f %10.0f %8.2fx %8.2fx %11s\n",
                  cores, (std::to_string(kb) + "kB").c_str(), mp, so, sm,
                  sm / mp, sm / so, share);
      m.metric("cycles_hybrid_mp", mp);
      m.metric("cycles_sync_only", so);
      m.metric("cycles_pure_sm", sm);
      m.metric("speedup_mp_vs_sm", sm / mp);
      m.metric("speedup_sync_vs_sm", sm / so);
      report.add(std::move(m));
    }
  }
  return report.finish();
}

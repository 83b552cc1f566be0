/// Figs. 8 and 9 harness, 30x30 doubles: one sweep of the paper's whole
/// 168-point space (Fig. 9 needs all of it), printed as the text
/// tests/golden/fig8_30x30.txt holds.
///
/// Fig. 8: execution time of one Jacobi iteration, write-back only, L1
/// 2..32 kB, cores 2..15.  Expected shape (paper): scalability is
/// hampered unless caches are properly sized; the 30x30 case needs at
/// least 4 kB — 4x less than the 60x60 case because the array is 4x
/// smaller.
///
/// Fig. 9: optimal speedup versus chip area over the whole space.
/// Expected shape (paper): the lower knee occurs at a 4x smaller cache
/// than the 60x60 case (the array is 4x smaller) and at a larger core
/// count; the Kill-rule knee falls at or beyond 15 cores.
///
/// With MEDEA_REPORT_DIR set, also writes fig8_30.{dat,gp,csv} and
/// fig9_30.{dat,gp} there; see sweep_case.h.

#include "dse/report.h"
#include "sweep_case.h"

using namespace medea;

int main(int argc, char** argv) {
  return bench::figure_harness(argc, argv, 30, 8, [](const auto& points) {
    return dse::subset(points, mem::WritePolicy::kWriteBack, 32);
  });
}

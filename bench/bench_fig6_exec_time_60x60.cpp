/// Figs. 6 and 7 harness, 60x60 doubles: one sweep of the paper's 168
/// design points (cores 2..15, L1 2..64 kB, write-back and
/// write-through), printed as the text tests/golden/fig6_60x60.txt holds.
///
/// Fig. 6: execution time (clock cycles) of one Jacobi iteration after
/// cache warm-up, one row per core count, one column per L1 size and
/// write policy.  Expected shape (paper): Write-Through is poor at every
/// size due to store traffic; Write-Back is miss-dominated (flat, no
/// speedup) until the per-core block fits in L1, then drops sharply and
/// scales ~1/P.
///
/// Fig. 7: optimal speedup versus chip area — the 65 nm area model, the
/// Pareto frontier of the same points and the Kill-rule knee, labelled
/// in the paper's "NP_Mk$" style.  Expected shape (paper): a lower knee
/// where the per-core data block first fits in L1 (speedup jumps), and
/// an upper knee around 8-11 cores with 16 kB caches beyond which extra
/// area stops paying (Kill rule).
///
/// With MEDEA_REPORT_DIR set, also writes fig6_60.{dat,gp,csv} and
/// fig7_60.{dat,gp} there ("gnuplot fig6_60.gp"); see sweep_case.h.

#include "sweep_case.h"

using namespace medea;

int main(int argc, char** argv) {
  return bench::figure_harness(argc, argv, 60, 6,
                               [](const auto& points) { return points; });
}

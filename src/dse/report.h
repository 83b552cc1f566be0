#pragma once

#include <string>
#include <vector>

#include "dse/pareto.h"
#include "dse/sweep.h"

/// \file report.h
/// Figure-artifact generation: turn sweep results into the gnuplot data
/// and script files that regenerate the paper's Figs. 6-9 as plots, plus
/// CSV for any other toolchain.
///
/// The paper's figures are classic gnuplot renderings (execution-time
/// curves per cache configuration; labelled speedup-vs-area scatter).
/// write_fig6_gnuplot / write_speedup_gnuplot emit a .dat + .gp pair so
/// `gnuplot figN.gp` reproduces the figure from this simulator's output.

namespace medea::dse {

/// One curve of an execution-time figure (Fig. 6/8 style).
struct ExecTimeCurve {
  std::string title;             ///< e.g. "16kB $ WB"
  std::vector<int> cores;        ///< x values
  std::vector<double> cycles;    ///< y values
};

/// Group sweep points into Fig. 6-style curves (one per cache
/// size+policy), x = core count.  Points are matched exactly; missing
/// combinations are skipped.
std::vector<ExecTimeCurve> exec_time_curves(const std::vector<SweepPoint>& pts);

/// CSV with one row per sweep point (header included); the last column,
/// `implied`, is 1 for a point filled from a smaller L1 (SweepPoint::implied).
std::string to_csv(const std::vector<SweepPoint>& pts);

/// Gnuplot .dat content for exec-time curves: first column cores, one
/// column per curve, NaN for gaps.
std::string exec_time_dat(const std::vector<ExecTimeCurve>& curves);

/// Gnuplot script plotting `dat_filename` in the paper's Fig. 6 style.
std::string exec_time_gp(const std::vector<ExecTimeCurve>& curves,
                         const std::string& dat_filename,
                         const std::string& title);

/// Gnuplot .dat for a speedup-vs-area frontier (area, speedup, label).
std::string speedup_dat(const std::vector<SpeedupPoint>& curve);

/// Gnuplot script in the paper's Fig. 7/9 style (labelled points).
std::string speedup_gp(const std::string& dat_filename,
                       const std::string& title);

/// Write a string to a file (throws std::runtime_error on failure).
void write_file(const std::string& path, const std::string& content);

}  // namespace medea::dse

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dse/pareto.h"
#include "dse/sweep.h"

/// \file report.h
/// Everything printed or written from a sweep: the text of the paper's
/// Figs. 6-9 exactly as tests/golden/ holds it (`#` starts a comment the
/// golden comparison ignores), the gnuplot .dat + .gp pairs that redraw
/// them (`gnuplot figN.gp`), and CSV for any other toolchain.

namespace medea::dse {

/// One curve of an execution-time figure (Fig. 6/8 style).
struct ExecTimeCurve {
  std::uint32_t cache_kb = 0;
  mem::WritePolicy policy = mem::WritePolicy::kWriteBack;
  std::string title;             ///< e.g. "16kB $ WB"
  std::vector<int> cores;        ///< x values, ascending
  std::vector<double> cycles;    ///< y values
};

/// Group sweep points into Fig. 6-style curves, one per (policy, L1
/// size) present: write-back first, sizes ascending within a policy,
/// x = core count.
std::vector<ExecTimeCurve> exec_time_curves(const std::vector<SweepPoint>& pts);

/// The points of `pts` under `policy` with an L1 of at most `max_kb`, in
/// their order (Fig. 8 is the write-back, 2-32 kB part of its space).
std::vector<SweepPoint> subset(const std::vector<SweepPoint>& pts,
                               mem::WritePolicy policy, std::uint32_t max_kb);

/// The Fig. 6/8 table: a `cores` header naming one `%10s` column
/// `<kb>k$<WB|WT>` per curve of exec_time_curves, then one `%-6d` row per
/// core count, ascending, with cycles as `%10.0f` ("nan" for a gap).
std::string exec_time_table(const std::vector<SweepPoint>& pts);

/// The speedup-vs-area frontier of a sweep (Figs. 7/9): its Pareto
/// points in ascending area, each with its speedup over the
/// smallest-area point, and the Kill-rule knee among them.
struct Frontier {
  std::vector<SpeedupPoint> points;
  std::size_t knee = 0;  ///< index into `points`
};
Frontier speedup_frontier(const std::vector<SweepPoint>& pts);

/// The Fig. 7/9 text: one `frontier <label>` line per Pareto point in
/// ascending area, then one `knee <label>` line, each ending in a `#`
/// comment with the point's area in mm2 and its speedup.
std::string frontier_text(const std::vector<SweepPoint>& pts);

/// "# N design points: S simulated, I implied", a comment line.
std::string point_counts(const std::vector<SweepPoint>& pts);

/// CSV with one row per sweep point (header included); the last column,
/// `implied`, is 1 for a point filled from a smaller L1 (SweepPoint::implied).
std::string to_csv(const std::vector<SweepPoint>& pts);

/// Gnuplot .dat content for exec-time curves: first column cores, one
/// column per curve in exec_time_curves' order, NaN for gaps.
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

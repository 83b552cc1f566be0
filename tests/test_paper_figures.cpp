/// The paper's experiments at the paper's scale, pinned exactly.
///
///  * Fig. 6/7: all 168 design points at 60x60 (cores 2-15, L1 2-64 kB,
///    write-back and write-through), then the Pareto frontier and the
///    Kill-rule knee built from them.
///  * Fig. 8/9: the 70 write-back 2-32 kB points at 30x30, then the
///    frontier and knee of the whole 30x30 design space.
///
/// The goldens in tests/golden/ are the figure harnesses' output, and
/// each case renders the same text through dse/report.h.  Both sides
/// drop `#` comments, trailing blanks and blank lines, then compare line
/// by line: a change that moves any value changes the model, so the
/// first differing line fails the case with the golden line number, the
/// golden text and the rendered text.  Both cases carry the CTest label
/// `paper`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dse/report.h"
#include "dse/sweep.h"

namespace medea::dse {
namespace {

/// The data lines of `in` with their 1-based line numbers: `#` comments,
/// trailing blanks and blank lines dropped.
std::vector<std::pair<int, std::string>> data_lines(std::istream& in) {
  std::vector<std::pair<int, std::string>> out;
  int number = 0;
  for (std::string line; std::getline(in, line);) {
    ++number;
    line.erase(std::min(line.find('#'), line.size()));
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (!line.empty()) out.emplace_back(number, std::move(line));
  }
  return out;
}

void expect_matches_golden(const std::string& file,
                           const std::string& rendered) {
  const std::string path = std::string(MEDEA_GOLDEN_DIR) + "/" + file;
  std::ifstream golden_in(path);
  ASSERT_TRUE(golden_in) << "cannot open " << path;
  std::istringstream rendered_in(rendered);
  const auto golden = data_lines(golden_in);
  const auto got = data_lines(rendered_in);
  const int end_line = golden.empty() ? 1 : golden.back().first + 1;
  for (std::size_t i = 0; i < golden.size() || i < got.size(); ++i) {
    const std::string want = i < golden.size() ? golden[i].second : "(end)";
    const std::string have = i < got.size() ? got[i].second : "(end)";
    const int line = i < golden.size() ? golden[i].first : end_line;
    if (want != have) {
      FAIL() << file << ":" << line << ": first line that differs\n"
             << "  golden:   " << want << "\n  rendered: " << have;
    }
  }
}

/// Every compared cycle count is a whole number, so comparing `%10.0f`
/// text is as strict as comparing the doubles.
void expect_integral_cycles(const std::vector<SweepPoint>& pts) {
  for (const auto& p : pts) {
    EXPECT_EQ(p.cycles_per_iteration, std::floor(p.cycles_per_iteration))
        << p.label;
  }
}

TEST(PaperFigures, Fig6TableAndFig7Frontier60x60) {
  SweepSpec spec;  // the paper's space: n = 60, 14 x 6 x 2 points
  const auto pts = run_sweep(spec);
  ASSERT_EQ(pts.size(), 168u);
  expect_integral_cycles(pts);
  expect_matches_golden("fig6_60x60.txt",
                        exec_time_table(pts) + frontier_text(pts));
}

TEST(PaperFigures, Fig8TableAndFig9Frontier30x30) {
  SweepSpec spec;
  spec.n = 30;  // Fig. 9's frontier spans the whole 30x30 space
  const auto pts = run_sweep(spec);
  ASSERT_EQ(pts.size(), 168u);
  const auto fig8 = subset(pts, mem::WritePolicy::kWriteBack, 32);
  ASSERT_EQ(fig8.size(), 70u);
  expect_integral_cycles(pts);
  expect_matches_golden("fig8_30x30.txt",
                        exec_time_table(fig8) + frontier_text(pts));
}

}  // namespace
}  // namespace medea::dse

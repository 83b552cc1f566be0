/// The paper's experiments at the paper's scale, pinned exactly.
///
///  * Fig. 6/7: all 168 design points at 60x60 (cores 2-15, L1 2-64 kB,
///    write-back and write-through), then the Pareto frontier and the
///    Kill-rule knee built from them.
///  * Fig. 8/9: the 70 write-back 2-32 kB points at 30x30, then the
///    frontier and knee of the whole 30x30 design space.
///
/// The goldens in tests/golden/ are the figure harnesses' output.  A
/// change that moves any value changes the model, so each case names the
/// first design point (or frontier position) that differs.  Both cases
/// carry the CTest label `paper`.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/pareto.h"
#include "dse/sweep.h"

namespace medea::dse {
namespace {

struct GoldenPoint {
  int cores = 0;
  std::uint32_t cache_kb = 0;
  mem::WritePolicy policy = mem::WritePolicy::kWriteBack;
  double cycles = 0.0;
};

struct Golden {
  std::vector<GoldenPoint> table;     ///< row-major, as the file lists it
  std::vector<std::string> frontier;  ///< ascending area
  std::string knee;
};

/// Parses a golden file: a `cores` header naming each column ("16k$WB"),
/// one row of cycles per core count, then `frontier <label>` lines and
/// one `knee <label>` line.  `#` lines and blank lines are comments.
Golden load_golden(const std::string& file) {
  const std::string path = std::string(MEDEA_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Golden g;
  std::vector<std::pair<std::uint32_t, mem::WritePolicy>> columns;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string head;
    row >> head;
    if (head == "cores") {
      for (std::string col; row >> col;) {
        const auto k = col.find("k$");
        columns.emplace_back(
            static_cast<std::uint32_t>(std::stoul(col.substr(0, k))),
            col.substr(k + 2) == "WT" ? mem::WritePolicy::kWriteThrough
                                      : mem::WritePolicy::kWriteBack);
      }
    } else if (head == "frontier") {
      row >> g.frontier.emplace_back();
    } else if (head == "knee") {
      row >> g.knee;
    } else {
      const int cores = std::stoi(head);
      for (const auto& [kb, policy] : columns) {
        double cycles = 0.0;
        if (!(row >> cycles)) throw std::runtime_error("short row: " + line);
        g.table.push_back({cores, kb, policy, cycles});
      }
    }
  }
  return g;
}

/// The first golden point whose sweep value differs or is missing, as a
/// message naming it; empty when every golden point matches.
std::string first_table_mismatch(const Golden& g,
                                 const std::vector<SweepPoint>& pts) {
  for (const auto& want : g.table) {
    const std::string label =
        make_design_config(want.cores, want.cache_kb, want.policy).label();
    const SweepPoint* got = nullptr;
    for (const auto& p : pts) {
      if (p.label == label) got = &p;
    }
    if (got == nullptr) return label + ": not in the sweep";
    if (got->cycles_per_iteration != want.cycles) {
      std::ostringstream os;
      os << label << ": golden " << want.cycles << " cycles, sweep "
         << got->cycles_per_iteration;
      return os.str();
    }
  }
  return "";
}

/// The Pareto frontier and Kill-rule knee against the golden labels,
/// naming the first position that differs.
void expect_frontier(const Golden& g, const std::vector<SweepPoint>& pts) {
  const auto frontier = pareto_frontier(to_design_points(pts));
  for (std::size_t i = 0; i < g.frontier.size() || i < frontier.size(); ++i) {
    const std::string want = i < g.frontier.size() ? g.frontier[i] : "(end)";
    const std::string got = i < frontier.size() ? frontier[i].label : "(end)";
    ASSERT_EQ(want, got) << "first differing frontier position " << i;
  }
  EXPECT_EQ(g.knee, frontier[kill_rule_knee(frontier)].label);
}

TEST(PaperFigures, Fig6TableAndFig7Frontier60x60) {
  const Golden g = load_golden("fig6_60x60.txt");
  ASSERT_EQ(g.table.size(), 168u);
  SweepSpec spec;  // the paper's space: n = 60, 14 x 6 x 2 points
  const auto pts = run_sweep(spec);
  ASSERT_EQ(pts.size(), 168u);
  const std::string mismatch = first_table_mismatch(g, pts);
  EXPECT_TRUE(mismatch.empty()) << "first differing point: " << mismatch;
  expect_frontier(g, pts);
}

TEST(PaperFigures, Fig8TableAndFig9Frontier30x30) {
  const Golden g = load_golden("fig8_30x30.txt");
  ASSERT_EQ(g.table.size(), 70u);
  SweepSpec spec;
  spec.n = 30;  // Fig. 9's frontier spans the whole 30x30 space
  const auto pts = run_sweep(spec);
  ASSERT_EQ(pts.size(), 168u);
  const std::string mismatch = first_table_mismatch(g, pts);
  EXPECT_TRUE(mismatch.empty()) << "first differing point: " << mismatch;
  expect_frontier(g, pts);
}

}  // namespace
}  // namespace medea::dse

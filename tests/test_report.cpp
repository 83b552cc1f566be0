/// Tests for the figure-artifact generation (gnuplot/CSV exporters).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "dse/report.h"

namespace medea::dse {
namespace {

std::vector<SweepPoint> sample_points() {
  std::vector<SweepPoint> pts;
  for (int cores : {2, 4}) {
    for (std::uint32_t kb : {2u, 16u}) {
      SweepPoint p;
      p.cores = cores;
      p.cache_kb = kb;
      p.policy = mem::WritePolicy::kWriteBack;
      p.cycles_per_iteration = 1000.0 * cores + kb;
      p.area_mm2 = cores * 1.0 + kb * 0.01;
      p.label = std::to_string(cores) + "P_" + std::to_string(kb) + "k$_WB";
      pts.push_back(p);
    }
  }
  return pts;
}

TEST(Report, CurvesGroupByCacheAndPolicy) {
  const auto curves = exec_time_curves(sample_points());
  ASSERT_EQ(curves.size(), 2u);  // 2kB WB and 16kB WB
  for (const auto& c : curves) {
    EXPECT_EQ(c.cores, (std::vector<int>{2, 4}));
    EXPECT_EQ(c.cycles.size(), 2u);
  }
  EXPECT_EQ(curves[0].title, "2kB $ WB");
  EXPECT_EQ(curves[1].title, "16kB $ WB");
}

TEST(Report, CurvesSortedByCores) {
  auto pts = sample_points();
  std::swap(pts[0], pts[2]);  // scramble input order
  const auto curves = exec_time_curves(pts);
  for (const auto& c : curves) {
    EXPECT_TRUE(std::is_sorted(c.cores.begin(), c.cores.end()));
  }
}

TEST(Report, CsvHasHeaderAndOneRowPerPoint) {
  auto pts = sample_points();
  pts[3].implied = true;  // 4P_16k$_WB
  const auto csv = to_csv(pts);
  int lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 5);  // header + 4 points
  EXPECT_NE(csv.find("cores,cache_kb,policy"), std::string::npos);
  EXPECT_NE(csv.find(",label,implied\n"), std::string::npos);
  EXPECT_NE(csv.find("2P_16k$_WB,0\n"), std::string::npos);
  EXPECT_NE(csv.find("4P_16k$_WB,1\n"), std::string::npos);
}

TEST(Report, DatAlignsColumnsAcrossCurves) {
  const auto curves = exec_time_curves(sample_points());
  const auto dat = exec_time_dat(curves);
  // Header names both curves; data rows start with the core count.
  EXPECT_NE(dat.find("\"2kB $ WB\""), std::string::npos);
  EXPECT_NE(dat.find("\"16kB $ WB\""), std::string::npos);
  EXPECT_NE(dat.find("\n2 "), std::string::npos);
  EXPECT_NE(dat.find("\n4 "), std::string::npos);
}

TEST(Report, DatUsesNanForGaps) {
  auto pts = sample_points();
  pts.pop_back();  // 4-core 16kB point missing
  const auto dat = exec_time_dat(exec_time_curves(pts));
  EXPECT_NE(dat.find("NaN"), std::string::npos);
}

TEST(Report, GnuplotScriptsReferenceDataFile) {
  const auto curves = exec_time_curves(sample_points());
  const auto gp = exec_time_gp(curves, "fig6.dat", "Fig 6");
  EXPECT_NE(gp.find("plot "), std::string::npos);
  EXPECT_NE(gp.find("fig6.dat"), std::string::npos);
  EXPECT_NE(gp.find("using 1:2"), std::string::npos);
  EXPECT_NE(gp.find("using 1:3"), std::string::npos);
}

TEST(Report, SpeedupArtifactsCarryLabels) {
  std::vector<SpeedupPoint> curve{{2.5, 1.0, "2P_2k$_WB"},
                                  {10.0, 8.0, "11P_16k$_WB"}};
  const auto dat = speedup_dat(curve);
  EXPECT_NE(dat.find("\"11P_16k$_WB\""), std::string::npos);
  const auto gp = speedup_gp("fig7.dat", "Fig 7");
  EXPECT_NE(gp.find("with labels"), std::string::npos);
}

TEST(Report, WriteFileRoundTrips) {
  const std::string path = "test_report_artifact.tmp";
  write_file(path, "hello\n");
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  std::remove(path.c_str());
}

TEST(Report, WriteFileThrowsOnBadPath) {
  EXPECT_THROW(write_file("/nonexistent-dir/x/y.dat", "x"),
               std::runtime_error);
}

}  // namespace
}  // namespace medea::dse

/// Unit tests for the shared benchmark harness (bench/harness.h):
/// summary statistics, measurement mechanics, and the BENCH_*.json shape.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace medea::bench {
namespace {

// ---------------------------------------------------------------------
// median
// ---------------------------------------------------------------------

TEST(Median, EmptyIsZero) { EXPECT_EQ(median({}), 0.0); }

TEST(Median, SingleElement) { EXPECT_EQ(median({7.5}), 7.5); }

TEST(Median, OddCountPicksMiddle) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({9.0, 1.0, 5.0, 3.0, 7.0}), 5.0);
}

TEST(Median, EvenCountAveragesMiddlePair) {
  EXPECT_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_EQ(median({4.0, 1.0}), 2.5);
}

TEST(Median, UnsortedInputAndDuplicates) {
  EXPECT_EQ(median({5.0, 5.0, 1.0, 5.0}), 5.0);
  EXPECT_EQ(median({-3.0, 0.0, 3.0, -1.0, 1.0}), 0.0);
}

TEST(Median, RobustToOutliers) {
  // The whole point of using the median across repetitions: one slow
  // rep (page fault, scheduler hiccup) must not move the summary.
  EXPECT_EQ(median({10.0, 10.0, 10.0, 10.0, 5000.0}), 10.0);
}

// ---------------------------------------------------------------------
// mean / stddev
// ---------------------------------------------------------------------

TEST(Mean, Basics) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(mean({4.0}), 4.0);
  EXPECT_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stddev, FewerThanTwoPointsIsZero) {
  EXPECT_EQ(stddev({}), 0.0);
  EXPECT_EQ(stddev({42.0}), 0.0);
}

TEST(Stddev, ConstantSeriesIsZero) {
  EXPECT_EQ(stddev({3.0, 3.0, 3.0, 3.0}), 0.0);
}

TEST(Stddev, SampleDenominator) {
  // {2, 4}: mean 3, sum of squared deviations 2, n-1 = 1 => sqrt(2).
  EXPECT_NEAR(stddev({2.0, 4.0}), std::sqrt(2.0), 1e-12);
  // {2, 4, 4, 4, 5, 5, 7, 9}: classic example, sample stddev ~2.138.
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.13809, 1e-4);
}

// ---------------------------------------------------------------------
// run_case
// ---------------------------------------------------------------------

TEST(RunCase, InvokesWarmupPlusRepetitions) {
  RunOptions opt;
  opt.warmup = 2;
  opt.repetitions = 5;
  int calls = 0;
  const auto m = run_case("case", "cfg", opt, [&] {
    ++calls;
    return std::uint64_t{100};
  });
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(m.repetitions, 5);
  EXPECT_EQ(m.cycles, 100.0);
  EXPECT_EQ(m.name, "case");
  EXPECT_EQ(m.config, "cfg");
  EXPECT_GT(m.wall_ns, 0.0);
  EXPECT_GT(m.sim_speed, 0.0);
}

TEST(RunCase, ZeroRepetitionsClampedToOne) {
  RunOptions opt;
  opt.warmup = 0;
  opt.repetitions = 0;
  int calls = 0;
  const auto m = run_case("c", "", opt, [&] {
    ++calls;
    return std::uint64_t{0};
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(m.repetitions, 1);
}

TEST(RunCase, MedianCyclesAcrossReps) {
  RunOptions opt;
  opt.warmup = 0;
  opt.repetitions = 3;
  std::uint64_t next = 0;
  const auto m = run_case("c", "", opt, [&] {
    static const std::uint64_t cycles[] = {10, 1000, 20};
    return cycles[next++];
  });
  EXPECT_EQ(m.cycles, 20.0);  // median of {10, 1000, 20}
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NumbersAreFiniteOrNull) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, IntegralValuesKeepFullPrecision) {
  // Simulated cycle counts are deterministic integers; the archived
  // JSON must preserve them exactly for PR-over-PR comparison.
  EXPECT_EQ(json_number(1161323.0), "1161323");
  EXPECT_EQ(json_number(5e8), "500000000");
  EXPECT_EQ(json_number(9007199254740991.0), "9007199254740991");
  // Non-integral values round-trip (%.17g), never truncated to 6 digits.
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
}

TEST(Json, ReportShapeHasRequiredKeys) {
  Report report("shape_test");
  Measurement m;
  m.name = "case/1";
  m.config = "cores=4";
  m.cycles = 1000.0;
  m.wall_ns = 2000.0;
  m.wall_ns_stddev = 10.0;
  m.sim_speed = 5e8;
  m.repetitions = 3;
  m.metric("extra", 7.0);
  report.add(std::move(m));

  const std::string j = report.to_json();
  EXPECT_NE(j.find("\"bench\": \"shape_test\""), std::string::npos);
  EXPECT_NE(j.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"case/1\""), std::string::npos);
  EXPECT_NE(j.find("\"config\": \"cores=4\""), std::string::npos);
  EXPECT_NE(j.find("\"cycles\": 1000"), std::string::npos);
  EXPECT_NE(j.find("\"wall_ns\": 2000"), std::string::npos);
  EXPECT_NE(j.find("\"sim_speed\": 500000000"), std::string::npos);
  EXPECT_NE(j.find("\"repetitions\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"extra\": 7"), std::string::npos);

  // Balanced braces/brackets and no trailing comma before a closer —
  // cheap structural validity checks without a JSON parser dependency.
  int braces = 0, brackets = 0;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (char c : j) {
    if (in_string) {
      if (escaped) {
        escaped = false;  // the char after a backslash is always literal
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if ((c == '}' || c == ']') && prev_significant == ',') {
      ADD_FAILURE() << "trailing comma before closer in: " << j;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev_significant = c;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(Json, EmptyReportStillValid) {
  Report report("empty");
  const std::string j = report.to_json();
  EXPECT_NE(j.find("\"cases\": ["), std::string::npos);
  EXPECT_EQ(j.find("null,"), std::string::npos);
}

TEST(Report, ParsesHarnessFlags) {
  const char* argv_c[] = {"bench_x", "--reps=9", "--warmup=3",
                          "--json-dir=/tmp", "--shards=2"};
  int shards = -1;  // a flag this bench declares
  Report report("flags", 5, const_cast<char**>(argv_c), {},
                {{"--shards", 1, &shards}});
  EXPECT_EQ(report.options().repetitions, 9);
  EXPECT_EQ(report.options().warmup, 3);
  EXPECT_EQ(shards, 2);
}

}  // namespace
}  // namespace medea::bench

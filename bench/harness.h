#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli_flags.h"

/// \file harness.h
/// Shared benchmark harness for every bench_* binary.
///
/// Responsibilities:
///  * wall-clock timing with warm-up and repetitions,
///  * robust summary statistics (median across reps, sample stddev),
///  * machine-readable output: each binary writes BENCH_<name>.json so CI
///    can archive the perf trajectory PR over PR.
///
/// Usage pattern:
///
///   bench::Report report("jacobi", argc, argv);
///   report.add(bench::run_case("jacobi/8c", "cores=8 l1=16kB",
///                              report.options(), [&] {
///     core::MedeaSystem sys(make_config(...));
///     ...
///     return res.total_cycles;   // simulated cycles of this invocation
///   }));
///   return report.finish();      // prints a table, writes the JSON
///
/// The measured callable returns the number of *simulated* cycles it
/// advanced, so the harness can derive sim_speed = cycles / wall_seconds,
/// the headline throughput metric of the DSE methodology (§III).

namespace medea::bench {

// ---------------------------------------------------------------------
// Summary statistics
// ---------------------------------------------------------------------

/// Median (by value; averages the middle pair for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 != 0) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
inline double stddev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

// ---------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(clock::now() - start_)
        .count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// ---------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------

struct RunOptions {
  int warmup = 1;       ///< untimed invocations before measuring
  int repetitions = 5;  ///< timed invocations summarised into one row
};

struct Measurement {
  std::string name;    ///< case label, e.g. "jacobi/8c_16kB"
  std::string config;  ///< free-form config description
  double cycles = 0.0;       ///< simulated cycles per invocation (median)
  double wall_ns = 0.0;      ///< wall time per invocation (median, ns)
  double wall_ns_stddev = 0.0;
  double sim_speed = 0.0;    ///< simulated cycles per wall-clock second
  int repetitions = 0;
  /// Domain metrics (miss rate, deflections, cycles/iteration, ...),
  /// serialized as a nested "metrics" object.
  std::vector<std::pair<std::string, double>> metrics;

  Measurement& metric(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
    return *this;
  }
};

/// Time `fn` (a callable returning the simulated-cycle count of one
/// invocation, or any integer; return 0 if cycles are meaningless).
template <typename F>
Measurement run_case(std::string name, std::string config,
                     const RunOptions& opt, F&& fn) {
  for (int i = 0; i < opt.warmup; ++i) {
    (void)fn();
  }
  std::vector<double> wall;
  std::vector<double> cycles;
  const int reps = opt.repetitions > 0 ? opt.repetitions : 1;
  wall.reserve(static_cast<std::size_t>(reps));
  cycles.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Timer t;
    const auto c = fn();
    wall.push_back(t.elapsed_ns());
    cycles.push_back(static_cast<double>(c));
  }
  Measurement m;
  m.name = std::move(name);
  m.config = std::move(config);
  m.cycles = median(cycles);
  m.wall_ns = median(wall);
  m.wall_ns_stddev = stddev(wall);
  m.sim_speed = m.wall_ns > 0.0 ? m.cycles / (m.wall_ns * 1e-9) : 0.0;
  m.repetitions = reps;
  return m;
}

/// The int after "<flag>=" in `arg`, at least `lo`.  A malformed value
/// exits 1 with an error that names the flag, before any case runs.
inline int int_flag(std::string_view arg, const char* flag, int lo) {
  try {
    return cli::parse_num<int>(arg.substr(std::strlen(flag) + 1), lo);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
    std::exit(1);  // NOLINT(concurrency-mt-unsafe): no thread started yet
  }
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Render a double as JSON (no NaN/Inf in JSON; clamp to null).
/// Integral values (e.g. deterministic simulated-cycle counts) are
/// emitted exactly as integers; everything else round-trips via %.17g
/// so PR-over-PR comparisons never lose a regression to rounding.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// A flag one bench declares on top of the harness's own:
/// "<name>=N" with N >= lo, stored in *value.
struct IntFlag {
  const char* name;  ///< e.g. "--shards"
  int lo;
  int* value;
};

/// Collects Measurements and writes BENCH_<name>.json on finish().
class Report {
 public:
  /// `name` is the bench's short name: binary bench_foo => name "foo",
  /// output file BENCH_foo.json.  `defaults` seeds the run options
  /// (e.g. single-repetition for deterministic sweeps) and argv is then
  /// scanned for harness flags, so user flags always win:
  ///   --reps=N       override repetitions (N >= 1)
  ///   --warmup=N     override warm-up invocations (N >= 0)
  ///   --json-dir=D   directory for the JSON file (default ".")
  /// plus the bench's own `flags`.  A malformed value (int_flag) or any
  /// other argument, positional or flag, exits 1 naming it, before any
  /// case runs.
  explicit Report(std::string name, int argc = 0, char** argv = nullptr,
                  RunOptions defaults = {}, std::vector<IntFlag> flags = {})
      : name_(std::move(name)), opt_(defaults) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view a = argv[i];
      if (a.starts_with("--reps=")) {
        opt_.repetitions = int_flag(a, "--reps", 1);
      } else if (a.starts_with("--warmup=")) {
        opt_.warmup = int_flag(a, "--warmup", 0);
      } else if (a.starts_with("--json-dir=")) {
        json_dir_ = a.substr(11);
      } else if (const IntFlag* f = declared(flags, a)) {
        *f->value = int_flag(a, f->name, f->lo);
      } else {
        unknown_argument(a, flags);
      }
    }
  }

  const std::string& name() const { return name_; }
  const RunOptions& options() const { return opt_; }
  const std::vector<Measurement>& measurements() const { return cases_; }

  void add(Measurement m) {
    std::printf("%-40s %14.0f cyc %12.3f ms %10.2f Mcyc/s (±%.1f%%, n=%d)\n",
                m.name.c_str(), m.cycles, m.wall_ns / 1e6, m.sim_speed / 1e6,
                m.wall_ns > 0.0 ? 100.0 * m.wall_ns_stddev / m.wall_ns : 0.0,
                m.repetitions);
    std::fflush(stdout);
    cases_.push_back(std::move(m));
  }

  std::string to_json() const {
    // Append-only string building: GCC 12's -O3 -Wrestrict fires a false
    // positive on `const char* + string&&` chains.
    std::string j = "{\n  \"bench\": \"";
    j += json_escape(name_);
    j += "\",\n";
    j += "  \"schema_version\": 1,\n";
    j += "  \"cases\": [";
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Measurement& m = cases_[i];
      j += i == 0 ? "\n" : ",\n";
      auto field = [&j](const std::string& key, const std::string& value,
                        bool quoted) {
        j += '"';
        j += key;
        j += quoted ? "\": \"" : "\": ";
        j += value;
        if (quoted) j += '"';
      };
      j += "    {";
      field("name", json_escape(m.name), true);
      j += ", ";
      field("config", json_escape(m.config), true);
      j += ", ";
      field("cycles", json_number(m.cycles), false);
      j += ", ";
      field("wall_ns", json_number(m.wall_ns), false);
      j += ", ";
      field("wall_ns_stddev", json_number(m.wall_ns_stddev), false);
      j += ", ";
      field("sim_speed", json_number(m.sim_speed), false);
      j += ", ";
      field("repetitions", std::to_string(m.repetitions), false);
      j += ", \"metrics\": {";
      for (std::size_t k = 0; k < m.metrics.size(); ++k) {
        if (k != 0) j += ", ";
        field(json_escape(m.metrics[k].first),
              json_number(m.metrics[k].second), false);
      }
      j += "}}";
    }
    j += "\n  ]\n}\n";
    return j;
  }

  /// Write BENCH_<name>.json; returns 0 on success (use as exit status).
  int finish() const {
    const std::string path = json_dir_ + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return 1;
    }
    const std::string j = to_json();
    const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
    std::fclose(f);
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok ? 0 : 1;
  }

 private:
  /// The declared flag `arg` sets ("<name>=..."), or nullptr.
  static const IntFlag* declared(const std::vector<IntFlag>& flags,
                                 std::string_view arg) {
    for (const IntFlag& f : flags) {
      const std::string_view name = f.name;
      if (arg.starts_with(name) && arg.substr(name.size()).starts_with('=')) {
        return &f;
      }
    }
    return nullptr;
  }

  [[noreturn]] static void unknown_argument(std::string_view arg,
                                            const std::vector<IntFlag>& flags) {
    std::string accepted = "--reps=N --warmup=N --json-dir=DIR";
    for (const IntFlag& f : flags) {
      accepted += ' ';
      accepted += f.name;
      accepted += "=N";
    }
    std::fprintf(stderr, "error: unknown argument '%.*s' (accepted: %s)\n",
                 static_cast<int>(arg.size()), arg.data(), accepted.c_str());
    std::exit(1);  // NOLINT(concurrency-mt-unsafe): no thread started yet
  }

  std::string name_;
  std::string json_dir_ = ".";
  RunOptions opt_;
  std::vector<Measurement> cases_;
};

}  // namespace medea::bench

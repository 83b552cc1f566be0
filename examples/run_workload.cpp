/// run_workload — the workload-engine front-end: list, run, record,
/// replay and saturation-sweep any registered workload from the command
/// line.
///
///   run_workload --list                 list registered workloads
///   run_workload <name> [options]       run one workload
///   run_workload <name> --sweep-load [options]
///                                       walk offered load to saturation
///                                       (synthetic patterns only)
///
/// Options are generated from the RunRequest parameter structs and
/// grouped the same way (--help prints the full table).  Flags only
/// engage the request section they belong to, so a knob that does not
/// apply to the chosen workload — say --force on `uniform`, or
/// --injection-rate on `jacobi` — is a hard validation error, not a
/// silently ignored no-op.  Values are typed: a non-numeric value,
/// trailing garbage, an out-of-range number or an unknown enum spelling
/// (--policy=wtt) exits 1 with an error naming the flag.
///
/// Examples:
///   run_workload uniform --width=8 --height=8 --injection-rate=0.2
///   run_workload uniform --phased --process=onoff --measure=8192
///   run_workload uniform --sweep-load --loads=0.05,0.15,0.25 --json=sat.json
///   run_workload uniform --phased --timeline=tl.json --perfetto=trace.json
///   run_workload uniform --rate=0.65 --flit-trace=flits.json --worst-flits=5
///   run_workload bitrev --network=xy --record=xy.mdtr
///   run_workload jacobi --size=30 --record=jacobi.mdtr
///   run_workload jacobi-sm --cores=8 --cache-kb=16 --arbiter=mux --verify
///   run_workload replay --trace=jacobi.mdtr
///
/// Exit code 0 on success (and verification pass), 1 otherwise.

#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"
#include "noc/coord.h"
#include "sim/telemetry.h"
#include "workload/flit_report.h"
#include "workload/saturation.h"
#include "workload/timeline.h"
#include "workload/workload.h"

using namespace medea;

namespace {

// ---------------------------------------------------------------------
// Declarative flag table, generated from the RunRequest sections
// ---------------------------------------------------------------------

/// CLI state the flag handlers mutate.  Sections are engaged on first
/// touch; the engine's validate_request() then rejects sections the
/// chosen workload cannot honor.
struct Cli {
  workload::RunRequest req;
  bool stats = false;
  std::string record_path;
  std::string json_path;
  // --timeline/--perfetto telemetry exports
  std::string timeline_path;
  std::string timeline_csv_path;
  std::string perfetto_path;
  // --flit-trace/--worst-flits per-flit lifecycle tracing
  std::string flit_trace_path;
  bool print_worst = false;
  // --sweep-load mode
  bool sweep = false;
  workload::LoadSweepSpec sweep_spec;

  workload::SyntheticParams& synth() {
    if (!req.synthetic) req.synthetic = workload::SyntheticParams{};
    return *req.synthetic;
  }
  workload::AppParams& app() {
    if (!req.app) req.app = workload::AppParams{};
    return *req.app;
  }
  workload::ReplayParams& replay() {
    if (!req.replay) req.replay = workload::ReplayParams{};
    return *req.replay;
  }
};

struct Flag {
  const char* group;    ///< help section (mirrors the param struct)
  const char* name;     ///< canonical spelling, e.g. "--injection-rate"
  const char* alias;    ///< old spelling kept as an alias ("" = none)
  const char* arg;      ///< metavar ("" = boolean flag)
  const char* help;
  std::function<void(Cli&, const char*)> set;
};

// ---------------------------------------------------------------------
// Typed flag values: a malformed value is an error naming the flag
// ---------------------------------------------------------------------

using cli::parse_enum;
using cli::parse_num;

int parse_count(const char* v) { return parse_num<int>(v, 0); }
int parse_axis(const char* v) {
  return parse_num<int>(v, 1, noc::TorusGeometry::kMaxAxis);
}
int parse_positive(const char* v) { return parse_num<int>(v, 1); }
/// Offered loads, probabilities and ratios.
double parse_fraction(const char* v) { return parse_num<double>(v, 0.0, 1.0); }
sim::Cycle parse_cycles(const char* v) { return parse_num<sim::Cycle>(v); }

std::vector<double> parse_loads(const char* v) {
  std::vector<double> out;
  const std::string_view s(v);
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string_view::npos) comma = s.size();
    out.push_back(parse_num<double>(s.substr(pos, comma - pos), 0.0, 1.0));
    pos = comma + 1;
  }
  return out;
}

const std::vector<Flag>& flag_table() {
  static const std::vector<Flag> flags = {
      // --- machine (core::MedeaConfig + run-wide knobs) ---
      {"machine", "--width", "", "W", "NoC torus width (default 4)",
       [](Cli& c, const char* v) {
         c.req.machine.noc_width = parse_axis(v);
       }},
      {"machine", "--height", "", "H", "NoC torus height (default 4)",
       [](Cli& c, const char* v) {
         c.req.machine.noc_height = parse_axis(v);
       }},
      {"machine", "--cores", "", "P", "compute cores (default 4)",
       [](Cli& c, const char* v) {
         c.req.machine.num_compute_cores = parse_positive(v);
       }},
      {"machine", "--cache-kb", "", "K", "L1 size in kB, power of two",
       [](Cli& c, const char* v) {
         c.req.machine.l1.size_bytes =
             parse_num<std::uint32_t>(v, 1, (1u << 22) - 1) * 1024;
       }},
      {"machine", "--policy", "", "wb|wt", "L1 write policy (default wb)",
       [](Cli& c, const char* v) {
         c.req.machine.l1.policy = parse_enum<mem::WritePolicy>(
             v, {{"wb", mem::WritePolicy::kWriteBack},
                 {"wt", mem::WritePolicy::kWriteThrough}});
       }},
      {"machine", "--arbiter", "", "mux|single|dual",
       "NoC-access arbiter of each core (default dual)",
       [](Cli& c, const char* v) {
         c.req.machine.arbiter.kind = parse_enum<pe::ArbiterKind>(
             v, {{"mux", pe::ArbiterKind::kMux},
                 {"single", pe::ArbiterKind::kSingleFifo},
                 {"dual", pe::ArbiterKind::kDualFifo}});
       }},
      {"machine", "--seed", "", "S", "RNG seed (default 1)",
       [](Cli& c, const char* v) { c.req.seed = parse_num<std::uint64_t>(v); }},
      {"machine", "--verify", "", "", "check against the host reference",
       [](Cli& c, const char*) { c.req.verify = true; }},
      {"machine", "--shards", "", "N",
       "run N row bands of the torus on N threads, 1..64 (default 1; "
       "results are bit-identical at any count)",
       [](Cli& c, const char* v) {
         c.req.machine.scheduler.num_shards =
             parse_num<std::uint32_t>(v, 1, 64);
       }},

      // --- synthetic (SyntheticParams) ---
      {"synthetic", "--injection-rate", "--rate", "R",
       "offered load, flits/node/cycle (default 0.1)",
       [](Cli& c, const char* v) {
         c.synth().injection_rate = parse_fraction(v);
       }},
      {"synthetic", "--process", "", "bernoulli|onoff",
       "injection process (default bernoulli)",
       [](Cli& c, const char* v) {
         c.synth().process.kind = parse_enum<noc::InjectionKind>(
             v, {{"bernoulli", noc::InjectionKind::kBernoulli},
                 {"onoff", noc::InjectionKind::kOnOff}});
       }},
      {"synthetic", "--burst-alpha", "", "A",
       "onoff: per-cycle on->off probability (default 0.05)",
       [](Cli& c, const char* v) {
         c.synth().process.burst_alpha = parse_fraction(v);
       }},
      {"synthetic", "--burst-beta", "", "B",
       "onoff: per-cycle off->on probability (default 0.02)",
       [](Cli& c, const char* v) {
         c.synth().process.burst_beta = parse_fraction(v);
       }},
      {"synthetic", "--flits-per-node", "--flits", "F",
       "per-node budget, non-phased runs (default 1000)",
       [](Cli& c, const char* v) {
         c.synth().flits_per_node = parse_positive(v);
       }},
      {"synthetic", "--hotspot", "", "NODE", "hotspot target node (default 0)",
       [](Cli& c, const char* v) { c.synth().hotspot_node = parse_count(v); }},
      {"synthetic", "--network", "", "deflection|xy",
       "fabric the pattern runs on (default deflection)",
       [](Cli& c, const char* v) {
         c.synth().network = parse_enum<const char*>(
             v, {{"deflection", "deflection"}, {"xy", "xy"}});
       }},

      // --- app (AppParams) ---
      {"app", "--size", "", "N", "problem size (grid n / elements)",
       [](Cli& c, const char* v) { c.app().size = parse_positive(v); }},
      {"app", "--iters", "", "I", "timed iterations/rounds (default 1)",
       [](Cli& c, const char* v) { c.app().iterations = parse_positive(v); }},
      {"app", "--warmup-iters", "", "I", "untimed warm-up iterations",
       [](Cli& c, const char* v) {
         c.app().warmup_iterations = parse_count(v);
       }},

      // --- replay (ReplayParams) ---
      {"replay", "--trace", "", "FILE", "input trace to replay",
       [](Cli& c, const char* v) { c.replay().trace_path = v; }},
      {"replay", "--force", "", "",
       "allow a RouterConfig differing from the trace header",
       [](Cli& c, const char*) { c.replay().force_config = true; }},

      // --- measurement (MeasurementParams) ---
      {"measurement", "--no-collect", "", "",
       "skip latency/throughput collection",
       [](Cli& c, const char*) { c.req.measurement.collect = false; }},
      {"measurement", "--phased", "", "",
       "warmup/measure/drain run (synthetic only)",
       [](Cli& c, const char*) { c.req.measurement.phased = true; }},
      {"measurement", "--warmup", "", "C", "warmup cycles (default 1000)",
       [](Cli& c, const char* v) {
         c.req.measurement.warmup_cycles = parse_cycles(v);
       }},
      {"measurement", "--auto-warmup", "", "",
       "detect steady state instead of fixed warmup",
       [](Cli& c, const char*) { c.req.measurement.auto_warmup = true; }},
      {"measurement", "--warmup-step", "", "C",
       "steady-state probe window (default 256)",
       [](Cli& c, const char* v) {
         c.req.measurement.warmup_step = parse_cycles(v);
       }},
      {"measurement", "--steady-tol", "", "T",
       "steady-state tolerance (default 0.05)",
       [](Cli& c, const char* v) {
         c.req.measurement.steady_tolerance = parse_num<double>(v, 0.0);
       }},
      {"measurement", "--measure", "", "C",
       "measurement window length (default 4096)",
       [](Cli& c, const char* v) {
         c.req.measurement.measure_cycles = parse_cycles(v);
       }},
      {"measurement", "--drain-limit", "", "C",
       "max extra drain cycles (default 1000000)",
       [](Cli& c, const char* v) {
         c.req.measurement.drain_limit = parse_cycles(v);
       }},

      // --- telemetry (TelemetryParams + exporters) ---
      {"telemetry", "--sample-every", "", "N",
       "snapshot stats every N cycles (default 1024 when a telemetry "
       "output below is requested, else off)",
       [](Cli& c, const char* v) {
         c.req.telemetry.sample_every = parse_cycles(v);
       }},
      {"telemetry", "--timeline", "", "FILE",
       "write the sampled time-series as JSON (medea-timeline-v1)",
       [](Cli& c, const char* v) { c.timeline_path = v; }},
      {"telemetry", "--timeline-csv", "", "FILE",
       "write the sampled time-series as CSV",
       [](Cli& c, const char* v) { c.timeline_csv_path = v; }},
      {"telemetry", "--perfetto", "", "FILE",
       "write a Chrome/Perfetto trace (open in chrome://tracing)",
       [](Cli& c, const char* v) { c.perfetto_path = v; }},

      // --- flit tracing (FlitTraceParams + exporters) ---
      {"flit-trace", "--flit-trace", "", "FILE",
       "write sampled per-flit hop chains as JSON (medea-flittrace-v1)",
       [](Cli& c, const char* v) { c.flit_trace_path = v; }},
      {"flit-trace", "--trace-sample", "", "N",
       "trace 1-in-N packets by uid hash (default 1 = every packet)",
       [](Cli& c, const char* v) {
         c.req.flit_trace.sample_every = parse_num<std::uint32_t>(v);
       }},
      {"flit-trace", "--worst-flits", "", "K",
       "print the top-K worst-packet forensics report (implies tracing)",
       [](Cli& c, const char* v) {
         c.req.flit_trace.worst_k = parse_count(v);
         c.print_worst = true;
       }},

      // --- modes & output ---
      {"output", "--record", "", "FILE", "record the run's flit trace",
       [](Cli& c, const char* v) { c.record_path = v; }},
      {"output", "--stats", "", "", "dump aggregate statistics",
       [](Cli& c, const char*) { c.stats = true; }},
      {"output", "--json", "", "FILE", "write latency/curve JSON",
       [](Cli& c, const char* v) { c.json_path = v; }},
      {"output", "--sweep-load", "", "",
       "saturation sweep: walk offered load (synthetic only)",
       [](Cli& c, const char*) { c.sweep = true; }},
      {"output", "--loads", "", "A,B,..", "explicit sweep load points",
       [](Cli& c, const char* v) { c.sweep_spec.loads = parse_loads(v); }},
      {"output", "--load-start", "", "R", "sweep ramp start (default 0.05)",
       [](Cli& c, const char* v) { c.sweep_spec.start = parse_fraction(v); }},
      {"output", "--load-stop", "", "R", "sweep ramp stop (default 0.65)",
       [](Cli& c, const char* v) { c.sweep_spec.stop = parse_fraction(v); }},
      {"output", "--load-step", "", "R", "sweep ramp step (default 0.05)",
       [](Cli& c, const char* v) { c.sweep_spec.step = parse_fraction(v); }},
      {"output", "--saturation-ratio", "", "R",
       "accepted/offered below R flags saturation (default 0.9)",
       [](Cli& c, const char* v) {
         c.sweep_spec.saturation_ratio = parse_fraction(v);
       }},
      {"output", "--stop-at-saturation", "", "",
       "end the sweep at the first saturated point",
       [](Cli& c, const char*) { c.sweep_spec.stop_at_saturation = true; }},
  };
  return flags;
}

void list_workloads() {
  std::printf("registered workloads:\n");
  for (const workload::Workload* w :
       workload::WorkloadRegistry::instance().list()) {
    std::printf("  %-14s [%s] %s\n", w->name().c_str(),
                to_string(w->kind()), w->description().c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: run_workload --list\n"
               "       run_workload <name> [options]\n"
               "       run_workload <name> --sweep-load [options]\n\n");
  const char* group = "";
  for (const Flag& f : flag_table()) {
    if (std::strcmp(group, f.group) != 0) {
      group = f.group;
      std::fprintf(stderr, "%s options:\n", group);
    }
    std::string lhs = f.name;
    if (f.arg[0] != '\0') lhs += std::string("=") + f.arg;
    if (f.alias[0] != '\0') lhs += std::string(" (") + f.alias + ")";
    std::fprintf(stderr, "  %-32s %s\n", lhs.c_str(), f.help);
  }
  return 1;
}

/// Match `arg` against a flag spelling: exact for booleans,
/// "name=value" for valued flags.  Returns the value ("" for booleans)
/// or nullptr on no match.
const char* match(const std::string& arg, const char* name, bool valued) {
  const std::size_t n = std::strlen(name);
  if (!valued) return arg == name ? "" : nullptr;
  if (arg.compare(0, n, name) == 0 && arg.size() > n && arg[n] == '=') {
    return arg.c_str() + n + 1;
  }
  return nullptr;
}

void print_measurement(const workload::MeasurementResult& m) {
  if (m.latency.count == 0) return;
  std::printf(
      "  latency (cycles): mean %.2f  p50 %llu  p99 %llu  p999 %llu  "
      "max %llu  (%llu flits%s)\n",
      m.latency.mean, static_cast<unsigned long long>(m.latency.p50),
      static_cast<unsigned long long>(m.latency.p99),
      static_cast<unsigned long long>(m.latency.p999),
      static_cast<unsigned long long>(m.latency.max),
      static_cast<unsigned long long>(m.latency.count),
      m.drained ? "" : ", NOT drained");
  std::printf("  throughput: offered %.4f  accepted %.4f flits/node/cycle\n",
              m.offered_load, m.accepted_throughput);
}

void append_point_json(std::string& out, double requested,
                       const workload::MeasurementResult& m, bool saturated) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"requested_load\": %.6f, \"offered_load\": %.6f, "
      "\"accepted_throughput\": %.6f, \"mean\": %.3f, \"p50\": %llu, "
      "\"p99\": %llu, \"p999\": %llu, \"max\": %llu, \"count\": %llu, "
      "\"drained\": %s, \"saturated\": %s}",
      requested, m.offered_load, m.accepted_throughput, m.latency.mean,
      static_cast<unsigned long long>(m.latency.p50),
      static_cast<unsigned long long>(m.latency.p99),
      static_cast<unsigned long long>(m.latency.p999),
      static_cast<unsigned long long>(m.latency.max),
      static_cast<unsigned long long>(m.latency.count),
      m.drained ? "true" : "false", saturated ? "true" : "false");
  out += buf;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

int run_sweep_mode(const std::string& name, Cli& cli) {
  cli.sweep_spec.workload = name;
  cli.sweep_spec.base = cli.req;
  const workload::SaturationCurve curve =
      workload::sweep_load(cli.sweep_spec);

  std::printf("%s on %s: saturation sweep (%zu points)\n",
              curve.workload.c_str(), curve.network.c_str(),
              curve.points.size());
  std::printf("  %-10s %-10s %-10s %8s %8s %8s  %s\n", "requested", "offered",
              "accepted", "p50", "p99", "p999", "");
  for (const workload::LoadPoint& pt : curve.points) {
    const workload::MeasurementResult& m = pt.measurement;
    std::printf("  %-10.4f %-10.4f %-10.4f %8llu %8llu %8llu  %s\n",
                pt.requested_load, m.offered_load, m.accepted_throughput,
                static_cast<unsigned long long>(m.latency.p50),
                static_cast<unsigned long long>(m.latency.p99),
                static_cast<unsigned long long>(m.latency.p999),
                pt.saturated ? "SATURATED" : "");
  }
  if (curve.saturation_load >= 0.0) {
    std::printf("saturation at offered load %.4f (peak accepted %.4f)\n",
                curve.saturation_load, curve.peak_accepted);
  } else {
    std::printf("no saturation up to the last point (peak accepted %.4f)\n",
                curve.peak_accepted);
  }

  if (!cli.json_path.empty()) {
    std::string j = "{\n  \"workload\": \"" + curve.workload +
                    "\",\n  \"network\": \"" + curve.network +
                    "\",\n  \"saturation_load\": " +
                    std::to_string(curve.saturation_load) +
                    ",\n  \"peak_accepted\": " +
                    std::to_string(curve.peak_accepted) +
                    ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
      append_point_json(j, curve.points[i].requested_load,
                        curve.points[i].measurement,
                        curve.points[i].saturated);
      j += i + 1 < curve.points.size() ? ",\n" : "\n";
    }
    j += "  ]\n}\n";
    if (!write_file(cli.json_path, j)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   cli.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cli.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  if (name == "--list" || name == "-l") {
    list_workloads();
    return 0;
  }
  if (name == "--help" || name == "-h" || name[0] == '-') return usage();

  Cli cli;
  cli.req.machine.num_compute_cores = 4;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    bool handled = false;
    for (const Flag& f : flag_table()) {
      const bool valued = f.arg[0] != '\0';
      const char* v = match(a, f.name, valued);
      if (v == nullptr && f.alias[0] != '\0') v = match(a, f.alias, valued);
      if (v != nullptr) {
        try {
          f.set(cli, v);
        } catch (const std::invalid_argument& e) {
          std::fprintf(stderr, "error: %s: %s\n",
                       a.substr(0, a.find('=')).c_str(), e.what());
          return 1;
        }
        handled = true;
        break;
      }
    }
    if (!handled) {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return usage();
    }
  }

  // Telemetry outputs imply sampling; pick a default cadence when the
  // user asked for an export but not a rate.
  const bool wants_telemetry = !cli.timeline_path.empty() ||
                               !cli.timeline_csv_path.empty() ||
                               !cli.perfetto_path.empty();
  if (wants_telemetry && cli.req.telemetry.sample_every == 0) {
    cli.req.telemetry.sample_every = 1024;
  }
  if (!cli.perfetto_path.empty()) {
    telemetry::HostProfiler::instance().set_enabled(true);
  }
  // Flit-trace outputs imply tracing; default to sampling every packet.
  const bool wants_flit_trace = !cli.flit_trace_path.empty() ||
                                cli.print_worst ||
                                cli.req.flit_trace.sample_every > 0;
  if (wants_flit_trace && cli.req.flit_trace.sample_every == 0) {
    cli.req.flit_trace.sample_every = 1;
  }

  try {
    if (cli.sweep) return run_sweep_mode(name, cli);

    workload::RunResult res;
    if (!cli.record_path.empty()) {
      const workload::Trace t =
          workload::record_workload(name, cli.req, &res);
      workload::save_trace(t, cli.record_path);
      std::printf("recorded %zu injection events to %s\n", t.events.size(),
                  cli.record_path.c_str());
    } else {
      telemetry::ProfileScope scope("run " + name, "sim");
      res = workload::run_by_name(name, cli.req);
    }
    std::printf(
        "%s: %llu cycles, %llu flits delivered, %s = %.2f%s\n", name.c_str(),
        static_cast<unsigned long long>(res.cycles),
        static_cast<unsigned long long>(res.flits_delivered),
        res.metric_name.c_str(), res.metric,
        cli.req.verify ? (res.verified_ok ? ", verified" : ", VERIFY FAILED")
                       : "");
    print_measurement(res.measurement);
    if (cli.stats) std::fputs(res.stats.to_string().c_str(), stdout);
    if (cli.print_worst) {
      std::fputs(workload::format_worst_flits(res.flit_trace,
                                              cli.req.flit_trace.worst_k)
                     .c_str(),
                 stdout);
    }
    if (wants_telemetry || wants_flit_trace) {
      const workload::Workload& w =
          workload::WorkloadRegistry::instance().at(name);
      const auto [tw, th] = w.noc_dims(cli.req);
      workload::TimelineMeta meta;
      meta.workload = name;
      meta.seed = cli.req.seed;
      meta.noc_width = tw;
      meta.noc_height = th;
      meta.measurement = res.measurement;
      const auto dump = [&](const std::string& path, std::string text) {
        if (path.empty()) return true;
        if (!write_file(path, text)) {
          std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
          return false;
        }
        std::printf("wrote %s\n", path.c_str());
        return true;
      };
      bool ok = dump(cli.timeline_path,
                     workload::format_timeline_json(res.timeline, meta));
      ok = dump(cli.timeline_csv_path,
                workload::format_timeline_csv(res.timeline)) && ok;
      // A traced run's Perfetto export carries the worst packets' flow
      // arrows on top of the counter/phase tracks.
      ok = dump(cli.perfetto_path,
                wants_flit_trace
                    ? workload::format_chrome_trace(
                          res.timeline, meta,
                          telemetry::HostProfiler::instance().spans(),
                          res.flit_trace, cli.req.flit_trace.worst_k)
                    : workload::format_chrome_trace(
                          res.timeline, meta,
                          telemetry::HostProfiler::instance().spans())) && ok;
      ok = dump(cli.flit_trace_path,
                workload::format_flit_trace_json(res.flit_trace, meta,
                                                 cli.req.flit_trace.worst_k)) &&
           ok;
      if (!ok) return 1;
    }
    if (!cli.json_path.empty()) {
      std::string j = "{\n  \"workload\": \"" + name +
                      "\",\n  \"points\": [\n";
      const double requested =
          cli.req.synthetic ? cli.req.synthetic->injection_rate : 0.0;
      append_point_json(j, requested, res.measurement, false);
      j += "\n  ]\n}\n";
      if (!write_file(cli.json_path, j)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     cli.json_path.c_str());
        return 1;
      }
    }
    return res.verified_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

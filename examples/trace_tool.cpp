/// trace_tool — the trace toolkit's command-line front-end: inspect,
/// transform, diff and merge MDTR flit traces without touching the
/// simulator (record with `run_workload --record`, replay with
/// `run_workload replay --trace`).
///
///   trace_tool inspect FILE [--buckets=N] [--json]
///       Header, per-source injection rates, the src->dst heatmap and
///       the injection-over-time profile (N buckets, 1..65536, default
///       16).  --json emits the same inspection as one machine-readable
///       JSON document (per-source rates, the src->dst matrix, both
///       histograms) so notebooks consume the numbers directly instead
///       of scraping the text.
///
///   trace_tool transform IN -o OUT [passes...]
///       Apply a pipeline of transform passes (in the order given):
///         --scale=F          rate-scale the injection schedule
///                            (F > 1 compresses cycles = higher load)
///         --remap=WxH        retarget onto a WxH torus (coordinate-
///                            preserving bijective embedding)
///         --remap-tiled=WxH  tile the recording across a WxH torus
///                            (dims must be integer multiples)
///         --window=B:E       keep cycles [B, E), rebased to the start
///         --window-raw=B:E   same without rebasing
///       The output is fully validated before it is written.
///
///   trace_tool diff A B
///       Report the first divergence (meta field or event) between two
///       traces.  Exit 0 when bit-identical, 2 when different — CI uses
///       this to assert replay/round-trip fidelity.
///
///   trace_tool merge A B -o OUT
///       Interleave two recordings of the same fabric into one
///       multi-tenant trace (uids re-spaced).
///
/// For per-flit forensics of a recording, replay it with the flit tracer
/// on: `run_workload replay --trace=FILE --worst-flits=K --flit-trace=OUT`.
///
/// Flag values are typed: a non-numeric value, trailing garbage or an
/// out-of-range number (a remap axis outside [1, 256]) exits 1 with an
/// error naming the flag, before any trace is loaded.
///
/// Exit codes: 0 success, 1 usage/processing error, 2 diff found
/// differences.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli_flags.h"
#include "noc/coord.h"
#include "workload/trace.h"
#include "workload/xform/inspect.h"
#include "workload/xform/transform.h"

using namespace medea;
using workload::Trace;
namespace xform = medea::workload::xform;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_tool inspect FILE [--buckets=N] [--json]\n"
      "       trace_tool transform IN -o OUT [--scale=F] [--remap=WxH]\n"
      "         [--remap-tiled=WxH] [--window=B:E] [--window-raw=B:E]\n"
      "       trace_tool diff A B\n"
      "       trace_tool merge A B -o OUT\n");
  return 1;
}

/// "--key=value" matcher (returns the value or nullptr).  The value
/// points into `arg`'s own NUL-terminated storage (argv or a caller's
/// std::string), never into a temporary.
const char* opt_value(std::string_view arg, const char* key) {
  const std::size_t klen = std::strlen(key);
  if (arg.compare(0, klen, key) == 0 && arg.size() > klen &&
      arg[klen] == '=') {
    return arg.data() + klen + 1;
  }
  return nullptr;
}

/// Split "AsepB" at the first `sep`; a value without one is an error.
std::pair<std::string_view, std::string_view> split_pair(std::string_view v,
                                                         char sep) {
  const std::size_t at = v.find(sep);
  if (at == std::string_view::npos) {
    std::string msg = "'";
    msg += v;
    msg += "' is not of the form A";
    msg += sep;
    msg += 'B';
    throw std::invalid_argument(msg);
  }
  return {v.substr(0, at), v.substr(at + 1)};
}

/// "WxH", each axis in [1, TorusGeometry::kMaxAxis].
std::pair<int, int> parse_dims(std::string_view v) {
  const auto [w, h] = split_pair(v, 'x');
  constexpr int kMax = noc::TorusGeometry::kMaxAxis;
  return {cli::parse_num<int>(w, 1, kMax), cli::parse_num<int>(h, 1, kMax)};
}

/// "B:E" cycle bounds.
std::pair<std::uint64_t, std::uint64_t> parse_range(std::string_view v) {
  const auto [b, e] = split_pair(v, ':');
  return {cli::parse_num<std::uint64_t>(b), cli::parse_num<std::uint64_t>(e)};
}

/// Re-throw a flag value's parse error with the flag's name in front,
/// as `run_workload` reports it.
[[noreturn]] void bad_flag(const std::string& arg, const std::exception& e) {
  std::string msg = arg.substr(0, arg.find('='));
  msg += ": ";
  msg += e.what();
  throw std::invalid_argument(msg);
}

/// Time-profile resolution cap: the text report draws one character per
/// bucket, and the JSON holds one count per bucket.
constexpr int kMaxBuckets = 1 << 16;

int cmd_inspect(int argc, char** argv) {
  const char* path = nullptr;
  int buckets = 16;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    if (const char* v = opt_value(argv[i], "--buckets")) {
      try {
        buckets = cli::parse_num<int>(v, 1, kMaxBuckets);
      } catch (const std::invalid_argument& e) {
        bad_flag(argv[i], e);
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path == nullptr) return usage();
  const Trace t = workload::load_trace(path);
  const auto insp = xform::inspect_trace(t, buckets);
  std::fputs(json ? xform::format_inspection_json(t, insp).c_str()
                  : xform::format_inspection(t, insp).c_str(),
             stdout);
  return 0;
}

int cmd_transform(int argc, char** argv) {
  const char* in_path = nullptr;
  const char* out_path = nullptr;
  xform::Pipeline pipeline;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    // The pass constructors validate their own arguments (a scale
    // factor in (0, 1e6], a remap within 256 nodes, begin < end).
    try {
      if (a == "-o" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (const char* v = opt_value(a, "--scale")) {
        pipeline.add(
            std::make_unique<xform::RateScale>(cli::parse_num<double>(v)));
      } else if (const char* v2 = opt_value(a, "--remap")) {
        const auto [w, h] = parse_dims(v2);
        pipeline.add(std::make_unique<xform::RemapNodes>(
            w, h, xform::RemapMode::kBijective));
      } else if (const char* v3 = opt_value(a, "--remap-tiled")) {
        const auto [w, h] = parse_dims(v3);
        pipeline.add(std::make_unique<xform::RemapNodes>(
            w, h, xform::RemapMode::kTiled));
      } else if (const char* v4 = opt_value(a, "--window")) {
        const auto [b, e] = parse_range(v4);
        pipeline.add(std::make_unique<xform::TimeWindow>(b, e, true));
      } else if (const char* v5 = opt_value(a, "--window-raw")) {
        const auto [b, e] = parse_range(v5);
        pipeline.add(std::make_unique<xform::TimeWindow>(b, e, false));
      } else if (a[0] != '-' && in_path == nullptr) {
        in_path = argv[i];
      } else {
        return usage();
      }
    } catch (const std::invalid_argument& e) {
      bad_flag(a, e);
    }
  }
  if (in_path == nullptr || out_path == nullptr) return usage();
  if (pipeline.empty()) {
    std::fprintf(stderr, "transform: no passes given (nothing to do)\n");
    return 1;
  }
  const Trace in = workload::load_trace(in_path);
  const Trace out = pipeline.apply(in);
  workload::validate_trace(out);
  workload::save_trace(out, out_path);
  std::printf("%s: %zu events (%dx%d) -> %s: %zu events (%dx%d) via %s\n",
              in_path, in.events.size(), in.meta.width, in.meta.height,
              out_path, out.events.size(), out.meta.width, out.meta.height,
              pipeline.describe().c_str());
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc != 2) return usage();
  const Trace a = workload::load_trace(argv[0]);
  const Trace b = workload::load_trace(argv[1]);
  const auto d = xform::diff_traces(a, b);
  if (d.identical) {
    std::printf("identical: %zu events, meta equal\n", d.a_events);
    return 0;
  }
  std::printf("traces differ (a: %zu events, b: %zu events)\n", d.a_events,
              d.b_events);
  std::printf("first difference: %s\n", d.first_difference.c_str());
  return 2;
}

int cmd_merge(int argc, char** argv) {
  const char* out_path = nullptr;
  std::vector<const char*> inputs;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a[0] != '-') {
      inputs.push_back(argv[i]);
    } else {
      return usage();
    }
  }
  if (inputs.size() != 2 || out_path == nullptr) return usage();
  const Trace a = workload::load_trace(inputs[0]);
  const Trace b = workload::load_trace(inputs[1]);
  const Trace merged = xform::merge_traces(a, b);
  workload::validate_trace(merged);
  workload::save_trace(merged, out_path);
  std::printf("merged %zu + %zu -> %zu events into %s\n", a.events.size(),
              b.events.size(), merged.events.size(), out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "inspect") return cmd_inspect(argc - 2, argv + 2);
    if (cmd == "transform") return cmd_transform(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
    if (cmd == "merge") return cmd_merge(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

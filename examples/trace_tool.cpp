/// trace_tool — the trace toolkit's command-line front-end: inspect and
/// diff MDTR flit traces without touching the simulator (record with
/// `run_workload --record`, replay with `run_workload replay --trace`).
///
///   trace_tool inspect FILE [--buckets=N] [--json]
///       Header, per-source injection rates, the src->dst heatmap and
///       the injection-over-time profile (N buckets, 1..65536, default
///       16).  --json emits the same inspection as one machine-readable
///       JSON document (per-source rates, the src->dst matrix, both
///       histograms) so notebooks consume the numbers directly instead
///       of scraping the text.
///
///   trace_tool diff A B
///       Report the first divergence (meta field or event) between two
///       traces.  Exit 0 when bit-identical, 2 when different.
///
/// For per-flit forensics of a recording, replay it with the flit tracer
/// on: `run_workload replay --trace=FILE --worst-flits=K --flit-trace=OUT`.
///
/// Flag values are typed: a non-numeric value, trailing garbage or an
/// out-of-range number exits 1 with an error naming the flag, before any
/// trace is loaded.
///
/// Exit codes: 0 success, 1 usage/processing error, 2 diff found
/// differences.

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cli_flags.h"
#include "workload/trace.h"
#include "workload/xform/inspect.h"

using namespace medea;
using workload::Trace;
namespace xform = medea::workload::xform;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_tool inspect FILE [--buckets=N] [--json]\n"
      "       trace_tool diff A B\n");
  return 1;
}

/// "--key=value" matcher (returns the value or nullptr).  The value
/// points into `arg`'s own NUL-terminated argv storage.
const char* opt_value(std::string_view arg, const char* key) {
  const std::size_t klen = std::strlen(key);
  if (arg.compare(0, klen, key) == 0 && arg.size() > klen &&
      arg[klen] == '=') {
    return arg.data() + klen + 1;
  }
  return nullptr;
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
        // The flag's name in front, as `run_workload` reports it.
        std::string msg = "--buckets: ";
        msg += e.what();
        throw std::invalid_argument(msg);
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "inspect") return cmd_inspect(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

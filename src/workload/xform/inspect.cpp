#include "workload/xform/inspect.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace medea::workload::xform {

TraceInspection inspect_trace(const Trace& t, int time_buckets) {
  if (time_buckets < 1) time_buckets = 1;
  TraceInspection r;
  r.num_events = t.events.size();
  r.num_nodes = t.meta.width * t.meta.height;
  const std::size_t n = static_cast<std::size_t>(r.num_nodes);
  r.injections_per_source.assign(n, 0);
  r.rate_per_source.assign(n, 0.0);
  r.traffic_matrix.assign(n * n, 0);
  r.size_histogram.assign(static_cast<std::size_t>(noc::kMaxPacketFlits) + 1,
                          0);
  r.time_histogram.assign(static_cast<std::size_t>(time_buckets), 0);
  if (t.events.empty()) return r;

  r.first_cycle = t.events.front().cycle;
  r.last_cycle = t.events.back().cycle;
  const sim::Cycle span = r.last_cycle - r.first_cycle + 1;
  r.bucket_width = (span + static_cast<sim::Cycle>(time_buckets) - 1) /
                   static_cast<sim::Cycle>(time_buckets);
  if (r.bucket_width == 0) r.bucket_width = 1;

  for (const TraceEvent& e : t.events) {
    r.injections_per_source[e.src]++;
    r.traffic_matrix[e.src * n + e.dst]++;
    if (e.size < r.size_histogram.size()) r.size_histogram[e.size]++;
    const std::size_t bucket = static_cast<std::size_t>(
        (e.cycle - r.first_cycle) / r.bucket_width);
    r.time_histogram[std::min(bucket,
                              r.time_histogram.size() - 1)]++;
  }
  for (std::size_t s = 0; s < n; ++s) {
    r.rate_per_source[s] =
        static_cast<double>(r.injections_per_source[s]) /
        static_cast<double>(span);
  }
  r.mean_rate = static_cast<double>(r.num_events) /
                (static_cast<double>(span) * static_cast<double>(r.num_nodes));
  r.max_matrix_count =
      *std::max_element(r.traffic_matrix.begin(), r.traffic_matrix.end());
  return r;
}

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Intensity ramp for the heatmap (log-ish perception: blank for zero).
char shade(std::uint64_t v, std::uint64_t max) {
  static const char ramp[] = ".:-=+*#%@";
  if (v == 0) return ' ';
  if (max <= 1) return ramp[8];
  const std::size_t idx =
      static_cast<std::size_t>(static_cast<double>(v) /
                               static_cast<double>(max) * 8.0);
  return ramp[std::min<std::size_t>(idx, 8)];
}

}  // namespace

std::string format_inspection(const Trace& t, const TraceInspection& insp) {
  std::string out;
  const TraceMeta& m = t.meta;
  appendf(out, "trace: %s\n", m.workload.c_str());
  appendf(out, "  format     MDTR v%d\n", kTraceVersion);
  appendf(out, "  fabric     %dx%d torus, %s\n", m.width, m.height,
          m.net.describe().c_str());
  appendf(out, "  seed       %llu\n",
          static_cast<unsigned long long>(m.seed));
  appendf(out, "  recorded   %llu cycles, %zu injection events\n",
          static_cast<unsigned long long>(m.total_cycles), insp.num_events);
  if (insp.num_events == 0) return out;
  appendf(out, "  active     cycles %llu..%llu\n",
          static_cast<unsigned long long>(insp.first_cycle),
          static_cast<unsigned long long>(insp.last_cycle));
  appendf(out, "  mean rate  %.4f flits/node/cycle\n", insp.mean_rate);

  out += "  packet sizes: ";
  bool first = true;
  for (std::size_t s = 1; s < insp.size_histogram.size(); ++s) {
    if (insp.size_histogram[s] == 0) continue;
    if (!first) out += ", ";
    appendf(out, "%zu flits x %llu", s,
            static_cast<unsigned long long>(insp.size_histogram[s]));
    first = false;
  }
  out += "\n\n";

  out += "per-source injection rate (flits/cycle):\n";
  for (int y = 0; y < m.height; ++y) {
    out += "  ";
    for (int x = 0; x < m.width; ++x) {
      appendf(out, " %6.4f", insp.rate_per_source[static_cast<std::size_t>(
                                 y * m.width + x)]);
    }
    out += "\n";
  }

  out += "\nsrc->dst heatmap (rows = src, cols = dst, max=";
  appendf(out, "%llu flits):\n",
          static_cast<unsigned long long>(insp.max_matrix_count));
  const std::size_t n = static_cast<std::size_t>(insp.num_nodes);
  for (std::size_t s = 0; s < n; ++s) {
    appendf(out, "  %3zu |", s);
    for (std::size_t d = 0; d < n; ++d) {
      out += shade(insp.traffic_matrix[s * n + d], insp.max_matrix_count);
    }
    out += "|\n";
  }

  out += "\ninjections over time (";
  appendf(out, "%llu cycles/bucket):\n  |",
          static_cast<unsigned long long>(insp.bucket_width));
  const std::uint64_t tmax = *std::max_element(insp.time_histogram.begin(),
                                               insp.time_histogram.end());
  for (std::uint64_t b : insp.time_histogram) out += shade(b, tmax);
  out += "|\n";
  return out;
}

namespace {

/// Minimal JSON emission helpers (the schema is flat enough that a
/// dependency-free emitter stays readable; strings that reach here are
/// workload names and fabric descriptions, escaped defensively anyway).
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          appendf(out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_u64_array(std::string& out, const std::vector<std::uint64_t>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    appendf(out, "%llu", static_cast<unsigned long long>(v[i]));
  }
  out += ']';
}

void append_double_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    appendf(out, "%.17g", v[i]);
  }
  out += ']';
}

}  // namespace

std::string format_inspection_json(const Trace& t,
                                   const TraceInspection& insp) {
  const TraceMeta& m = t.meta;
  std::string out = "{\n  \"schema_version\": 1,\n  \"trace\": {\n";
  out += "    \"workload\": ";
  append_json_string(out, m.workload);
  appendf(out, ",\n    \"format_version\": %d,\n", kTraceVersion);
  appendf(out, "    \"width\": %d,\n    \"height\": %d,\n", m.width, m.height);
  appendf(out, "    \"coord_bits\": %d,\n", m.coord_bits);
  appendf(out, "    \"seed\": %llu,\n",
          static_cast<unsigned long long>(m.seed));
  appendf(out, "    \"total_cycles\": %llu,\n",
          static_cast<unsigned long long>(m.total_cycles));
  out += "    \"net\": ";
  append_json_string(out, m.net.describe());
  out += "\n  },\n";

  appendf(out, "  \"num_events\": %zu,\n", insp.num_events);
  appendf(out, "  \"num_nodes\": %d,\n", insp.num_nodes);
  appendf(out, "  \"first_cycle\": %llu,\n",
          static_cast<unsigned long long>(insp.first_cycle));
  appendf(out, "  \"last_cycle\": %llu,\n",
          static_cast<unsigned long long>(insp.last_cycle));
  appendf(out, "  \"mean_rate\": %.17g,\n", insp.mean_rate);

  out += "  \"injections_per_source\": ";
  append_u64_array(out, insp.injections_per_source);
  out += ",\n  \"rate_per_source\": ";
  append_double_array(out, insp.rate_per_source);

  // Row-major src->dst matrix, emitted as one array per source row so
  // consumers index it [src][dst] without reshaping.
  out += ",\n  \"traffic_matrix\": [";
  const std::size_t n = static_cast<std::size_t>(insp.num_nodes);
  for (std::size_t s = 0; s < n; ++s) {
    out += s == 0 ? "\n    " : ",\n    ";
    append_u64_array(
        out, {insp.traffic_matrix.begin() + static_cast<std::ptrdiff_t>(s * n),
              insp.traffic_matrix.begin() +
                  static_cast<std::ptrdiff_t>((s + 1) * n)});
  }
  out += "\n  ],\n";
  appendf(out, "  \"max_matrix_count\": %llu,\n",
          static_cast<unsigned long long>(insp.max_matrix_count));

  // Index = packet size in flits (index 0 unused, matching the struct).
  out += "  \"size_histogram\": ";
  append_u64_array(out, insp.size_histogram);
  out += ",\n  \"time_histogram\": ";
  append_u64_array(out, insp.time_histogram);
  appendf(out, ",\n  \"time_bucket_width\": %llu\n}\n",
          static_cast<unsigned long long>(insp.bucket_width));
  return out;
}

TraceDiffResult diff_traces(const Trace& a, const Trace& b) {
  TraceDiffResult r;
  r.a_events = a.events.size();
  r.b_events = b.events.size();

  // Meta, field by field, so the report names the culprit.
  std::string meta_diff;
  const TraceMeta& ma = a.meta;
  const TraceMeta& mb = b.meta;
  auto field = [&meta_diff](const char* name, const std::string& va,
                            const std::string& vb) {
    if (va == vb || !meta_diff.empty()) return;
    meta_diff = std::string("meta.") + name + ": " + va + " vs " + vb;
  };
  field("width", std::to_string(ma.width), std::to_string(mb.width));
  field("height", std::to_string(ma.height), std::to_string(mb.height));
  field("coord_bits", std::to_string(ma.coord_bits),
        std::to_string(mb.coord_bits));
  field("seed", std::to_string(ma.seed), std::to_string(mb.seed));
  field("total_cycles", std::to_string(ma.total_cycles),
        std::to_string(mb.total_cycles));
  field("workload", ma.workload, mb.workload);
  field("net", ma.net.describe(), mb.net.describe());
  r.meta_equal = meta_diff.empty();

  const std::size_t common = std::min(r.a_events, r.b_events);
  for (std::size_t i = 0; i < common; ++i) {
    if (a.events[i] != b.events[i]) {
      r.diverge_index = i;
      r.first_difference = "event " + std::to_string(i) + ":\n  a: " +
                           to_string(a.events[i]) + "\n  b: " +
                           to_string(b.events[i]);
      return r;
    }
  }
  if (r.a_events != r.b_events) {
    r.first_difference =
        "event count: " + std::to_string(r.a_events) + " vs " +
        std::to_string(r.b_events) + " (streams agree up to event " +
        std::to_string(common) + ")";
    return r;
  }
  if (!r.meta_equal) {
    r.first_difference = meta_diff;
    return r;
  }
  r.identical = true;
  return r;
}

}  // namespace medea::workload::xform

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.h"

/// \file inspect.h
/// The trace toolkit's analyzers: summarize what a trace *is* (inspect)
/// and pinpoint where two traces *differ* (diff).
///
/// inspect_trace() computes the standard characterization set for a
/// flit trace: per-source injection counts and rates, the src->dst
/// spatial traffic matrix (the heatmap that makes hotspots and
/// permutation structure visible at a glance), packet-size and
/// injection-over-time histograms.  format_inspection() renders it for
/// the CLI.
///
/// diff_traces() is the fidelity oracle: it reports the first
/// divergence between two traces, field by field — which is how a test
/// asserts that record -> save -> load round-trips are bit-identical,
/// and how a user finds out *where* a re-recorded trace starts to
/// differ from its source.

namespace medea::workload::xform {

struct TraceInspection {
  std::size_t num_events = 0;
  int num_nodes = 0;
  sim::Cycle first_cycle = 0;
  sim::Cycle last_cycle = 0;
  /// Mean offered load over the active span, flits/node/cycle.
  double mean_rate = 0.0;

  std::vector<std::uint64_t> injections_per_source;  ///< [num_nodes]
  std::vector<double> rate_per_source;               ///< flits/cycle
  /// Row-major src*num_nodes + dst flit counts (the spatial heatmap).
  std::vector<std::uint64_t> traffic_matrix;
  std::uint64_t max_matrix_count = 0;

  /// events whose packet size field is s (index 0 unused).
  std::vector<std::uint64_t> size_histogram;
  /// Injections per uniform time bucket across [first_cycle, last_cycle].
  std::vector<std::uint64_t> time_histogram;
  sim::Cycle bucket_width = 0;
};

TraceInspection inspect_trace(const Trace& t, int time_buckets = 16);

/// Human-readable rendering: header block, per-source rate table, the
/// src->dst heatmap and the injection-over-time sparkline.
std::string format_inspection(const Trace& t, const TraceInspection& insp);

/// Machine-readable rendering of the same inspection: one JSON document
/// with the trace header, per-source counts/rates, the src->dst traffic
/// matrix (row-major, rows = src) and both histograms — so notebooks and
/// scripts consume the matrices directly instead of scraping the text
/// rendering (`trace_tool inspect --json`).
std::string format_inspection_json(const Trace& t,
                                   const TraceInspection& insp);

struct TraceDiffResult {
  bool identical = false;
  bool meta_equal = false;
  std::size_t a_events = 0;
  std::size_t b_events = 0;
  /// Index of the first differing event; SIZE_MAX when the event streams
  /// agree over the common prefix (a pure length or meta difference).
  std::size_t diverge_index = static_cast<std::size_t>(-1);
  /// Human-readable description of the first difference found ("" when
  /// identical): the meta field or the two diverging events.
  std::string first_difference;
};

TraceDiffResult diff_traces(const Trace& a, const Trace& b);

}  // namespace medea::workload::xform

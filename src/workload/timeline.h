#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "noc/flit_tracer.h"
#include "sim/telemetry.h"
#include "workload/measure.h"

/// \file timeline.h
/// Exporters over telemetry::Timeline: the self-describing JSON dump,
/// a flat CSV, the Chrome/Perfetto trace_event rendering, and the
/// scalar summary benches feed into their metrics maps.
///
/// The JSON schema ("medea-timeline-v1") is what scripts/check_telemetry.py
/// validates in CI; bench_saturation reports the `timeline_*` roll-up of
/// timeline_summary().  Per-router `*.router.<id>.delivered` series are
/// folded into spatial heatmap frames (one WxH grid of per-window deltas
/// per frame) instead of being emitted as N independent series.

namespace medea::workload {

/// Run context the exporters stamp into their output: identity for the
/// trace process labels, geometry for heatmap folding, and the
/// measurement result whose warmup/measure/drain boundaries become
/// phase spans in the Chrome trace.
struct TimelineMeta {
  std::string workload;
  std::uint64_t seed = 0;
  int noc_width = 0;
  int noc_height = 0;
  MeasurementResult measurement{};
};

/// Self-describing JSON: schema tag, run identity, phases, sample grid,
/// every non-router series (kind "counter" = per-window deltas, "gauge"
/// = sampled values), and per-router heatmaps as per-window WxH frames.
std::string format_timeline_json(const telemetry::Timeline& tl,
                                 const TimelineMeta& meta);

/// Flat CSV: one row per window (window, cycle_end, window_cycles, then
/// every series in name order; counters as per-window deltas).
std::string format_timeline_csv(const telemetry::Timeline& tl);

/// Chrome/Perfetto trace_event JSON (the {"traceEvents": [...]} form),
/// loadable in chrome://tracing and ui.perfetto.dev:
///  * pid 1 "sim": simulated cycles rendered 1:1 as microseconds —
///    warmup/measure/drain phase spans plus one counter track per
///    series (windowed rates for counters, raw values for gauges;
///    per-router tracks only on fabrics of <= 64 routers);
///  * pid 2 "host": the wall-clock ProfileScope spans.
std::string format_chrome_trace(const telemetry::Timeline& tl,
                                const TimelineMeta& meta,
                                const std::vector<telemetry::HostSpan>& spans);

/// As above, additionally rendering a flit trace's worst `flow_packets`
/// packet journeys into pid 1: one thread track per visited router
/// (router residency as "X" slices) connected by Perfetto flow arrows
/// ("s"/"t"/"f" events keyed by flit uid), so the highest-latency
/// packets can be followed hop-by-hop across the fabric in
/// ui.perfetto.dev.  An empty/disabled trace degrades to the plain form.
std::string format_chrome_trace(const telemetry::Timeline& tl,
                                const TimelineMeta& meta,
                                const std::vector<telemetry::HostSpan>& spans,
                                const telemetry::FlitTrace& flits,
                                int flow_packets);

/// Scalar roll-up for bench JSONs — every key starts with "timeline_"
/// (bench_saturation reports them as case metrics): window count, peak and
/// mean delivered flits/cycle, peak windowed deflection rate, peak event
/// queue depth, and the overall commit-dedup rate.
std::map<std::string, double> timeline_summary(const telemetry::Timeline& tl);

}  // namespace medea::workload

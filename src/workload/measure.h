#pragma once

#include <cstdint>

#include "noc/fabric.h"
#include "noc/flit.h"
#include "noc/traffic.h"
#include "sim/domain.h"
#include "sim/stats.h"
#include "sim/types.h"

/// \file measure.h
/// Traffic-manager-grade measurement: warmup -> measurement -> drain
/// phasing, per-flit injection->ejection latency distributions and
/// offered-vs-accepted throughput, collected through the existing
/// FlitObserver hook so every fabric that can be traced can be measured
/// — no router changes (booksim2's TrafficManager methodology, layered
/// over the workload registry).
///
/// Two modes share one controller:
///
///  * whole-run collection (any workload, the default): the controller
///    rides along as a passive observer and the measurement window is
///    the entire run — percentiles for free on apps and trace replays;
///  * phased runs (rate-controlled synthetic traffic): the driver below
///    runs a warmup phase (fixed-length or steady-state-detected),
///    opens the window for `measure_cycles`, then stops injection and
///    drains until every in-window flit has ejected, so the reported
///    tail latencies are not truncated by the end of the run.
///
/// Only flits *injected inside the window* contribute to the histogram
/// and to accepted throughput; warmup and drain traffic keeps the
/// fabric loaded but is never measured.

namespace medea::workload {

/// Measurement knobs, embedded in RunRequest (see workload.h).
struct MeasurementParams {
  /// Collect per-flit latency + throughput for the run (any workload).
  bool collect = true;

  /// Phased warmup/measure/drain run (synthetic workloads only —
  /// validation rejects it elsewhere; see validate_request()).
  bool phased = false;

  /// Warmup length when auto_warmup is off.
  sim::Cycle warmup_cycles = 1000;
  /// Detect steady state instead of trusting warmup_cycles: warmup ends
  /// once the mean latency of consecutive `warmup_step`-cycle windows
  /// stabilizes within `steady_tolerance` twice in a row (capped at
  /// max_warmup).
  bool auto_warmup = false;
  sim::Cycle warmup_step = 256;
  double steady_tolerance = 0.05;
  sim::Cycle max_warmup = 32768;

  /// Length of the measurement window.
  sim::Cycle measure_cycles = 4096;
  /// Extra cycles allowed for the drain phase before giving up (a
  /// saturated fabric may never drain; `drained` reports which).
  sim::Cycle drain_limit = 1'000'000;

  bool operator==(const MeasurementParams&) const = default;
};

/// Latency distribution summary extracted from a LatencyHistogram.
/// Quantiles carry the histogram's bounded quantization error
/// (sim::LatencyHistogram::max_relative_error()).
struct LatencyStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t min = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;

  bool operator==(const LatencyStats&) const = default;
};

/// What one measured run produced.  For whole-run collection the window
/// is [0, run end]; for phased runs it is (warmup_end, measure_end].
struct MeasurementResult {
  LatencyStats latency;  ///< flits injected inside the window

  /// Offered load in flits/node/cycle over the window (phased runs:
  /// from endpoint attempt counters, including refused offers;
  /// whole-run: equals injected throughput).
  double offered_load = 0.0;
  /// In-window-injected flits that ejected, per node per cycle of
  /// window.  Tracks offered_load below saturation, plateaus above it.
  double accepted_throughput = 0.0;

  sim::Cycle warmup_end = 0;   ///< window opens after this cycle
  sim::Cycle measure_end = 0;  ///< window closes at this cycle
  sim::Cycle run_cycles = 0;   ///< total simulated cycles incl. drain

  std::uint64_t injected = 0;   ///< flits injected inside the window
  std::uint64_t delivered = 0;  ///< of those, how many ejected
  /// True when every in-window flit ejected before drain_limit (phased)
  /// or the run completed (whole-run).  False means the latency tail is
  /// truncated — the classic past-saturation signature.
  bool drained = true;

  bool operator==(const MeasurementResult&) const = default;
};

/// FlitObserver that streams per-flit latencies into a histogram,
/// classifying each flit by its inject cycle against the current
/// measurement window.  Put it in a noc::FlitObserverTee next to a
/// TraceRecorder so recording a trace and measuring it are one run.
class MeasurementController final : public noc::FlitObserver {
 public:
  /// `num_nodes` normalizes throughput.
  MeasurementController(const MeasurementParams& params, int num_nodes);

  void on_inject(sim::Cycle now, int node, const noc::Flit& f) override;
  void on_deliver(sim::Cycle now, int node, const noc::Flit& f) override;

  // --- phase control (the phased driver below) ---
  /// Open the measurement window: flits with inject_cycle > `now` count.
  void begin_window(sim::Cycle now);
  /// Close the window: flits injected after `now` are drain traffic.
  void end_window(sim::Cycle now);
  /// In-window flits still in flight (drain terminates when 0).
  std::uint64_t in_flight() const { return injected_ - delivered_; }

  // --- steady-state detection support ---
  /// Mean latency of deliveries since the last reset_probe(); NaN when
  /// no delivery landed in the probe window.
  double probe_mean() const;
  void reset_probe();

  /// Phased runs: offered load measured from endpoint attempt counters.
  void set_offered_load(double load) { offered_override_ = load; }

  /// Close a still-open window at `end_cycle` (whole-run mode) and
  /// freeze totals.  Idempotent; phased drivers call it after drain.
  void finalize(sim::Cycle end_cycle, bool drained);

  /// Summary of the finalized run.
  MeasurementResult result() const;

  const sim::LatencyHistogram& histogram() const { return hist_; }

 private:
  bool in_window(sim::Cycle inject_cycle) const {
    return inject_cycle > warmup_end_ && inject_cycle <= measure_end_;
  }

  MeasurementParams params_;
  int num_nodes_;

  sim::Cycle warmup_end_ = 0;                 // window opens after this
  sim::Cycle measure_end_ = sim::kNeverCycle;  // open until closed
  sim::Cycle run_cycles_ = 0;
  bool finalized_ = false;
  bool drained_ = true;

  sim::LatencyHistogram hist_;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  double offered_override_ = -1.0;  // < 0: derive from injected_

  // steady-state probe window
  double probe_sum_ = 0.0;
  std::uint64_t probe_count_ = 0;
};

/// Drive one phased (warmup -> measure -> drain) synthetic-traffic run
/// on `net`.  Endpoints run with unlimited budget, each on its node's
/// shard; `mc` must already receive `net`'s observer events.  On a
/// sharded domain observer events reach `mc` from the serial flush in
/// canonical order, and every flush owed for a phase has happened by
/// the time SimDomain::run() returns, so window boundaries land on
/// exactly the flits they do single-threaded.  Returns the finalized
/// result (also available via mc.result()).
MeasurementResult run_phased_traffic(sim::SimDomain& dom, noc::Fabric& net,
                                     const noc::TrafficConfig& cfg,
                                     const MeasurementParams& mp,
                                     MeasurementController& mc);

}  // namespace medea::workload

#include "workload/measure.h"

#include <cmath>
#include <memory>
#include <vector>

namespace medea::workload {

MeasurementController::MeasurementController(const MeasurementParams& params,
                                             int num_nodes)
    : params_(params), num_nodes_(num_nodes) {}

void MeasurementController::on_inject(sim::Cycle /*now*/, int /*node*/,
                                      const noc::Flit& f) {
  if (in_window(f.inject_cycle)) ++injected_;
}

void MeasurementController::on_deliver(sim::Cycle now, int /*node*/,
                                       const noc::Flit& f) {
  const std::uint64_t latency = now - f.inject_cycle;
  probe_sum_ += static_cast<double>(latency);
  ++probe_count_;
  if (in_window(f.inject_cycle)) {
    hist_.record(latency);
    ++delivered_;
  }
}

void MeasurementController::begin_window(sim::Cycle now) {
  // The controller comes up with the window open from cycle 0 (whole-run
  // mode).  A phased driver opening the real window must discard
  // everything the warmup phase accumulated under that default.
  warmup_end_ = now;
  measure_end_ = sim::kNeverCycle;
  hist_.clear();
  injected_ = 0;
  delivered_ = 0;
}

void MeasurementController::end_window(sim::Cycle now) { measure_end_ = now; }

double MeasurementController::probe_mean() const {
  if (probe_count_ == 0) return std::nan("");
  return probe_sum_ / static_cast<double>(probe_count_);
}

void MeasurementController::reset_probe() {
  probe_sum_ = 0.0;
  probe_count_ = 0;
}

void MeasurementController::finalize(sim::Cycle end_cycle, bool drained) {
  if (finalized_) return;
  finalized_ = true;
  run_cycles_ = end_cycle;
  if (measure_end_ == sim::kNeverCycle) measure_end_ = end_cycle;
  drained_ = drained;
}

MeasurementResult MeasurementController::result() const {
  MeasurementResult r;
  r.latency.count = hist_.count();
  r.latency.mean = hist_.mean();
  r.latency.min = hist_.min();
  r.latency.p50 = hist_.p50();
  r.latency.p99 = hist_.p99();
  r.latency.p999 = hist_.p999();
  r.latency.max = hist_.max();
  r.warmup_end = warmup_end_;
  r.measure_end = measure_end_;
  r.run_cycles = run_cycles_;
  r.injected = injected_;
  r.delivered = delivered_;
  r.drained = drained_;
  const double window =
      static_cast<double>(measure_end_ - warmup_end_);
  if (window > 0.0 && num_nodes_ > 0) {
    const double nodes = static_cast<double>(num_nodes_);
    r.accepted_throughput = static_cast<double>(delivered_) / nodes / window;
    r.offered_load = offered_override_ >= 0.0
                         ? offered_override_
                         : static_cast<double>(injected_) / nodes / window;
  }
  return r;
}

MeasurementResult run_phased_traffic(sim::SimDomain& dom, noc::Fabric& net,
                                     const noc::TrafficConfig& cfg,
                                     const MeasurementParams& mp,
                                     MeasurementController& mc) {
  noc::TrafficConfig unlimited = cfg;
  unlimited.flits_per_node = -1;
  std::vector<std::unique_ptr<noc::TrafficEndpoint<noc::Fabric>>> eps;
  eps.reserve(static_cast<std::size_t>(net.num_nodes()));
  for (int i = 0; i < net.num_nodes(); ++i) {
    eps.push_back(std::make_unique<noc::TrafficEndpoint<noc::Fabric>>(
        net.sched_of(i), net, i, unlimited));
  }
  const auto total_attempts = [&eps] {
    std::uint64_t n = 0;
    for (const auto& e : eps) n += e->attempts();
    return n;
  };

  // Warmup: fixed-length, or stepped with steady-state detection (two
  // consecutive probe windows whose mean latency moved less than the
  // tolerance).  Endpoints self-wake every cycle, so run(t) always
  // advances exactly to t.
  sim::Cycle warmup_end = 0;
  if (mp.auto_warmup) {
    double prev = std::nan("");
    int stable = 0;
    while (warmup_end < mp.max_warmup && stable < 2) {
      warmup_end += mp.warmup_step;
      dom.run(warmup_end);
      const double m = mc.probe_mean();
      mc.reset_probe();
      if (!std::isnan(prev) && !std::isnan(m) &&
          std::fabs(m - prev) <= mp.steady_tolerance * prev) {
        ++stable;
      } else {
        stable = 0;
      }
      prev = m;
    }
  } else {
    warmup_end = mp.warmup_cycles;
    dom.run(warmup_end);
  }

  // Measurement window.
  const std::uint64_t attempts_before = total_attempts();
  mc.begin_window(warmup_end);
  const sim::Cycle measure_end = warmup_end + mp.measure_cycles;
  dom.run(measure_end);
  mc.end_window(measure_end);
  const std::uint64_t attempts_in_window = total_attempts() - attempts_before;
  mc.set_offered_load(static_cast<double>(attempts_in_window) /
                      static_cast<double>(net.num_nodes()) /
                      static_cast<double>(mp.measure_cycles));

  // Drain: stop offering, let the fabric empty.  run() returns true on
  // idle (every flit — measured or not — ejected and consumed).
  for (auto& e : eps) e->stop_injecting();
  const bool idle = dom.run(measure_end + mp.drain_limit);
  net.refresh_stats();
  mc.finalize(dom.now(), idle && mc.in_flight() == 0);
  return mc.result();
}

}  // namespace medea::workload

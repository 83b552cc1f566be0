/// Tests for the phased measurement engine: latency-histogram
/// percentile math, measurement-window classification in the
/// controller, phased warmup/measure/drain runs on both fabrics,
/// steady-state warmup detection, run-to-run determinism and
/// saturation-sweep behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "noc/flit.h"
#include "sim/stats.h"
#include "workload/measure.h"
#include "workload/saturation.h"
#include "workload/workload.h"

namespace medea {
namespace {

// ---------------------------------------------------------------------
// Percentile math
// ---------------------------------------------------------------------

/// Quantiles of a known uniform distribution must land within the
/// histogram's documented quantization error.
TEST(LatencyHistogramMath, UniformDistributionQuantiles) {
  sim::LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);

  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_DOUBLE_EQ(h.mean(), 5000.5);

  const double tol = sim::LatencyHistogram::max_relative_error();
  for (const auto& [q, expected] :
       std::vector<std::pair<double, double>>{
           {0.50, 5000.0}, {0.90, 9000.0}, {0.99, 9900.0}, {0.999, 9990.0}}) {
    const double got = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(got, expected, expected * tol + 1.0)
        << "quantile " << q << " off by more than the documented "
        << tol * 100 << "% quantization error";
  }
}

/// Values below the exact region (two sub-bucket groups) have zero
/// quantization error: quantiles are exact sample values.
TEST(LatencyHistogramMath, SmallValuesAreExact) {
  sim::LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 50; ++v) h.record(v);
  EXPECT_EQ(h.p50(), 25u);
  EXPECT_EQ(h.quantile(0.10), 5u);
  EXPECT_EQ(h.quantile(1.0), 50u);
}

// ---------------------------------------------------------------------
// MeasurementController windowing
// ---------------------------------------------------------------------

noc::Flit flit_at(std::uint32_t uid, sim::Cycle inject) {
  noc::Flit f;
  f.uid = uid;
  f.inject_cycle = inject;
  return f;
}

/// Only flits injected inside (warmup_end, measure_end] are measured:
/// warmup samples are discarded when the window opens, drain-phase
/// injections are ignored, but in-window flits delivered during drain
/// still count.
TEST(MeasurementController, ClassifiesFlitsByInjectCycle) {
  workload::MeasurementController mc(workload::MeasurementParams{}, 1);

  // Warmup traffic (window is open from cycle 0 by default).
  mc.on_inject(2, 0, flit_at(1, 2));
  mc.on_deliver(4, 0, flit_at(1, 2));

  mc.begin_window(5);  // discards everything above
  mc.on_inject(6, 0, flit_at(2, 6));
  mc.on_inject(8, 0, flit_at(3, 8));
  mc.on_deliver(9, 0, flit_at(2, 6));  // latency 3
  mc.end_window(10);

  mc.on_inject(11, 0, flit_at(4, 11));   // drain traffic: ignored
  mc.on_deliver(12, 0, flit_at(3, 8));   // in-window, latency 4: counted
  mc.on_deliver(13, 0, flit_at(4, 11));  // ignored
  EXPECT_EQ(mc.in_flight(), 0u);
  mc.finalize(13, true);

  const workload::MeasurementResult r = mc.result();
  EXPECT_EQ(r.injected, 2u);
  EXPECT_EQ(r.delivered, 2u);
  EXPECT_EQ(r.latency.count, 2u);
  EXPECT_DOUBLE_EQ(r.latency.mean, 3.5);  // warmup latency 2 is NOT in here
  EXPECT_EQ(r.latency.min, 3u);
  EXPECT_EQ(r.latency.max, 4u);
  EXPECT_EQ(r.warmup_end, 5u);
  EXPECT_EQ(r.measure_end, 10u);
  EXPECT_TRUE(r.drained);
  // 2 flits over a 5-cycle window on 1 node.
  EXPECT_DOUBLE_EQ(r.accepted_throughput, 0.4);
}

/// A tee next to the controller forwards every event — including
/// out-of-window ones — to the secondary observer, so a TraceRecorder
/// sees the whole run and recorded traces are identical with or without
/// measurement.
TEST(MeasurementController, ForwardsAllEventsToSecondaryObserver) {
  struct Counter final : noc::FlitObserver {
    int injects = 0;
    int delivers = 0;
    void on_inject(sim::Cycle, int, const noc::Flit&) override { ++injects; }
    void on_deliver(sim::Cycle, int, const noc::Flit&) override {
      ++delivers;
    }
  } counter;

  workload::MeasurementController mc(workload::MeasurementParams{}, 1);
  noc::FlitObserverTee tee;
  tee.add(&mc);
  tee.add(&counter);
  mc.begin_window(5);
  tee.on_inject(2, 0, flit_at(1, 2));   // before window
  tee.on_inject(6, 0, flit_at(2, 6));   // inside
  mc.end_window(10);
  tee.on_inject(11, 0, flit_at(3, 11));  // after
  tee.on_deliver(9, 0, flit_at(2, 6));
  tee.on_deliver(12, 0, flit_at(3, 11));

  EXPECT_EQ(counter.injects, 3);
  EXPECT_EQ(counter.delivers, 2);
}

/// Whole-run mode: finalize() without begin/end_window measures
/// everything; a second finalize is a no-op.
TEST(MeasurementController, WholeRunWindowAndIdempotentFinalize) {
  workload::MeasurementController mc(workload::MeasurementParams{}, 2);
  mc.on_inject(1, 0, flit_at(1, 1));
  mc.on_deliver(5, 1, flit_at(1, 1));
  mc.finalize(10, true);
  mc.finalize(99, false);  // must not reopen or overwrite

  const workload::MeasurementResult r = mc.result();
  EXPECT_EQ(r.latency.count, 1u);
  EXPECT_EQ(r.latency.max, 4u);
  EXPECT_EQ(r.measure_end, 10u);
  EXPECT_EQ(r.run_cycles, 10u);
  EXPECT_TRUE(r.drained);
}

// ---------------------------------------------------------------------
// Phased runs through the run API
// ---------------------------------------------------------------------

workload::RunRequest phased_req(double rate,
                                const std::string& network = "deflection") {
  workload::RunRequest req;
  req.synthetic = workload::SyntheticParams{};
  req.synthetic->injection_rate = rate;
  req.synthetic->network = network;
  req.measurement.phased = true;
  req.measurement.warmup_cycles = 300;
  req.measurement.measure_cycles = 1024;
  return req;
}

class PhasedRunOnFabric : public ::testing::TestWithParam<const char*> {};

TEST_P(PhasedRunOnFabric, LightLoadDrainsAndTracksOfferedLoad) {
  const workload::RunResult r =
      workload::run_by_name("uniform", phased_req(0.2, GetParam()));
  const workload::MeasurementResult& m = r.measurement;

  EXPECT_TRUE(m.drained) << "0.2 flits/node/cycle must not saturate a 4x4";
  EXPECT_TRUE(r.verified_ok);
  EXPECT_EQ(r.metric_name, "measured_avg_flit_latency");
  EXPECT_GT(m.latency.count, 1000u);
  EXPECT_EQ(m.delivered, m.injected) << "drained run: every in-window "
                                        "flit must have ejected";
  EXPECT_LE(m.latency.min, m.latency.p50);
  EXPECT_LE(m.latency.p50, m.latency.p99);
  EXPECT_LE(m.latency.p99, m.latency.p999);
  EXPECT_LE(m.latency.p999, m.latency.max);
  // Offered load is measured from endpoint attempt counters and must
  // sit near the requested Bernoulli rate; below saturation accepted
  // tracks offered.
  EXPECT_NEAR(m.offered_load, 0.2, 0.03);
  EXPECT_NEAR(m.accepted_throughput, m.offered_load, 0.01);
  EXPECT_EQ(m.warmup_end, 300u);
  EXPECT_EQ(m.measure_end, 300u + 1024u);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, PhasedRunOnFabric,
                         ::testing::Values("deflection", "xy"));

TEST(PhasedRun, IdenticalRequestsProduceIdenticalResults) {
  const workload::RunRequest req = phased_req(0.3);
  const workload::RunResult a = workload::run_by_name("uniform", req);
  const workload::RunResult b = workload::run_by_name("uniform", req);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.measurement, b.measurement)
      << "phased measurement must be bit-deterministic";
}

TEST(PhasedRun, AutoWarmupDetectsSteadyStateAndTerminates) {
  workload::RunRequest req = phased_req(0.2);
  req.measurement.auto_warmup = true;
  req.measurement.warmup_step = 256;
  req.measurement.max_warmup = 8192;
  const workload::RunResult r = workload::run_by_name("uniform", req);
  const workload::MeasurementResult& m = r.measurement;
  // Needs one priming probe plus two stable ones, and may not overrun
  // the cap.
  EXPECT_GE(m.warmup_end, 3u * 256u);
  EXPECT_LE(m.warmup_end, 8192u);
  EXPECT_TRUE(m.drained);
  EXPECT_GT(m.latency.count, 0u);
}

TEST(PhasedRun, AutoWarmupIsCappedOnUnstableTraffic) {
  workload::RunRequest req = phased_req(0.9);  // far past saturation
  req.measurement.auto_warmup = true;
  req.measurement.warmup_step = 256;
  req.measurement.max_warmup = 1024;
  req.measurement.measure_cycles = 512;
  const workload::RunResult r = workload::run_by_name("uniform", req);
  EXPECT_LE(r.measurement.warmup_end, 1024u);
  EXPECT_GE(r.measurement.warmup_end, 256u);
}

TEST(PhasedRun, BurstyInjectionHasHeavierTailThanBernoulli) {
  // Same mean load, but on-off arrivals bunch flits into bursts: the
  // tail of the latency distribution must not improve.
  const workload::RunRequest bern = phased_req(0.2);
  workload::RunRequest onoff = phased_req(0.2);
  onoff.synthetic->process.kind = noc::InjectionKind::kOnOff;

  const workload::RunResult a = workload::run_by_name("uniform", bern);
  const workload::RunResult b = workload::run_by_name("uniform", onoff);
  EXPECT_TRUE(b.measurement.drained);
  EXPECT_GE(b.measurement.latency.p99, a.measurement.latency.p99);
  // The on-off process still offers the configured mean rate.
  EXPECT_NEAR(b.measurement.offered_load, 0.2, 0.05);
}

// ---------------------------------------------------------------------
// Saturation sweeps
// ---------------------------------------------------------------------

TEST(LoadSweep, RampExpandsWithoutDriftAndValidates) {
  workload::LoadSweepSpec spec;
  spec.start = 0.05;
  spec.stop = 0.65;
  spec.step = 0.05;
  const std::vector<double> pts = workload::load_points(spec);
  ASSERT_EQ(pts.size(), 13u);
  EXPECT_DOUBLE_EQ(pts.front(), 0.05);
  EXPECT_NEAR(pts.back(), 0.65, 1e-12);

  spec.step = 0.0;
  EXPECT_THROW(workload::load_points(spec), std::invalid_argument);
  spec.step = 0.05;
  spec.stop = 0.01;
  EXPECT_THROW(workload::load_points(spec), std::invalid_argument);

  spec.loads = {0.4, 0.1};  // explicit list wins, order preserved
  EXPECT_EQ(workload::load_points(spec),
            (std::vector<double>{0.4, 0.1}));
}

TEST(LoadSweep, RejectsNonSyntheticWorkloads) {
  workload::LoadSweepSpec spec;
  spec.workload = "jacobi";
  try {
    workload::sweep_load(spec);
    FAIL() << "sweeping an app workload must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jacobi"), std::string::npos);
  }
}

TEST(LoadSweep, HotspotSaturatesAtTheEjectBandwidthCap) {
  // All 16 nodes target one hotspot whose eject port drains 1
  // flit/cycle: aggregate accepted throughput is capped near 1/16
  // flits/node/cycle.  A sweep over {well below, well above} the cap
  // must flag exactly the second point.
  workload::LoadSweepSpec spec;
  spec.workload = "hotspot";
  spec.loads = {0.02, 0.2};
  spec.base.measurement.warmup_cycles = 300;
  spec.base.measurement.measure_cycles = 1024;
  spec.base.measurement.drain_limit = 20000;

  const workload::SaturationCurve curve = workload::sweep_load(spec);
  ASSERT_EQ(curve.points.size(), 2u);
  EXPECT_FALSE(curve.points[0].saturated)
      << "offered 0.32 flits/cycle total is under the 1/cycle eject cap";
  EXPECT_TRUE(curve.points[1].saturated)
      << "offered 3.2 flits/cycle total is far past the eject cap";
  EXPECT_DOUBLE_EQ(curve.saturation_load, 0.2);
  EXPECT_LT(curve.points[1].measurement.accepted_throughput, 0.1);
  EXPECT_GT(curve.points[1].measurement.latency.p99,
            curve.points[0].measurement.latency.p99);
}

TEST(LoadSweep, StopAtSaturationEndsTheRamp) {
  workload::LoadSweepSpec spec;
  spec.workload = "hotspot";
  spec.loads = {0.2, 0.3, 0.4};  // all past the hotspot cap
  spec.base.measurement.warmup_cycles = 200;
  spec.base.measurement.measure_cycles = 512;
  spec.base.measurement.drain_limit = 20000;
  spec.stop_at_saturation = true;
  const workload::SaturationCurve curve = workload::sweep_load(spec);
  EXPECT_EQ(curve.points.size(), 1u) << "sweep must end at the first "
                                        "saturated point";
  EXPECT_DOUBLE_EQ(curve.saturation_load, 0.2);
}

}  // namespace
}  // namespace medea

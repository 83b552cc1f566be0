/// bench_saturation — latency-vs-load saturation curves for uniform
/// random traffic on both fabrics, via the phased measurement engine.
///
/// Two kinds of cases per network:
///  * one timed case per load point (`uniform/<net>/l<load>`), emitting
///    the measured latency percentiles (p50/p99/p999), mean, and
///    offered/accepted throughput as metrics — the numbers CI archives
///    in its per-commit bench JSON artifact;
///  * one `curve` case running the full `sweep_load()` twice: phased
///    runs are deterministic, so the two curves — including the detected
///    saturation point — must match exactly.  The `saturation_stable`
///    metric records the comparison and an unstable curve fails the
///    binary.
///
/// Phase lengths are deliberately short (warmup 512, measure 2048 on a
/// 4x4 torus): this is a trend bench, not a paper-grade study.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workload/saturation.h"
#include "workload/timeline.h"
#include "workload/workload.h"

using namespace medea;

int main(int argc, char** argv) {
  bench::RunOptions defaults;
  defaults.warmup = 0;
  defaults.repetitions = 1;  // phased runs are deterministic
  bench::Report report("saturation", argc, argv, defaults);

  bool all_stable = true;
  for (const char* net : {"deflection", "xy"}) {
    workload::LoadSweepSpec spec;
    spec.workload = "uniform";
    spec.loads = {0.10, 0.25, 0.40, 0.55, 0.70, 0.85};
    spec.base.synthetic = workload::SyntheticParams{};
    spec.base.synthetic->network = net;
    spec.base.measurement.warmup_cycles = 512;
    spec.base.measurement.measure_cycles = 2048;
    const std::string cfg =
        "uniform 4x4 " + std::string(net) + ", warmup 512, measure 2048";

    // Per-point latency/throughput rows.
    for (double load : spec.loads) {
      workload::RunRequest req = spec.base;
      req.synthetic->injection_rate = load;
      req.measurement.phased = true;
      workload::MeasurementResult m;
      sim::StatSet stats;
      char label[64];
      std::snprintf(label, sizeof(label), "uniform/%s/l%.2f", net, load);
      auto row =
          bench::run_case(label, cfg, report.options(), [&] {
            workload::RunResult r = workload::run_by_name("uniform", req);
            m = r.measurement;
            stats = std::move(r.stats);
            return r.cycles;
          });
      row.metric("p50", static_cast<double>(m.latency.p50));
      row.metric("p99", static_cast<double>(m.latency.p99));
      row.metric("p999", static_cast<double>(m.latency.p999));
      row.metric("latency_mean", m.latency.mean);
      row.metric("offered_load", m.offered_load);
      row.metric("accepted_throughput", m.accepted_throughput);
      row.metric("drained", m.drained ? 1.0 : 0.0);
      // Deflection forensics scalars (identically zero on the XY fabric,
      // which never misroutes): worst per-packet deflection count and
      // the mean — the congestion signal archived with every commit
      // alongside the latency percentiles.
      row.metric("max_deflections", stats.acc("noc.deflections").max());
      row.metric("mean_deflections", stats.acc("noc.deflections").mean());
      report.add(std::move(row));
    }

    // Time-resolved telemetry near the saturation knee: one sampled
    // phased run, rolled up into timeline_* metrics (peak windowed
    // deflection rate, peak flits/cycle, ...) so trend runs catch
    // transient congestion the end-of-run scalars average away.  The
    // knee load differs per fabric (deflection saturates earlier).
    {
      const double knee = std::string(net) == "xy" ? 0.85 : 0.70;
      workload::RunRequest req = spec.base;
      req.synthetic->injection_rate = knee;
      req.measurement.phased = true;
      req.telemetry.sample_every = 256;
      std::map<std::string, double> summary;
      char label[64];
      std::snprintf(label, sizeof(label), "uniform/%s/knee_timeline", net);
      auto row = bench::run_case(
          label, cfg + ", sampled every 256 @ knee", report.options(), [&] {
            const workload::RunResult r = workload::run_by_name("uniform", req);
            summary = workload::timeline_summary(r.timeline);
            return r.cycles;
          });
      for (const auto& [key, value] : summary) row.metric(key, value);
      report.add(std::move(row));
    }

    // Full curve, twice: the saturation point must be bit-stable.
    std::vector<workload::SaturationCurve> curves;
    bench::RunOptions twice;
    twice.warmup = 0;
    twice.repetitions = 2;
    auto curve_row = bench::run_case(
        "uniform/" + std::string(net) + "/curve", cfg, twice, [&] {
          curves.push_back(workload::sweep_load(spec));
          return curves.back().points.size();
        });
    bool stable = curves.size() == 2 &&
                  curves[0].saturation_load == curves[1].saturation_load &&
                  curves[0].peak_accepted == curves[1].peak_accepted &&
                  curves[0].points.size() == curves[1].points.size();
    if (stable) {
      for (std::size_t i = 0; i < curves[0].points.size(); ++i) {
        if (!(curves[0].points[i].measurement ==
              curves[1].points[i].measurement)) {
          stable = false;
        }
      }
    }
    if (!stable) {
      std::fprintf(stderr, "saturation curve on %s is NOT deterministic\n",
                   net);
      all_stable = false;
    }
    curve_row.metric("saturation_load", curves.empty()
                                            ? -1.0
                                            : curves[0].saturation_load);
    curve_row.metric("peak_accepted",
                     curves.empty() ? 0.0 : curves[0].peak_accepted);
    curve_row.metric("saturation_stable", stable ? 1.0 : 0.0);
    report.add(std::move(curve_row));
  }

  const int rc = report.finish();
  return all_stable ? rc : 1;
}

/// bench_trace_xform — throughput of the trace toolkit's transform
/// passes plus the cost profile of scaled replays.
///
/// Transform cases time one pass over a recorded uniform-random trace;
/// their callable returns the event count, so the harness's
/// cycles/sim_speed columns read as events and events/second (the
/// natural throughput unit for a pure trace-to-trace pass — noted in
/// each case's config string).  Replay cases return real simulated
/// cycles, so their sim_speed is comparable with bench_trace_replay;
/// each emits the event-heap pressure counters (wake requests vs
/// push-time dedup hits) on this deliberately hot-FIFO configuration —
/// the ROADMAP "event-heap pressure" item made measurable.

#include <string>

#include "harness.h"
#include "noc/network.h"
#include "sim/domain.h"
#include "workload/replay.h"
#include "workload/workload.h"
#include "workload/xform/inspect.h"
#include "workload/xform/transform.h"

using namespace medea;
namespace xform = medea::workload::xform;

int main(int argc, char** argv) {
  bench::Report report("trace_xform", argc, argv);

  // One hot recording shared by every case: 4x4 uniform at high load.
  workload::RunRequest req;
  req.synthetic = workload::SyntheticParams{};
  req.synthetic->flits_per_node = 4000;
  req.synthetic->injection_rate = 0.35;
  const workload::Trace trace = workload::record_workload("uniform", req);
  const std::string cfg =
      "uniform 4x4 r=0.35, " + std::to_string(trace.events.size()) +
      " events; cycles column = events processed";
  const double n_events = static_cast<double>(trace.events.size());

  auto xform_case = [&](const char* name, auto&& fn) {
    auto m = bench::run_case(name, cfg, report.options(), fn);
    m.metric("trace_events", n_events);
    report.add(std::move(m));
  };

  xform_case("xform/scale2x", [&] {
    return xform::RateScale(2.0).apply(trace).events.size();
  });
  xform_case("xform/remap8x8", [&] {
    return xform::RemapNodes(8, 8).apply(trace).events.size();
  });
  xform_case("xform/tile8x8", [&] {
    return xform::RemapNodes(8, 8, xform::RemapMode::kTiled)
        .apply(trace)
        .events.size();
  });
  xform_case("xform/merge_self", [&] {
    return xform::merge_traces(trace, trace).events.size();
  });
  xform_case("xform/validate", [&] {
    workload::validate_trace(trace);
    return trace.events.size();
  });
  xform_case("xform/inspect", [&] {
    return xform::inspect_trace(trace).num_events;
  });

  // Scaled replays: the rate-sweep fast path.  1x replays the recorded
  // schedule; 0.5x stretches it (longer sim, lighter load); 2x
  // compresses it (shorter sim, saturated queues).
  for (double scale : {1.0, 0.5, 2.0}) {
    const workload::Trace t =
        scale == 1.0 ? trace : xform::RateScale(scale).apply(trace);
    std::uint64_t wake_requests = 0;
    std::uint64_t wakes_deduped = 0;
    std::uint64_t bucket_pushes = 0;
    std::uint64_t overflow_pushes = 0;
    auto m = bench::run_case(
        "replay/x" + std::string(scale == 1.0   ? "1"
                                 : scale == 0.5 ? "0.5"
                                                : "2"),
        cfg, report.options(), [&] {
          sim::SimDomain dom(sim::SchedulerConfig{});
          noc::Network net(dom, noc::TorusGeometry(4, 4), req.machine.router,
                           t.meta.seed);
          const auto r = workload::run_replay(dom, net, t, 50'000'000,
                                              /*allow_config_mismatch=*/true);
          wake_requests = dom.wake_requests();
          wakes_deduped = dom.wakes_deduped();
          bucket_pushes = dom.bucket_pushes();
          overflow_pushes = dom.overflow_pushes();
          return r.cycles;
        });
    // Event-queue pressure on a hot fabric: how many wakes the push-time
    // dedup absorbed before they could reach either queue tier, and how
    // the survivors split between the O(1) calendar buckets and the
    // overflow binary heap (far-future wakes only — near zero here).
    m.metric("heap_wake_requests", static_cast<double>(wake_requests));
    m.metric("heap_wakes_deduped", static_cast<double>(wakes_deduped));
    m.metric("heap_dedup_ratio",
             wake_requests > 0 ? static_cast<double>(wakes_deduped) /
                                     static_cast<double>(wake_requests)
                               : 0.0);
    m.metric("sched_bucket_pushes", static_cast<double>(bucket_pushes));
    m.metric("sched_overflow_pushes", static_cast<double>(overflow_pushes));
    report.add(std::move(m));
  }

  return report.finish();
}

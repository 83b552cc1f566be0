/// bench_trace_replay — how much faster is trace replay than the full
/// simulation it was recorded from?
///
/// For each scenario the bench (1) records a flit trace from one full
/// run, then (2) times the full simulation and the bare-NoC replay of
/// that trace over the harness repetitions.  Replay advances (almost)
/// the same simulated cycles without PEs, caches, MPMMU or coroutines,
/// so its sim_speed should be a multiple of the full run's — that ratio
/// is the payoff of trace-driven NoC/DSE studies and is emitted as the
/// `speedup_vs_full` metric (the workload-engine acceptance bar is
/// >= 2x for the full-PE jacobi scenario).

#include <string>

#include "harness.h"
#include "noc/network.h"
#include "sim/domain.h"
#include "workload/replay.h"
#include "workload/workload.h"

using namespace medea;

namespace {

struct Scenario {
  const char* name;      // workload registry name
  const char* tag;       // case-name prefix
  workload::RunRequest req;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("trace_replay", argc, argv);

  Scenario scenarios[2];
  scenarios[0].name = "jacobi";
  scenarios[0].tag = "jacobi/8c_30x30";
  scenarios[0].req.machine.num_compute_cores = 8;
  scenarios[0].req.app = workload::AppParams{};
  scenarios[0].req.app->size = 30;
  scenarios[0].req.app->iterations = 2;

  scenarios[1].name = "uniform";
  scenarios[1].tag = "uniform/16n_r0.1";
  scenarios[1].req.synthetic = workload::SyntheticParams{};
  scenarios[1].req.synthetic->flits_per_node = 2000;
  scenarios[1].req.synthetic->injection_rate = 0.1;

  for (const Scenario& sc : scenarios) {
    // Record once (not timed); replay repetitions reuse the in-memory
    // trace so file I/O stays out of the measurement.
    const workload::Trace trace = workload::record_workload(sc.name, sc.req);
    const std::string cfg = std::string(sc.name) + " trace: " +
                            std::to_string(trace.events.size()) + " events";

    auto full = bench::run_case(
        std::string(sc.tag) + "/full", cfg, report.options(), [&] {
          return workload::run_by_name(sc.name, sc.req).cycles;
        });
    const double full_speed = full.sim_speed;
    full.metric("trace_events", static_cast<double>(trace.events.size()));
    report.add(std::move(full));

    auto replay = bench::run_case(
        std::string(sc.tag) + "/replay", cfg, report.options(), [&] {
          sim::SimDomain dom(sim::SchedulerConfig{});
          noc::Network net(
              dom, noc::TorusGeometry(trace.meta.width, trace.meta.height),
              sc.req.machine.router, trace.meta.seed);
          return workload::run_replay(dom, net, trace).cycles;
        });
    const double speedup =
        full_speed > 0.0 ? replay.sim_speed / full_speed : 0.0;
    replay.metric("speedup_vs_full", speedup);
    replay.metric("trace_bytes",
                  static_cast<double>(workload::serialize_trace(trace).size()));
    report.add(std::move(replay));
  }

  return report.finish();
}

/// Sharded-kernel throughput benchmark: the one measure of the sharded
/// parallel kernel (SchedulerConfig::num_shards).
///
/// Uniform-random deflection traffic runs on the paper's 4x4 torus and
/// on a 60x60 torus, each at 1, 2, 4 and one-per-hardware-thread row
/// bands; 1 shard is the single-thread baseline the speedup is measured
/// against.  Every case reports sim_speed, node_mcyc_per_s (simulated
/// cycles x torus nodes / wall second, in millions, comparable between
/// a 16-node and a 3600-node fabric where cycles/s alone is not) and the
/// parallel-health metrics: barrier wait (load imbalance), mailbox flits
/// (cross-shard traffic) and the calendar/overflow push split.
///
/// The paper's Jacobi design points are timed by perfbench's
/// `jacobi_mp_wb` workload, with the scheduler and frame-pool counters
/// per layer.

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "sim/domain.h"

using namespace medea;

namespace {

/// Simulated node-cycles per wall second, in millions.
void add_node_speed(bench::Measurement& m, int nodes) {
  m.metric("node_mcyc_per_s", m.sim_speed * nodes / 1e6);
}

/// Shard-count axis: uniform-random deflection traffic on a WxH torus
/// split into `shards` row bands (SchedulerConfig::num_shards); 1 runs
/// the single-thread baseline the speedup is measured against.  Exports
/// the parallel-efficiency metrics alongside sim_speed: barrier wait
/// (load imbalance), mailbox traffic (cross-shard flit volume), and the
/// calendar/overflow push split.
bench::Measurement sharded_traffic(const bench::RunOptions& opt, int width,
                                   int height, int shards, int flits) {
  sim::SchedulerConfig scfg;
  scfg.num_shards = static_cast<std::uint32_t>(shards);
  const int resolved = sim::SimDomain::resolve_shards(scfg, height);
  std::uint64_t barrier_ns = 0, mailbox = 0, channels = 0;
  std::uint64_t bucket = 0, overflow = 0;
  auto m = bench::run_case(
      "uniform_" + std::to_string(width) + "x" + std::to_string(height) +
          "/shards" + std::to_string(resolved),
      "pattern=uniform rate=0.30 flits_per_node=" + std::to_string(flits) +
          " network=deflection shards=" + std::to_string(resolved),
      opt, [&] {
        sim::SimDomain dom(scfg, height);
        const noc::TorusGeometry geom(width, height);
        noc::Network net(dom, geom, {}, 1);
        noc::TrafficConfig tc;
        tc.pattern = noc::TrafficPattern::kUniformRandom;
        tc.injection_rate = 0.30;
        tc.flits_per_node = flits;
        tc.seed = 1;
        (void)noc::run_traffic(dom, net, tc);
        barrier_ns = dom.barrier_wait_ns();
        mailbox = net.mailbox_flits();
        channels = net.num_shard_channels();
        bucket = dom.bucket_pushes();
        overflow = dom.overflow_pushes();
        return dom.now();
      });
  add_node_speed(m, width * height);
  m.metric("shards", static_cast<double>(resolved));
  m.metric("barrier_wait_ns", static_cast<double>(barrier_ns));
  m.metric("mailbox_flits", static_cast<double>(mailbox));
  m.metric("shard_channels", static_cast<double>(channels));
  m.metric("sched_bucket_pushes", static_cast<double>(bucket));
  m.metric("sched_overflow_pushes", static_cast<double>(overflow));
  return m;
}

/// The shard counts one axis sweeps: 1, 2, 4 and one per hardware
/// thread by default, or the single count the --shards=N filter
/// selected.  Deduplicated after clamping to the fabric height (a 4-row
/// torus caps at 4 shards).
std::vector<int> shard_axis(int only_shards, int height) {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::vector<int> raw = only_shards > 0
                                   ? std::vector<int>{only_shards}
                                   : std::vector<int>{1, 2, 4, hw};
  std::vector<int> counts;
  for (int s : raw) {
    sim::SchedulerConfig scfg;
    scfg.num_shards = static_cast<std::uint32_t>(s);
    const int resolved = sim::SimDomain::resolve_shards(scfg, height);
    bool dup = false;
    for (int c : counts) dup = dup || c == resolved;
    if (!dup) counts.push_back(resolved);
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  // --shards=N runs each fabric at exactly N >= 1 shards (a smoke mode);
  // the full run covers 1, 2, 4 and hardware-thread shards.
  int only_shards = -1;
  bench::Report report("sim_speed", argc, argv, {},
                       {{"--shards", 1, &only_shards}});
  // The paper's 4x4 torus (15 cores + the MPMMU) and a 60x60 torus
  // (3600 nodes, far beyond the paper's fabric; the paper's "60x60" is
  // the Jacobi array): the small fabric shows the sharding overhead
  // floor, the big one the speedup.
  for (int s : shard_axis(only_shards, 4)) {
    report.add(sharded_traffic(report.options(), 4, 4, s, 2000));
  }
  for (int s : shard_axis(only_shards, 60)) {
    report.add(sharded_traffic(report.options(), 60, 60, s, 200));
  }
  return report.finish();
}

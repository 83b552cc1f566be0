/// Simulator-throughput benchmark (§III ¶1 analogue).
///
/// The paper reports a 15x speedup of the cycle-accurate SystemC model
/// over HDL-ISS co-simulation, enabling 168 design points in ~1 day on 5
/// dual-Xeon servers.  The HDL-ISS baseline is not reproducible here, so
/// we report the absolute throughput of this simulator — simulated
/// cycles/second and design points/hour — which is the quantity that
/// makes the DSE methodology practical.
///
/// Every case also reports node_mcyc_per_s (simulated cycles x torus
/// nodes / wall second, in millions), which stays comparable between a
/// 16-node and a 3600-node fabric where cycles/s alone does not.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/jacobi.h"
#include "core/medea.h"
#include "dse/sweep.h"
#include "harness.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "sim/domain.h"
#include "sim/frame_pool.h"

using namespace medea;

namespace {

/// Simulated node-cycles per wall second, in millions.
void add_node_speed(bench::Measurement& m, int nodes) {
  m.metric("node_mcyc_per_s", m.sim_speed * nodes / 1e6);
}

bench::Measurement design_point(const bench::RunOptions& opt, int cores,
                                std::uint32_t kb) {
  double wall_per_point_ns = 0.0;
  // Kernel pressure counters from the last timed invocation (the run is
  // deterministic, so every invocation produces the same values).
  std::uint64_t bucket_pushes = 0;
  std::uint64_t overflow_pushes = 0;
  std::uint64_t wakes_deduped = 0;
  std::uint64_t commit_pushes = 0;
  std::uint64_t commits_deduped = 0;
  std::uint64_t frame_hits = 0;
  std::uint64_t frame_misses = 0;
  auto m = bench::run_case(
      "jacobi_60x60/" + std::to_string(cores) + "c_" + std::to_string(kb) +
          "kB",
      "cores=" + std::to_string(cores) + " l1_kb=" + std::to_string(kb) +
          " policy=WB variant=hybrid_mp n=60",
      opt, [&] {
        const sim::FramePool::Stats fp0 = sim::FramePool::tls().stats();
        core::MedeaSystem sys(
            dse::make_design_config(cores, kb, mem::WritePolicy::kWriteBack));
        apps::JacobiParams p;
        p.n = 60;
        p.variant = apps::JacobiVariant::kHybridMp;
        const auto res = apps::run_jacobi(sys, p);
        const sim::Scheduler& sched = sys.scheduler();
        bucket_pushes = sched.bucket_pushes();
        overflow_pushes = sched.overflow_pushes();
        wakes_deduped = sched.wakes_deduped();
        commit_pushes = sched.commit_pushes();
        commits_deduped = sched.commits_deduped();
        const sim::FramePool::Stats fp1 = sim::FramePool::tls().stats();
        frame_hits = fp1.hits - fp0.hits;
        frame_misses = fp1.misses - fp0.misses;
        return res.total_cycles;
      });
  wall_per_point_ns = m.wall_ns;
  add_node_speed(m, 16);  // the 4x4 torus of every design point
  // Design points per hour at this configuration's cost (the paper needed
  // 5 servers and a day for 168 points).
  if (wall_per_point_ns > 0.0) {
    m.metric("points_per_hour", 3600.0 / (wall_per_point_ns * 1e-9));
  }
  // Two-tier event-queue split and coroutine frame-pool effectiveness:
  // bucket pushes are the O(1) calendar fast path, overflow pushes hit
  // the binary heap; frame-pool hits recycle a warm frame, misses are
  // real heap allocations (a handful once the pool is warm).
  m.metric("sched_bucket_pushes", static_cast<double>(bucket_pushes));
  m.metric("sched_overflow_pushes", static_cast<double>(overflow_pushes));
  m.metric("sched_wakes_deduped", static_cast<double>(wakes_deduped));
  // Commit-list pressure: registrations that reached the list vs
  // duplicates absorbed by the Fifo epoch-stamp dedup.
  m.metric("sched_commit_pushes", static_cast<double>(commit_pushes));
  m.metric("sched_commit_dedups", static_cast<double>(commits_deduped));
  m.metric("frame_pool_hits", static_cast<double>(frame_hits));
  m.metric("frame_pool_misses", static_cast<double>(frame_misses));
  const double frame_total = static_cast<double>(frame_hits + frame_misses);
  m.metric("frame_pool_hit_rate",
           frame_total > 0.0 ? static_cast<double>(frame_hits) / frame_total
                             : 0.0);
  return m;
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
  // --shards=N restricts the run to the sharded-traffic axis at exactly
  // N >= 1 shards (CI smoke mode); the full run covers the app design
  // points plus the 1/2/4/hardware-threads shard axis on both fabrics.
  int only_shards = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--shards=", 0) == 0) {
      only_shards = bench::int_flag(a, "--shards", 1);
    }
  }
  bench::Report report("sim_speed", argc, argv);
  if (only_shards < 0) {
    report.add(design_point(report.options(), 2, 2));    // worst: miss-bound
    report.add(design_point(report.options(), 8, 16));   // mid
    report.add(design_point(report.options(), 15, 64));  // best: compute-bound
  }
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

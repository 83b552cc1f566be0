/// Differential tests for the event-queue kernels: every scenario must
/// be bit-identical between the calendar-queue scheduler (the default),
/// the legacy binary heap it replaced, and the sharded parallel kernel
/// at any shard count.
///
/// The kernel determinism contract says dispatch order within a cycle
/// is the canonical component-construction order, independent of when
/// or from where the wake was requested; all three kernels reproduce
/// that order exactly (the sharded kernel additionally merges cross-
/// shard observer events back into it), so *everything* observable —
/// cycle counts, per-flit delivery logs in raw dispatch order,
/// aggregate hardware stats, flit lifecycle traces — must match bit
/// for bit.  These tests run identical seeds through all kernels across
/// every registry workload and a randomized torture mesh, and fail on
/// the first divergence.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "noc/flit.h"
#include "noc/network.h"
#include "sim/domain.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "workload/replay.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace medea {
namespace {

using sim::SchedulerConfig;

SchedulerConfig calendar_cfg() { return {}; }

SchedulerConfig legacy_cfg() {
  SchedulerConfig cfg;
  cfg.queue = SchedulerConfig::EventQueue::kBinaryHeap;
  return cfg;
}

SchedulerConfig sharded_cfg(int shards) {
  SchedulerConfig cfg;
  cfg.num_shards = shards;
  return cfg;
}

SchedulerConfig sharded_heap_cfg() {
  SchedulerConfig cfg = legacy_cfg();
  cfg.num_shards = 2;
  return cfg;
}

/// Raw delivery log in true dispatch order: (cycle, node, uid) per flit.
/// Unsorted on purpose — order equality is the strongest cross-kernel
/// assertion the determinism contract supports.
struct DeliveryLog final : noc::FlitObserver {
  std::vector<std::tuple<sim::Cycle, int, std::uint32_t>> v;
  void on_inject(sim::Cycle, int, const noc::Flit&) override {}
  void on_deliver(sim::Cycle now, int node, const noc::Flit& f) override {
    v.emplace_back(now, node, f.uid);
  }
};

/// Tiny request for `name`, with the section matching its kind engaged.
workload::RunRequest tiny_req(const SchedulerConfig& sched,
                              const std::string& name) {
  workload::RunRequest req;
  req.machine.num_compute_cores = 2;
  req.machine.scheduler = sched;
  switch (workload::WorkloadRegistry::instance().at(name).kind()) {
    case workload::WorkloadKind::kApp: {
      workload::AppParams ap;
      ap.size = 8;
      req.app = ap;
      break;
    }
    case workload::WorkloadKind::kSynthetic: {
      workload::SyntheticParams sp;
      sp.injection_rate = 0.3;
      sp.flits_per_node = 50;
      req.synthetic = sp;
      break;
    }
    case workload::WorkloadKind::kReplay:
      break;  // caller fills req.replay
  }
  return req;
}

void expect_stats_identical(const sim::StatSet& a, const sim::StatSet& b,
                            const std::string& what) {
  EXPECT_EQ(a.counters(), b.counters()) << what << ": counters diverged";
  ASSERT_EQ(a.accumulators().size(), b.accumulators().size()) << what;
  auto ita = a.accumulators().begin();
  auto itb = b.accumulators().begin();
  for (; ita != a.accumulators().end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first) << what;
    EXPECT_EQ(ita->second.count(), itb->second.count()) << what << ": "
                                                        << ita->first;
    EXPECT_EQ(ita->second.sum(), itb->second.sum()) << what << ": "
                                                    << ita->first;
    EXPECT_EQ(ita->second.min(), itb->second.min()) << what << ": "
                                                    << ita->first;
    EXPECT_EQ(ita->second.max(), itb->second.max()) << what << ": "
                                                    << ita->first;
  }
}

/// One run of `name` under kernel `cfg`, with its raw delivery log.
struct KernelRun {
  workload::RunResult r;
  DeliveryLog log;
};

KernelRun run_kernel(const std::string& name, workload::RunRequest req,
                     const SchedulerConfig& cfg) {
  KernelRun out;
  req.machine.scheduler = cfg;
  out.r = workload::run_by_name(name, req, &out.log);
  return out;
}

void expect_runs_identical(const KernelRun& ref, const KernelRun& other,
                           const std::string& what) {
  EXPECT_EQ(ref.r.cycles, other.r.cycles) << what;
  EXPECT_EQ(ref.r.metric, other.r.metric) << what;
  EXPECT_EQ(ref.r.flits_delivered, other.r.flits_delivered) << what;
  EXPECT_EQ(ref.r.verified_ok, other.r.verified_ok) << what;
  EXPECT_EQ(ref.r.measurement, other.r.measurement)
      << what << ": latency measurements diverged";
  EXPECT_EQ(ref.log.v, other.log.v) << what << ": delivery logs diverged";
  expect_stats_identical(ref.r.stats, other.r.stats, what);
}

/// Run `name` once per kernel — calendar (the reference), legacy heap,
/// the calendar kernel sharded 2 and 3 ways, and the heap kernel
/// sharded 2 ways — with identical params, and assert the runs are
/// indistinguishable: cycle count, headline metric, flit totals,
/// aggregate stats and the raw per-flit delivery log.  Models that
/// cannot shard (apps, the XY fabric) take the transparent single-thread
/// fallback under the sharded configs, which must also be bit-identical.
void check_workload_identical(const std::string& name,
                              const workload::RunRequest& base) {
  const KernelRun ref = run_kernel(name, base, calendar_cfg());
  expect_runs_identical(ref, run_kernel(name, base, legacy_cfg()),
                        name + " [heap]");
  for (int shards : {2, 3}) {
    expect_runs_identical(
        ref, run_kernel(name, base, sharded_cfg(shards)),
        name + " [sharded x" + std::to_string(shards) + "]");
  }
  expect_runs_identical(ref, run_kernel(name, base, sharded_heap_cfg()),
                        name + " [heap sharded x2]");
}

TEST(SchedulerDiff, EveryRegistryWorkloadIsBitIdentical) {
  for (const char* name :
       {"jacobi", "jacobi-sync", "jacobi-sm", "reduction", "reduction-sm",
        "alltoall", "uniform", "hotspot", "transpose", "neighbor", "bitrev"}) {
    workload::RunRequest req = tiny_req(calendar_cfg(), name);
    req.verify = true;
    check_workload_identical(name, req);
  }
}

TEST(SchedulerDiff, SaturatedDeflectionTrafficIsBitIdentical) {
  // High injection on the deflection fabric with random tie-breaks: the
  // densest wake pattern the NoC produces, and RNG draws make any
  // dispatch-order divergence between the kernels instantly visible.
  workload::RunRequest req = tiny_req(calendar_cfg(), "uniform");
  req.synthetic->injection_rate = 0.9;
  req.synthetic->flits_per_node = 200;
  req.machine.router.random_tie_break = true;
  req.seed = 7;
  check_workload_identical("uniform", req);
}

TEST(SchedulerDiff, XyFabricIsBitIdentical) {
  workload::RunRequest req = tiny_req(calendar_cfg(), "transpose");
  req.synthetic->network = "xy";
  check_workload_identical("transpose", req);
}

TEST(SchedulerDiff, TraceReplayIsBitIdentical) {
  // Record once (under the default kernel), replay under both.
  workload::RunRequest rec = tiny_req(calendar_cfg(), "uniform");
  rec.synthetic->injection_rate = 0.5;
  const workload::Trace t = workload::record_workload("uniform", rec);
  const std::string path = testing::TempDir() + "/medea_sched_diff_replay.bin";
  workload::save_trace(t, path);

  workload::RunRequest req = tiny_req(calendar_cfg(), "replay");
  req.replay = workload::ReplayParams{};
  req.replay->trace_path = path;
  check_workload_identical("replay", req);
}

TEST(SchedulerDiff, FlitTracedRunIsBitIdenticalAcrossKernelsAndToUntraced) {
  // Lifecycle tracing rides the same determinism contract: the tracer
  // only observes, so a traced run must match the untraced one exactly,
  // and the finalized trace itself must be kernel-independent.
  workload::RunRequest req = tiny_req(calendar_cfg(), "uniform");
  req.synthetic->injection_rate = 0.8;
  req.synthetic->flits_per_node = 150;
  req.flit_trace.sample_every = 1;

  req.machine.scheduler = calendar_cfg();
  DeliveryLog cal_log;
  const workload::RunResult cal =
      workload::run_by_name("uniform", req, &cal_log);
  req.machine.scheduler = legacy_cfg();
  DeliveryLog heap_log;
  const workload::RunResult heap =
      workload::run_by_name("uniform", req, &heap_log);
  EXPECT_EQ(cal.cycles, heap.cycles);
  EXPECT_EQ(cal_log.v, heap_log.v) << "traced delivery logs diverged";
  EXPECT_EQ(cal.flit_trace, heap.flit_trace)
      << "flit traces diverged across kernels";
  expect_stats_identical(cal.stats, heap.stats, "traced uniform");

  // Sharded run: lifecycle events (hop-level included) funnel through
  // the per-shard buffers and must replay in canonical order, so the
  // finalized per-flit hop chains are bit-identical too.
  req.machine.scheduler = sharded_cfg(2);
  DeliveryLog shard_log;
  const workload::RunResult shard =
      workload::run_by_name("uniform", req, &shard_log);
  EXPECT_EQ(cal.cycles, shard.cycles);
  EXPECT_EQ(cal_log.v, shard_log.v) << "sharded traced delivery log diverged";
  EXPECT_EQ(cal.flit_trace, shard.flit_trace)
      << "flit traces diverged single-thread vs sharded";
  expect_stats_identical(cal.stats, shard.stats, "traced uniform sharded");

  // Tracing off, same kernel: nothing observable may change.
  workload::RunRequest untraced = req;
  untraced.machine.scheduler = calendar_cfg();
  untraced.flit_trace.sample_every = 0;
  DeliveryLog plain_log;
  const workload::RunResult plain =
      workload::run_by_name("uniform", untraced, &plain_log);
  EXPECT_EQ(cal.cycles, plain.cycles);
  EXPECT_EQ(cal_log.v, plain_log.v) << "tracing perturbed the run";
  expect_stats_identical(cal.stats, plain.stats, "traced-vs-untraced");
}

TEST(SchedulerDiff, JacobiFullSweepPointIsBitIdentical) {
  // A 15-core design point: the PE-dense configuration whose wake/frame
  // churn the calendar queue and frame pool exist for.
  workload::RunRequest req = tiny_req(calendar_cfg(), "jacobi");
  req.machine.num_compute_cores = 15;
  req.app->size = 12;
  req.verify = true;
  check_workload_identical("jacobi", req);
}

// ---------------------------------------------------------------------
// Randomized kernel torture: far-future wakes, ring wraps, duplicate
// cycles — patterns no hardware model produces but the contract allows.
// ---------------------------------------------------------------------

class ChaosComponent final : public sim::Component {
 public:
  ChaosComponent(sim::Scheduler& s, int id, std::uint64_t seed, int budget,
                 std::vector<std::pair<int, sim::Cycle>>* trail)
      : sim::Component(s, "chaos" + std::to_string(id)),
        id_(id),
        rng_(seed),
        budget_(budget),
        trail_(trail) {}

  void tick(sim::Cycle now) override {
    trail_->emplace_back(id_, now);
    if (budget_-- <= 0) return;
    // A burst of wakes per tick: mostly now+1, some mid-range, some far
    // beyond any realistic ring (forcing the overflow heap), plus
    // deliberate duplicates to exercise both dedup layers.
    const int n = 1 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t r = rng_.next_below(100);
      sim::Cycle delta = 1;
      if (r >= 97) {
        delta = 3000 + rng_.next_below(200000);  // overflow tier
      } else if (r >= 80) {
        delta = 2 + rng_.next_below(500);  // mid-range bucket
      }
      wake(delta);
      if (rng_.next_below(4) == 0) wake(delta);  // duplicate
    }
  }

 private:
  int id_;
  sim::Xoshiro256 rng_;
  int budget_;
  std::vector<std::pair<int, sim::Cycle>>* trail_;
};

TEST(SchedulerDiff, RandomizedWakeTortureIsBitIdentical) {
  auto run_kernel = [](const SchedulerConfig& cfg) {
    sim::Scheduler sched(cfg);
    std::vector<std::pair<int, sim::Cycle>> trail;
    std::vector<std::unique_ptr<ChaosComponent>> comps;
    for (int i = 0; i < 8; ++i) {
      comps.push_back(std::make_unique<ChaosComponent>(
          sched, i, 1000 + static_cast<std::uint64_t>(i), 400, &trail));
      sched.wake_at(*comps.back(), static_cast<sim::Cycle>(1 + i % 3));
    }
    EXPECT_TRUE(sched.run());
    return std::tuple{trail, sched.now(), sched.active_cycles(),
                      sched.wake_requests(), sched.wakes_deduped()};
  };

  const auto cal = run_kernel(calendar_cfg());
  const auto heap = run_kernel(legacy_cfg());
  EXPECT_EQ(std::get<0>(cal), std::get<0>(heap)) << "tick trails diverged";
  EXPECT_EQ(std::get<1>(cal), std::get<1>(heap));
  EXPECT_EQ(std::get<2>(cal), std::get<2>(heap));
  EXPECT_EQ(std::get<3>(cal), std::get<3>(heap));
  EXPECT_EQ(std::get<4>(cal), std::get<4>(heap));
}

// ---------------------------------------------------------------------
// Sharded-kernel edge cases: cycle-boundary injection straight across
// the shard seam, uneven row bands, over-provisioned shard counts, and
// the wake torture on the parallel kernel itself.
// ---------------------------------------------------------------------

/// A hand-crafted trace that injects at *every* consecutive cycle from
/// the rows on both sides of every 2-shard seam of a 4x4 torus (rows
/// 1<->2, plus the wrap seam 3<->0), so each global cycle both commits
/// flits into boundary mailboxes and drains them.
workload::Trace boundary_trace() {
  workload::Trace t;
  t.meta.width = 4;
  t.meta.height = 4;
  t.meta.coord_bits = workload::coord_bits_for(4, 4);
  t.meta.seed = 1;
  const noc::TorusGeometry geom(4, 4);
  std::uint32_t uid = 1;
  const auto add = [&](sim::Cycle c, int src, int dst) {
    workload::TraceEvent e;
    e.cycle = c;
    e.src = static_cast<std::uint16_t>(src);
    e.dst = static_cast<std::uint16_t>(dst);
    noc::Flit f;
    f.valid = true;
    f.dst = geom.coord_of(dst);
    f.src_id = static_cast<std::uint8_t>(src);
    e.uid = uid++;
    e.payload = noc::encode_flit(f, t.meta.coord_bits);
    t.events.push_back(e);
  };
  for (sim::Cycle c = 2; c <= 12; ++c) {
    const int x = static_cast<int>(c) % 4;
    add(c, geom.node_id({static_cast<std::uint8_t>(x), 1}),
        geom.node_id({static_cast<std::uint8_t>(x), 2}));  // seam down
    add(c, geom.node_id({static_cast<std::uint8_t>(x), 2}),
        geom.node_id({static_cast<std::uint8_t>(x), 1}));  // seam up
    add(c, geom.node_id({static_cast<std::uint8_t>(x), 3}),
        geom.node_id({static_cast<std::uint8_t>(x), 0}));  // wrap seam
  }
  t.meta.total_cycles = 64;
  return t;
}

TEST(ShardedDiff, BoundaryCycleInjectionMatchesSingleThread) {
  const workload::Trace trace = boundary_trace();
  const noc::TorusGeometry geom(4, 4);

  struct Outcome {
    workload::ReplayResult res;
    std::vector<std::tuple<sim::Cycle, int, std::uint32_t>> log;
    sim::StatSet stats;
  };
  const auto run_single = [&] {
    sim::SimDomain dom(calendar_cfg(), geom.height());
    noc::Network net(dom, geom, {}, 1);
    DeliveryLog log;
    net.set_observer(&log);
    Outcome o;
    o.res = workload::run_replay(dom, net, trace);
    o.log = std::move(log.v);
    o.stats = net.stats();
    return o;
  };
  const auto run_sharded = [&](int shards) {
    sim::SimDomain dom(sharded_cfg(shards), geom.height());
    noc::Network net(dom, geom, {}, 1);
    EXPECT_GT(net.num_shard_channels(), 0u);
    DeliveryLog log;
    net.set_observer(&log);
    Outcome o;
    o.res = workload::run_replay(dom, net, trace);
    // Every flit in this trace crosses a seam; with 2 shards the two
    // row-1<->2 streams (and half of each deflection detour) must have
    // moved through mailboxes.
    EXPECT_GT(net.mailbox_flits(), 0u);
    o.log = std::move(log.v);
    o.stats = net.stats();
    return o;
  };

  const Outcome single = run_single();
  ASSERT_EQ(single.res.flits_delivered, trace.events.size());
  for (int shards : {2, 4}) {
    const Outcome sharded = run_sharded(shards);
    const std::string what =
        "boundary replay x" + std::to_string(shards);
    EXPECT_EQ(single.res.cycles, sharded.res.cycles) << what;
    EXPECT_EQ(single.res.flits_injected, sharded.res.flits_injected) << what;
    EXPECT_EQ(single.res.flits_delivered, sharded.res.flits_delivered)
        << what;
    EXPECT_EQ(single.res.last_delivery_cycle,
              sharded.res.last_delivery_cycle)
        << what;
    EXPECT_EQ(single.log, sharded.log) << what << ": delivery log diverged";
    expect_stats_identical(single.stats, sharded.stats, what);
  }
}

TEST(ShardedDiff, UnevenShardWidthsAreBitIdentical) {
  // A 4x5 torus under 3 shards splits into row bands of 2/2/1 — the
  // widest and narrowest band differ by a factor of two, and the wrap
  // seam joins the widest band to the narrowest.
  workload::RunRequest req = tiny_req(calendar_cfg(), "uniform");
  req.machine.noc_width = 4;
  req.machine.noc_height = 5;
  req.synthetic->injection_rate = 0.6;
  req.synthetic->flits_per_node = 80;
  check_workload_identical("uniform", req);
}

TEST(ShardedDiff, MoreShardsThanRowsClampAndMatch) {
  // num_shards far beyond the row count: the domain clamps to the
  // model's useful maximum (one band per row) and the run is still
  // bit-identical — never one thread per nonexistent router.
  EXPECT_EQ(sim::SimDomain::resolve_shards(sharded_cfg(64), 4), 4);
  EXPECT_EQ(sim::SimDomain::resolve_shards(sharded_cfg(64), 0), 64);
  EXPECT_EQ(sim::SimDomain::resolve_shards(calendar_cfg(), 4), 1);

  const workload::RunRequest req = tiny_req(calendar_cfg(), "hotspot");
  const KernelRun ref = run_kernel("hotspot", req, calendar_cfg());
  expect_runs_identical(ref, run_kernel("hotspot", req, sharded_cfg(64)),
                        "hotspot [sharded x64 on 4 rows]");
}

TEST(ShardedDiff, ShardedRandomizedWakeTortureIsBitIdentical) {
  // The chaos mesh on the parallel kernel itself: components spread
  // round-robin across shards, each recording its own trail (so every
  // trail is written by exactly one shard thread and the comparison is
  // independent of cross-shard interleaving).  Global cycle sequence,
  // per-component tick trails and the kernel-independent counters must
  // match the single-thread calendar run exactly.
  constexpr int kComps = 8;
  struct Result {
    std::vector<std::vector<std::pair<int, sim::Cycle>>> trails;
    sim::Cycle now = 0;
    std::uint64_t active = 0, wakes = 0, deduped = 0;
  };
  const auto run_single = [&] {
    Result res;
    res.trails.resize(kComps);
    sim::Scheduler sched(calendar_cfg());
    std::vector<std::unique_ptr<ChaosComponent>> comps;
    for (int i = 0; i < kComps; ++i) {
      comps.push_back(std::make_unique<ChaosComponent>(
          sched, i, 5000 + static_cast<std::uint64_t>(i), 300,
          &res.trails[static_cast<std::size_t>(i)]));
      sched.wake_at(*comps.back(), static_cast<sim::Cycle>(1 + i % 3));
    }
    EXPECT_TRUE(sched.run());
    res.now = sched.now();
    res.active = sched.active_cycles();
    res.wakes = sched.wake_requests();
    res.deduped = sched.wakes_deduped();
    return res;
  };
  const auto run_sharded = [&](int shards) {
    Result res;
    res.trails.resize(kComps);
    sim::SimDomain dom(sharded_cfg(shards), kComps);
    EXPECT_EQ(dom.num_shards(), shards);
    std::vector<std::unique_ptr<ChaosComponent>> comps;
    for (int i = 0; i < kComps; ++i) {
      sim::Scheduler& shard = dom.shard(i % dom.num_shards());
      comps.push_back(std::make_unique<ChaosComponent>(
          shard, i, 5000 + static_cast<std::uint64_t>(i), 300,
          &res.trails[static_cast<std::size_t>(i)]));
      shard.wake_at(*comps.back(), static_cast<sim::Cycle>(1 + i % 3));
    }
    EXPECT_TRUE(dom.run());
    res.now = dom.now();
    res.active = dom.active_cycles();
    res.wakes = dom.wake_requests();
    res.deduped = dom.wakes_deduped();
    return res;
  };

  const Result single = run_single();
  for (int shards : {2, 3}) {
    const Result sharded = run_sharded(shards);
    const std::string what = "chaos x" + std::to_string(shards);
    EXPECT_EQ(single.trails, sharded.trails) << what << ": trails diverged";
    EXPECT_EQ(single.now, sharded.now) << what;
    EXPECT_EQ(single.active, sharded.active) << what;
    EXPECT_EQ(single.wakes, sharded.wakes) << what;
    EXPECT_EQ(single.deduped, sharded.deduped) << what;
  }
}

}  // namespace
}  // namespace medea

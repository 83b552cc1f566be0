/// The built-in workload set: both full-system applications (all
/// programming-model variants), the four synthetic NoC patterns, and
/// trace replay — everything behind the one registry the sweeps, the
/// benches and the CLI share.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/alltoall.h"
#include "apps/jacobi.h"
#include "apps/reduction.h"
#include "core/system.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "noc/xy_network.h"
#include "workload/measure.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace medea::workload {
namespace {

/// The engaged section, or kind-appropriate defaults when the caller
/// left it out (a disengaged section is "defaults", not an error).
template <typename Section>
Section section_or_default(const std::optional<Section>& s) {
  return s.has_value() ? *s : Section{};
}

/// Memory-system series for app-workload timelines: the MPMMU's request
/// stream, its local cache, and every core's PE + L1 counters (prefixed
/// "core<rank>." so the per-core streams stay distinguishable).  A no-op
/// unless the run attached a sampler, so untimed runs pay nothing.
void add_memory_telemetry(ScopedTelemetry& telemetry, core::MedeaSystem& sys) {
  telemetry.add("", sys.mpmmu().stats());
  telemetry.add("mpmmu.", sys.mpmmu().cache().stats());
  for (int r = 0; r < sys.num_cores(); ++r) {
    const std::string prefix = "core" + std::to_string(r) + ".";
    telemetry.add(prefix, sys.core(r).stats());
    telemetry.add(prefix, sys.core(r).cache().stats());
  }
}

/// Kernel pressure counters merged into every run's stats.  Only the
/// kernel-*independent* ones belong here: the differential tests compare
/// full counter maps across event-queue kernels (heap, calendar, sharded
/// at any shard count), so bucket_pushes/overflow_pushes (two-tier
/// placement) and commit_pushes/commits_deduped (a split boundary link
/// arms its TX and RX halves separately) stay out — all four remain
/// visible as timeline series via Sampler::attach().  The wake counters
/// are shard sums (each wake request lands on exactly one shard, so the
/// sums bit-match the single-thread kernels); active cycles are global.
void add_sched_stats(const sim::SimDomain& dom, sim::StatSet& stats) {
  stats.set("sched.wake_requests", dom.wake_requests());
  stats.set("sched.wakes_deduped", dom.wakes_deduped());
  stats.set("sched.active_cycles", dom.active_cycles());
}

// ---------------------------------------------------------------------
// Full-system applications
// ---------------------------------------------------------------------

class JacobiWorkload final : public Workload {
 public:
  JacobiWorkload(std::string name, apps::JacobiVariant variant,
                 std::string description)
      : name_(std::move(name)),
        variant_(variant),
        description_(std::move(description)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  WorkloadKind kind() const override { return WorkloadKind::kApp; }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const AppParams ap = section_or_default(req.app);
    core::MedeaConfig cfg = req.machine;
    cfg.seed = req.seed;
    core::MedeaSystem sys(cfg);
    if (noc::FlitObserver* o = ctx.observer) sys.network().set_observer(o);
    ScopedTelemetry telemetry(ctx, sys.domain(), sys.network().stats());
    add_memory_telemetry(telemetry, sys);

    apps::JacobiParams jp;
    jp.n = ap.size > 0 ? ap.size : 30;
    jp.warmup_iterations = ap.warmup_iterations;
    jp.timed_iterations = ap.iterations;
    jp.variant = variant_;
    jp.verify = req.verify;
    const apps::JacobiResult res = apps::run_jacobi(sys, jp);

    RunResult r;
    r.cycles = res.total_cycles;
    r.metric = res.cycles_per_iteration;
    r.metric_name = "cycles_per_iteration";
    r.stats = sys.aggregate_stats();
    add_sched_stats(sys.domain(), r.stats);
    r.flits_delivered = r.stats.get("noc.flits_delivered");
    r.verified_ok = !jp.verify || res.max_abs_error == 0.0;
    return r;
  }

 private:
  std::string name_;
  apps::JacobiVariant variant_;
  std::string description_;
};

class ReductionWorkload final : public Workload {
 public:
  ReductionWorkload(std::string name, apps::ReductionVariant variant,
                    std::string description)
      : name_(std::move(name)),
        variant_(variant),
        description_(std::move(description)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  WorkloadKind kind() const override { return WorkloadKind::kApp; }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const AppParams ap = section_or_default(req.app);
    core::MedeaConfig cfg = req.machine;
    cfg.seed = req.seed;
    core::MedeaSystem sys(cfg);
    if (noc::FlitObserver* o = ctx.observer) sys.network().set_observer(o);
    ScopedTelemetry telemetry(ctx, sys.domain(), sys.network().stats());
    add_memory_telemetry(telemetry, sys);

    apps::ReductionParams rp;
    rp.elements = ap.size > 0 ? ap.size : 1024;
    rp.repeats = ap.iterations;
    rp.variant = variant_;
    const apps::ReductionResult res = apps::run_reduction(sys, rp);

    RunResult r;
    r.cycles = res.total_cycles;
    r.metric = res.cycles_per_round;
    r.metric_name = "cycles_per_round";
    r.stats = sys.aggregate_stats();
    add_sched_stats(sys.domain(), r.stats);
    r.flits_delivered = r.stats.get("noc.flits_delivered");
    // The MP variant accumulates in rank order (exact); the SM variant's
    // order follows lock grants, so it gets the documented tolerance.
    r.verified_ok = !req.verify || res.abs_error <= 1e-9;
    return r;
  }

 private:
  std::string name_;
  apps::ReductionVariant variant_;
  std::string description_;
};

// ---------------------------------------------------------------------
// NoC-only synthetic traffic
// ---------------------------------------------------------------------

class SyntheticWorkload final : public Workload {
 public:
  explicit SyntheticWorkload(noc::TrafficPattern pattern)
      : pattern_(pattern) {}

  std::string name() const override { return noc::to_string(pattern_); }
  std::string description() const override {
    switch (pattern_) {
      case noc::TrafficPattern::kUniformRandom:
        return "synthetic NoC traffic: uniform-random destinations";
      case noc::TrafficPattern::kHotspot:
        return "synthetic NoC traffic: all nodes target one hotspot";
      case noc::TrafficPattern::kTranspose:
        return "synthetic NoC traffic: (x,y)->(y,x) permutation";
      case noc::TrafficPattern::kNeighbor:
        return "synthetic NoC traffic: nearest-neighbour ring";
      case noc::TrafficPattern::kBitReversal:
        return "synthetic NoC traffic: node i -> bit-reverse(i) (FFT "
               "butterfly permutation)";
    }
    return "synthetic NoC traffic";
  }
  WorkloadKind kind() const override { return WorkloadKind::kSynthetic; }

  TraceNetConfig net_config(const RunRequest& req) const override {
    const SyntheticParams sp = section_or_default(req.synthetic);
    if (sp.network == "xy") {
      return TraceNetConfig::from(sp.xy_router, sp.xy_torus_wrap);
    }
    return TraceNetConfig::from(req.machine.router);
  }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const SyntheticParams sp = section_or_default(req.synthetic);
    noc::TrafficConfig tc;
    tc.pattern = pattern_;
    tc.injection_rate = sp.injection_rate;
    tc.process = sp.process;
    tc.flits_per_node = sp.flits_per_node;
    tc.hotspot_node = sp.hotspot_node;
    tc.seed = req.seed;

    // Synthetic patterns drive either fabric (sp.network); stat keys and
    // the latency accumulator just carry the fabric's prefix.  Row bands
    // cap useful deflection shards at the torus height (anything beyond
    // one shard runs the lockstep parallel kernel, bit-identical to the
    // single-thread run); the XY baseline always runs on one shard.
    const bool xy = sp.network == "xy";
    if (!xy && sp.network != "deflection") {
      throw std::invalid_argument(
          "synthetic workload: unknown network '" + sp.network +
          "' (expected \"deflection\" or \"xy\")");
    }
    const noc::TorusGeometry geom(req.machine.noc_width,
                                  req.machine.noc_height);
    sim::SimDomain dom(req.machine.scheduler, xy ? 1 : geom.height());
    std::unique_ptr<noc::Fabric> net;
    if (xy) {
      net = std::make_unique<noc::XyNetwork>(dom, geom, sp.xy_router,
                                             sp.xy_torus_wrap);
    } else {
      net = std::make_unique<noc::Network>(dom, geom, req.machine.router,
                                           req.seed);
    }
    const std::string prefix = xy ? "xynoc." : "noc.";
    if (noc::FlitObserver* o = ctx.observer) net->set_observer(o);

    ScopedTelemetry telemetry(ctx, dom, net->stats());
    RunResult r;
    if (req.measurement.phased) {
      // Validation guarantees ctx.measure is set whenever
      // measurement.phased is.
      const MeasurementResult m =
          run_phased_traffic(dom, *net, tc, req.measurement, *ctx.measure);
      r.metric = m.latency.mean;
      r.metric_name = "measured_avg_flit_latency";
      r.stats = net->stats();
      r.flits_delivered = r.stats.get(prefix + "flits_delivered");
      // A phased run is sound when every measured flit made it out.
      r.verified_ok = m.drained;
    } else {
      const auto received =
          static_cast<std::uint64_t>(noc::run_traffic(dom, *net, tc));
      r.metric = net->stats().acc(prefix + "latency").mean();
      r.metric_name = "avg_flit_latency";
      r.stats = net->stats();
      r.flits_delivered = r.stats.get(prefix + "flits_delivered");
      // A budget run is sound when every injected flit was delivered and
      // consumed by its endpoint.
      r.verified_ok =
          r.flits_delivered == r.stats.get(prefix + "flits_injected") &&
          received == r.flits_delivered;
    }
    add_sched_stats(dom, r.stats);
    r.cycles = dom.now();
    return r;
  }

 private:
  noc::TrafficPattern pattern_;
};

// ---------------------------------------------------------------------
// All-to-all exchange (full system)
// ---------------------------------------------------------------------

class AlltoallWorkload final : public Workload {
 public:
  std::string name() const override { return "alltoall"; }
  std::string description() const override {
    return "personalized all-to-all exchange over eMPI (ring schedule; "
           "every core sends a distinct chunk to every other core)";
  }
  WorkloadKind kind() const override { return WorkloadKind::kApp; }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const AppParams ap = section_or_default(req.app);
    core::MedeaConfig cfg = req.machine;
    cfg.seed = req.seed;
    core::MedeaSystem sys(cfg);
    if (noc::FlitObserver* o = ctx.observer) sys.network().set_observer(o);
    ScopedTelemetry telemetry(ctx, sys.domain(), sys.network().stats());
    add_memory_telemetry(telemetry, sys);

    apps::AlltoallParams aap;
    aap.words_per_pair = ap.size > 0 ? ap.size : 8;
    aap.repeats = ap.iterations;
    const apps::AlltoallResult res = apps::run_alltoall(sys, aap);

    RunResult r;
    r.cycles = res.total_cycles;
    r.metric = res.cycles_per_round;
    r.metric_name = "cycles_per_round";
    r.stats = sys.aggregate_stats();
    add_sched_stats(sys.domain(), r.stats);
    r.flits_delivered = r.stats.get("noc.flits_delivered");
    // Receivers verify every word against the (src,dst,i) reference on
    // every run; req.verify only decides whether the result gates on it.
    r.verified_ok = !req.verify || res.verified_ok;
    return r;
  }
};

// ---------------------------------------------------------------------
// Trace replay
// ---------------------------------------------------------------------

class ReplayWorkload final : public Workload {
 public:
  std::string name() const override { return "replay"; }
  std::string description() const override {
    return "re-inject a recorded flit trace into a bare NoC (fast-forward "
           "mode; requires replay.trace_path)";
  }
  WorkloadKind kind() const override { return WorkloadKind::kReplay; }

  /// The replay NoC takes its geometry from the trace header, not from
  /// the machine config (recorders must be sized accordingly).
  std::pair<int, int> noc_dims(const RunRequest& req) const override {
    const TraceMeta meta = load_trace_meta(require_path(req));
    return {meta.width, meta.height};
  }

  /// Re-recording a replay keeps the original header's fabric.
  TraceNetConfig net_config(const RunRequest& req) const override {
    return load_trace_meta(require_path(req)).net;
  }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const ReplayParams rp = section_or_default(req.replay);
    const Trace trace = load_trace(require_path(req));

    // Seed the NoC from the trace header, not the replay params: with
    // random_tie_break routers the recorded deflection choices depend on
    // the recorded seed, and bit-identical replay depends on matching it.
    // The header says which fabric recorded the trace; rebuild exactly
    // that one.  Deflection replays run on the machine's RouterConfig
    // (the replayer refuses a config that differs from the recording
    // unless rp.force_config makes it explicit) and shard like synthetic
    // traffic; the XY fabric runs on one shard.
    const bool xy = trace.meta.net.kind == TraceNetKind::kBufferedXy;
    const noc::TorusGeometry geom(trace.meta.width, trace.meta.height);
    sim::SimDomain dom(req.machine.scheduler, xy ? 1 : geom.height());
    std::unique_ptr<noc::Fabric> net;
    if (xy) {
      net = std::make_unique<noc::XyNetwork>(
          dom, geom, trace.meta.net.xy_router_config(),
          trace.meta.net.torus_wrap);
    } else {
      net = std::make_unique<noc::Network>(dom, geom, req.machine.router,
                                           trace.meta.seed);
    }
    if (noc::FlitObserver* o = ctx.observer) net->set_observer(o);
    ScopedTelemetry telemetry(ctx, dom, net->stats());
    const ReplayResult res =
        run_replay(dom, *net, trace, kReplayLimit, rp.force_config);
    RunResult r;
    r.stats = net->stats();
    add_sched_stats(dom, r.stats);
    r.cycles = res.cycles;
    r.metric = static_cast<double>(res.last_delivery_cycle);
    r.metric_name = "last_delivery_cycle";
    r.flits_delivered = res.flits_delivered;
    // Every recorded flit must come out of the network again.
    r.verified_ok = res.flits_delivered == trace.events.size();
    return r;
  }

 private:
  static constexpr sim::Cycle kReplayLimit = 50'000'000;

  static const std::string& require_path(const RunRequest& req) {
    if (!req.replay.has_value() || req.replay->trace_path.empty()) {
      throw std::invalid_argument(
          "replay workload: replay.trace_path must name a recorded trace");
    }
    return req.replay->trace_path;
  }
};

}  // namespace

namespace detail {

void register_builtins(WorkloadRegistry& reg) {
  reg.add(std::make_unique<JacobiWorkload>(
      "jacobi", apps::JacobiVariant::kHybridMp,
      "Jacobi 2-D Laplace solver, hybrid message-passing variant (the "
      "paper's benchmark)"));
  reg.add(std::make_unique<JacobiWorkload>(
      "jacobi-sync", apps::JacobiVariant::kHybridSyncOnly,
      "Jacobi solver: shared-memory data exchange, message-passing "
      "synchronization"));
  reg.add(std::make_unique<JacobiWorkload>(
      "jacobi-sm", apps::JacobiVariant::kPureSharedMemory,
      "Jacobi solver: pure shared memory with lock-based barriers"));
  reg.add(std::make_unique<ReductionWorkload>(
      "reduction", apps::ReductionVariant::kMessagePassing,
      "parallel dot product, message-passing gather+broadcast"));
  reg.add(std::make_unique<ReductionWorkload>(
      "reduction-sm", apps::ReductionVariant::kSharedMemory,
      "parallel dot product, lock-protected shared accumulator"));
  reg.add(std::make_unique<AlltoallWorkload>());
  for (noc::TrafficPattern pat :
       {noc::TrafficPattern::kUniformRandom, noc::TrafficPattern::kHotspot,
        noc::TrafficPattern::kTranspose, noc::TrafficPattern::kNeighbor,
        noc::TrafficPattern::kBitReversal}) {
    reg.add(std::make_unique<SyntheticWorkload>(pat));
  }
  reg.add(std::make_unique<ReplayWorkload>());
}

}  // namespace detail
}  // namespace medea::workload

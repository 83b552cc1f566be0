#pragma once

#include <memory>
#include <string>

#include "noc/coord.h"
#include "noc/fabric.h"
#include "noc/flit.h"
#include "sim/domain.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

/// \file traffic.h
/// Synthetic traffic generation for NoC characterization (used by the
/// deflection-vs-buffered ablation benches, by stress tests, and exposed
/// by name — uniform/hotspot/transpose/neighbor — through the workload
/// registry in src/workload/).
///
/// Patterns are the standard NoC evaluation set:
///  * kUniformRandom — every node sends to uniformly random others,
///  * kHotspot      — all traffic converges on one node (the MPMMU
///                    pattern: what pure shared memory does to the NoC),
///  * kTranspose    — (x,y) -> (y,x), a classic adversarial permutation,
///  * kNeighbor     — nearest-neighbour ring, the halo-exchange pattern,
///  * kBitReversal  — node i -> bit-reverse(i), the FFT butterfly
///                    permutation (asymmetric, long-haul; the classic
///                    worst case for dimension-ordered routing).
///
/// A TrafficEndpoint offers flits to the fabric under a pluggable
/// InjectionProcess (Bernoulli, bursty on-off) and sinks whatever
/// arrives, on either fabric (noc::Fabric: the deflection Network or
/// the buffered-XY baseline).

namespace medea::noc {

enum class TrafficPattern : std::uint8_t {
  kUniformRandom,
  kHotspot,
  kTranspose,
  kNeighbor,
  kBitReversal,
};

const char* to_string(TrafficPattern p);

/// Destination chooser shared by all endpoint instantiations.
/// hotspot_node is used only by kHotspot.
int pick_destination(TrafficPattern p, const TorusGeometry& geom, int src,
                     int hotspot_node, sim::Xoshiro256& rng);

/// When an endpoint's injection process fires, how the offer is timed.
/// Bernoulli is the classic memoryless process; on-off is a two-state
/// Markov-modulated process (bursty traffic: geometric on/off dwell
/// times) with the same long-run offered load, the booksim-style
/// `injection_process` axis for saturation studies.
enum class InjectionKind : std::uint8_t {
  kBernoulli,
  kOnOff,
};

const char* to_string(InjectionKind k);

/// Shape parameters of the injection process; the offered load itself
/// (flits/node/cycle) stays a separate knob so sweeps can walk it.
struct InjectionSpec {
  InjectionKind kind = InjectionKind::kBernoulli;
  /// kOnOff only: per-cycle on->off / off->on transition probabilities.
  /// Steady-state on-fraction = beta/(alpha+beta); the in-burst rate is
  /// derived so the long-run offered load matches the requested rate.
  double burst_alpha = 0.05;
  double burst_beta = 0.02;

  bool operator==(const InjectionSpec&) const = default;
};

/// Per-cycle arrival process of one endpoint.  fire() decides "offer a
/// flit this cycle?", drawing from the endpoint's own RNG stream so
/// runs stay deterministic per (seed, node).
class InjectionProcess {
 public:
  virtual ~InjectionProcess() = default;
  /// One cycle's arrival decision.
  virtual bool fire(sim::Xoshiro256& rng) = 0;
  /// Long-run offered load this process was built for (flits/cycle).
  virtual double rate() const = 0;
};

/// Build the process for `spec` at offered load `rate` (flits/node/cycle
/// in [0, 1]).  Throws std::invalid_argument when the parameters are
/// inconsistent (e.g. an on-off burst too weak to reach `rate`).
std::unique_ptr<InjectionProcess> make_injection_process(
    const InjectionSpec& spec, double rate, sim::Xoshiro256& rng);

struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  double injection_rate = 0.1;  ///< offered load, flits per node per cycle
  InjectionSpec process{};      ///< arrival process shape at that load
  int flits_per_node = 1000;    ///< per-node budget; < 0 = unlimited
  int hotspot_node = 0;
  std::uint64_t seed = 1;
};

/// One traffic endpoint attached to node `node` of fabric N.  Every run
/// helper uses N = noc::Fabric (all its tick-path calls are
/// non-virtual); a concrete fabric type works too.  Endpoints must be
/// constructed against the node's own scheduler (net.sched_of(node)) so
/// sharded fabrics keep each node's generator on its shard.
///
/// Budget mode (flits_per_node > 0) self-terminates after the budget is
/// spent — the classic "drain a fixed batch" run.  Unlimited mode
/// (flits_per_node < 0) keeps offering until stop_injecting() is
/// called; the phased measurement driver uses it for warmup/measure/
/// drain runs.  attempts()/refused() expose offered-vs-refused counts
/// so measurement can report offered load and source-queue pushback.
template <typename N>
class TrafficEndpoint : public sim::Component {
 public:
  TrafficEndpoint(sim::Scheduler& sched, N& net, int node,
                  const TrafficConfig& cfg)
      : sim::Component(sched, "traffic" + std::to_string(node)),
        net_(net),
        node_(node),
        cfg_(cfg),
        rng_(cfg.seed * 1000003ull + static_cast<std::uint64_t>(node)),
        proc_(make_injection_process(cfg.process, cfg.injection_rate, rng_)),
        remaining_(cfg.flits_per_node) {
    net.eject(node).set_consumer(this);
    sched.wake_at(*this, 1);
  }

  void tick(sim::Cycle now) override {
    auto& ej = net_.eject(node_);
    while (!ej.empty()) {
      ej.pop();
      ++received_;
    }
    if (injecting() && proc_->fire(rng_)) {
      const int dst = pick_destination(cfg_.pattern, net_.geometry(), node_,
                                       cfg_.hotspot_node, rng_);
      if (dst == node_) {
        consume_budget();  // self-addressed slot (e.g. the hotspot node): drop
      } else if (auto& inj = net_.inject(node_); inj.can_push()) {
        Flit f;
        f.valid = true;
        f.dst = net_.geometry().coord_of(dst);
        f.type = FlitType::kMessage;
        f.subtype = kMpData;
        f.src_id = static_cast<std::uint8_t>(node_ & 0xFF);
        f.uid = net_.node_flit_uid(node_);
        f.inject_cycle = now;
        inj.push(f);
        ++attempts_;
        consume_budget();
      } else {
        // Offered but the source queue was full: the slot is lost (the
        // budget survives), which is what makes accepted < offered
        // observable past saturation.
        ++attempts_;
        ++refused_;
      }
    }
    if (injecting()) wake();
  }

  /// Stop offering new flits (unlimited-mode drain); the endpoint keeps
  /// sinking ejections.
  void stop_injecting() { stopped_ = true; }

  int received() const { return received_; }
  int remaining() const { return remaining_; }
  /// Flits offered to the fabric (injected + refused; self-addressed
  /// drops are not offers).
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t refused() const { return refused_; }

 private:
  bool injecting() const { return !stopped_ && remaining_ != 0; }
  void consume_budget() {
    if (remaining_ > 0) --remaining_;
  }

  N& net_;
  int node_;
  TrafficConfig cfg_;
  sim::Xoshiro256 rng_;
  std::unique_ptr<InjectionProcess> proc_;
  int remaining_;
  int received_ = 0;
  bool stopped_ = false;
  std::uint64_t attempts_ = 0;
  std::uint64_t refused_ = 0;
};

/// Attach endpoints to every node of `net` (each on its node's shard),
/// run `dom` until the fabric drains and refresh the fabric's stats.
/// Returns total flits received across all nodes.  Budget mode only
/// (cfg.flits_per_node > 0) — unlimited endpoints never drain; phased
/// runs go through workload::run_phased_traffic instead.  Throws
/// std::runtime_error when the run reaches `limit` without draining.
int run_traffic(sim::SimDomain& dom, Fabric& net, const TrafficConfig& cfg,
                sim::Cycle limit = 50'000'000);

}  // namespace medea::noc

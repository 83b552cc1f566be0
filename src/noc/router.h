#pragma once

#include <array>

#include "noc/fabric.h"
#include "sim/rng.h"
#include "sim/stats.h"

/// \file router.h
/// The MEDEA deflection ("hot-potato") router, paper §II-A.
///
/// Properties reproduced from the paper:
///  * full packet switching: every flit of a packet routes independently,
///    so flits of one logic packet can (and do) arrive out of order;
///  * minimal storage: never more than one flit per input channel, no
///    packet buffers, no back-pressure between switches;
///  * deadlock-free by construction (flits always move); livelock is
///    theoretically possible, mitigated here — as in most hot-potato
///    designs — by oldest-first priority, and watched by a hop counter.
///
/// Per cycle the router:
///  1. accepts at most one flit per input link,
///  2. ejects up to eject_per_cycle flits addressed to this node,
///  3. assigns remaining flits to output ports oldest-first, preferring
///     productive directions, deflecting losers to any free port,
///  4. injects at most one local flit if an output port is still free.

namespace medea::noc {

// FlitObserver (the flit-event hook both router models fire) lives in
// flit.h so the buffered-XY baseline can use it without this header.

struct RouterConfig {
  int eject_per_cycle = 1;      ///< local delivery bandwidth (flits/cycle)
  int inject_queue_depth = 2;   ///< NI-side injection staging
  int eject_queue_depth = 4;    ///< NI-side delivery staging
  bool random_tie_break = false;  ///< age ties: random port pick vs fixed scan

  bool operator==(const RouterConfig&) const = default;
};

class DeflectionRouter final : public Router {
 public:
  /// `rng_seed` seeds this router's private tie-break stream.  Each
  /// router owns its generator so stochastic choices depend only on the
  /// router's own event history — never on the order in which routers
  /// tick within a cycle (the kernel's determinism contract) — which is
  /// also what makes trace replay bit-identical under random_tie_break.
  DeflectionRouter(sim::Scheduler& sched, const TorusGeometry& geom, Coord pos,
                   const RouterConfig& cfg, sim::StatSet& net_stats,
                   std::uint64_t rng_seed);

  void tick(sim::Cycle now) override;

 private:
  RouterConfig cfg_;
  sim::Xoshiro256 rng_;

  // Stat handles resolved once at construction; bumping these on the
  // tick path avoids the per-event string-keyed map lookup.
  sim::Stat& st_delivered_;
  sim::Stat& st_delivered_here_;  ///< per-router series (telemetry heatmaps)
  sim::Stat& st_livelock_;
  sim::Stat& st_deflections_;
  sim::Stat& st_injected_;
  sim::Accumulator& acc_latency_;
  sim::Accumulator& acc_hops_;
  sim::Accumulator& acc_defl_;

  /// The flits routed this tick (scratch kept as a member): at most one
  /// per input link, and the injected flit only while a port is free.
  std::array<Flit, kNumDirs> route_set_;
};

}  // namespace medea::noc

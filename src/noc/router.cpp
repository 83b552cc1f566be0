#include "noc/router.h"

#include <cstdlib>

namespace medea::noc {

namespace {

/// Hop count beyond which we flag a flit as a livelock suspect.  The paper
/// observed "sporadic cases of single flits delivered with high latency";
/// this counter lets experiments quantify that tail.
constexpr std::uint16_t kLivelockHops = 256;

/// Oldest-first priority: earlier injection wins, then the lower uid.
bool older(const Flit& a, const Flit& b) {
  if (a.inject_cycle != b.inject_cycle) return a.inject_cycle < b.inject_cycle;
  return a.uid < b.uid;
}

}  // namespace

DeflectionRouter::DeflectionRouter(sim::Scheduler& sched,
                                   const TorusGeometry& geom, Coord pos,
                                   const RouterConfig& cfg,
                                   sim::StatSet& net_stats,
                                   std::uint64_t rng_seed)
    : Router(sched, "router" + pos.to_string(), geom, pos,
             cfg.inject_queue_depth, cfg.eject_queue_depth),
      cfg_(cfg),
      rng_(rng_seed),
      st_delivered_(net_stats.counter("noc.flits_delivered")),
      st_delivered_here_(net_stats.counter(
          "noc.router." + std::to_string(geom.node_id(pos)) + ".delivered")),
      st_livelock_(net_stats.counter("noc.livelock_suspects")),
      st_deflections_(net_stats.counter("noc.deflections_total")),
      st_injected_(net_stats.counter("noc.flits_injected")),
      acc_latency_(net_stats.accumulator("noc.latency")),
      acc_hops_(net_stats.accumulator("noc.hops")),
      acc_defl_(net_stats.accumulator("noc.deflections")) {}

void DeflectionRouter::tick(sim::Cycle now) {
  // 0. Lifecycle tracing: announce newly visible inject-queue entries.
  announce_queue_entries(now);

  // 1. Accept at most one flit per input link (hot potato: the router
  //    never stores flits, so everything accepted must leave this cycle).
  //    Each flit is inserted into place oldest-first, ties kept in link
  //    order: a stable sort of at most four flits, without the heap
  //    buffer the library's stable sort allocates.
  int n = 0;
  for (auto* link : in_) {
    if (link == nullptr || link->empty()) continue;
    const Flit f = link->pop();
    int j = n++;
    for (; j > 0 && older(f, route_set_[j - 1]); --j) {
      route_set_[j] = route_set_[j - 1];
    }
    route_set_[j] = f;
  }

  // 2. Ejection: oldest flits addressed to this node, up to the local
  //    delivery bandwidth, space permitting.  Flits that cannot eject stay
  //    in the route set, in order, and deflect around the network.
  int ejected = 0;
  int kept = 0;
  for (int i = 0; i < n; ++i) {
    const Flit& f = route_set_[i];
    if (ejected < cfg_.eject_per_cycle && f.dst == pos_ &&
        eject_q_.can_push()) {
      ++st_delivered_;
      ++st_delivered_here_;
      acc_latency_.add(static_cast<double>(now - f.inject_cycle));
      acc_hops_.add(f.hops);
      acc_defl_.add(f.deflections);
      if (f.hops >= kLivelockHops) ++st_livelock_;
      if (observer_ != nullptr) observer_->on_deliver(now, node_id_, f);
      eject_q_.push(f);
      ++ejected;
    } else {
      if (kept != i) route_set_[kept] = f;
      ++kept;
    }
  }
  n = kept;

  // 3. Port assignment, oldest-first (the route set is already sorted).
  //    Each flit holds one port, so a free port always remains for it.
  bool port_free[kNumDirs] = {true, true, true, true};
  Dir port_of[kNumDirs];
  bool productive[kNumDirs];

  auto pick_port = [&](const Flit& f, bool& is_productive) -> int {
    Dir prod[4];
    const int np = geom_.productive_dirs(pos_, f.dst, prod);
    // Productive first.
    int first_free_prod = -1;
    for (int i = 0; i < np; ++i) {
      if (port_free[static_cast<int>(prod[i])]) {
        if (first_free_prod < 0) first_free_prod = static_cast<int>(prod[i]);
        if (!cfg_.random_tie_break) break;
      }
    }
    if (first_free_prod >= 0) {
      is_productive = true;
      return first_free_prod;
    }
    // Deflect: any free port (fixed scan order, or random among free).
    is_productive = false;
    if (cfg_.random_tie_break) {
      int free_ports[kNumDirs];
      int nf = 0;
      for (int d = 0; d < kNumDirs; ++d) {
        if (port_free[d]) free_ports[nf++] = d;
      }
      if (nf == 0) return -1;
      return free_ports[rng_.next_below(static_cast<std::uint32_t>(nf))];
    }
    for (int d = 0; d < kNumDirs; ++d) {
      if (port_free[d]) return d;
    }
    return -1;
  };

  for (int i = 0; i < n; ++i) {
    const int port = pick_port(route_set_[i], productive[i]);
    // With at most kNumDirs flits a free port always exists; if the
    // invariant is ever broken, fail hard instead of indexing with -1
    // (asserts vanish under NDEBUG and would leave this as silent UB).
    if (port < 0) std::abort();
    port_free[port] = false;
    port_of[i] = static_cast<Dir>(port);
    if (!productive[i]) ++st_deflections_;
  }

  // 4. Injection: one local flit if a port is still free (then n, the
  //    number of ports taken, is below kNumDirs).
  if (!inject_q_.empty()) {
    bool any_free = false;
    for (bool pf : port_free) any_free = any_free || pf;
    if (any_free) {
      Flit f = pop_inject();
      f.inject_cycle = now;
      const int port = pick_port(f, productive[n]);
      if (port < 0) std::abort();  // a free port was just verified above
      port_free[port] = false;
      if (observer_ != nullptr) observer_->on_inject(now, node_id_, f);
      route_set_[n] = f;
      port_of[n] = static_cast<Dir>(port);
      if (!productive[n]) ++st_deflections_;
      ++st_injected_;
      ++n;
    }
  }

  // 5. Emit flits on their assigned links.  pick_port's verdict is the
  //    one to record: a flit it deflected found no productive port free,
  //    so its port is not productive either.  Links never back-pressure:
  //    every router empties each input link whenever it holds a flit, so
  //    no link is full here (Fifo::push would throw if one were).
  for (int i = 0; i < n; ++i) {
    Flit& f = route_set_[i];
    f.hops++;
    if (!productive[i]) f.deflections++;
    if (lifecycle_ != nullptr) {
      lifecycle_->on_hop(now, node_id_, static_cast<int>(port_of[i]),
                         !productive[i], f);
    }
    out_[static_cast<int>(port_of[i])]->push(f);
  }

  // A pending injection that lost arbitration (or is still queued behind
  // the one-per-cycle limit) retries next cycle; link input arrivals wake
  // us automatically via the link FIFOs' consumer hook.
  if (!inject_q_.empty()) wake();
}

}  // namespace medea::noc

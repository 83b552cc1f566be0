#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "noc/coord.h"
#include "noc/flit.h"
#include "sim/domain.h"
#include "sim/fifo.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

/// \file fabric.h
/// The NoC fabric core both router models share.
///
///  * noc::Router: what every router has — four link ports, the local
///    inject/eject queues a network interface attaches to, and the
///    flit-event observer hooks.
///  * noc::Fabric: what every fabric has — the torus geometry, the
///    scheduler each node runs on, the link wiring, the local ports, the
///    statistics, observer attach and flit-uid allocation.
///
/// noc::Network (the deflection torus, network.h) and noc::XyNetwork
/// (the buffered-XY baseline, xy_network.h) add only their router type;
/// Network also splits its links at row-band shard seams.  Traffic
/// endpoints, trace replay and phased measurement run against Fabric,
/// so each exists once for both fabrics — the way booksim2 and Graphite
/// run every router model through one flit/network core.
///
/// Links are single-flit channels: a flit pushed at cycle T arrives at
/// the downstream router at T+1, giving the one-cycle-per-hop latency
/// the paper's switch RTL has.  (The FIFO capacity is 2 purely because
/// of the kernel's pop-frees-space-next-cycle bookkeeping; steady-state
/// occupancy of a deflection link is at most one flit, which tests
/// assert.)

namespace medea::noc {

class Router : public sim::Component {
 public:
  Coord pos() const { return pos_; }

  /// Rendered from the coordinates on each call, e.g. "router(1,2)".
  std::string name() const override;

  /// Wiring (done once by the fabric during construction).
  void connect_input(Dir d, sim::Fifo<Flit>* link) {
    in_[static_cast<int>(d)] = link;
    link->set_consumer(this);
  }
  void connect_output(Dir d, sim::Fifo<Flit>* link) {
    out_[static_cast<int>(d)] = link;
  }
  /// The link leaving through port `d` (null until wired).
  sim::Fifo<Flit>* output(Dir d) const { return out_[static_cast<int>(d)]; }

  /// Local-port queues: the network interface pushes into inject() and
  /// pops from eject().
  sim::Fifo<Flit>& inject() { return inject_q_; }
  sim::Fifo<Flit>& eject() { return eject_q_; }

  /// Attach (or detach with nullptr) a flit-event observer.  The
  /// hop-level lifecycle events are only fired when the observer asks
  /// for them (FlitObserver::wants_lifecycle), cached here so the tick
  /// path keeps its one-pointer-test cost otherwise.
  void set_observer(FlitObserver* obs) {
    observer_ = obs;
    lifecycle_ = (obs != nullptr && obs->wants_lifecycle()) ? obs : nullptr;
  }

 protected:
  /// `kind` (a string literal such as "router") starts the router's
  /// name, which the coordinates complete.
  Router(sim::Scheduler& sched, const char* kind, const TorusGeometry& geom,
         Coord pos, int inject_queue_depth, int eject_queue_depth);

  /// Lifecycle tracing, first step of every tick: announce inject-queue
  /// entries that became visible this cycle (the FIFO wakes the router
  /// whenever that happens, so the enter cycle observed here is exact).
  /// Read-only — peek never perturbs FIFO timing — and skipped entirely
  /// unless the attached observer opted into hop-level events.
  void announce_queue_entries(sim::Cycle now) {
    if (lifecycle_ == nullptr) return;
    for (std::size_t i = q_announced_; i < inject_q_.size(); ++i) {
      lifecycle_->on_queue_enter(now, node_id_, inject_q_.peek(i));
    }
    q_announced_ = inject_q_.size();
  }

  /// Take the next local flit, keeping the announce watermark in step.
  Flit pop_inject() {
    Flit f = inject_q_.pop();
    if (q_announced_ > 0) --q_announced_;
    return f;
  }

  const TorusGeometry& geom_;
  Coord pos_;
  int node_id_;
  FlitObserver* observer_ = nullptr;
  FlitObserver* lifecycle_ = nullptr;  ///< observer_ iff it wants hop events
  std::array<sim::Fifo<Flit>*, kNumDirs> in_{};
  std::array<sim::Fifo<Flit>*, kNumDirs> out_{};
  sim::Fifo<Flit> inject_q_;
  sim::Fifo<Flit> eject_q_;

 private:
  /// FifoName::RenderFn of the local queues: index 0 is the inject
  /// queue ("router(1,2).inject"), 1 the eject queue.
  static std::string queue_name(const void* router, std::size_t index);

  /// Inject-queue entries already announced via on_queue_enter (a
  /// watermark into the committed queue; decremented on pop).
  std::size_t q_announced_ = 0;
  const char* kind_;
};

class Fabric {
 public:
  virtual ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const TorusGeometry& geometry() const { return geom_; }
  int num_nodes() const { return geom_.num_nodes(); }

  /// Local-port access for the node's network interface.
  sim::Fifo<Flit>& inject(int node_id) {
    return routers_[static_cast<std::size_t>(node_id)]->inject();
  }
  sim::Fifo<Flit>& eject(int node_id) {
    return routers_[static_cast<std::size_t>(node_id)]->eject();
  }
  sim::Fifo<Flit>& inject(Coord c) { return inject(geom_.node_id(c)); }
  sim::Fifo<Flit>& eject(Coord c) { return eject(geom_.node_id(c)); }

  /// The scheduler `node_id`'s components run on — endpoints attached
  /// to a node must be constructed against this scheduler.
  sim::Scheduler& sched_of(int node_id) {
    return *node_sched_[static_cast<std::size_t>(node_id)];
  }

  /// Fabric-wide statistics.  Live on a one-shard domain; on a sharded
  /// one a snapshot that refresh_stats() rebuilds from the per-shard
  /// sets (the run helpers call it after a run, the telemetry
  /// pre-sample hook during one).
  sim::StatSet& stats() {
    serial_.assert_held();  // external or domain-serial context only
    return stats_;
  }
  const sim::StatSet& stats() const {
    serial_.assert_shared();  // external or domain-serial context only
    return stats_;
  }

  /// Rebuild stats() from the per-shard sets (no-op unless sharded).
  void refresh_stats();

  /// Attach a flit-event observer to every router (nullptr detaches).
  /// The trace recorder, the measurement controller and the flit tracer
  /// hang off this.
  void set_observer(FlitObserver* obs);

  /// Fresh flit uid from the global stream: the PE/MPMMU network
  /// interfaces draw from it (app runs, one shard by construction).
  std::uint32_t next_flit_uid() { return next_uid_++; }

  /// Fresh flit uid from `node`'s private stream: (node << 20) | seq.
  /// Synthetic traffic draws from it, so uid allocation — which feeds
  /// the deflection router's oldest-first tie-break — never depends on
  /// within-cycle interleaving, and single-thread and sharded runs draw
  /// identical streams.  Throws std::overflow_error once a node has
  /// used its 2^20 - 1 sequence numbers (the next uid would alias the
  /// next node's range).
  std::uint32_t node_flit_uid(int node) {
    std::uint32_t& seq = node_seq_[static_cast<std::size_t>(node)];
    if (++seq >= (1u << kFlitUidSeqBits)) [[unlikely]] {
      throw_uid_exhausted(node);
    }
    return (static_cast<std::uint32_t>(node) << kFlitUidSeqBits) | seq;
  }

 protected:
  /// Throws std::invalid_argument for geometries the fabric cannot
  /// represent: an axis outside [1, TorusGeometry::kMaxAxis] (Coord is
  /// 8-bit) or more nodes than the per-node uid layout has node bits
  /// for (kMaxFlitUidNodes).  Every node starts on shard 0.
  Fabric(sim::SimDomain& dom, const TorusGeometry& geom);

  /// Link FIFO depth.  A kernel bookkeeping allowance, not buffering:
  /// see the file comment.
  static constexpr std::size_t kLinkCapacity = 2;

  /// The link wiring: one unidirectional link per (router, direction),
  /// entering neighbour(router, direction) through the opposite port,
  /// named `prefix` (a string literal) + "(x,y)D->(x,y)".  On 1-wide or
  /// 1-tall tori a link can loop back to its own router; the wiring
  /// handles that uniformly.  A link whose two ends run on different
  /// schedulers is handed to wire_seam().  Call once, after every router
  /// exists.
  void wire_links(const char* prefix);

  /// Wire router `from`'s output `dir` to `out` and the input of its
  /// neighbour `to` facing back to `in` — the same FIFO unless the link
  /// is split across shards.
  void connect(int from, Dir dir, int to, sim::Fifo<Flit>* out,
               sim::Fifo<Flit>* in);

  /// A link crossing a shard seam.  Only fabrics that shard override
  /// this; the default throws std::logic_error.
  virtual void wire_seam(int from, Dir dir, int to, const std::string& name);

  /// The observer node `node_id`'s router reports to while
  /// set_observer() has attached a non-null one: obs_target_ itself
  /// unless the fabric buffers events per shard.
  virtual FlitObserver* node_observer(int node_id);

  sim::SimDomain& dom_;

  /// External single-thread / domain-serial-phase context: the merged
  /// stats snapshot and the observer target are only touched while no
  /// shard is dispatching (wiring time, the serial phase, or after the
  /// run) — never from the parallel phase.
  core::Capability serial_;

  TorusGeometry geom_;
  sim::StatSet stats_ MEDEA_GUARDED_BY(serial_);
  /// Per-shard StatSets the routers of a sharded fabric write instead of
  /// stats_ (keeps the tick path race-free); empty on one shard.
  std::vector<std::unique_ptr<sim::StatSet>> shard_stats_;
  std::vector<sim::Scheduler*> node_sched_;       ///< per node
  std::vector<std::unique_ptr<Router>> routers_;  ///< in node order
  std::vector<std::unique_ptr<sim::Fifo<Flit>>> links_;
  FlitObserver* obs_target_ MEDEA_GUARDED_BY(serial_) = nullptr;

 private:
  [[noreturn]] static void throw_uid_exhausted(int node);

  /// FifoName::RenderFn of the links: the name of link `index` (router
  /// id * kNumDirs + direction) of the fabric at `fabric`.
  static std::string link_name(const void* fabric, std::size_t index);

  const char* link_prefix_ = "";

  std::uint32_t next_uid_ = 1;
  std::vector<std::uint32_t> node_seq_;
};

}  // namespace medea::noc

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "noc/fabric.h"
#include "noc/router.h"

/// \file network.h
/// The 2-D folded-torus NoC of the paper: DeflectionRouters on the
/// shared fabric core (fabric.h), which owns the routers, the links and
/// the local inject/eject queues that network interfaces (the TIE port,
/// the pif2NoC bridge and the MPMMU's interface) attach to.
///
/// ## Sharded construction (sim::SimDomain)
///
/// On a sharded domain the torus is partitioned into contiguous row
/// bands, one per shard: every router, link and local queue of a band
/// lives on that shard's scheduler, and the vertical links crossing a
/// band boundary (torus wrap included) are split into a producer-side
/// FIFO that relays into a per-edge SPSC mailbox and a consumer-side
/// FIFO the domain's drain phase fills (see sim/domain.h for the phase
/// protocol).  Row bands keep node ids contiguous per shard, which is
/// what makes shard-ordered observer fan-in reproduce the canonical
/// global event order bit-for-bit.  Per-shard StatSets keep the tick
/// path race-free; stats() exposes the shard-merged aggregate, rebuilt
/// by refresh_stats().  Deflection links never back-pressure (a router
/// never pushes onto a full link), so the relay split is timing-exact.  On a
/// one-shard domain none of this exists and the build is exactly the
/// single-thread one.

namespace medea::noc {

class Network final : public Fabric {
 public:
  /// Build the torus on `dom`, in contiguous row bands when the domain
  /// has more than one shard.
  Network(sim::SimDomain& dom, const TorusGeometry& geom,
          const RouterConfig& cfg = {}, std::uint64_t seed = 1);

  // Out of line: unique_ptr members over types declared below.
  ~Network() override;

  /// Router configuration this network was built with (persisted into
  /// trace headers; replay verifies it against the recording).
  const RouterConfig& config() const { return cfg_; }

  DeflectionRouter& router(int node_id) {
    return static_cast<DeflectionRouter&>(
        *routers_[static_cast<std::size_t>(node_id)]);
  }
  DeflectionRouter& router(Coord c) { return router(geom_.node_id(c)); }

  /// Shard that owns `node_id`'s row band (0 on a one-shard domain).
  int shard_of(int node_id) const {
    return shard_of_node_.empty()
               ? 0
               : shard_of_node_[static_cast<std::size_t>(node_id)];
  }

  /// Flits that crossed a shard boundary through a mailbox (0 on one
  /// shard) — the bench's cross-shard traffic metric.
  std::uint64_t mailbox_flits() const;
  /// Shard-boundary channel count (0 on one shard).
  std::size_t num_shard_channels() const { return channels_.size(); }

 private:
  /// One shard-boundary link: the producer-side FIFO relays committed
  /// flits into `mail`; the consumer shard's drain phase moves them
  /// into `rx` and wakes its consumer at t+1.
  ///
  /// `mail` is the SPSC mailbox of the sharded kernel: the producer
  /// shard appends during its parallel phase (via relay, from the TX
  /// FIFO's commit), the consumer shard drains after the post-dispatch
  /// barrier.  Writer and reader are always separated by that barrier —
  /// the `xfer` token records the handoff for clang's analysis.
  struct ShardChannel {
    core::Capability xfer;  ///< barrier-handed-off mailbox ownership
    sim::Fifo<Flit>* rx = nullptr;
    std::vector<Flit> mail MEDEA_GUARDED_BY(xfer);
    static void relay(void* ctx, Flit&& f);
  };

  /// Per-shard observer buffer: records the shard's flit events during
  /// the parallel phase, replays them to the real observer from the
  /// domain's serial flush.
  class ShardEventBuffer;

  void partition_row_bands();
  void wire_seam(int from, Dir dir, int to, const std::string& name) override;
  FlitObserver* node_observer(int node_id) override;
  void drain_shard(int s, sim::Cycle now);
  void flush_observer_events();

  RouterConfig cfg_;

  // --- sharded-mode state (empty on a one-shard domain) ---
  std::vector<int> shard_of_node_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  std::vector<std::vector<ShardChannel*>> shard_channels_;  ///< per shard
  /// Per-shard mailbox-flit tallies: slot s is written only by shard
  /// s's drain phase and read after the run — per-slot ownership below
  /// the analysis's granularity, so documented rather than annotated.
  std::vector<std::uint64_t> shard_mail_count_;
  std::vector<std::unique_ptr<ShardEventBuffer>> shard_obs_;
};

}  // namespace medea::noc

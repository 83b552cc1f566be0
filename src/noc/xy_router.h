#pragma once

#include <array>

#include "noc/fabric.h"
#include "sim/ring.h"
#include "sim/stats.h"

/// \file xy_router.h
/// Baseline comparison router: input-buffered, dimension-ordered (X then
/// Y) routing with credit-style back-pressure — the conventional
/// alternative the paper argues against when motivating deflection
/// routing (§II-A: wormhole-class routers need per-port buffers, create
/// head-of-line blocking on long packets, and require a back-pressure
/// mechanism; their storage is far above the theoretical minimum).
///
/// This model keeps the same link/flit fabric as DeflectionRouter so the
/// two can be compared head-to-head on identical traffic:
///  * each input port has a FIFO of configurable depth,
///  * a flit moves only when the downstream buffer has space (credit
///    check on the shared link FIFO),
///  * XY dimension order makes routing deterministic and deadlock-free
///    on a mesh; on a torus we use the shortest direction per axis, which
///    together with buffering can deadlock on cyclic dependencies — the
///    comparison benches therefore run the XY router on mesh geometry,
///    exactly the configuration contemporary NoCs used.
///
/// In-order delivery is a property of this router (single path per
/// source/destination pair), which is why conventional designs never
/// needed the paper's sequence-number machinery.

namespace medea::noc {

struct XyRouterConfig {
  int input_buffer_depth = 4;  ///< flits per input port (the area cost)
  int eject_per_cycle = 1;
  int inject_queue_depth = 2;
  int eject_queue_depth = 4;

  bool operator==(const XyRouterConfig&) const = default;
};

class XyRouter final : public Router {
 public:
  XyRouter(sim::Scheduler& sched, const TorusGeometry& geom, Coord pos,
           const XyRouterConfig& cfg, bool torus_wrap, sim::StatSet& stats);

  void tick(sim::Cycle now) override;

  /// Total flits currently buffered in this router (occupancy metric —
  /// the storage the paper's deflection design avoids).
  std::size_t buffered() const;

 private:
  /// XY dimension-ordered next hop toward dst (X first, then Y).
  /// Returns kNumDirs when dst == pos_ (eject).
  int route(Coord dst) const;

  XyRouterConfig cfg_;
  bool torus_wrap_;
  sim::StatSet& stats_;

  /// Per-router delivery counter resolved once at construction, the
  /// source of telemetry's spatial ejection heatmaps (the fabric-wide
  /// counters above it stay string-keyed; this one is on the tick path).
  sim::Stat& st_delivered_here_;

  // Internal input buffers (index kNumDirs = local inject staging).
  std::array<sim::Ring<Flit>, kNumDirs + 1> buf_;
  int rr_ = 0;  // round-robin pointer over input buffers per output port
};

}  // namespace medea::noc

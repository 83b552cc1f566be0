#pragma once

#include <cstddef>

#include "noc/fabric.h"
#include "noc/xy_router.h"

/// \file xy_network.h
/// The buffered XY baseline (see xy_router.h) on the shared fabric core:
/// same links, same geometry, same local ports as noc::Network, so
/// traffic generators drive either fabric and compare latency,
/// throughput and buffer occupancy — the quantitative form of the
/// paper's §II-A argument for deflection routing.

namespace medea::noc {

class XyNetwork final : public Fabric {
 public:
  /// torus_wrap=false (default) gives a mesh, the deadlock-free home of
  /// dimension-ordered routing; wrap=true uses shortest-way tori links
  /// (fine for light load; cyclic buffer dependencies can deadlock under
  /// saturation, which the comparison benches avoid by construction).
  ///
  /// The XY baseline never shards: its credit back-pressure reads the
  /// downstream FIFO's occupancy, which a relayed seam link cannot
  /// report.  A sharded `dom` throws std::invalid_argument.
  XyNetwork(sim::SimDomain& dom, const TorusGeometry& geom,
            const XyRouterConfig& cfg = {}, bool torus_wrap = false);

  /// Router configuration and wrap mode this fabric was built with
  /// (persisted into trace headers; replay verifies them).
  const XyRouterConfig& config() const { return cfg_; }
  bool torus_wrap() const { return torus_wrap_; }

  XyRouter& router(int node_id) {
    return static_cast<XyRouter&>(
        *routers_[static_cast<std::size_t>(node_id)]);
  }

  /// Sum of all flits buffered inside routers right now.
  std::size_t total_buffered() const;

 private:
  XyRouterConfig cfg_;
  bool torus_wrap_;
};

}  // namespace medea::noc

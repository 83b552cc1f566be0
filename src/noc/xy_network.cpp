#include "noc/xy_network.h"

#include <stdexcept>

namespace medea::noc {

XyNetwork::XyNetwork(sim::SimDomain& dom, const TorusGeometry& geom,
                     const XyRouterConfig& cfg, bool torus_wrap)
    : Fabric(dom, geom), cfg_(cfg), torus_wrap_(torus_wrap) {
  serial_.assert_held();  // construction time: single-threaded
  if (dom_.sharded()) {
    throw std::invalid_argument(
        "XyNetwork: the buffered-XY fabric runs on a one-shard domain");
  }
  for (int id = 0; id < num_nodes(); ++id) {
    routers_.push_back(std::make_unique<XyRouter>(
        sched_of(id), geom_, geom_.coord_of(id), cfg_, torus_wrap_, stats_));
  }
  wire_links("xylink");
}

std::size_t XyNetwork::total_buffered() const {
  std::size_t n = 0;
  for (const auto& r : routers_) {
    n += static_cast<const XyRouter&>(*r).buffered();
  }
  return n;
}

}  // namespace medea::noc

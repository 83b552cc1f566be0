#include "noc/fabric.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace medea::noc {

namespace {

Dir opposite(Dir d) {
  switch (d) {
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kEast: return Dir::kWest;
    case Dir::kWest: return Dir::kEast;
  }
  return d;
}

void check_geometry(const TorusGeometry& geom) {
  const auto axis_ok = [](int v) {
    return v >= 1 && v <= TorusGeometry::kMaxAxis;
  };
  const auto reject = [&geom](const std::string& why) {
    throw std::invalid_argument("noc::Fabric: torus " +
                                std::to_string(geom.width()) + "x" +
                                std::to_string(geom.height()) + why);
  };
  if (!axis_ok(geom.width()) || !axis_ok(geom.height())) {
    reject(": each axis must be in [1, " +
           std::to_string(TorusGeometry::kMaxAxis) +
           "] (coordinates are 8-bit)");
  }
  if (geom.num_nodes() > kMaxFlitUidNodes) {
    reject(" has more than " + std::to_string(kMaxFlitUidNodes) +
           " nodes, the most per-node flit uids can address");
  }
}

}  // namespace

Router::Router(sim::Scheduler& sched, std::string name,
               const TorusGeometry& geom, Coord pos, int inject_queue_depth,
               int eject_queue_depth)
    : sim::Component(sched, std::move(name)),
      geom_(geom),
      pos_(pos),
      node_id_(geom.node_id(pos)),
      inject_q_(sched, this->name() + ".inject",
                static_cast<std::size_t>(inject_queue_depth)),
      eject_q_(sched, this->name() + ".eject",
               static_cast<std::size_t>(eject_queue_depth)) {
  inject_q_.set_consumer(this);
}

Fabric::Fabric(sim::SimDomain& dom, const TorusGeometry& geom)
    : dom_(dom), geom_(geom) {
  check_geometry(geom_);
  const auto n = static_cast<std::size_t>(geom_.num_nodes());
  node_seq_.assign(n, 0);
  node_sched_.assign(n, &dom_.shard(0));
  routers_.reserve(n);
}

Fabric::~Fabric() = default;

void Fabric::throw_uid_exhausted(int node) {
  throw std::overflow_error("noc::Fabric: node " + std::to_string(node) +
                            " exhausted its per-node flit uids (" +
                            std::to_string((1u << kFlitUidSeqBits) - 1) +
                            " per run); the next would alias node " +
                            std::to_string(node + 1) + "'s range");
}

void Fabric::wire_links(const char* prefix) {
  links_.reserve(static_cast<std::size_t>(num_nodes()) * kNumDirs);
  for (int id = 0; id < num_nodes(); ++id) {
    const Coord from = geom_.coord_of(id);
    for (int d = 0; d < kNumDirs; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const Coord to = geom_.neighbor(from, dir);
      const int to_id = geom_.node_id(to);
      std::string name(prefix);
      name += from.to_string();
      name += to_string(dir);
      name += "->";
      name += to.to_string();
      if (&sched_of(id) != &sched_of(to_id)) {
        wire_seam(id, dir, to_id, name);
        continue;
      }
      auto link = std::make_unique<sim::Fifo<Flit>>(
          sched_of(id), std::move(name), kLinkCapacity);
      connect(id, dir, to_id, link.get(), link.get());
      links_.push_back(std::move(link));
    }
  }
}

void Fabric::connect(int from, Dir dir, int to, sim::Fifo<Flit>* out,
                     sim::Fifo<Flit>* in) {
  routers_[static_cast<std::size_t>(from)]->connect_output(dir, out);
  routers_[static_cast<std::size_t>(to)]->connect_input(opposite(dir), in);
}

void Fabric::wire_seam(int /*from*/, Dir /*dir*/, int /*to*/,
                       const std::string& name) {
  throw std::logic_error("noc::Fabric: link " + name +
                         " crosses a shard seam, but this fabric does not "
                         "shard");
}

FlitObserver* Fabric::node_observer(int /*node_id*/) {
  serial_.assert_shared();  // set_observer's wiring-time context
  return obs_target_;
}

void Fabric::refresh_stats() {
  // Domain serial phase (pre-sample hook) or external post-run call —
  // either way no shard is writing its StatSet.
  serial_.assert_held();
  if (shard_stats_.empty()) return;
  stats_.clear();
  for (const auto& ss : shard_stats_) stats_.merge(*ss);
}

void Fabric::set_observer(FlitObserver* obs) {
  serial_.assert_held();  // wiring time: no run in flight
  obs_target_ = obs;
  for (int id = 0; id < num_nodes(); ++id) {
    routers_[static_cast<std::size_t>(id)]->set_observer(
        obs == nullptr ? nullptr : node_observer(id));
  }
}

}  // namespace medea::noc

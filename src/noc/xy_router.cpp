#include "noc/xy_router.h"

#include <cassert>

namespace medea::noc {

XyRouter::XyRouter(sim::Scheduler& sched, const TorusGeometry& geom, Coord pos,
                   const XyRouterConfig& cfg, bool torus_wrap,
                   sim::StatSet& stats)
    : Router(sched, "xyrouter" + pos.to_string(), geom, pos,
             cfg.inject_queue_depth, cfg.eject_queue_depth),
      cfg_(cfg),
      torus_wrap_(torus_wrap),
      stats_(stats),
      st_delivered_here_(stats.counter("xynoc.router." +
                                       std::to_string(geom.node_id(pos)) +
                                       ".delivered")) {
  for (auto& b : buf_) {
    b = sim::Ring<Flit>(static_cast<std::size_t>(cfg.input_buffer_depth));
  }
}

std::size_t XyRouter::buffered() const {
  std::size_t n = 0;
  for (const auto& b : buf_) n += b.size();
  return n;
}

int XyRouter::route(Coord dst) const {
  if (dst == pos_) return kNumDirs;
  if (dst.x != pos_.x) {
    if (torus_wrap_) {
      const int w = geom_.width();
      const int fwd = ((dst.x - pos_.x) % w + w) % w;
      return fwd <= w - fwd ? static_cast<int>(Dir::kEast)
                            : static_cast<int>(Dir::kWest);
    }
    return dst.x > pos_.x ? static_cast<int>(Dir::kEast)
                          : static_cast<int>(Dir::kWest);
  }
  if (torus_wrap_) {
    const int h = geom_.height();
    const int fwd = ((dst.y - pos_.y) % h + h) % h;
    return fwd <= h - fwd ? static_cast<int>(Dir::kSouth)
                          : static_cast<int>(Dir::kNorth);
  }
  return dst.y > pos_.y ? static_cast<int>(Dir::kSouth)
                        : static_cast<int>(Dir::kNorth);
}

void XyRouter::tick(sim::Cycle now) {
  // 0. Lifecycle tracing: announce newly visible inject-queue entries.
  announce_queue_entries(now);

  // 1. Accept one flit per input link into the input buffers, space
  //    permitting (back-pressure: a full buffer leaves the flit on the
  //    link, which stalls the upstream router's output).
  for (int d = 0; d < kNumDirs; ++d) {
    auto* link = in_[d];
    if (link == nullptr || link->empty()) continue;
    if (buf_[static_cast<std::size_t>(d)].size() <
        static_cast<std::size_t>(cfg_.input_buffer_depth)) {
      buf_[static_cast<std::size_t>(d)].push_back(link->pop());
    }
  }
  // Local injection staging shares the same structure.
  if (!inject_q_.empty() &&
      buf_[kNumDirs].size() <
          static_cast<std::size_t>(cfg_.input_buffer_depth)) {
    Flit f = pop_inject();
    f.inject_cycle = now;
    if (observer_ != nullptr) observer_->on_inject(now, node_id_, f);
    buf_[kNumDirs].push_back(f);
    stats_.inc("xynoc.flits_injected");
  }

  // 2. Switch allocation: each output port (including eject) picks one
  //    requesting input buffer, round-robin for fairness.
  bool out_used[kNumDirs + 1] = {};
  for (int off = 0; off < kNumDirs + 1; ++off) {
    const int b = (rr_ + off) % (kNumDirs + 1);
    auto& q = buf_[static_cast<std::size_t>(b)];
    if (q.empty()) continue;
    const Flit& head = q.front();
    const int port = route(head.dst);
    if (out_used[port]) continue;  // head-of-line blocking, by design
    if (port == kNumDirs) {
      if (!eject_q_.can_push()) continue;
      Flit f = q.front();
      q.pop_front();
      out_used[port] = true;
      stats_.inc("xynoc.flits_delivered");
      ++st_delivered_here_;
      stats_.sample("xynoc.latency", static_cast<double>(now - f.inject_cycle));
      stats_.sample("xynoc.hops", f.hops);
      if (observer_ != nullptr) observer_->on_deliver(now, node_id_, f);
      eject_q_.push(f);
      continue;
    }
    auto* link = out_[port];
    assert(link != nullptr);
    if (!link->can_push()) continue;  // credit: downstream buffer full
    Flit f = q.front();
    q.pop_front();
    f.hops++;
    out_used[port] = true;
    // XY routing is always minimal, so a hop is never a deflection.
    if (lifecycle_ != nullptr) {
      lifecycle_->on_hop(now, node_id_, port, false, f);
    }
    link->push(f);
  }
  rr_ = (rr_ + 1) % (kNumDirs + 1);

  // 3. Occupancy statistics (peak buffering = the area argument).
  const std::size_t occ = buffered();
  if (occ > stats_.get("xynoc.peak_buffered")) {
    stats_.set("xynoc.peak_buffered", occ);
  }

  if (occ > 0 || !inject_q_.empty()) wake();
}

}  // namespace medea::noc

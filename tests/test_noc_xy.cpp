/// Tests for the buffered XY baseline router, the traffic-pattern library
/// and the deflection-vs-buffered comparison invariants.

#include <gtest/gtest.h>

#include <set>

#include "noc/network.h"
#include "noc/traffic.h"
#include "noc/xy_network.h"

namespace medea::noc {
namespace {

// ---------------------------------------------------------------------
// XY routing function basics (via single-flit delivery)
// ---------------------------------------------------------------------

struct XyFixture {
  explicit XyFixture(int w = 4, int h = 4, bool wrap = false,
                     XyRouterConfig cfg = {})
      : net(dom, TorusGeometry(w, h), cfg, wrap) {}
  sim::SimDomain dom{sim::SchedulerConfig{}};
  sim::Scheduler& sched = dom.shard(0);
  XyNetwork net;
};

/// Push one flit directly and run until it lands.
Flit send_one(XyFixture& fx, int src, int dst) {
  struct Driver : sim::Component {
    Driver(sim::Scheduler& s, XyNetwork& n, int src_node, int dst_node)
        : sim::Component(s, "drv"), net(n), src(src_node), dst(dst_node) {
      net.eject(dst_node).set_consumer(this);
      s.wake_at(*this, 1);
    }
    void tick(sim::Cycle now) override {
      if (!sent) {
        Flit f;
        f.valid = true;
        f.dst = net.geometry().coord_of(dst);
        f.type = FlitType::kMessage;
        f.subtype = kMpData;
        f.uid = net.next_flit_uid();
        f.inject_cycle = now;
        net.inject(src).push(f);
        sent = true;
      }
      auto& ej = net.eject(dst);
      if (!ej.empty()) got.push_back(ej.pop());
    }
    XyNetwork& net;
    int src, dst;
    bool sent = false;
    std::vector<Flit> got;
  } drv(fx.sched, fx.net, src, dst);
  EXPECT_TRUE(fx.sched.run(100000));
  EXPECT_EQ(drv.got.size(), 1u);
  return drv.got.empty() ? Flit{} : drv.got[0];
}

TEST(XyRouter, DeliversSingleFlit) {
  XyFixture fx;
  const Flit f = send_one(fx, 0, 15);
  EXPECT_EQ(fx.net.stats().get("xynoc.flits_delivered"), 1u);
  // Mesh XY path (0,0)->(3,3): 3 east + 3 south = 6 hops.
  EXPECT_EQ(f.hops, 6);
}

TEST(XyRouter, MeshNeverUsesWrapLinks) {
  XyFixture fx(4, 4, /*wrap=*/false);
  // (3,0) -> (0,0): mesh must go 3 hops west, not 1 hop east-wrap.
  const Flit f = send_one(fx, 3, 0);
  EXPECT_EQ(f.hops, 3);
}

TEST(XyRouter, TorusWrapTakesShortcut) {
  XyFixture fx(4, 4, /*wrap=*/true);
  const Flit f = send_one(fx, 3, 0);
  EXPECT_EQ(f.hops, 1);
}

TEST(XyRouter, InOrderDeliveryProperty) {
  // Dimension-ordered routing has a single path per pair: flits arrive in
  // injection order (the property deflection routing gives up).
  XyFixture fx;
  struct Driver : sim::Component {
    Driver(sim::Scheduler& s, XyNetwork& n) : sim::Component(s, "drv"), net(n) {
      net.eject(10).set_consumer(this);
      s.wake_at(*this, 1);
    }
    void tick(sim::Cycle) override {
      auto& inj = net.inject(0);
      while (to_send < 32 && inj.can_push()) {
        Flit f;
        f.valid = true;
        f.dst = net.geometry().coord_of(10);
        f.type = FlitType::kMessage;
        f.subtype = kMpData;
        f.data = static_cast<std::uint32_t>(to_send++);
        f.uid = net.next_flit_uid();
        inj.push(f);
      }
      auto& ej = net.eject(10);
      while (!ej.empty()) got.push_back(ej.pop().data);
      if (to_send < 32) wake();
    }
    XyNetwork& net;
    int to_send = 0;
    std::vector<std::uint32_t> got;
  } drv(fx.sched, fx.net);
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(drv.got.size(), 32u);
  for (std::uint32_t i = 0; i < 32; ++i) EXPECT_EQ(drv.got[i], i);
}

TEST(XyRouter, BuffersBoundedByConfig) {
  XyRouterConfig cfg;
  cfg.input_buffer_depth = 2;
  XyFixture fx(4, 4, false, cfg);
  TrafficConfig tc;
  tc.pattern = TrafficPattern::kHotspot;
  tc.injection_rate = 0.9;
  tc.flits_per_node = 100;
  tc.hotspot_node = 5;
  const int total = run_traffic(fx.dom, fx.net, tc);
  EXPECT_GT(total, 0);
  // Peak occupancy per router <= 5 buffers x depth.
  EXPECT_LE(fx.net.stats().get("xynoc.peak_buffered"),
            5u * static_cast<unsigned>(cfg.input_buffer_depth));
  EXPECT_EQ(fx.net.total_buffered(), 0u) << "network must drain";
}

// ---------------------------------------------------------------------
// Traffic patterns
// ---------------------------------------------------------------------

TEST(Traffic, DestinationsMatchPattern) {
  TorusGeometry g(4, 4);
  sim::Xoshiro256 rng(7);
  // Transpose: (x,y) -> (y,x).
  EXPECT_EQ(pick_destination(TrafficPattern::kTranspose, g, g.node_id({1, 2}),
                             0, rng),
            g.node_id({2, 1}));
  // Hotspot: always the configured node.
  EXPECT_EQ(pick_destination(TrafficPattern::kHotspot, g, 3, 9, rng), 9);
  // Neighbor: next node id.
  EXPECT_EQ(pick_destination(TrafficPattern::kNeighbor, g, 15, 0, rng), 0);
  // Uniform: never self.
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(pick_destination(TrafficPattern::kUniformRandom, g, 6, 0, rng),
              6);
  }
}

TEST(Traffic, AllPatternsDrainOnBothFabrics) {
  for (auto p : {TrafficPattern::kUniformRandom, TrafficPattern::kHotspot,
                 TrafficPattern::kTranspose, TrafficPattern::kNeighbor}) {
    TrafficConfig tc;
    tc.pattern = p;
    tc.injection_rate = 0.3;
    tc.flits_per_node = 100;
    tc.hotspot_node = 3;
    {
      sim::SimDomain dom(sim::SchedulerConfig{});
      Network net(dom, TorusGeometry(4, 4));
      const int got = run_traffic(dom, net, tc);
      EXPECT_EQ(static_cast<std::uint64_t>(got),
                net.stats().get("noc.flits_delivered"))
          << to_string(p);
      EXPECT_GT(got, 0);
    }
    {
      sim::SimDomain dom(sim::SchedulerConfig{});
      XyNetwork net(dom, TorusGeometry(4, 4));
      const int got = run_traffic(dom, net, tc);
      EXPECT_GT(got, 0) << to_string(p);
      EXPECT_EQ(net.total_buffered(), 0u);
    }
  }
}

TEST(Traffic, DeterministicForSeed) {
  auto run_once = [] {
    sim::SimDomain dom(sim::SchedulerConfig{});
    Network net(dom, TorusGeometry(4, 4));
    TrafficConfig tc;
    tc.injection_rate = 0.4;
    tc.flits_per_node = 200;
    tc.seed = 42;
    run_traffic(dom, net, tc);
    return dom.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------
// Deflection vs buffered comparison invariants
// ---------------------------------------------------------------------

TEST(RouterComparison, BothDeliverIdenticalFlitCounts) {
  TrafficConfig tc;
  tc.injection_rate = 0.25;
  tc.flits_per_node = 150;
  tc.seed = 11;
  sim::SimDomain d1(sim::SchedulerConfig{});
  Network defl(d1, TorusGeometry(4, 4));
  const int got_defl = run_traffic(d1, defl, tc);
  sim::SimDomain d2(sim::SchedulerConfig{});
  XyNetwork xy(d2, TorusGeometry(4, 4));
  const int got_xy = run_traffic(d2, xy, tc);
  EXPECT_EQ(got_defl, got_xy);
}

TEST(RouterComparison, DeflectionStoresNothingXyBuffers) {
  TrafficConfig tc;
  tc.pattern = TrafficPattern::kHotspot;
  tc.injection_rate = 0.8;
  tc.flits_per_node = 200;
  tc.hotspot_node = 0;
  sim::SimDomain dom(sim::SchedulerConfig{});
  XyNetwork xy(dom, TorusGeometry(4, 4));
  run_traffic(dom, xy, tc);
  // The buffered router really uses its buffers under a hotspot — the
  // storage cost the paper's deflection design eliminates.
  EXPECT_GT(xy.stats().get("xynoc.peak_buffered"), 4u);
}

TEST(RouterComparison, DeflectionDeflectsUnderHotspot) {
  TrafficConfig tc;
  tc.pattern = TrafficPattern::kHotspot;
  tc.injection_rate = 0.8;
  tc.flits_per_node = 200;
  tc.hotspot_node = 0;
  sim::SimDomain dom(sim::SchedulerConfig{});
  Network defl(dom, TorusGeometry(4, 4));
  run_traffic(dom, defl, tc);
  EXPECT_GT(defl.stats().get("noc.deflections_total"), 100u);
}

}  // namespace
}  // namespace medea::noc

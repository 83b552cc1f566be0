/// Unit tests for the NoC: flit codec, torus geometry, deflection router.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "noc/coord.h"
#include "noc/flit.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "noc/xy_network.h"
#include "sim/domain.h"
#include "sim/fifo.h"
#include "sim/scheduler.h"

namespace medea::noc {
namespace {

// ---------------------------------------------------------------------
// Flit wire format (Fig. 5)
// ---------------------------------------------------------------------

Flit sample_flit() {
  Flit f;
  f.valid = true;
  f.dst = {3, 1};
  f.type = FlitType::kBlockRead;
  f.subtype = FlitSubType::kData;
  f.seq_num = 11;
  f.burst_size = 3;
  f.src_id = 9;
  f.data = 0xDEADBEEF;
  return f;
}

TEST(FlitCodec, RoundTripPreservesAllFields) {
  const Flit f = sample_flit();
  const Flit g = decode_flit(encode_flit(f));
  EXPECT_EQ(g.valid, f.valid);
  EXPECT_EQ(g.dst, f.dst);
  EXPECT_EQ(g.type, f.type);
  EXPECT_EQ(g.subtype, f.subtype);
  EXPECT_EQ(g.seq_num, f.seq_num);
  EXPECT_EQ(g.burst_size, f.burst_size);
  EXPECT_EQ(g.src_id, f.src_id);
  EXPECT_EQ(g.data, f.data);
}

TEST(FlitCodec, AllTypeSubtypeCombinationsRoundTrip) {
  for (int t = 0; t < 7; ++t) {
    for (int s = 0; s < 4; ++s) {
      Flit f = sample_flit();
      f.type = static_cast<FlitType>(t);
      f.subtype = static_cast<FlitSubType>(s);
      const Flit g = decode_flit(encode_flit(f));
      EXPECT_EQ(g.type, f.type);
      EXPECT_EQ(g.subtype, f.subtype);
    }
  }
}

TEST(FlitCodec, FitsIn64BitsWithHeadroom) {
  // 1 + 2 + 2 + 3 + 2 + 4 + 2 + 8 + 32 = 56 bits used.
  const int used = FlitFormat::kValidBits + 2 * FlitFormat::kCoordBits +
                   FlitFormat::kTypeBits + FlitFormat::kSubTypeBits +
                   FlitFormat::kSeqNumBits + FlitFormat::kBurstBits +
                   FlitFormat::kSrcIdBits + FlitFormat::kDataBits;
  EXPECT_EQ(used, 56);
  EXPECT_LE(used, 64);
}

TEST(FlitCodec, EightBitSrcIdRoundTripsLargeNodeIds) {
  // An 8x8 torus has node ids up to 63; the widened SRCID must carry
  // them (and anything up to 255) exactly, including in the wide
  // coordinate encoding needed for >4x4 fabrics.
  for (int id : {15, 16, 63, 255}) {
    Flit f = sample_flit();
    f.src_id = static_cast<std::uint8_t>(id);
    EXPECT_EQ(decode_flit(encode_flit(f)).src_id, id);
    f.dst = {7, 7};
    EXPECT_EQ(decode_flit(encode_flit(f, 3), 3).src_id, id);
  }
}

TEST(FlitCodec, WideCoordinateEncoding) {
  Flit f = sample_flit();
  f.dst = {13, 12};
  const Flit g = decode_flit(encode_flit(f, 4), 4);
  EXPECT_EQ(g.dst, f.dst);
}

TEST(FlitCodec, MetadataNotOnTheWire) {
  Flit f = sample_flit();
  f.hops = 17;
  f.uid = 12345;
  f.inject_cycle = 999;
  const Flit g = decode_flit(encode_flit(f));
  EXPECT_EQ(g.hops, 0);
  EXPECT_EQ(g.uid, 0u);
  EXPECT_EQ(g.inject_cycle, 0u);
}

TEST(FlitCodec, DistinctFlitsEncodeDistinctWords) {
  Flit a = sample_flit();
  Flit b = sample_flit();
  b.seq_num = a.seq_num + 1;
  EXPECT_NE(encode_flit(a), encode_flit(b));
}

// ---------------------------------------------------------------------
// Torus geometry
// ---------------------------------------------------------------------

TEST(Torus, NeighborsWrapAround) {
  TorusGeometry g(4, 4);
  EXPECT_EQ(g.neighbor({0, 0}, Dir::kWest), (Coord{3, 0}));
  EXPECT_EQ(g.neighbor({3, 0}, Dir::kEast), (Coord{0, 0}));
  EXPECT_EQ(g.neighbor({0, 0}, Dir::kNorth), (Coord{0, 3}));
  EXPECT_EQ(g.neighbor({0, 3}, Dir::kSouth), (Coord{0, 0}));
}

TEST(Torus, DistanceUsesShortestWay) {
  TorusGeometry g(4, 4);
  EXPECT_EQ(g.distance({0, 0}, {3, 0}), 1);  // wrap is shorter
  EXPECT_EQ(g.distance({0, 0}, {2, 0}), 2);  // half-way
  EXPECT_EQ(g.distance({0, 0}, {1, 1}), 2);
  EXPECT_EQ(g.distance({1, 1}, {1, 1}), 0);
}

TEST(Torus, NodeIdRoundTrip) {
  TorusGeometry g(4, 4);
  for (int id = 0; id < g.num_nodes(); ++id) {
    EXPECT_EQ(g.node_id(g.coord_of(id)), id);
  }
}

TEST(Torus, ProductiveDirsReduceDistance) {
  TorusGeometry g(4, 4);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      if (a == b) continue;
      const Coord ca = g.coord_of(a);
      const Coord cb = g.coord_of(b);
      Dir dirs[4];
      const int n = g.productive_dirs(ca, cb, dirs);
      ASSERT_GE(n, 1);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(g.distance(g.neighbor(ca, dirs[i]), cb),
                  g.distance(ca, cb) - 1)
            << "from " << ca.to_string() << " to " << cb.to_string();
      }
    }
  }
}

TEST(Torus, NoProductiveDirAtDestination) {
  TorusGeometry g(4, 4);
  Dir dirs[4];
  EXPECT_EQ(g.productive_dirs({2, 2}, {2, 2}, dirs), 0);
}

TEST(Torus, HalfwayTieListsBothDirections) {
  TorusGeometry g(4, 4);
  Dir dirs[4];
  const int n = g.productive_dirs({0, 0}, {2, 0}, dirs);
  EXPECT_EQ(n, 2);  // East and West both 2 hops away
}

// ---------------------------------------------------------------------
// Network / deflection routing
// ---------------------------------------------------------------------

Flit make_test_flit(Network& net, Coord dst, std::uint32_t data) {
  Flit f;
  f.valid = true;
  f.dst = dst;
  f.type = FlitType::kMessage;
  f.subtype = FlitSubType::kData;
  f.src_id = 0;
  f.data = data;
  f.uid = net.next_flit_uid();
  return f;
}

/// Injects a list of flits at a node (one per cycle) and collects
/// everything ejected at every node.
class NodeHarness : public sim::Component {
 public:
  NodeHarness(sim::Scheduler& s, Network& net, int node)
      : sim::Component(s, "harness" + std::to_string(node)),
        net_(net),
        node_(node) {
    net.eject(node).set_consumer(this);
    net.inject(node).set_producer(this);
  }

  void send(Flit f) {
    to_send_.push_back(f);
    scheduler().wake_at(*this, scheduler().now() + 1);
  }

  void tick(sim::Cycle now) override {
    auto& ej = net_.eject(node_);
    while (!ej.empty()) received.emplace_back(now, ej.pop());
    auto& inj = net_.inject(node_);
    while (!to_send_.empty() && inj.can_push()) {
      inj.push(to_send_.front());
      to_send_.pop_front();
    }
    if (!to_send_.empty()) wake();
  }

  std::vector<std::pair<sim::Cycle, Flit>> received;

 private:
  Network& net_;
  int node_;
  std::deque<Flit> to_send_;
};

struct NetFixture {
  explicit NetFixture(int w = 4, int h = 4)
      : net(dom, TorusGeometry(w, h)) {
    for (int i = 0; i < net.num_nodes(); ++i) {
      nodes.push_back(std::make_unique<NodeHarness>(sched, net, i));
    }
  }
  sim::SimDomain dom{sim::SchedulerConfig{}};
  sim::Scheduler& sched = dom.shard(0);
  Network net;
  std::vector<std::unique_ptr<NodeHarness>> nodes;
};

TEST(Network, SingleFlitReachesDestination) {
  NetFixture fx;
  const Coord dst{2, 3};
  fx.nodes[0]->send(make_test_flit(fx.net, dst, 77));
  ASSERT_TRUE(fx.sched.run(10000));
  auto& rx = fx.nodes[fx.net.geometry().node_id(dst)]->received;
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].second.data, 77u);
  EXPECT_EQ(fx.net.stats().get("noc.flits_delivered"), 1u);
}

TEST(Network, MinimalPathLatencyWhenUncontended) {
  NetFixture fx;
  // (0,0) -> (1,0) is one hop: inject at T, link at T, arrive T+2
  // (inject queue + 1 link + eject queue each add a cycle boundary).
  fx.nodes[0]->send(make_test_flit(fx.net, {1, 0}, 1));
  ASSERT_TRUE(fx.sched.run(1000));
  auto& rx = fx.nodes[1]->received;
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].second.hops, 1);
  EXPECT_EQ(rx[0].second.deflections, 0);
}

TEST(Network, AllPairsDelivery) {
  NetFixture fx;
  int expected = 0;
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      fx.nodes[static_cast<std::size_t>(s)]->send(make_test_flit(
          fx.net, fx.net.geometry().coord_of(d),
          static_cast<std::uint32_t>(s * 100 + d)));
      ++expected;
    }
  }
  ASSERT_TRUE(fx.sched.run(100000));
  int got = 0;
  for (auto& nh : fx.nodes) got += static_cast<int>(nh->received.size());
  EXPECT_EQ(got, expected);
  // Everything arrived at the right place.
  for (int d = 0; d < 16; ++d) {
    for (auto& [cycle, f] : fx.nodes[static_cast<std::size_t>(d)]->received) {
      EXPECT_EQ(static_cast<int>(f.data % 100), d);
    }
  }
}

TEST(Network, HotspotDeliversAllAndDeflects) {
  NetFixture fx;
  // Every node floods node 0 with 8 flits: heavy contention at one eject.
  int expected = 0;
  for (int s = 1; s < 16; ++s) {
    for (int k = 0; k < 8; ++k) {
      fx.nodes[static_cast<std::size_t>(s)]->send(make_test_flit(
          fx.net, {0, 0}, static_cast<std::uint32_t>(s * 16 + k)));
      ++expected;
    }
  }
  ASSERT_TRUE(fx.sched.run(1000000));
  EXPECT_EQ(static_cast<int>(fx.nodes[0]->received.size()), expected);
  // Hot-potato under contention must deflect at least once.
  EXPECT_GT(fx.net.stats().get("noc.deflections_total"), 0u);
}

TEST(Network, OutOfOrderDeliveryHappensUnderLoad) {
  NetFixture fx;
  // A long burst from one source: per-flit adaptive routing may reorder.
  for (int k = 0; k < 64; ++k) {
    Flit f = make_test_flit(fx.net, {2, 2},
                            static_cast<std::uint32_t>(k));
    f.seq_num = static_cast<std::uint8_t>(k % 16);
    fx.nodes[0]->send(f);
  }
  // Cross traffic to force deflections.
  for (int k = 0; k < 64; ++k) {
    fx.nodes[5]->send(make_test_flit(fx.net, {3, 2}, 1000));
    fx.nodes[10]->send(make_test_flit(fx.net, {1, 2}, 2000));
  }
  ASSERT_TRUE(fx.sched.run(1000000));
  auto& rx = fx.nodes[fx.net.geometry().node_id({2, 2})]->received;
  ASSERT_EQ(rx.size(), 64u);
  // All 64 data values present exactly once, regardless of order.
  std::set<std::uint32_t> seen;
  for (auto& [c, f] : rx) seen.insert(f.data);
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [] {
    NetFixture fx;
    for (int s = 0; s < 16; ++s) {
      for (int k = 0; k < 4; ++k) {
        fx.nodes[static_cast<std::size_t>(s)]->send(make_test_flit(
            fx.net, fx.net.geometry().coord_of((s + k + 1) % 16),
            static_cast<std::uint32_t>(s * 10 + k)));
      }
    }
    EXPECT_TRUE(fx.sched.run(100000));
    return fx.sched.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Network, WorksOnNonSquareTorus) {
  NetFixture fx(2, 3);
  fx.nodes[0]->send(make_test_flit(fx.net, {1, 2}, 5));
  ASSERT_TRUE(fx.sched.run(10000));
  EXPECT_EQ(fx.nodes[fx.net.geometry().node_id({1, 2})]->received.size(), 1u);
}

// Regression test for the deflection port-assignment hardening: under
// saturation every router sees a full route set (4 in-flight flits) and
// must take the deflect-to-any-free-port path.  With random_tie_break
// the free-port scan previously relied on an assert()-only guard around
// a -1 "no port" return — compiled out under NDEBUG, leaving a negative
// array index.  This drives both tie-break modes to full load and checks
// total delivery.
TEST(Network, SaturationExercisesDeflectionPortScan) {
  for (bool random_tie : {false, true}) {
    RouterConfig cfg;
    cfg.random_tie_break = random_tie;
    sim::SimDomain dom(sim::SchedulerConfig{});
    sim::Scheduler& sched = dom.shard(0);
    Network net(dom, TorusGeometry(4, 4), cfg, 7);
    std::vector<std::unique_ptr<NodeHarness>> nodes;
    for (int i = 0; i < net.num_nodes(); ++i) {
      nodes.push_back(std::make_unique<NodeHarness>(sched, net, i));
    }
    // Every node floods one hotspot: converging traffic exhausts the few
    // productive ports near the destination, guaranteed deflections.
    // (Opposite-corner traffic would not work here: at exactly half the
    // ring circumference every direction is productive.)
    const Coord hotspot{1, 1};
    const int kPerNode = 30;
    int senders = 0;
    for (int i = 0; i < net.num_nodes(); ++i) {
      if (net.geometry().coord_of(i) == hotspot) continue;
      ++senders;
      for (int k = 0; k < kPerNode; ++k) {
        nodes[static_cast<std::size_t>(i)]->send(
            make_test_flit(net, hotspot, static_cast<std::uint32_t>(k)));
      }
    }
    ASSERT_TRUE(sched.run(1'000'000));
    EXPECT_EQ(net.stats().get("noc.flits_delivered"),
              static_cast<std::uint64_t>(senders * kPerNode));
    EXPECT_GT(net.stats().get("noc.deflections_total"), 0u);
  }
}

TEST(Network, LatencyStatisticsPopulated) {
  NetFixture fx;
  for (int k = 0; k < 10; ++k) {
    fx.nodes[0]->send(make_test_flit(fx.net, {3, 3}, 0));
  }
  ASSERT_TRUE(fx.sched.run(10000));
  const auto& lat = fx.net.stats().acc("noc.latency");
  EXPECT_EQ(lat.count(), 10u);
  EXPECT_GE(lat.min(), 1.0);
  const auto& hops = fx.net.stats().acc("noc.hops");
  EXPECT_GE(hops.min(), 2.0);  // (0,0)->(3,3) minimal distance 2 (wrap)
}

// ---------------------------------------------------------------------
// Fabric invariants (checked in every build type, not by assert)
// ---------------------------------------------------------------------

TEST(FabricInvariants, RejectsAxisBeyondCoordRange) {
  sim::SimDomain dom(sim::SchedulerConfig{});
  // Coord is 8-bit: a 300-wide torus would alias x = 300 onto x = 44.
  EXPECT_THROW(Network(dom, TorusGeometry(300, 1)), std::invalid_argument);
  EXPECT_THROW(XyNetwork(dom, TorusGeometry(1, 257)), std::invalid_argument);
  EXPECT_NO_THROW(Network(dom, TorusGeometry(256, 1)));
}

TEST(FabricInvariants, RejectsEmptyAxis) {
  sim::SimDomain dom(sim::SchedulerConfig{});
  EXPECT_THROW(Network(dom, TorusGeometry(0, 4)), std::invalid_argument);
  EXPECT_THROW(XyNetwork(dom, TorusGeometry(4, -1)), std::invalid_argument);
}

TEST(FabricInvariants, RejectsMoreNodesThanUidNodeBits) {
  // kFlitUidSeqBits = 20 leaves 12 node bits: 4096 nodes at most.
  ASSERT_EQ(kMaxFlitUidNodes, 4096);
  sim::SimDomain dom(sim::SchedulerConfig{});
  EXPECT_THROW(Network(dom, TorusGeometry(128, 64)), std::invalid_argument);
  EXPECT_NO_THROW(Network(dom, TorusGeometry(64, 64)));
}

TEST(FabricInvariants, NodeUidExhaustionThrows) {
  sim::SimDomain dom(sim::SchedulerConfig{});
  Network net(dom, TorusGeometry(2, 2));
  const std::uint32_t node = 1u << kFlitUidSeqBits;
  EXPECT_EQ(net.node_flit_uid(1), node | 1u);
  for (std::uint32_t seq = 2; seq < (1u << kFlitUidSeqBits); ++seq) {
    ASSERT_EQ(net.node_flit_uid(1), node | seq);
  }
  // The next uid would be node 2's first: refuse instead of aliasing.
  EXPECT_THROW(net.node_flit_uid(1), std::overflow_error);
  EXPECT_EQ(net.node_flit_uid(2), (2u << kFlitUidSeqBits) | 1u);
}

TEST(FabricInvariants, FullLinkErrorNamesTheLink) {
  // Fabrics render link, router and queue names only when an error
  // prints them; the text is what each FIFO used to store.
  sim::SimDomain dom(sim::SchedulerConfig{});
  Network net(dom, TorusGeometry(4, 4));
  sim::Fifo<Flit>& link = *net.router(0).output(Dir::kEast);
  link.push(Flit{});
  link.push(Flit{});
  try {
    link.push(Flit{});
    FAIL() << "push on a full link did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "sim::Fifo link(0,0)E->(1,0): push on a full FIFO "
                 "(capacity 2)");
  }
  EXPECT_EQ(net.router(5).name(), "router(1,1)");
  EXPECT_EQ(net.inject(5).name(), "router(1,1).inject");
  EXPECT_EQ(net.eject(5).name(), "router(1,1).eject");
  EXPECT_EQ(net.router(3).output(Dir::kEast)->name(), "link(3,0)E->(0,0)");

  sim::SchedulerConfig two;
  two.num_shards = 2;
  sim::SimDomain sharded(two, 4);
  Network banded(sharded, TorusGeometry(4, 4));
  EXPECT_EQ(banded.router(0).output(Dir::kNorth)->name(),
            "link(0,0)N->(0,3).tx");
  EXPECT_EQ(banded.router(0).output(Dir::kSouth)->name(), "link(0,0)S->(0,1)");

  XyNetwork xy(dom, TorusGeometry(3, 2));
  EXPECT_EQ(xy.router(5).name(), "xyrouter(2,1)");
  EXPECT_EQ(xy.router(5).output(Dir::kWest)->name(), "xylink(2,1)W->(1,1)");
  EXPECT_EQ(xy.eject(0).name(), "xyrouter(0,0).eject");
}

TEST(FabricInvariants, XyFabricRejectsShardedDomain) {
  sim::SchedulerConfig cfg;
  cfg.num_shards = 2;
  sim::SimDomain dom(cfg, 4);
  ASSERT_TRUE(dom.sharded());
  EXPECT_THROW(XyNetwork(dom, TorusGeometry(4, 4)), std::invalid_argument);
}

TEST(FabricInvariants, RunTrafficThatCannotDrainThrows) {
  sim::SimDomain dom(sim::SchedulerConfig{});
  Network net(dom, TorusGeometry(4, 4));
  TrafficConfig tc;
  tc.flits_per_node = 100;
  EXPECT_THROW(run_traffic(dom, net, tc, /*limit=*/20), std::runtime_error);
}

}  // namespace
}  // namespace medea::noc

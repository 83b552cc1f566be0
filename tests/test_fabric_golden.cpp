/// Characterization test: pins the exact simulated output of every NoC
/// fabric and run path at fixed seeds, so a refactor of the fabric core,
/// the routers or the run helpers cannot move a result unnoticed.
///
/// Each case pins the cycle count, the flits delivered, the kernel wake
/// counters and an FNV-1a hash of the (cycle, node, uid) delivery log in
/// observer order.  Covered: the five synthetic patterns on the
/// deflection 4x4 torus, the buffered-XY 4x4 mesh and the buffered-XY
/// 4x4 torus; a replay of one deflection and one XY recording; and one
/// small run each of jacobi, jacobi-sm, reduction and alltoall.
///
/// A mismatch here means simulated behavior changed; that needs a
/// deliberate re-baseline, never a silent edit.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "workload/trace.h"
#include "workload/workload.h"

namespace medea::workload {
namespace {

/// FNV-1a over the delivery log, in the order the observer sees it.
struct DeliveryHash final : noc::FlitObserver {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void on_inject(sim::Cycle, int, const noc::Flit&) override {}
  void on_deliver(sim::Cycle now, int node, const noc::Flit& f) override {
    mix(now);
    mix(static_cast<std::uint64_t>(node));
    mix(f.uid);
  }
};

struct Golden {
  const char* name;
  sim::Cycle cycles;
  std::uint64_t flits;
  std::uint64_t wake_requests;
  std::uint64_t wakes_deduped;
  std::uint64_t hash;
};

void expect_golden(const Golden& g, const RunRequest& req) {
  SCOPED_TRACE(g.name);
  DeliveryHash log;
  const RunResult r = run_by_name(g.name, req, &log);
  EXPECT_TRUE(r.verified_ok);
  EXPECT_EQ(r.cycles, g.cycles);
  EXPECT_EQ(r.flits_delivered, g.flits);
  EXPECT_EQ(r.stats.get("sched.wake_requests"), g.wake_requests);
  EXPECT_EQ(r.stats.get("sched.wakes_deduped"), g.wakes_deduped);
  EXPECT_EQ(log.h, g.hash);
}

RunRequest synthetic(const std::string& network, bool wrap) {
  RunRequest req;
  SyntheticParams sp;
  sp.injection_rate = 0.2;
  sp.flits_per_node = 200;
  sp.network = network;
  sp.xy_torus_wrap = wrap;
  req.synthetic = sp;
  return req;
}

RunRequest app(int size) {
  RunRequest req;
  req.verify = true;
  AppParams ap;
  ap.size = size;
  req.app = ap;
  return req;
}

/// Record `name` on `rec_req`, then replay the saved trace.
void expect_replay_golden(const char* label, const std::string& name,
                          const RunRequest& rec_req, const Golden& g) {
  SCOPED_TRACE(label);
  const Trace t = record_workload(name, rec_req);
  const std::string path =
      testing::TempDir() + "/medea_golden_" + std::string(label) + ".mdtr";
  save_trace(t, path);
  RunRequest rr;
  rr.replay = ReplayParams{};
  rr.replay->trace_path = path;
  expect_golden(g, rr);
}

TEST(FabricGolden, DeflectionTorus) {
  const RunRequest req = synthetic("deflection", false);
  for (const Golden& g : {
           Golden{"uniform", 1165, 3200, 30092, 5653, 0x93c466196d0cb40full},
           Golden{"hotspot", 3490, 3000, 166654, 96110, 0xee9dc162beb3a324ull},
           Golden{"transpose", 1197, 2400, 27656, 3854, 0x113a86c617008a33ull},
           Golden{"neighbor", 1197, 3200, 26490, 4001, 0xfb56f0ac2ae12900ull},
           Golden{"bitrev", 1198, 2400, 27290, 3645, 0xbb7b72879067f205ull},
       }) {
    expect_golden(g, req);
  }
}

TEST(FabricGolden, XyMesh) {
  const RunRequest req = synthetic("xy", false);
  for (const Golden& g : {
           Golden{"uniform", 1166, 3200, 31552, 6381, 0x8de81293d1a713aaull},
           Golden{"hotspot", 3352, 3000, 74037, 10254, 0x873e125a3d052232ull},
           Golden{"transpose", 1197, 2400, 29454, 4183, 0x069be1522811d096ull},
           Golden{"neighbor", 1199, 3200, 28490, 4727, 0x273bf6091f0b7997ull},
           Golden{"bitrev", 1198, 2400, 29584, 4237, 0xd0bba22d149667f3ull},
       }) {
    expect_golden(g, req);
  }
}

TEST(FabricGolden, XyTorus) {
  const RunRequest req = synthetic("xy", true);
  for (const Golden& g : {
           Golden{"uniform", 1165, 3200, 29775, 5502, 0x71e54dc88bfce9eeull},
           Golden{"hotspot", 3258, 3000, 70147, 8252, 0x07945dbf2b7e9b22ull},
           Golden{"transpose", 1197, 2400, 27856, 3997, 0x8ac97cb0b3ddbd14ull},
           Golden{"neighbor", 1197, 3200, 26490, 4001, 0xfb56f0ac2ae12900ull},
           Golden{"bitrev", 1198, 2400, 27790, 3843, 0xd4eec6d6fe7d1f42ull},
       }) {
    expect_golden(g, req);
  }
}

TEST(FabricGolden, ReplayDeflectionRecording) {
  expect_replay_golden("deflection", "uniform",
                       synthetic("deflection", false),
                       Golden{"replay", 1165, 3200, 17401, 2556,
                              0x93c466196d0cb40full});
}

TEST(FabricGolden, ReplayXyRecording) {
  expect_replay_golden("xy", "transpose", synthetic("xy", false),
                       Golden{"replay", 1197, 2400, 15764, 1865,
                              0x069be1522811d096ull});
}

TEST(FabricGolden, Apps) {
  expect_golden(Golden{"jacobi", 11183, 724, 4341, 121, 0xab209a3f9bc1dc2aull},
                app(10));
  expect_golden(
      Golden{"jacobi-sm", 23743, 1638, 9882, 891, 0xe82de8418c7f2272ull},
      app(10));
  expect_golden(
      Golden{"reduction", 29334, 1298, 7170, 162, 0x1bd6e6c6e0808fcfull},
      app(256));
  expect_golden(Golden{"alltoall", 74, 72, 370, 59, 0x2f40597ff9c75debull},
                app(4));
}

}  // namespace
}  // namespace medea::workload

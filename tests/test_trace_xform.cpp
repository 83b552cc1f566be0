/// Tests for the trace toolkit: the self-describing MDTR v2 header
/// (v1 rejection, corrupt-header and bad-payload rejection,
/// config-mismatch refusal), registry replay of a re-recorded path, the
/// inspect/diff analyzers, and record/replay parity for the buffered-XY
/// baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "noc/network.h"
#include "noc/xy_network.h"
#include "sim/scheduler.h"
#include "workload/replay.h"
#include "workload/trace.h"
#include "workload/workload.h"
#include "workload/xform/inspect.h"

namespace medea::workload {
namespace {

RunRequest tiny_synth() {
  RunRequest req;
  req.machine.num_compute_cores = 2;
  SyntheticParams sp;
  sp.injection_rate = 0.3;
  sp.flits_per_node = 40;
  req.synthetic = sp;
  return req;
}

/// Replay request for a trace on disk (machine config left default).
RunRequest replay_req(const std::string& path) {
  RunRequest req;
  req.replay = ReplayParams{};
  req.replay->trace_path = path;
  return req;
}

/// Record a small 4x4 jacobi trace.
Trace record_jacobi() {
  RunRequest req;
  req.machine.num_compute_cores = 4;
  AppParams ap;
  ap.size = 8;
  req.app = ap;
  return record_workload("jacobi", req);
}

// ---------------------------------------------------------------------
// MDTR v2 header
// ---------------------------------------------------------------------

TEST(TraceV2, RecordingsCarryTheFabricConfig) {
  RunRequest req = tiny_synth();
  req.machine.router.eject_per_cycle = 2;
  req.machine.router.random_tie_break = true;
  const Trace t = record_workload("uniform", req);
  EXPECT_EQ(t.meta.net.kind, TraceNetKind::kDeflection);
  EXPECT_EQ(t.meta.net.eject_per_cycle, 2);
  EXPECT_TRUE(t.meta.net.random_tie_break);

  // The config survives the disk round-trip.
  const auto bytes = serialize_trace(t);
  EXPECT_EQ(bytes[4], kTraceVersion);
  const Trace u = parse_trace(bytes.data(), bytes.size());
  EXPECT_EQ(u.meta.net, t.meta.net);
  EXPECT_EQ(u, t);
  validate_trace(t);
}

TEST(TraceV2, NetConfigProjectionsRoundTrip) {
  noc::RouterConfig rc;
  rc.eject_per_cycle = 3;
  rc.inject_queue_depth = 5;
  rc.eject_queue_depth = 7;
  rc.random_tie_break = true;
  EXPECT_EQ(TraceNetConfig::from(rc).router_config(), rc);

  noc::XyRouterConfig xc;
  xc.input_buffer_depth = 9;
  xc.eject_per_cycle = 2;
  const TraceNetConfig n = TraceNetConfig::from(xc, /*torus_wrap=*/true);
  EXPECT_EQ(n.xy_router_config(), xc);
  EXPECT_TRUE(n.torus_wrap);
  EXPECT_EQ(n.kind, TraceNetKind::kBufferedXy);
}

/// Hand-rolled v1 blob (the first on-disk layout, no fabric block): the
/// fixture readers must reject by name.
std::vector<std::uint8_t> golden_v1_blob() {
  std::vector<std::uint8_t> b;
  const auto varint = [&b](std::uint64_t v) {
    while (v >= 0x80) {
      b.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    b.push_back(static_cast<std::uint8_t>(v));
  };
  for (char c : {'M', 'D', 'T', 'R'}) b.push_back(static_cast<std::uint8_t>(c));
  b.push_back(1);  // version 1
  varint(4);       // width
  varint(4);       // height
  varint(2);       // coord_bits
  varint(77);      // seed
  varint(500);     // total_cycles
  const std::string name = "uniform";
  varint(name.size());
  b.insert(b.end(), name.begin(), name.end());

  std::vector<TraceEvent> events;
  for (int i = 0; i < 8; ++i) {
    TraceEvent e;
    e.cycle = 2 + static_cast<sim::Cycle>(i) * 4;
    e.src = static_cast<std::uint16_t>(i % 16);
    e.dst = static_cast<std::uint16_t>((i + 5) % 16);
    e.size = 1;
    e.uid = static_cast<std::uint32_t>(i + 1);
    noc::Flit f;
    f.valid = true;
    f.dst = noc::Coord{static_cast<std::uint8_t>(e.dst % 4),
                       static_cast<std::uint8_t>(e.dst / 4)};
    f.src_id = static_cast<std::uint8_t>(e.src);
    f.uid = e.uid;
    e.payload = noc::encode_flit(f, 2);
    events.push_back(e);
  }
  varint(events.size());
  sim::Cycle prev = 0;
  for (const TraceEvent& e : events) {
    varint(e.cycle - prev);
    prev = e.cycle;
    varint(e.src);
    varint(e.dst);
    varint(e.size);
    varint(e.uid);
    varint(e.payload);
  }
  return b;
}

TEST(TraceV2, GoldenV1BlobIsRejectedByName) {
  const auto bytes = golden_v1_blob();
  try {
    (void)parse_trace(bytes.data(), bytes.size());
    FAIL() << "a v1 trace must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MDTR v1"), std::string::npos)
        << e.what();
  }

  // The header-only load (which sizes replays) refuses it the same way.
  const std::string path = testing::TempDir() + "/medea_golden_v1.mdtr";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
  try {
    (void)load_trace_meta(path);
    FAIL() << "a v1 header must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MDTR v1"), std::string::npos)
        << e.what();
  }
}

TEST(TraceV2, PayloadOffTheTorusIsRejectedByEvent) {
  // A 3x3 torus event for node 4 whose wire word encodes (3,1), a node
  // that does not exist: replay would inject it and run to its cycle
  // limit, so loading it must fail and name the event.
  Trace t;
  t.meta.width = 3;
  t.meta.height = 3;
  t.meta.coord_bits = coord_bits_for(3, 3);
  TraceEvent e;
  e.cycle = 2;
  e.dst = 4;
  e.uid = 1;
  noc::Flit f;
  f.valid = true;
  f.dst = noc::Coord{3, 1};
  e.payload = noc::encode_flit(f, t.meta.coord_bits);
  t.events.push_back(e);

  const auto bytes = serialize_trace(t);
  try {
    (void)parse_trace(bytes.data(), bytes.size());
    FAIL() << "a payload off the torus must not parse";
  } catch (const std::runtime_error& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("payload dst disagrees with event dst"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("event 0: " + to_string(e)), std::string::npos) << msg;
  }
  EXPECT_THROW(validate_trace(t), std::runtime_error);
}

/// Serialize a minimal v2 trace whose header varints are all single
/// bytes, so corrupt-header tests can poke known offsets.
std::vector<std::uint8_t> tiny_v2_bytes() {
  Trace t;
  t.meta.width = 4;
  t.meta.height = 4;
  t.meta.coord_bits = 2;
  t.meta.seed = 1;
  t.meta.total_cycles = 10;
  return serialize_trace(t);
}

// Header offsets of tiny_v2_bytes (all varints are 1 byte): magic 0..3,
// version 4, width 5, height 6, coord_bits 7, seed 8, total_cycles 9,
// name-len 10, kind 11, eject_per_cycle 12, inject_queue_depth 13,
// eject_queue_depth 14, input_buffer_depth 15, flags 16, ext_len 17.
constexpr std::size_t kKindOff = 11;
constexpr std::size_t kInjQOff = 13;
constexpr std::size_t kFlagsOff = 16;
constexpr std::size_t kExtLenOff = 17;

TEST(TraceV2, RejectsUnknownNetworkKind) {
  auto b = tiny_v2_bytes();
  b[kKindOff] = 9;
  EXPECT_THROW(parse_trace(b.data(), b.size()), std::runtime_error);
}

TEST(TraceV2, RejectsZeroQueueDepth) {
  auto b = tiny_v2_bytes();
  b[kInjQOff] = 0;
  EXPECT_THROW(parse_trace(b.data(), b.size()), std::runtime_error);
}

TEST(TraceV2, RejectsUnknownFlags) {
  auto b = tiny_v2_bytes();
  b[kFlagsOff] = 0x40;
  EXPECT_THROW(parse_trace(b.data(), b.size()), std::runtime_error);
}

TEST(TraceV2, RejectsTruncatedExtension) {
  auto b = tiny_v2_bytes();
  b[kExtLenOff] = 0x7F;  // claims 127 extension bytes that are not there
  EXPECT_THROW(parse_trace(b.data(), b.size()), std::runtime_error);
}

TEST(TraceV2, RejectsEveryHeaderTruncation) {
  const auto b = tiny_v2_bytes();
  for (std::size_t n = 0; n < b.size(); ++n) {
    EXPECT_THROW(parse_trace(b.data(), n), std::runtime_error) << n;
  }
}

TEST(TraceV2, RejectsFutureVersion) {
  auto b = tiny_v2_bytes();
  b[4] = kTraceVersion + 1;
  EXPECT_THROW(parse_trace(b.data(), b.size()), std::runtime_error);
}

// ---------------------------------------------------------------------
// Config-mismatch refusal
// ---------------------------------------------------------------------

TEST(ReplayConfigCheck, MismatchedRouterConfigThrows) {
  const Trace t = record_workload("uniform", tiny_synth());
  noc::RouterConfig other;
  other.eject_per_cycle = 2;  // recorded with 1
  sim::SimDomain dom(sim::SchedulerConfig{});
  noc::Network net(dom, noc::TorusGeometry(4, 4), other, t.meta.seed);
  EXPECT_THROW(TraceReplayer rep(net, t), std::runtime_error);
  // Explicit override replays anyway (a what-if study).
  const ReplayResult r = run_replay(dom, net, t, 50'000'000,
                                    /*allow_config_mismatch=*/true);
  EXPECT_EQ(r.flits_delivered, t.events.size());
}

TEST(ReplayConfigCheck, KindMismatchThrows) {
  // An XY recording must not silently replay on the deflection fabric.
  RunRequest req = tiny_synth();
  req.synthetic->network = "xy";
  const Trace t = record_workload("neighbor", req);
  ASSERT_EQ(t.meta.net.kind, TraceNetKind::kBufferedXy);
  sim::SimDomain dom(sim::SchedulerConfig{});
  noc::Network net(dom, noc::TorusGeometry(4, 4));
  EXPECT_THROW(TraceReplayer rep(net, t), std::runtime_error);
}

TEST(ReplayConfigCheck, RegistryReplayRefusesThenForces) {
  const Trace t = record_workload("uniform", tiny_synth());
  const std::string path = testing::TempDir() + "/medea_force_replay.bin";
  save_trace(t, path);

  RunRequest rr = replay_req(path);
  rr.machine.router.eject_per_cycle = 2;  // not what was recorded
  EXPECT_THROW(run_by_name("replay", rr), std::runtime_error);

  rr.replay->force_config = true;
  const RunResult r = run_by_name("replay", rr);
  EXPECT_EQ(r.flits_delivered, t.events.size());
  EXPECT_TRUE(r.verified_ok);
}

TEST(RegistryReplay, ReRecordedPathReplaysTheNewRecording) {
  // Recordings are overwritten in place; a replay must read the file as
  // it is now, header and events alike.
  const std::string path = testing::TempDir() + "/medea_rerecorded.mdtr";
  RunRequest req = tiny_synth();
  req.synthetic->flits_per_node = 10;
  const Trace first = record_workload("uniform", req);
  save_trace(first, path);
  const RunResult a = run_by_name("replay", replay_req(path));
  EXPECT_EQ(first.events.size(), 160u);
  EXPECT_EQ(a.flits_delivered, first.events.size());

  req.synthetic->flits_per_node = 40;
  const Trace second = record_workload("uniform", req);
  save_trace(second, path);
  const RunResult b = run_by_name("replay", replay_req(path));
  EXPECT_EQ(second.events.size(), 640u);
  EXPECT_EQ(b.flits_delivered, second.events.size());
  EXPECT_TRUE(b.verified_ok);
}

// ---------------------------------------------------------------------
// Inspect / diff
// ---------------------------------------------------------------------

TEST(Inspect, CountsAndMatrixAgreeWithTheTrace) {
  const Trace t = record_workload("hotspot", tiny_synth());
  const auto insp = xform::inspect_trace(t);
  EXPECT_EQ(insp.num_events, t.events.size());
  EXPECT_EQ(insp.num_nodes, 16);

  std::uint64_t per_source_total = 0;
  for (auto c : insp.injections_per_source) per_source_total += c;
  EXPECT_EQ(per_source_total, t.events.size());

  std::uint64_t matrix_total = 0;
  for (auto c : insp.traffic_matrix) matrix_total += c;
  EXPECT_EQ(matrix_total, t.events.size());

  // Hotspot: every flit goes to node 0 => only column 0 is populated.
  for (std::size_t s = 0; s < 16; ++s) {
    for (std::size_t d = 1; d < 16; ++d) {
      EXPECT_EQ(insp.traffic_matrix[s * 16 + d], 0u) << s << "->" << d;
    }
  }
  std::uint64_t time_total = 0;
  for (auto c : insp.time_histogram) time_total += c;
  EXPECT_EQ(time_total, t.events.size());

  const std::string text = xform::format_inspection(t, insp);
  EXPECT_NE(text.find("src->dst heatmap"), std::string::npos);
  EXPECT_NE(text.find("hotspot"), std::string::npos);
  EXPECT_NE(text.find("deflection"), std::string::npos);
}

TEST(Inspect, EmptyTraceFormats) {
  Trace t;
  t.meta.width = 4;
  t.meta.height = 4;
  t.meta.coord_bits = 2;
  const auto insp = xform::inspect_trace(t);
  EXPECT_EQ(insp.num_events, 0u);
  EXPECT_FALSE(xform::format_inspection(t, insp).empty());
  EXPECT_FALSE(xform::format_inspection_json(t, insp).empty());
}

TEST(Inspect, JsonExportCarriesTheFullInspection) {
  const Trace t = record_workload("hotspot", tiny_synth());
  const auto insp = xform::inspect_trace(t, 8);
  const std::string json = xform::format_inspection_json(t, insp);

  // Structural spot checks: header fields, totals, and array shapes.
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"hotspot\""), std::string::npos);
  EXPECT_NE(json.find("\"width\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"num_events\": " + std::to_string(t.events.size())),
            std::string::npos);
  EXPECT_NE(json.find("\"traffic_matrix\": ["), std::string::npos);
  EXPECT_NE(json.find("\"time_histogram\": ["), std::string::npos);

  // One matrix row per source node.
  std::size_t rows = 0;
  const std::string matrix_key = "\"traffic_matrix\"";
  const std::size_t mstart = json.find(matrix_key);
  const std::size_t mend = json.find("]\n  ],", mstart);
  ASSERT_NE(mstart, std::string::npos);
  ASSERT_NE(mend, std::string::npos);
  for (std::size_t pos = json.find('[', mstart + matrix_key.size() + 2);
       pos != std::string::npos && pos <= mend;
       pos = json.find('[', pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 1u + 16u);  // the enclosing array plus 16 source rows

  // Balanced braces/brackets (cheap well-formedness check without a
  // JSON parser dependency; CI validates with python3 -m json.tool).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Diff, IdenticalAfterDiskRoundTrip) {
  const Trace t = record_jacobi();
  const std::string path = testing::TempDir() + "/medea_diff_rt.bin";
  save_trace(t, path);
  const auto d = xform::diff_traces(t, load_trace(path));
  EXPECT_TRUE(d.identical) << d.first_difference;
}

TEST(Diff, ReportsFirstDivergingEvent) {
  const Trace a = record_jacobi();
  Trace b = a;
  b.events[3].dst = static_cast<std::uint16_t>((b.events[3].dst + 1) % 16);
  const auto d = xform::diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.diverge_index, 3u);
  EXPECT_NE(d.first_difference.find("event 3"), std::string::npos);
}

TEST(Diff, ReportsMetaAndLengthDifferences) {
  const Trace a = record_jacobi();
  Trace b = a;
  b.meta.seed += 1;
  auto d = xform::diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_FALSE(d.meta_equal);
  EXPECT_NE(d.first_difference.find("meta.seed"), std::string::npos);

  Trace c = a;
  c.events.pop_back();
  d = xform::diff_traces(a, c);
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.first_difference.find("event count"), std::string::npos);
}

// ---------------------------------------------------------------------
// Buffered-XY record/replay parity
// ---------------------------------------------------------------------

struct DeliveryLog final : noc::FlitObserver {
  std::vector<std::tuple<sim::Cycle, int, std::uint32_t>> v;
  void on_inject(sim::Cycle, int, const noc::Flit&) override {}
  void on_deliver(sim::Cycle now, int node, const noc::Flit& f) override {
    v.emplace_back(now, node, f.uid);
  }
  std::vector<std::tuple<sim::Cycle, int, std::uint32_t>> sorted() const {
    auto s = v;
    std::sort(s.begin(), s.end());
    return s;
  }
};

struct RecordAndLog final : noc::FlitObserver {
  TraceRecorder* rec = nullptr;
  DeliveryLog* log = nullptr;
  void on_inject(sim::Cycle now, int node, const noc::Flit& f) override {
    rec->on_inject(now, node, f);
  }
  void on_deliver(sim::Cycle now, int node, const noc::Flit& f) override {
    log->on_deliver(now, node, f);
  }
};

TEST(XyReplay, RecordingsReplayBitIdentically) {
  RunRequest req = tiny_synth();
  req.synthetic->network = "xy";
  req.synthetic->injection_rate = 0.4;

  // Record an XY run and log its deliveries.
  const Workload& w = WorkloadRegistry::instance().at("transpose");
  TraceRecorder rec(4, 4);
  rec.set_net_config(w.net_config(req));
  DeliveryLog orig;
  RecordAndLog both;
  both.rec = &rec;
  both.log = &orig;
  RunContext ctx{&both, nullptr};
  const RunResult recorded = w.run(req, ctx);
  const Trace trace = rec.take(recorded.cycles, "transpose", req.seed);
  ASSERT_FALSE(trace.events.empty());
  ASSERT_EQ(trace.meta.net.kind, TraceNetKind::kBufferedXy);

  // Replay twice on fabrics rebuilt from the header.
  auto replay_once = [&](DeliveryLog& log) {
    sim::SimDomain dom(sim::SchedulerConfig{});
    noc::XyNetwork net(dom, noc::TorusGeometry(4, 4),
                       trace.meta.net.xy_router_config(),
                       trace.meta.net.torus_wrap);
    net.set_observer(&log);
    return run_replay(dom, net, trace);
  };
  DeliveryLog log1, log2;
  const ReplayResult r1 = replay_once(log1);
  const ReplayResult r2 = replay_once(log2);

  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(log1.v, log2.v);
  EXPECT_EQ(r1.flits_injected, trace.events.size());
  EXPECT_EQ(r1.flits_delivered, trace.events.size());
  // Replay-vs-recording: every flit delivered at the recorded cycle.
  EXPECT_EQ(log1.sorted(), orig.sorted());
}

TEST(XyReplay, RegistryReplayRebuildsTheXyFabricFromTheHeader) {
  RunRequest req = tiny_synth();
  req.synthetic->network = "xy";
  req.synthetic->xy_router.input_buffer_depth = 6;
  const Trace t = record_workload("neighbor", req);
  EXPECT_EQ(t.meta.net.input_buffer_depth, 6);
  const std::string path = testing::TempDir() + "/medea_xy_replay.bin";
  save_trace(t, path);

  // Default machine config; the header must decide the fabric.
  const RunResult r = run_by_name("replay", replay_req(path));
  EXPECT_EQ(r.flits_delivered, t.events.size());
  EXPECT_TRUE(r.verified_ok);
  EXPECT_EQ(r.cycles, t.meta.total_cycles);
}

}  // namespace
}  // namespace medea::workload

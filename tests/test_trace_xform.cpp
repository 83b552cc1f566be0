/// Tests for the trace toolkit: the self-describing MDTR v2 header
/// (v1 compatibility, corrupt-header rejection, config-mismatch
/// refusal), the transform pipeline (scale/remap/merge/window, all
/// outputs fully validated and replayable), the inspect/diff analyzers,
/// and record/replay parity for the buffered-XY baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
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
#include "workload/xform/transform.h"

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

/// Record a small 4x4 jacobi trace (the acceptance scenario's source).
Trace record_jacobi() {
  RunRequest req;
  req.machine.num_compute_cores = 4;
  AppParams ap;
  ap.size = 8;
  req.app = ap;
  return record_workload("jacobi", req);
}

/// Replay `t` on the fabric its header describes and require a clean
/// replay: every event injected and delivered.
ReplayResult replay_cleanly(const Trace& t) {
  sim::SimDomain dom(sim::SchedulerConfig{});
  ReplayResult r;
  if (t.meta.net.kind == TraceNetKind::kBufferedXy) {
    noc::XyNetwork net(dom, noc::TorusGeometry(t.meta.width, t.meta.height),
                       t.meta.net.xy_router_config(), t.meta.net.torus_wrap);
    r = run_replay(dom, net, t);
  } else {
    noc::Network net(dom, noc::TorusGeometry(t.meta.width, t.meta.height),
                     t.meta.net.router_config(), t.meta.seed);
    r = run_replay(dom, net, t);
  }
  EXPECT_EQ(r.flits_injected, t.events.size());
  EXPECT_EQ(r.flits_delivered, t.events.size());
  return r;
}

// ---------------------------------------------------------------------
// MDTR v2 header
// ---------------------------------------------------------------------

TEST(TraceV2, RecordingsCarryTheFabricConfig) {
  RunRequest req = tiny_synth();
  req.machine.router.eject_per_cycle = 2;
  req.machine.router.random_tie_break = true;
  const Trace t = record_workload("uniform", req);
  EXPECT_EQ(t.meta.version, kTraceVersion);
  EXPECT_EQ(t.meta.net.kind, TraceNetKind::kDeflection);
  EXPECT_EQ(t.meta.net.eject_per_cycle, 2);
  EXPECT_TRUE(t.meta.net.random_tie_break);

  // The config survives the disk round-trip.
  const auto bytes = serialize_trace(t);
  const Trace u = parse_trace(bytes.data(), bytes.size());
  EXPECT_EQ(u.meta.net, t.meta.net);
  EXPECT_EQ(u, t);
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

/// Hand-rolled v1 blob (the PR-2 on-disk layout, no fabric block): the
/// golden compatibility fixture v2 readers must keep accepting.
std::vector<std::uint8_t> golden_v1_blob(std::vector<TraceEvent>* events_out) {
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
  if (events_out != nullptr) *events_out = events;
  return b;
}

TEST(TraceV2, GoldenV1BlobStillParses) {
  std::vector<TraceEvent> expected;
  const auto bytes = golden_v1_blob(&expected);
  const Trace t = parse_trace(bytes.data(), bytes.size());
  EXPECT_EQ(t.meta.version, 1);
  EXPECT_EQ(t.meta.width, 4);
  EXPECT_EQ(t.meta.height, 4);
  EXPECT_EQ(t.meta.seed, 77u);
  EXPECT_EQ(t.meta.total_cycles, 500u);
  EXPECT_EQ(t.meta.workload, "uniform");
  EXPECT_EQ(t.meta.net, TraceNetConfig{});  // defaults, nothing recorded
  EXPECT_EQ(t.events, expected);

  // Re-serializing preserves v1 byte-for-byte: no fabricated fabric
  // config sneaks in (replay would otherwise enforce it).
  EXPECT_EQ(serialize_trace(t), bytes);
  validate_trace(t);

  // Transform outputs of a v1 input stay v1 — still checkable, still
  // config-free.
  const Trace scaled = xform::RateScale(2.0).apply(t);
  EXPECT_EQ(scaled.meta.version, 1);
  validate_trace(scaled);
}

TEST(TraceV2, V1TraceSkipsTheConfigCheck) {
  const auto bytes = golden_v1_blob(nullptr);
  const Trace t = parse_trace(bytes.data(), bytes.size());
  // A config the recording knows nothing about: no refusal for v1.
  noc::RouterConfig rc;
  rc.eject_per_cycle = 2;
  sim::SimDomain dom(sim::SchedulerConfig{});
  noc::Network net(dom, noc::TorusGeometry(4, 4), rc, t.meta.seed);
  const ReplayResult r = run_replay(dom, net, t);
  EXPECT_EQ(r.flits_delivered, t.events.size());
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

// ---------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------

TEST(Transforms, RateScaleStretchAndCompressReplayCleanly) {
  const Trace t = record_jacobi();
  ASSERT_FALSE(t.events.empty());
  for (double factor : {0.5, 2.0}) {
    const Trace s = xform::RateScale(factor).apply(t);
    validate_trace(s);
    EXPECT_EQ(s.events.size(), t.events.size());
    EXPECT_NE(s.meta.workload.find("scale("), std::string::npos);
    // Cycles scaled by 1/factor (within rounding), order preserved.
    const double span_in = static_cast<double>(t.events.back().cycle);
    const double span_out = static_cast<double>(s.events.back().cycle);
    EXPECT_NEAR(span_out, span_in / factor, span_in * 0.01 + 4.0);
    replay_cleanly(s);
  }
}

TEST(Transforms, RateScaleRejectsNonPositiveFactor) {
  EXPECT_THROW(xform::RateScale(0.0), std::invalid_argument);
  EXPECT_THROW(xform::RateScale(-1.0), std::invalid_argument);
}

TEST(Transforms, BijectiveRemapOntoBiggerTorusReplaysCleanly) {
  const Trace t = record_jacobi();
  const Trace r = xform::RemapNodes(8, 8).apply(t);
  validate_trace(r);
  EXPECT_EQ(r.meta.width, 8);
  EXPECT_EQ(r.meta.height, 8);
  EXPECT_EQ(r.meta.coord_bits, 3);
  EXPECT_EQ(r.events.size(), t.events.size());
  // Coordinate-preserving: (x,y) keeps its coordinates, ids re-linearize.
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const int ox = t.events[i].src % 4, oy = t.events[i].src / 4;
    EXPECT_EQ(r.events[i].src, oy * 8 + ox);
    EXPECT_EQ(r.events[i].uid, t.events[i].uid);
  }
  replay_cleanly(r);
}

TEST(Transforms, BijectiveRemapRejectsShrinking) {
  const Trace t = record_jacobi();
  EXPECT_THROW(xform::RemapNodes(2, 2).apply(t), std::invalid_argument);
}

TEST(Transforms, TiledRemapClonesPerTileWithDisjointUids) {
  const Trace t = record_workload("neighbor", tiny_synth());
  ASSERT_FALSE(t.events.empty());
  const Trace r =
      xform::RemapNodes(8, 8, xform::RemapMode::kTiled).apply(t);
  validate_trace(r);
  EXPECT_EQ(r.events.size(), t.events.size() * 4);  // 2x2 tiles of 4x4
  std::set<std::uint32_t> uids;
  for (const TraceEvent& e : r.events) uids.insert(e.uid);
  EXPECT_EQ(uids.size(), r.events.size()) << "uid re-spacing collided";
  replay_cleanly(r);
}

TEST(Transforms, TiledRemapRejectsNonMultipleDims) {
  const Trace t = record_jacobi();
  EXPECT_THROW(xform::RemapNodes(6, 6, xform::RemapMode::kTiled).apply(t),
               std::invalid_argument);
}

TEST(Transforms, RemapRejectsFabricsBeyondSrcIdWidth) {
  EXPECT_THROW(xform::RemapNodes(32, 32), std::invalid_argument);
}

TEST(Transforms, MergeInterleavesAndRespacesUids) {
  RunRequest req = tiny_synth();
  const Trace a = record_workload("neighbor", req);
  req.seed = 9;
  const Trace b = record_workload("uniform", req);
  const Trace m = xform::merge_traces(a, b);
  validate_trace(m);
  EXPECT_EQ(m.events.size(), a.events.size() + b.events.size());
  EXPECT_EQ(m.meta.workload, "merge(neighbor+uniform)");
  std::set<std::uint32_t> uids;
  for (const TraceEvent& e : m.events) uids.insert(e.uid);
  EXPECT_EQ(uids.size(), m.events.size()) << "uid re-spacing collided";
  replay_cleanly(m);
}

TEST(Transforms, MergeRejectsMismatchedGeometryOrFabric) {
  const RunRequest req = tiny_synth();
  const Trace a = record_workload("neighbor", req);
  RunRequest req8 = req;
  req8.machine.noc_width = 8;
  req8.machine.noc_height = 8;
  const Trace b = record_workload("neighbor", req8);
  EXPECT_THROW(xform::merge_traces(a, b), std::invalid_argument);

  RunRequest reqc = req;
  reqc.machine.router.eject_per_cycle = 2;
  const Trace c = record_workload("neighbor", reqc);
  EXPECT_THROW(xform::merge_traces(a, c), std::invalid_argument);
}

TEST(Transforms, TimeWindowCutsAndRebases) {
  const Trace t = record_jacobi();
  ASSERT_GT(t.events.size(), 10u);
  const sim::Cycle mid = t.events[t.events.size() / 2].cycle;
  const Trace w = xform::TimeWindow(mid, t.events.back().cycle + 1).apply(t);
  validate_trace(w);
  EXPECT_GT(w.events.size(), 0u);
  EXPECT_LT(w.events.size(), t.events.size());
  // Rebasing shifts the window down by (mid - 2): the first kept event
  // lands at (its original cycle - mid + 2).
  sim::Cycle first_kept = 0;
  for (const TraceEvent& e : t.events) {
    if (e.cycle >= mid) {
      first_kept = e.cycle;
      break;
    }
  }
  ASSERT_GT(mid, 2u);
  EXPECT_EQ(w.events.front().cycle, first_kept - mid + 2);
  replay_cleanly(w);
}

TEST(Transforms, PipelineComposesPasses) {
  const Trace t = record_jacobi();
  xform::Pipeline pipe;
  pipe.add(std::make_unique<xform::RateScale>(2.0))
      .add(std::make_unique<xform::RemapNodes>(8, 8));
  const Trace out = pipe.apply(t);
  validate_trace(out);
  EXPECT_EQ(out.meta.width, 8);
  EXPECT_NE(out.meta.workload.find("scale(2x)"), std::string::npos);
  EXPECT_NE(out.meta.workload.find("remap(8x8"), std::string::npos);
  EXPECT_EQ(pipe.describe(), "scale(2x) | remap(8x8,bijective)");
  replay_cleanly(out);
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

TEST(Diff, TransformedTraceIsNotIdentical) {
  const Trace t = record_jacobi();
  const Trace s = xform::RateScale(2.0).apply(t);
  EXPECT_FALSE(xform::diff_traces(t, s).identical);
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

// ---------------------------------------------------------------------
// The full acceptance scenario
// ---------------------------------------------------------------------

TEST(Acceptance, JacobiTraceScalesRemapsMergesAndRoundTrips) {
  // Record the 4x4 jacobi trace on the deflection router.
  const Trace t = record_jacobi();
  ASSERT_EQ(t.meta.net.kind, TraceNetKind::kDeflection);

  // Rate-scale 0.5x and 2x: valid + clean replay.
  for (double f : {0.5, 2.0}) {
    const Trace s = xform::RateScale(f).apply(t);
    validate_trace(s);
    replay_cleanly(s);
  }

  // Remap onto an 8x8 torus: valid + clean replay.
  const Trace r = xform::RemapNodes(8, 8).apply(t);
  validate_trace(r);
  replay_cleanly(r);

  // Merge with a second trace: valid + clean replay.
  RunRequest req2 = tiny_synth();
  req2.machine.num_compute_cores = 4;
  req2.seed = 11;
  const Trace t2 = record_workload("uniform", req2);
  const Trace m = xform::merge_traces(t, t2);
  validate_trace(m);
  replay_cleanly(m);

  // The untransformed round-trip is bit-identical, proven by diff.
  const std::string path = testing::TempDir() + "/medea_acceptance.bin";
  save_trace(t, path);
  const auto d = xform::diff_traces(t, load_trace(path));
  EXPECT_TRUE(d.identical) << d.first_difference;
}

}  // namespace
}  // namespace medea::workload

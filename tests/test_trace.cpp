/// Unit tests for the trace format: varint serialization round-trips,
/// header validation, and the recorder's capture fidelity.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/traffic.h"
#include "sim/scheduler.h"
#include "workload/trace.h"

namespace medea::workload {
namespace {

Trace sample_trace() {
  Trace t;
  t.meta.width = 4;
  t.meta.height = 4;
  t.meta.coord_bits = 2;
  t.meta.seed = 12345;
  t.meta.total_cycles = 987654321;
  t.meta.workload = "uniform";
  for (int i = 0; i < 100; ++i) {
    TraceEvent e;
    e.cycle = 2 + static_cast<sim::Cycle>(i) * 3;
    e.src = static_cast<std::uint16_t>(i % 16);
    e.dst = static_cast<std::uint16_t>((i * 7) % 16);
    e.size = static_cast<std::uint16_t>(1 + i % 4);
    e.uid = static_cast<std::uint32_t>(1000000 + i);
    // The wire word carries the event's endpoints (parse_trace checks
    // them) and a wide data field, so payload varints run to 8 bytes.
    noc::Flit f;
    f.valid = true;
    f.dst = noc::Coord{static_cast<std::uint8_t>(e.dst % 4),
                       static_cast<std::uint8_t>(e.dst / 4)};
    f.src_id = static_cast<std::uint8_t>(e.src);
    f.data = 0x89ABCDEFu ^ static_cast<std::uint32_t>(i);
    e.payload = noc::encode_flit(f, 2);
    t.events.push_back(e);
  }
  return t;
}

TEST(TraceCodec, CoordBitsForGeometry) {
  EXPECT_EQ(coord_bits_for(4, 4), 2);
  EXPECT_EQ(coord_bits_for(8, 8), 3);
  EXPECT_EQ(coord_bits_for(2, 8), 3);
  EXPECT_EQ(coord_bits_for(16, 16), 4);
  EXPECT_EQ(coord_bits_for(1, 1), 1);
}

TEST(TraceCodec, SerializeParseRoundTrip) {
  const Trace t = sample_trace();
  const auto bytes = serialize_trace(t);
  const Trace u = parse_trace(bytes.data(), bytes.size());
  EXPECT_EQ(u, t);
}

TEST(TraceCodec, EmptyTraceRoundTrips) {
  Trace t;
  t.meta.width = 8;
  t.meta.height = 8;
  t.meta.coord_bits = 3;
  const auto bytes = serialize_trace(t);
  EXPECT_EQ(parse_trace(bytes.data(), bytes.size()), t);
}

TEST(TraceCodec, LargeFieldValuesRoundTrip) {
  Trace t;
  t.meta.width = 16;
  t.meta.height = 16;
  t.meta.coord_bits = 4;
  t.meta.seed = ~0ull;
  t.meta.total_cycles = ~0ull >> 1;
  TraceEvent e;
  e.cycle = 1ull << 40;
  e.src = 255;
  e.dst = 255;
  e.size = 16;
  e.uid = ~0u;
  e.payload = ~0ull;
  t.events.push_back(e);
  const auto bytes = serialize_trace(t);
  EXPECT_EQ(parse_trace(bytes.data(), bytes.size()), t);
}

TEST(TraceCodec, CompactEncoding) {
  // The varint format should beat a naive fixed-width record layout
  // (8+2+2+2+4+8 = 26 bytes/event) by a wide margin on typical traces.
  const Trace t = sample_trace();
  const auto bytes = serialize_trace(t);
  EXPECT_LT(bytes.size(), t.events.size() * 26);
}

TEST(TraceCodec, SaveLoadRoundTrip) {
  const Trace t = sample_trace();
  const std::string path = testing::TempDir() + "/medea_trace_roundtrip.bin";
  save_trace(t, path);
  EXPECT_EQ(load_trace(path), t);
}

TEST(TraceCodec, RejectsBadMagic) {
  auto bytes = serialize_trace(sample_trace());
  bytes[0] = 'X';
  EXPECT_THROW(parse_trace(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(TraceCodec, RejectsUnsupportedVersion) {
  auto bytes = serialize_trace(sample_trace());
  bytes[4] = kTraceVersion + 1;
  EXPECT_THROW(parse_trace(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(TraceCodec, RejectsTruncation) {
  const auto bytes = serialize_trace(sample_trace());
  // Any prefix shorter than the full file must throw, never crash.
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{5},
                        bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(parse_trace(bytes.data(), n), std::runtime_error) << n;
  }
}

TEST(TraceCodec, RejectsTrailingGarbage) {
  auto bytes = serialize_trace(sample_trace());
  bytes.push_back(0x00);
  EXPECT_THROW(parse_trace(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(TraceCodec, RejectsOutOfRangeNodeIds) {
  Trace t;
  t.meta.width = 2;
  t.meta.height = 2;
  t.meta.coord_bits = 1;
  TraceEvent e;
  e.cycle = 2;
  e.src = 4;  // only nodes 0..3 exist
  t.events.push_back(e);
  const auto bytes = serialize_trace(t);
  EXPECT_THROW(parse_trace(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(TraceCodec, RejectsUnsortedEvents) {
  Trace t = sample_trace();
  std::swap(t.events.front().cycle, t.events.back().cycle);
  EXPECT_THROW(serialize_trace(t), std::runtime_error);
}

TEST(TraceCodec, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace(testing::TempDir() + "/no_such_trace.bin"),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Recorder capture
// ---------------------------------------------------------------------

TEST(TraceRecorderTest, CapturesSyntheticInjections) {
  sim::SimDomain dom(sim::SchedulerConfig{});
  noc::Network net(dom, noc::TorusGeometry(4, 4));
  TraceRecorder rec(4, 4);
  net.set_observer(&rec);

  noc::TrafficConfig tc;
  tc.pattern = noc::TrafficPattern::kNeighbor;
  tc.flits_per_node = 20;
  tc.injection_rate = 0.5;
  const int received = noc::run_traffic(dom, net, tc);

  const Trace t = rec.take(dom.now(), "neighbor", tc.seed);
  // One event per injected flit; everything injected gets delivered.
  EXPECT_EQ(rec.events().size(), 0u);  // moved out by take()
  EXPECT_EQ(t.events.size(), static_cast<std::size_t>(received));
  EXPECT_EQ(t.meta.workload, "neighbor");
  EXPECT_EQ(t.meta.coord_bits, 2);

  sim::Cycle prev = 0;
  for (const TraceEvent& e : t.events) {
    EXPECT_GE(e.cycle, prev);  // recorded in cycle order
    prev = e.cycle;
    EXPECT_LT(e.src, 16);
    EXPECT_LT(e.dst, 16);
    EXPECT_EQ(e.dst, static_cast<std::uint16_t>((e.src + 1) % 16));
    // The payload word must decode back to the event's destination.
    const noc::Flit f = noc::decode_flit(e.payload, t.meta.coord_bits);
    EXPECT_EQ(f.dst.y * 4 + f.dst.x, e.dst);
    EXPECT_EQ(f.src_id, e.src);
  }
}

}  // namespace
}  // namespace medea::workload

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/flit.h"
#include "noc/router.h"
#include "noc/xy_router.h"
#include "sim/types.h"

/// \file trace.h
/// Flit-injection traces: the on-disk format plus the recorder that
/// captures one from any running workload.
///
/// A trace is the complete list of network-injection events of a run —
/// for every flit that entered the switched fabric: the cycle it was
/// injected, source and destination node, the logic-packet size it
/// belongs to, its uid (kept so the deflection router's oldest-first
/// tie-breaks replay bit-identically) and the wire-encoded flit word
/// (Fig. 5 payload tag).  Replaying a trace re-injects exactly these
/// flits at exactly these cycles into a bare NoC — no PEs, caches or
/// coroutines — the fast-forward mode for NoC-centric studies
/// (trace-driven replay in the Graphite tradition).
///
/// On-disk format, little-endian:
///
///   "MDTR"  magic (4 bytes)
///   u8      version (2)
///   varint  width, height, coord_bits, seed, total_cycles
///   varint  workload-name length, then that many bytes
///   --- the recording fabric, self-described ---
///   varint  network kind (0 = deflection, 1 = buffered XY)
///   varint  eject_per_cycle, inject_queue_depth, eject_queue_depth,
///           input_buffer_depth
///   varint  flags (bit0 = random_tie_break, bit1 = torus_wrap)
///   varint  extension length, then that many bytes (reserved; readers
///           skip them, so future minor additions need no version bump)
///   --- events ---
///   varint  event count
///   per event, all varint:
///     cycle delta (vs previous event; first is absolute),
///     src, dst, size, uid, payload word
///
/// All integers are LEB128 varints, which makes typical traces ~6-10
/// bytes per event instead of the 24+ of a naive fixed layout.  parse()
/// validates magic, version, geometry, fabric config, node bounds, packet
/// sizes and each event's wire payload, and throws std::runtime_error on
/// anything malformed or truncated.
///
/// Version 1 traces (written by older builds, with no fabric block) are
/// rejected with an error that names them: their fabric was never
/// recorded, so replay could not check it.  Re-record the run.

namespace medea::workload {

inline constexpr std::uint8_t kTraceVersion = 2;

/// Which router model recorded the trace (and which one replay must
/// rebuild to reproduce it).
enum class TraceNetKind : std::uint8_t {
  kDeflection = 0,  ///< the MEDEA hot-potato router (noc::Network)
  kBufferedXy = 1,  ///< the buffered XY baseline (noc::XyNetwork)
};

const char* to_string(TraceNetKind k);

/// The recording fabric's configuration, persisted in the header so a
/// trace is self-describing: replay can rebuild the exact NoC, and
/// replaying onto a *different* configuration becomes an explicit,
/// opt-in act instead of a silent accident.
struct TraceNetConfig {
  TraceNetKind kind = TraceNetKind::kDeflection;
  int eject_per_cycle = 1;
  int inject_queue_depth = 2;
  int eject_queue_depth = 4;
  int input_buffer_depth = 4;     ///< buffered-XY only
  bool random_tie_break = false;  ///< deflection only
  bool torus_wrap = false;        ///< buffered-XY only

  bool operator==(const TraceNetConfig&) const = default;

  static TraceNetConfig from(const noc::RouterConfig& rc);
  static TraceNetConfig from(const noc::XyRouterConfig& rc, bool torus_wrap);

  /// Project back onto the per-model config structs (fields the other
  /// model owns keep this struct's values and are simply unused).
  noc::RouterConfig router_config() const;
  noc::XyRouterConfig xy_router_config() const;

  /// One-line human rendering for error messages and `inspect`.
  std::string describe() const;
};

/// One network-injection event (one flit entering the fabric).
struct TraceEvent {
  sim::Cycle cycle = 0;       ///< router-injection cycle
  std::uint16_t src = 0;      ///< linear node id of the injecting router
  std::uint16_t dst = 0;      ///< linear node id of the destination
  std::uint16_t size = 1;     ///< flits in the logic packet (burst_size+1)
  std::uint32_t uid = 0;      ///< flit uid (replay preserves it)
  std::uint64_t payload = 0;  ///< wire-encoded flit word (encode_flit)

  bool operator==(const TraceEvent&) const = default;
};

std::string to_string(const TraceEvent& e);

/// Trace header: where the trace came from and how to rebuild the NoC.
struct TraceMeta {
  int width = 0;
  int height = 0;
  int coord_bits = 0;  ///< coordinate width used to encode `payload`
  std::uint64_t seed = 0;            ///< seed of the recorded run
  sim::Cycle total_cycles = 0;       ///< cycle count of the recorded run
  std::string workload;              ///< registry name of the recorded workload
  TraceNetConfig net{};              ///< the recording fabric

  bool operator==(const TraceMeta&) const = default;
};

struct Trace {
  TraceMeta meta;
  std::vector<TraceEvent> events;  ///< sorted by cycle (recorded order)

  bool operator==(const Trace&) const = default;
};

/// Coordinate bit width needed to encode any coordinate of a WxH torus
/// (>= 1 so degenerate 1x1 fabrics still encode).
int coord_bits_for(int width, int height);

std::vector<std::uint8_t> serialize_trace(const Trace& t);
Trace parse_trace(const std::uint8_t* data, std::size_t size);

/// File I/O; both throw std::runtime_error on I/O or format errors.
void save_trace(const Trace& t, const std::string& path);
Trace load_trace(const std::string& path);

/// Header-only load: magic/version/geometry validation plus the meta
/// fields, without decoding events.  Used to size recorders and NoCs
/// for a trace before (or without) paying the full parse.
TraceMeta load_trace_meta(const std::string& path);

/// Validation of a trace built in memory: the header checks and the
/// per-event checks parse_trace() applies on load (node bounds, packet
/// sizes, and a wire word that decodes back to the event's src/dst),
/// cycle ordering, and a serialize/parse round-trip.  Throws
/// std::runtime_error naming the first offending event.
void validate_trace(const Trace& t);

/// Captures injection events from a live NoC (attach with
/// noc::Fabric::set_observer before the run, take() afterwards).
class TraceRecorder final : public noc::FlitObserver {
 public:
  TraceRecorder(int width, int height);

  void on_inject(sim::Cycle now, int node, const noc::Flit& f) override;
  void on_deliver(sim::Cycle, int, const noc::Flit&) override {}

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Describe the fabric being recorded; stamped into the header by
  /// take().  Defaults to a default-configured deflection NoC.
  void set_net_config(const TraceNetConfig& net) { net_ = net; }

  /// Finalize: move the captured events into a Trace with a filled-in
  /// header.  The recorder is empty afterwards and can keep recording.
  Trace take(sim::Cycle total_cycles = 0, std::string workload = {},
             std::uint64_t seed = 0);

 private:
  int width_;
  int height_;
  int coord_bits_;
  TraceNetConfig net_{};
  std::vector<TraceEvent> events_;
};

}  // namespace medea::workload

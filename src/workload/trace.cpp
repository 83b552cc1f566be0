#include "workload/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "noc/coord.h"

namespace medea::workload {

namespace {

constexpr char kMagic[4] = {'M', 'D', 'T', 'R'};

// v2 fabric-flags bits; anything above kFlagsKnownMask is from a future
// writer we cannot interpret safely.
constexpr std::uint64_t kFlagRandomTieBreak = 1u << 0;
constexpr std::uint64_t kFlagTorusWrap = 1u << 1;
constexpr std::uint64_t kFlagsKnownMask = kFlagRandomTieBreak | kFlagTorusWrap;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Bounds-checked LEB128 reader over [data, data+size).
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= size) throw std::runtime_error("trace: truncated varint");
      if (shift >= 64) throw std::runtime_error("trace: varint overflow");
      const std::uint8_t b = data[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  /// varint that must fit the target integer type.
  template <typename T>
  T varint_as(const char* what) {
    const std::uint64_t v = varint();
    if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      throw std::runtime_error(std::string("trace: field out of range: ") +
                               what);
    }
    return static_cast<T>(v);
  }
};

}  // namespace

const char* to_string(TraceNetKind k) {
  switch (k) {
    case TraceNetKind::kDeflection: return "deflection";
    case TraceNetKind::kBufferedXy: return "buffered-xy";
  }
  return "?";
}

TraceNetConfig TraceNetConfig::from(const noc::RouterConfig& rc) {
  TraceNetConfig n;
  n.kind = TraceNetKind::kDeflection;
  n.eject_per_cycle = rc.eject_per_cycle;
  n.inject_queue_depth = rc.inject_queue_depth;
  n.eject_queue_depth = rc.eject_queue_depth;
  n.random_tie_break = rc.random_tie_break;
  return n;
}

TraceNetConfig TraceNetConfig::from(const noc::XyRouterConfig& rc,
                                    bool torus_wrap) {
  TraceNetConfig n;
  n.kind = TraceNetKind::kBufferedXy;
  n.eject_per_cycle = rc.eject_per_cycle;
  n.inject_queue_depth = rc.inject_queue_depth;
  n.eject_queue_depth = rc.eject_queue_depth;
  n.input_buffer_depth = rc.input_buffer_depth;
  n.torus_wrap = torus_wrap;
  return n;
}

noc::RouterConfig TraceNetConfig::router_config() const {
  noc::RouterConfig rc;
  rc.eject_per_cycle = eject_per_cycle;
  rc.inject_queue_depth = inject_queue_depth;
  rc.eject_queue_depth = eject_queue_depth;
  rc.random_tie_break = random_tie_break;
  return rc;
}

noc::XyRouterConfig TraceNetConfig::xy_router_config() const {
  noc::XyRouterConfig rc;
  rc.input_buffer_depth = input_buffer_depth;
  rc.eject_per_cycle = eject_per_cycle;
  rc.inject_queue_depth = inject_queue_depth;
  rc.eject_queue_depth = eject_queue_depth;
  return rc;
}

std::string TraceNetConfig::describe() const {
  std::string s = to_string(kind);
  s += " eject/cyc=";
  s += std::to_string(eject_per_cycle);
  s += " injq=";
  s += std::to_string(inject_queue_depth);
  s += " ejq=";
  s += std::to_string(eject_queue_depth);
  if (kind == TraceNetKind::kBufferedXy) {
    s += " bufdepth=";
    s += std::to_string(input_buffer_depth);
    s += torus_wrap ? " torus" : " mesh";
  } else if (random_tie_break) {
    s += " random-ties";
  }
  return s;
}

std::string to_string(const TraceEvent& e) {
  std::string s = "cycle=";
  s += std::to_string(e.cycle);
  s += " src=";
  s += std::to_string(e.src);
  s += " dst=";
  s += std::to_string(e.dst);
  s += " size=";
  s += std::to_string(e.size);
  s += " uid=";
  s += std::to_string(e.uid);
  char buf[32];
  std::snprintf(buf, sizeof buf, " payload=0x%llx",
                static_cast<unsigned long long>(e.payload));
  s += buf;
  return s;
}

int coord_bits_for(int width, int height) {
  const int m = std::max(width, height) - 1;
  const int bits = std::bit_width(static_cast<unsigned>(m > 0 ? m : 0));
  return bits > 0 ? bits : 1;
}

std::vector<std::uint8_t> serialize_trace(const Trace& t) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + t.meta.workload.size() + t.events.size() * 8);
  // Byte-wise append: gcc-12 -O3 misfires stringop-overflow on
  // vector::insert from a constexpr char[4].
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  out.push_back(kTraceVersion);
  put_varint(out, static_cast<std::uint64_t>(t.meta.width));
  put_varint(out, static_cast<std::uint64_t>(t.meta.height));
  put_varint(out, static_cast<std::uint64_t>(t.meta.coord_bits));
  put_varint(out, t.meta.seed);
  put_varint(out, t.meta.total_cycles);
  put_varint(out, t.meta.workload.size());
  out.insert(out.end(), t.meta.workload.begin(), t.meta.workload.end());
  const TraceNetConfig& n = t.meta.net;
  put_varint(out, static_cast<std::uint64_t>(n.kind));
  put_varint(out, static_cast<std::uint64_t>(n.eject_per_cycle));
  put_varint(out, static_cast<std::uint64_t>(n.inject_queue_depth));
  put_varint(out, static_cast<std::uint64_t>(n.eject_queue_depth));
  put_varint(out, static_cast<std::uint64_t>(n.input_buffer_depth));
  put_varint(out, (n.random_tie_break ? kFlagRandomTieBreak : 0) |
                      (n.torus_wrap ? kFlagTorusWrap : 0));
  put_varint(out, 0);  // extension length (reserved)
  put_varint(out, t.events.size());
  sim::Cycle prev = 0;
  for (const TraceEvent& e : t.events) {
    if (e.cycle < prev) {
      throw std::runtime_error("trace: events not sorted by cycle");
    }
    put_varint(out, e.cycle - prev);
    prev = e.cycle;
    put_varint(out, e.src);
    put_varint(out, e.dst);
    put_varint(out, e.size);
    put_varint(out, e.uid);
    put_varint(out, e.payload);
  }
  return out;
}

namespace {

/// Parse and validate the header (magic, version, meta fields, the
/// fabric block), leaving the reader positioned at the event count.
TraceMeta parse_meta(Reader& r) {
  if (r.size < 5 || std::memcmp(r.data, kMagic, 4) != 0) {
    throw std::runtime_error("trace: bad magic (not a MEDEA trace)");
  }
  r.pos = 4;
  const std::uint8_t version = r.data[r.pos++];
  if (version == 1) {
    throw std::runtime_error(
        "trace: MDTR v1 (no recorded fabric) is no longer read; re-record "
        "the run");
  }
  if (version != kTraceVersion) {
    throw std::runtime_error(
        "trace: unsupported version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kTraceVersion) + ")");
  }
  TraceMeta m;
  m.width = r.varint_as<int>("width");
  m.height = r.varint_as<int>("height");
  m.coord_bits = r.varint_as<int>("coord_bits");
  m.seed = r.varint();
  m.total_cycles = r.varint();
  if (m.width < 1 || m.height < 1) {
    throw std::runtime_error("trace: invalid geometry");
  }
  if (m.coord_bits < 1 || m.coord_bits > 8 ||
      m.coord_bits < coord_bits_for(m.width, m.height)) {
    throw std::runtime_error("trace: invalid coord_bits");
  }
  const auto name_len = r.varint_as<std::uint32_t>("workload name length");
  if (r.pos + name_len > r.size) {
    throw std::runtime_error("trace: truncated workload name");
  }
  m.workload.assign(reinterpret_cast<const char*>(r.data + r.pos), name_len);
  r.pos += name_len;
  const std::uint64_t kind = r.varint();
  if (kind > static_cast<std::uint64_t>(TraceNetKind::kBufferedXy)) {
    throw std::runtime_error("trace: unknown network kind " +
                             std::to_string(kind));
  }
  m.net.kind = static_cast<TraceNetKind>(kind);
  m.net.eject_per_cycle = r.varint_as<int>("eject_per_cycle");
  m.net.inject_queue_depth = r.varint_as<int>("inject_queue_depth");
  m.net.eject_queue_depth = r.varint_as<int>("eject_queue_depth");
  m.net.input_buffer_depth = r.varint_as<int>("input_buffer_depth");
  if (m.net.eject_per_cycle < 1 || m.net.inject_queue_depth < 1 ||
      m.net.eject_queue_depth < 1 || m.net.input_buffer_depth < 1) {
    throw std::runtime_error("trace: invalid fabric config (queue depth "
                             "or bandwidth below 1)");
  }
  const std::uint64_t flags = r.varint();
  if ((flags & ~kFlagsKnownMask) != 0) {
    throw std::runtime_error("trace: unknown fabric flags 0x" +
                             std::to_string(flags));
  }
  m.net.random_tie_break = (flags & kFlagRandomTieBreak) != 0;
  m.net.torus_wrap = (flags & kFlagTorusWrap) != 0;
  const std::uint64_t ext_len = r.varint();
  if (ext_len > r.size - r.pos) {
    throw std::runtime_error("trace: truncated header extension");
  }
  r.pos += ext_len;  // reserved for forward-compatible additions
  return m;
}

/// "<who><what> (event <i>: <event>)".
std::runtime_error event_error(const char* who, const char* what,
                               std::size_t i, const TraceEvent& e) {
  std::string msg = who;
  msg += what;
  msg += " (event ";
  msg += std::to_string(i);
  msg += ": ";
  msg += to_string(e);
  msg += ')';
  return std::runtime_error(msg);
}

/// The checks every event passes, on load and in validate_trace(): node
/// ids inside the torus, a packet size the wire format carries, and a
/// wire word that agrees with the event's endpoints (its dst coordinate
/// re-linearizes to e.dst, and its 8-bit SRCID field matches the low
/// byte of e.src).  Replay injects the decoded word, so a payload that
/// disagrees misroutes the flit, and one whose dst is off the torus is
/// never delivered: the replay would run to its cycle limit.  `who`
/// prefixes the error.
void check_event(const TraceMeta& m, std::size_t i, const TraceEvent& e,
                 const char* who) {
  const char* what = nullptr;
  const noc::Flit f = noc::decode_flit(e.payload, m.coord_bits);
  if (e.src >= m.width * m.height || e.dst >= m.width * m.height) {
    what = "node id outside the torus";
  } else if (e.size < 1 || e.size > noc::kMaxPacketFlits) {
    what = "packet size out of range";
  } else if (f.dst.x >= m.width || f.dst.y >= m.height ||
             f.dst.y * m.width + f.dst.x != e.dst) {
    what = "payload dst disagrees with event dst";
  } else if (f.src_id != static_cast<std::uint8_t>(e.src & 0xFF)) {
    what = "payload src id disagrees with event src";
  } else {
    return;
  }
  throw event_error(who, what, i, e);
}

}  // namespace

Trace parse_trace(const std::uint8_t* data, std::size_t size) {
  Reader r{data, size};
  Trace t;
  t.meta = parse_meta(r);

  const std::uint64_t count = r.varint();
  // Each event is at least 6 bytes; a count larger than the remaining
  // bytes allow is corrupt (and would otherwise trigger a huge reserve).
  if (count > (r.size - r.pos)) {
    throw std::runtime_error("trace: event count exceeds file size");
  }
  t.events.reserve(count);
  sim::Cycle cycle = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent e;
    cycle += r.varint();
    e.cycle = cycle;
    e.src = r.varint_as<std::uint16_t>("src");
    e.dst = r.varint_as<std::uint16_t>("dst");
    e.size = r.varint_as<std::uint16_t>("size");
    e.uid = r.varint_as<std::uint32_t>("uid");
    e.payload = r.varint();
    check_event(t.meta, i, e, "trace: ");
    t.events.push_back(e);
  }
  if (r.pos != r.size) {
    throw std::runtime_error("trace: trailing bytes after last event");
  }
  return t;
}

void save_trace(const Trace& t, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize_trace(t);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("trace: cannot open for writing: " + path);
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) throw std::runtime_error("trace: write failed: " + path);
}

namespace {

std::vector<std::uint8_t> read_file(const std::string& path,
                                    std::size_t at_most) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("trace: cannot open: " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[64 * 1024];
  std::size_t n;
  while (bytes.size() < at_most &&
         (n = std::fread(buf, 1, std::min(sizeof buf, at_most - bytes.size()),
                         f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw std::runtime_error("trace: read failed: " + path);
  return bytes;
}

}  // namespace

Trace load_trace(const std::string& path) {
  const auto bytes =
      read_file(path, std::numeric_limits<std::size_t>::max());
  return parse_trace(bytes.data(), bytes.size());
}

TraceMeta load_trace_meta(const std::string& path) {
  // The header is a handful of varints plus the workload name; 4 kB is
  // orders of magnitude more than any real header needs.
  const auto bytes = read_file(path, 4096);
  Reader r{bytes.data(), bytes.size()};
  return parse_meta(r);
}

void validate_trace(const Trace& t) {
  const TraceMeta& m = t.meta;
  if (m.width < 1 || m.height < 1) {
    throw std::runtime_error("trace validation: invalid geometry");
  }
  if (m.coord_bits < coord_bits_for(m.width, m.height) || m.coord_bits > 8) {
    throw std::runtime_error("trace validation: coord_bits too narrow for "
                             "the geometry");
  }
  if (m.net.eject_per_cycle < 1 || m.net.inject_queue_depth < 1 ||
      m.net.eject_queue_depth < 1 || m.net.input_buffer_depth < 1) {
    throw std::runtime_error("trace validation: invalid fabric config");
  }
  sim::Cycle prev = 0;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const TraceEvent& e = t.events[i];
    if (e.cycle < prev) {
      throw event_error("trace validation: ", "events not sorted", i, e);
    }
    prev = e.cycle;
    check_event(m, i, e, "trace validation: ");
  }
  // On-disk round-trip: what we would write must parse back losslessly.
  const auto bytes = serialize_trace(t);
  if (parse_trace(bytes.data(), bytes.size()) != t) {
    throw std::runtime_error(
        "trace validation: serialize/parse round-trip is not lossless");
  }
}

TraceRecorder::TraceRecorder(int width, int height)
    : width_(width),
      height_(height),
      coord_bits_(coord_bits_for(width, height)) {}

void TraceRecorder::on_inject(sim::Cycle now, int node, const noc::Flit& f) {
  TraceEvent e;
  e.cycle = now;
  e.src = static_cast<std::uint16_t>(node);
  e.dst = static_cast<std::uint16_t>(f.dst.y * width_ + f.dst.x);
  e.size = static_cast<std::uint16_t>(f.burst_size + 1);
  e.uid = f.uid;
  e.payload = noc::encode_flit(f, coord_bits_);
  events_.push_back(e);
}

Trace TraceRecorder::take(sim::Cycle total_cycles, std::string workload,
                          std::uint64_t seed) {
  Trace t;
  t.meta.width = width_;
  t.meta.height = height_;
  t.meta.coord_bits = coord_bits_;
  t.meta.seed = seed;
  t.meta.total_cycles = total_cycles;
  t.meta.workload = std::move(workload);
  t.meta.net = net_;
  t.events = std::move(events_);
  events_.clear();
  return t;
}

}  // namespace medea::workload

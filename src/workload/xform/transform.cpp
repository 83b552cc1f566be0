#include "workload/xform/transform.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "noc/coord.h"

namespace medea::workload::xform {

namespace {

/// Provenance note appended to meta.workload, e.g. "jacobi|scale(2x)".
void annotate(TraceMeta& meta, const std::string& what) {
  meta.workload += "|";
  meta.workload += what;
}

std::string format_factor(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", f);
  return buf;
}

std::uint32_t max_uid_of(const Trace& t) {
  std::uint32_t m = 0;
  for (const TraceEvent& e : t.events) m = std::max(m, e.uid);
  return m;
}

}  // namespace

const char* to_string(RemapMode m) {
  switch (m) {
    case RemapMode::kBijective: return "bijective";
    case RemapMode::kTiled: return "tiled";
  }
  return "?";
}

// ---------------------------------------------------------------------
// RateScale
// ---------------------------------------------------------------------

RateScale::RateScale(double factor) : factor_(factor) {
  if (!(factor > 0.0) || factor > 1e6) {
    throw std::invalid_argument("RateScale: factor must be in (0, 1e6]");
  }
}

std::string RateScale::describe() const {
  return "scale(" + format_factor(factor_) + "x)";
}

Trace RateScale::apply(const Trace& in) const {
  Trace out;
  out.meta = in.meta;
  annotate(out.meta, describe());
  out.events.reserve(in.events.size());
  // cycle/factor is monotone in cycle, and rounding preserves the
  // (non-strict) ordering, so the output stays sorted without a re-sort.
  const auto scale = [this](sim::Cycle c) {
    return static_cast<sim::Cycle>(static_cast<double>(c) / factor_ + 0.5);
  };
  for (TraceEvent e : in.events) {
    e.cycle = std::max<sim::Cycle>(2, scale(e.cycle));
    out.events.push_back(e);
  }
  out.meta.total_cycles = scale(in.meta.total_cycles);
  if (!out.events.empty()) {
    out.meta.total_cycles =
        std::max(out.meta.total_cycles, out.events.back().cycle);
  }
  return out;
}

// ---------------------------------------------------------------------
// RemapNodes
// ---------------------------------------------------------------------

RemapNodes::RemapNodes(int new_width, int new_height, RemapMode mode)
    : new_width_(new_width), new_height_(new_height), mode_(mode) {
  if (new_width < 1 || new_height < 1) {
    throw std::invalid_argument("RemapNodes: target dims must be >= 1");
  }
  if (static_cast<std::int64_t>(new_width) * new_height > 256) {
    throw std::invalid_argument(
        "RemapNodes: target fabric exceeds 256 nodes (8-bit wire SRCID)");
  }
}

std::string RemapNodes::describe() const {
  return std::string("remap(") + std::to_string(new_width_) + "x" +
         std::to_string(new_height_) + "," + to_string(mode_) + ")";
}

Trace RemapNodes::apply(const Trace& in) const {
  const int w = in.meta.width;
  const int h = in.meta.height;
  if (mode_ == RemapMode::kBijective) {
    if (new_width_ < w || new_height_ < h) {
      throw std::invalid_argument(
          "RemapNodes: bijective remap target must be at least the "
          "recorded " + std::to_string(w) + "x" + std::to_string(h));
    }
  } else {
    if (new_width_ % w != 0 || new_height_ % h != 0) {
      throw std::invalid_argument(
          "RemapNodes: tiled remap target dims must be integer multiples "
          "of the recorded " + std::to_string(w) + "x" + std::to_string(h));
    }
  }
  const int tiles_x = mode_ == RemapMode::kTiled ? new_width_ / w : 1;
  const int tiles_y = mode_ == RemapMode::kTiled ? new_height_ / h : 1;
  const int tiles = tiles_x * tiles_y;

  // Re-space uids per tile so clones never collide (the deflection
  // router tie-breaks on uid below equal ages).
  const std::uint64_t uid_span = static_cast<std::uint64_t>(max_uid_of(in)) + 1;
  if (uid_span * static_cast<std::uint64_t>(tiles) >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "RemapNodes: tiled uid re-spacing overflows the 32-bit uid space");
  }

  const int new_bits = coord_bits_for(new_width_, new_height_);
  Trace out;
  out.meta = in.meta;
  out.meta.width = new_width_;
  out.meta.height = new_height_;
  out.meta.coord_bits = new_bits;
  annotate(out.meta, describe());
  out.events.reserve(in.events.size() * static_cast<std::size_t>(tiles));

  for (const TraceEvent& e : in.events) {
    noc::Flit f = noc::decode_flit(e.payload, in.meta.coord_bits);
    const int src_x = e.src % w, src_y = e.src / w;
    const int dst_x = f.dst.x, dst_y = f.dst.y;
    for (int ty = 0; ty < tiles_y; ++ty) {
      for (int tx = 0; tx < tiles_x; ++tx) {
        TraceEvent o = e;
        const int nsx = src_x + tx * w, nsy = src_y + ty * h;
        const int ndx = dst_x + tx * w, ndy = dst_y + ty * h;
        o.src = static_cast<std::uint16_t>(nsy * new_width_ + nsx);
        o.dst = static_cast<std::uint16_t>(ndy * new_width_ + ndx);
        const int tile = ty * tiles_x + tx;
        o.uid = static_cast<std::uint32_t>(
            e.uid + uid_span * static_cast<std::uint64_t>(tile));
        noc::Flit nf = f;
        nf.dst = noc::Coord{static_cast<std::uint8_t>(ndx),
                            static_cast<std::uint8_t>(ndy)};
        nf.src_id = static_cast<std::uint8_t>(o.src & 0xFF);
        o.payload = noc::encode_flit(nf, new_bits);
        out.events.push_back(o);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// TimeWindow
// ---------------------------------------------------------------------

TimeWindow::TimeWindow(sim::Cycle begin, sim::Cycle end, bool rebase)
    : begin_(begin), end_(end), rebase_(rebase) {
  if (begin >= end) {
    throw std::invalid_argument("TimeWindow: begin must be < end");
  }
}

std::string TimeWindow::describe() const {
  return "window(" + std::to_string(begin_) + ":" + std::to_string(end_) +
         (rebase_ ? "" : ",norebase") + ")";
}

Trace TimeWindow::apply(const Trace& in) const {
  Trace out;
  out.meta = in.meta;
  annotate(out.meta, describe());
  const sim::Cycle shift = rebase_ && begin_ > 2 ? begin_ - 2 : 0;
  for (TraceEvent e : in.events) {
    if (e.cycle < begin_ || e.cycle >= end_) continue;
    e.cycle -= shift;
    out.events.push_back(e);
  }
  const sim::Cycle span_end = std::min(in.meta.total_cycles, end_);
  out.meta.total_cycles = span_end > shift ? span_end - shift : 0;
  if (!out.events.empty()) {
    out.meta.total_cycles =
        std::max(out.meta.total_cycles, out.events.back().cycle);
  }
  return out;
}

// ---------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------

std::string Pipeline::describe() const {
  std::string s;
  for (const auto& p : passes_) {
    if (!s.empty()) s += " | ";
    s += p->describe();
  }
  return s.empty() ? "identity" : s;
}

Trace Pipeline::apply(const Trace& in) const {
  if (passes_.empty()) return in;
  Trace t = passes_.front()->apply(in);
  for (std::size_t i = 1; i < passes_.size(); ++i) {
    t = passes_[i]->apply(t);
  }
  return t;
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

Trace merge_traces(const Trace& a, const Trace& b) {
  if (a.meta.width != b.meta.width || a.meta.height != b.meta.height ||
      a.meta.coord_bits != b.meta.coord_bits) {
    throw std::invalid_argument(
        "merge_traces: traces target different geometries (" +
        std::to_string(a.meta.width) + "x" + std::to_string(a.meta.height) +
        " vs " + std::to_string(b.meta.width) + "x" +
        std::to_string(b.meta.height) + "); remap one of them first");
  }
  if (a.meta.net != b.meta.net) {
    throw std::invalid_argument(
        "merge_traces: traces record different fabrics (" +
        a.meta.net.describe() + " vs " + b.meta.net.describe() + ")");
  }
  const std::uint64_t uid_base = static_cast<std::uint64_t>(max_uid_of(a)) + 1;
  if (uid_base + max_uid_of(b) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "merge_traces: uid re-spacing overflows the 32-bit uid space");
  }

  Trace out;
  out.meta = a.meta;
  out.meta.workload =
      "merge(" + a.meta.workload + "+" + b.meta.workload + ")";
  out.meta.total_cycles = std::max(a.meta.total_cycles, b.meta.total_cycles);
  out.events.reserve(a.events.size() + b.events.size());

  std::size_t i = 0, j = 0;
  while (i < a.events.size() || j < b.events.size()) {
    const bool take_a =
        j >= b.events.size() ||
        (i < a.events.size() && a.events[i].cycle <= b.events[j].cycle);
    if (take_a) {
      out.events.push_back(a.events[i++]);
    } else {
      TraceEvent e = b.events[j++];
      e.uid = static_cast<std::uint32_t>(e.uid + uid_base);
      out.events.push_back(e);
    }
  }
  return out;
}

}  // namespace medea::workload::xform

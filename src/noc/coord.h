#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <string>

/// \file coord.h
/// X-Y node coordinates and folded-torus distance helpers.
///
/// The MEDEA NoC is a 2-D folded torus (paper §II-A).  Folding changes the
/// physical wire layout, not the logical connectivity, so routing treats
/// the network as a plain torus: every node has N/E/S/W neighbours with
/// wrap-around, and the productive direction along an axis is the one that
/// minimises hops modulo the axis length.

namespace medea::noc {

/// Cardinal ports of a router.  Order matters: it is the deterministic
/// scan order used for tie-breaking in the deflection router.
enum class Dir : std::uint8_t { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };

inline constexpr int kNumDirs = 4;

inline const char* to_string(Dir d) {
  switch (d) {
    case Dir::kNorth: return "N";
    case Dir::kEast: return "E";
    case Dir::kSouth: return "S";
    case Dir::kWest: return "W";
  }
  return "?";
}

/// Node coordinate in the torus.
struct Coord {
  std::uint8_t x = 0;
  std::uint8_t y = 0;

  auto operator<=>(const Coord&) const = default;

  std::string to_string() const {
    // Built with append rather than operator+ chains: GCC 12's -O3
    // -Wrestrict fires a false positive on `const char* + string&&`.
    std::string s(1, '(');
    s += std::to_string(x);
    s += ',';
    s += std::to_string(y);
    s += ')';
    return s;
  }
};

/// Geometry of a W x H folded torus.
class TorusGeometry {
 public:
  /// Coord packs x/y into uint8_t (flit headers carry 8-bit node
  /// coordinates, paper §II-B), so each axis is capped at 256 nodes —
  /// far above the paper's 4x4 fabric.  noc::Fabric rejects any other
  /// axis size with std::invalid_argument in every build type, so the
  /// cast sites in coord_of()/neighbor() below are value-preserving for
  /// every geometry a fabric runs on.
  static constexpr int kMaxAxis = 256;

  TorusGeometry(int width, int height) : w_(width), h_(height) {}

  int width() const { return w_; }
  int height() const { return h_; }
  int num_nodes() const { return w_ * h_; }

  /// Linear node id (row-major).
  int node_id(Coord c) const { return c.y * w_ + c.x; }
  Coord coord_of(int id) const {
    assert(id >= 0 && id < num_nodes());
    return Coord{static_cast<std::uint8_t>(id % w_),
                 static_cast<std::uint8_t>(id / w_)};
  }

  /// Coordinate of the neighbour in direction d (torus wrap-around).
  Coord neighbor(Coord c, Dir d) const {
    const auto u8 = [](int v) { return static_cast<std::uint8_t>(v); };
    switch (d) {
      case Dir::kNorth: return {c.x, u8(wrap(c.y - 1, h_))};
      case Dir::kSouth: return {c.x, u8(wrap(c.y + 1, h_))};
      case Dir::kEast: return {u8(wrap(c.x + 1, w_)), c.y};
      case Dir::kWest: return {u8(wrap(c.x - 1, w_)), c.y};
    }
    return c;
  }

  /// Minimal hop count between two nodes on the torus (both on it).
  int distance(Coord a, Coord b) const {
    return axis_dist(a.x, b.x, w_) + axis_dist(a.y, b.y, h_);
  }

  /// Productive directions from `from` toward `to`, written into out[]
  /// (capacity 4; returns count, 0..4).  A direction is productive when
  /// one hop along it strictly reduces torus distance.  On an even ring
  /// at exactly half the circumference, both directions along that axis
  /// are productive; the deterministic listing order is E/W then S/N.
  /// Both coordinates must lie on the torus (see wrap()).
  int productive_dirs(Coord from, Coord to, Dir out[4]) const {
    int n = 0;
    if (from.x != to.x) {
      const int fwd = wrap(to.x - from.x, w_);  // hops going East
      const int bwd = w_ - fwd;                 // hops going West
      if (fwd < bwd) {
        out[n++] = Dir::kEast;
      } else if (bwd < fwd) {
        out[n++] = Dir::kWest;
      } else {
        out[n++] = Dir::kEast;
        out[n++] = Dir::kWest;
      }
    }
    if (from.y != to.y) {
      const int fwd = wrap(to.y - from.y, h_);  // hops going South
      const int bwd = h_ - fwd;                 // hops going North
      if (fwd < bwd) {
        out[n++] = Dir::kSouth;
      } else if (bwd < fwd) {
        out[n++] = Dir::kNorth;
      } else {
        out[n++] = Dir::kSouth;
        out[n++] = Dir::kNorth;
      }
    }
    return n;
  }

 private:
  /// v mod m for v in [-m, 2m), by one compare-and-add instead of a
  /// division — this runs for every flit a router moves.  Every caller
  /// passes a coordinate plus or minus one, or the difference of two
  /// coordinates, and coordinates lie in [0, m): noc::Fabric bounds the
  /// axes, traffic picks on-torus nodes, and trace replay checks the
  /// recorded geometry and every payload dst.
  static int wrap(int v, int m) {
    if (v < 0) return v + m;
    return v >= m ? v - m : v;
  }
  static int axis_dist(int a, int b, int m) {
    const int d = wrap(b - a, m);
    return d < m - d ? d : m - d;
  }

  int w_;
  int h_;
};

}  // namespace medea::noc

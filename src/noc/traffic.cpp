#include "noc/traffic.h"

#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace medea::noc {

namespace {

class BernoulliInjection final : public InjectionProcess {
 public:
  explicit BernoulliInjection(double rate) : rate_(rate) {}
  bool fire(sim::Xoshiro256& rng) override { return rng.next_bool(rate_); }
  double rate() const override { return rate_; }

 private:
  double rate_;
};

/// Two-state Markov-modulated (on-off) process: while ON, offer at the
/// in-burst rate r1; while OFF, offer nothing.  Geometric dwell times
/// (on->off with prob alpha, off->on with prob beta per cycle) give a
/// steady-state ON fraction of beta/(alpha+beta), so r1 is scaled to
/// make the long-run offered load equal the requested rate — the same
/// construction as booksim2's `on_off` injection process.
class OnOffInjection final : public InjectionProcess {
 public:
  OnOffInjection(double rate, double alpha, double beta,
                 sim::Xoshiro256& rng)
      : rate_(rate),
        alpha_(alpha),
        beta_(beta),
        r1_(rate * (alpha + beta) / beta),
        // Start each endpoint in its steady-state distribution (drawn
        // from its own stream) so bursts decorrelate across nodes from
        // cycle 1 instead of all starting in lockstep.
        on_(rng.next_bool(beta / (alpha + beta))) {}

  bool fire(sim::Xoshiro256& rng) override {
    const bool offer = on_ && rng.next_bool(r1_);
    if (on_) {
      if (rng.next_bool(alpha_)) on_ = false;
    } else {
      if (rng.next_bool(beta_)) on_ = true;
    }
    return offer;
  }
  double rate() const override { return rate_; }

 private:
  double rate_;
  double alpha_;
  double beta_;
  double r1_;  ///< in-burst offer probability
  bool on_;
};

}  // namespace

const char* to_string(InjectionKind k) {
  switch (k) {
    case InjectionKind::kBernoulli: return "bernoulli";
    case InjectionKind::kOnOff: return "onoff";
  }
  return "?";
}

std::unique_ptr<InjectionProcess> make_injection_process(
    const InjectionSpec& spec, double rate, sim::Xoshiro256& rng) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument(
        "injection process: rate must be in [0, 1], got " +
        std::to_string(rate));
  }
  switch (spec.kind) {
    case InjectionKind::kBernoulli:
      return std::make_unique<BernoulliInjection>(rate);
    case InjectionKind::kOnOff: {
      if (spec.burst_alpha <= 0.0 || spec.burst_alpha > 1.0 ||
          spec.burst_beta <= 0.0 || spec.burst_beta > 1.0) {
        throw std::invalid_argument(
            "on-off injection: burst_alpha and burst_beta must be in "
            "(0, 1]");
      }
      const double r1 =
          rate * (spec.burst_alpha + spec.burst_beta) / spec.burst_beta;
      if (r1 > 1.0) {
        throw std::invalid_argument(
            "on-off injection: rate " + std::to_string(rate) +
            " is unreachable with on-fraction " +
            std::to_string(spec.burst_beta /
                           (spec.burst_alpha + spec.burst_beta)) +
            " (in-burst rate would exceed 1 flit/cycle)");
      }
      return std::make_unique<OnOffInjection>(rate, spec.burst_alpha,
                                              spec.burst_beta, rng);
    }
  }
  throw std::invalid_argument("injection process: unknown kind");
}

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniformRandom: return "uniform";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kNeighbor: return "neighbor";
    case TrafficPattern::kBitReversal: return "bitrev";
  }
  return "?";
}

int run_traffic(sim::SimDomain& dom, Fabric& net, const TrafficConfig& cfg,
                sim::Cycle limit) {
  std::vector<std::unique_ptr<TrafficEndpoint<Fabric>>> eps;
  eps.reserve(static_cast<std::size_t>(net.num_nodes()));
  for (int i = 0; i < net.num_nodes(); ++i) {
    eps.push_back(std::make_unique<TrafficEndpoint<Fabric>>(net.sched_of(i),
                                                            net, i, cfg));
  }
  dom.run_or_throw(limit);
  net.refresh_stats();
  int total = 0;
  for (const auto& e : eps) total += e->received();
  return total;
}

int pick_destination(TrafficPattern p, const TorusGeometry& geom, int src,
                     int hotspot_node, sim::Xoshiro256& rng) {
  switch (p) {
    case TrafficPattern::kUniformRandom: {
      int dst = src;
      while (dst == src) {
        dst = static_cast<int>(
            rng.next_below(static_cast<std::uint32_t>(geom.num_nodes())));
      }
      return dst;
    }
    case TrafficPattern::kHotspot:
      return hotspot_node;
    case TrafficPattern::kTranspose: {
      const Coord c = geom.coord_of(src);
      // Meaningful on square fabrics; clamp otherwise.
      const Coord t{static_cast<std::uint8_t>(c.y % geom.width()),
                    static_cast<std::uint8_t>(c.x % geom.height())};
      return geom.node_id(t);
    }
    case TrafficPattern::kNeighbor:
      return (src + 1) % geom.num_nodes();
    case TrafficPattern::kBitReversal: {
      // Reverse the node id within the fabric's index width.  Exact
      // permutation on power-of-two fabrics; on others the reversal can
      // land outside the torus, folded back with a modulo (palindromic
      // ids map to themselves; endpoints drop those self-slots).
      const int n = geom.num_nodes();
      const int bits = std::bit_width(static_cast<unsigned>(n - 1));
      unsigned v = static_cast<unsigned>(src);
      unsigned r = 0;
      for (int b = 0; b < bits; ++b) {
        r = (r << 1) | (v & 1u);
        v >>= 1;
      }
      return static_cast<int>(r) % n;
    }
  }
  return src;
}

}  // namespace medea::noc

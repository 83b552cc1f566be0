/// Routing ablation (§II-A): the MEDEA deflection ("hot-potato") router
/// against a conventional input-buffered dimension-ordered (XY) router on
/// identical traffic.
///
/// The paper's argument for deflection routing:
///  * minimal storage (one flit per input channel, no packet buffers) —
///    compare `peak_buffered`,
///  * no back-pressure mechanism, no head-of-line blocking on long
///    packets,
///  * the price: out-of-order delivery (handled by sequence numbers).
///
/// Run on a 4x4 fabric under the standard synthetic patterns at a sweep
/// of injection rates; both fabrics deliver everything, the comparison is
/// latency and buffering.

#include <cstdint>
#include <string>

#include "harness.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "noc/xy_network.h"
#include "sim/domain.h"

using namespace medea;

namespace {

noc::TrafficConfig traffic_cfg(noc::TrafficPattern pattern, int rate_pct) {
  noc::TrafficConfig cfg;
  cfg.pattern = pattern;
  cfg.injection_rate = rate_pct / 100.0;
  cfg.flits_per_node = 400;
  cfg.hotspot_node = 5;
  cfg.seed = 99;
  return cfg;
}

std::string case_config(const noc::TrafficConfig& cfg, int rate_pct) {
  return std::string("pattern=") + noc::to_string(cfg.pattern) +
         " inj_rate_pct=" + std::to_string(rate_pct) +
         " torus=4x4 flits_per_node=400";
}

bench::Measurement deflection(const bench::RunOptions& opt,
                              noc::TrafficPattern pattern, int rate_pct) {
  const auto cfg = traffic_cfg(pattern, rate_pct);
  double lat = 0.0, defl = 0.0;
  int delivered = 0;
  auto m = bench::run_case(
      std::string("deflection/") + noc::to_string(pattern) + "/" +
          std::to_string(rate_pct) + "pct",
      case_config(cfg, rate_pct), opt, [&] {
        sim::SimDomain dom(sim::SchedulerConfig{});
        noc::Network net(dom, noc::TorusGeometry(4, 4));
        delivered = noc::run_traffic(dom, net, cfg);
        lat = net.stats().acc("noc.latency").mean();
        defl = static_cast<double>(net.stats().get("noc.deflections_total"));
        return dom.now();
      });
  m.metric("mean_latency", lat);
  m.metric("deflections", defl);
  m.metric("delivered", delivered);
  m.metric("peak_buffered", 0.0);  // hot potato stores nothing
  return m;
}

bench::Measurement buffered_xy(const bench::RunOptions& opt,
                               noc::TrafficPattern pattern, int rate_pct) {
  const auto cfg = traffic_cfg(pattern, rate_pct);
  double lat = 0.0, peak = 0.0;
  int delivered = 0;
  auto m = bench::run_case(
      std::string("buffered-xy/") + noc::to_string(pattern) + "/" +
          std::to_string(rate_pct) + "pct",
      case_config(cfg, rate_pct), opt, [&] {
        sim::SimDomain dom(sim::SchedulerConfig{});
        // Mesh geometry: dimension-ordered routing's deadlock-free home.
        noc::XyNetwork net(dom, noc::TorusGeometry(4, 4));
        delivered = noc::run_traffic(dom, net, cfg);
        lat = net.stats().acc("xynoc.latency").mean();
        peak = static_cast<double>(net.stats().get("xynoc.peak_buffered"));
        return dom.now();
      });
  m.metric("mean_latency", lat);
  m.metric("deflections", 0.0);
  m.metric("delivered", delivered);
  m.metric("peak_buffered", peak);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("router_comparison", argc, argv);
  const noc::TrafficPattern patterns[] = {
      noc::TrafficPattern::kUniformRandom, noc::TrafficPattern::kHotspot,
      noc::TrafficPattern::kTranspose, noc::TrafficPattern::kNeighbor};
  for (auto pattern : patterns) {
    for (int rate_pct : {10, 40}) {
      report.add(deflection(report.options(), pattern, rate_pct));
    }
  }
  for (auto pattern : patterns) {
    for (int rate_pct : {10, 40}) {
      report.add(buffered_xy(report.options(), pattern, rate_pct));
    }
  }
  return report.finish();
}

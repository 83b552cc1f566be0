/// Micro-benchmark of the deflection-routed folded-torus NoC: latency,
/// throughput and deflection behaviour under uniform-random traffic at
/// increasing injection rates (ablation for the §II-A routing choice).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "noc/network.h"
#include "sim/domain.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace {

using namespace medea;

/// Injects uniform-random traffic at a fixed rate and sinks everything.
class TrafficNode : public sim::Component {
 public:
  TrafficNode(sim::Scheduler& s, noc::Network& net, int node, double rate,
              int flits_to_send, std::uint64_t seed)
      : sim::Component(s, "traffic" + std::to_string(node)),
        net_(net),
        node_(node),
        rate_(rate),
        remaining_(flits_to_send),
        rng_(seed) {
    net.eject(node).set_consumer(this);
    s.wake_at(*this, 1);
  }

  void tick(sim::Cycle now) override {
    (void)now;
    auto& ej = net_.eject(node_);
    while (!ej.empty()) {
      ej.pop();
      ++received;
    }
    if (remaining_ > 0 && rng_.next_bool(rate_)) {
      auto& inj = net_.inject(node_);
      if (inj.can_push()) {
        noc::Flit f;
        f.valid = true;
        int dst = node_;
        while (dst == node_) {
          dst = static_cast<int>(
              rng_.next_below(static_cast<std::uint32_t>(net_.num_nodes())));
        }
        f.dst = net_.geometry().coord_of(dst);
        f.type = noc::FlitType::kMessage;
        f.subtype = noc::kMpData;
        f.src_id = static_cast<std::uint8_t>(node_);
        f.uid = net_.next_flit_uid();
        inj.push(f);
        --remaining_;
      }
    }
    if (remaining_ > 0) wake();
  }

  int received = 0;

 private:
  noc::Network& net_;
  int node_;
  double rate_;
  int remaining_;
  sim::Xoshiro256 rng_;
};

bench::Measurement uniform_random(const bench::RunOptions& opt, int rate_pct) {
  const double rate = rate_pct / 100.0;
  double mean_latency = 0.0;
  double mean_hops = 0.0;
  double deflections = 0.0;
  double delivered = 0.0;
  auto m = bench::run_case(
      "uniform_random/" + std::to_string(rate_pct) + "pct",
      "pattern=uniform_random inj_rate=" + std::to_string(rate) +
          " torus=4x4 flits_per_node=500",
      opt, [&] {
        sim::SimDomain dom(sim::SchedulerConfig{});
        sim::Scheduler& sched = dom.shard(0);
        noc::Network net(dom, noc::TorusGeometry(4, 4));
        std::vector<std::unique_ptr<TrafficNode>> nodes;
        for (int i = 0; i < net.num_nodes(); ++i) {
          nodes.push_back(std::make_unique<TrafficNode>(
              sched, net, i, rate, 500, 42 + static_cast<std::uint64_t>(i)));
        }
        sched.run(10'000'000);
        mean_latency = net.stats().acc("noc.latency").mean();
        mean_hops = net.stats().acc("noc.hops").mean();
        deflections =
            static_cast<double>(net.stats().get("noc.deflections_total"));
        delivered =
            static_cast<double>(net.stats().get("noc.flits_delivered"));
        return sched.now();
      });
  m.metric("mean_latency_cyc", mean_latency);
  m.metric("mean_hops", mean_hops);
  m.metric("deflections", deflections);
  m.metric("delivered", delivered);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("noc_deflection", argc, argv);
  for (int rate_pct : {5, 10, 20, 40, 80}) {
    report.add(uniform_random(report.options(), rate_pct));
  }
  return report.finish();
}

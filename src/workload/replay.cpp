#include "workload/replay.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "noc/network.h"
#include "noc/xy_network.h"

namespace medea::workload {

namespace {

/// The recording-side description of the fabric a replay runs on.
TraceNetConfig offered_config(const noc::Fabric& net) {
  if (const auto* xy = dynamic_cast<const noc::XyNetwork*>(&net)) {
    return TraceNetConfig::from(xy->config(), xy->torus_wrap());
  }
  return TraceNetConfig::from(dynamic_cast<const noc::Network&>(net).config());
}

/// Throw unless the recording fabric in `meta` matches the replay
/// network (geometry always; kind and configuration unless
/// `allow_mismatch`).
void check_replay_net(const TraceMeta& meta, const noc::Fabric& net,
                      bool allow_mismatch) {
  if (net.geometry().width() != meta.width ||
      net.geometry().height() != meta.height) {
    throw std::runtime_error(
        "trace replay: network geometry does not match the trace (" +
        std::to_string(meta.width) + "x" + std::to_string(meta.height) +
        " recorded, " + std::to_string(net.geometry().width()) + "x" +
        std::to_string(net.geometry().height()) + " offered)");
  }
  if (allow_mismatch) return;
  const TraceNetConfig offered = offered_config(net);
  if (meta.net != offered) {
    throw std::runtime_error(
        "trace replay: network configuration does not match the recording\n"
        "  recorded: " + meta.net.describe() + "\n"
        "  offered:  " + offered.describe() + "\n"
        "the replayed timing would silently diverge from the recording; "
        "pass allow_config_mismatch (CLI: --force) to replay anyway");
  }
}

}  // namespace

/// Feeds one node's recorded events into its inject FIFO on schedule.
class TraceReplayer::Injector final : public sim::Component {
 public:
  Injector(sim::Scheduler& sched, noc::Fabric& net, int node,
           std::vector<TraceEvent> events, int coord_bits, sim::Cycle shift)
      : sim::Component(sched, "replay.injector" + std::to_string(node)),
        q_(net.inject(node)),
        coord_bits_(coord_bits),
        shift_(shift),
        events_(std::move(events)) {
    if (!events_.empty()) {
      sched.wake_at(*this, events_.front().cycle + shift_ - 1);
    }
  }

  void tick(sim::Cycle now) override {
    while (next_ < events_.size()) {
      const TraceEvent& e = events_[next_];
      const sim::Cycle push_at = e.cycle + shift_ - 1;
      if (push_at > now) {
        scheduler().wake_at(*this, push_at);
        return;
      }
      if (!q_.can_push()) {
        // Should not happen when replaying onto the recorded fabric (the
        // recorded run injected on schedule, so the queue drains on
        // schedule), but a --force replay onto a shallower inject queue
        // can fill it; retry deterministically rather than dropping.
        wake();
        return;
      }
      noc::Flit f = noc::decode_flit(e.payload, coord_bits_);
      f.uid = e.uid;
      q_.push(f);
      ++injected_;
      ++next_;
    }
  }

  std::uint64_t injected() const { return injected_; }

 private:
  sim::Fifo<noc::Flit>& q_;
  int coord_bits_;
  sim::Cycle shift_;
  std::vector<TraceEvent> events_;
  std::size_t next_ = 0;
  std::uint64_t injected_ = 0;
};

/// Drains one node's eject queue (stand-in for the PE/MPMMU consumer).
/// Counters are per-sink — shards read and reduce them only after the
/// run, never across threads.
class TraceReplayer::Sink final : public sim::Component {
 public:
  Sink(sim::Scheduler& sched, noc::Fabric& net, int node)
      : sim::Component(sched, "replay.sink" + std::to_string(node)),
        q_(net.eject(node)) {
    q_.set_consumer(this);
  }

  void tick(sim::Cycle now) override {
    while (!q_.empty()) {
      q_.pop();
      ++count_;
      // Delivery into the eject queue happened one cycle before the
      // sink sees it (FIFO commit latency).
      last_delivery_ = std::max(last_delivery_, now - 1);
    }
  }

  std::uint64_t count() const { return count_; }
  sim::Cycle last_delivery() const { return last_delivery_; }

 private:
  sim::Fifo<noc::Flit>& q_;
  std::uint64_t count_ = 0;
  sim::Cycle last_delivery_ = 0;
};

TraceReplayer::TraceReplayer(noc::Fabric& net, const Trace& trace,
                             bool allow_config_mismatch) {
  check_replay_net(trace.meta, net, allow_config_mismatch);

  // One uniform shift keeps every push at cycle >= 1.  A trace cannot
  // legally contain events before cycle 2 (a push at cycle >= 1 commits
  // at >= 2), but shift defensively instead of failing on hand-crafted
  // traces.  Recorded uids are re-injected as they are: nothing draws
  // from the fabric's uid streams during a replay.
  sim::Cycle shift = 0;
  if (!trace.events.empty()) {
    const sim::Cycle c0 = trace.events.front().cycle;
    shift = c0 >= 2 ? 0 : 2 - c0;
  }

  // Split the (cycle-sorted) event stream by source node; per-node
  // subsequences stay cycle-sorted.
  const auto n = static_cast<std::size_t>(net.num_nodes());
  std::vector<std::vector<TraceEvent>> per_node(n);
  for (const TraceEvent& e : trace.events) per_node[e.src].push_back(e);

  injectors_.reserve(n);
  sinks_.reserve(n);
  for (int i = 0; i < net.num_nodes(); ++i) {
    injectors_.push_back(std::make_unique<Injector>(
        net.sched_of(i), net, i,
        std::move(per_node[static_cast<std::size_t>(i)]),
        trace.meta.coord_bits, shift));
  }
  for (int i = 0; i < net.num_nodes(); ++i) {
    sinks_.push_back(std::make_unique<Sink>(net.sched_of(i), net, i));
  }
}

TraceReplayer::~TraceReplayer() = default;

std::uint64_t TraceReplayer::injected() const {
  std::uint64_t total = 0;
  for (const auto& i : injectors_) total += i->injected();
  return total;
}

std::uint64_t TraceReplayer::delivered() const {
  std::uint64_t total = 0;
  for (const auto& s : sinks_) total += s->count();
  return total;
}

sim::Cycle TraceReplayer::last_delivery_cycle() const {
  sim::Cycle last = 0;
  for (const auto& s : sinks_) last = std::max(last, s->last_delivery());
  return last;
}

ReplayResult run_replay(sim::SimDomain& dom, noc::Fabric& net,
                        const Trace& trace, sim::Cycle limit,
                        bool allow_config_mismatch) {
  TraceReplayer rep(net, trace, allow_config_mismatch);
  dom.run_or_throw(limit);
  net.refresh_stats();
  ReplayResult r;
  r.cycles = dom.now();
  r.flits_injected = rep.injected();
  r.flits_delivered = rep.delivered();
  r.last_delivery_cycle = rep.last_delivery_cycle();
  return r;
}

}  // namespace medea::workload

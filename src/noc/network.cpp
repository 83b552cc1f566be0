#include "noc/network.h"

#include <cassert>
#include <utility>

namespace medea::noc {

/// Per-shard flit-event buffer.  Routers of one shard record their
/// events here during the parallel dispatch phase; the domain's serial
/// end-of-cycle flush replays every shard's buffer — in shard order,
/// which with contiguous row bands is canonical node order — into the
/// real observer.  Events carry their original cycle, so the observer
/// sees exactly the stream a single-thread run produces.
class Network::ShardEventBuffer final : public FlitObserver {
 public:
  explicit ShardEventBuffer(Network& net) : net_(net) {}

  void on_inject(sim::Cycle now, int node, const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kInject, now, node, 0, false, f});
  }
  void on_deliver(sim::Cycle now, int node, const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kDeliver, now, node, 0, false, f});
  }
  void on_queue_enter(sim::Cycle now, int node, const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kQueueEnter, now, node, 0, false, f});
  }
  void on_hop(sim::Cycle now, int node, int out_port, bool deflected,
              const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kHop, now, node, out_port, deflected, f});
  }
  bool wants_lifecycle() const override {
    // Forwarded so routers gate hop events exactly as they would with
    // the target attached directly (checked at set_observer time —
    // serial context, hence the shared claim on the network token).
    net_.serial_.assert_shared();
    return net_.obs_target_ != nullptr && net_.obs_target_->wants_lifecycle();
  }

  void flush_to(FlitObserver* obs) {
    // Serial phase on shard 0: the writers (this buffer's shard) are
    // parked at a barrier, so ownership has transferred here.
    own_.assert_held();
    if (obs != nullptr) {
      for (const Event& e : events_) {
        switch (e.kind) {
          case Kind::kInject: obs->on_inject(e.now, e.node, e.flit); break;
          case Kind::kDeliver: obs->on_deliver(e.now, e.node, e.flit); break;
          case Kind::kQueueEnter:
            obs->on_queue_enter(e.now, e.node, e.flit);
            break;
          case Kind::kHop:
            obs->on_hop(e.now, e.node, e.out_port, e.deflected, e.flit);
            break;
        }
      }
    }
    events_.clear();
  }

 private:
  enum class Kind : std::uint8_t { kInject, kDeliver, kQueueEnter, kHop };
  struct Event {
    Kind kind;
    sim::Cycle now;
    int node;
    int out_port;
    bool deflected;
    Flit flit;
  };

  Network& net_;
  /// Alternating ownership: the buffer's shard during dispatch, shard 0
  /// during the serial flush — the phase barrier in between is the
  /// handoff.
  core::Capability own_;
  std::vector<Event> events_ MEDEA_GUARDED_BY(own_);
};

void Network::ShardChannel::relay(void* ctx, Flit&& f) {
  auto* ch = static_cast<ShardChannel*>(ctx);
  // Producer side of the mailbox handoff: the TX FIFO's commit, on the
  // producer shard, before the post-dispatch barrier.  The consumer
  // shard will not touch `mail` until after that barrier.
  ch->xfer.assert_held();
  ch->mail.push_back(std::move(f));
}

Network::Network(sim::SimDomain& dom, const TorusGeometry& geom,
                 const RouterConfig& cfg, std::uint64_t seed)
    : Fabric(dom, geom), cfg_(cfg) {
  serial_.assert_held();  // construction time: single-threaded
  if (dom_.sharded()) partition_row_bands();
  // Expand the network seed into one private stream per router (see the
  // DeflectionRouter constructor comment: per-router generators keep
  // stochastic tie-breaks independent of within-cycle tick order).
  // Routers are built in node order on every shard, so the RNG draws and
  // the component construction order (the canonical dispatch key, global
  // via the domain's shared counter) match the single-thread build.
  sim::SplitMix64 streams(seed);
  for (int id = 0; id < num_nodes(); ++id) {
    sim::StatSet& st =
        shard_stats_.empty()
            ? stats_
            : *shard_stats_[static_cast<std::size_t>(shard_of(id))];
    routers_.push_back(std::make_unique<DeflectionRouter>(
        sched_of(id), geom_, geom_.coord_of(id), cfg_, st, streams.next()));
  }
  wire_links("link");
  if (!dom_.sharded()) return;
  for (int s = 0; s < dom_.num_shards(); ++s) {
    dom_.add_shard_drain(
        s, [this, s](sim::Cycle now) { drain_shard(s, now); });
  }
  dom_.add_cycle_end([this](sim::Cycle) { flush_observer_events(); });
  dom_.add_pre_sample([this] { refresh_stats(); });
}

Network::~Network() = default;

void Network::partition_row_bands() {
  const int n = num_nodes();
  const int num_shards = dom_.num_shards();
  shard_of_node_.resize(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    // Contiguous row bands: row r belongs to shard r*S/H, so node ids
    // within a shard are contiguous (canonical-order fan-in relies on
    // this) and band heights differ by at most one row.
    const int s =
        static_cast<int>(geom_.coord_of(id).y) * num_shards / geom_.height();
    shard_of_node_[static_cast<std::size_t>(id)] = s;
    node_sched_[static_cast<std::size_t>(id)] = &dom_.shard(s);
  }
  shard_stats_.reserve(static_cast<std::size_t>(num_shards));
  shard_obs_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_stats_.push_back(std::make_unique<sim::StatSet>());
    shard_obs_.push_back(std::make_unique<ShardEventBuffer>(*this));
  }
  shard_channels_.resize(static_cast<std::size_t>(num_shards));
  shard_mail_count_.assign(static_cast<std::size_t>(num_shards), 0);
}

void Network::wire_seam(int from, Dir dir, int to, const std::string& name) {
  // A shard-crossing link (vertical links at band boundaries, torus wrap
  // included) splits into a producer-side TX FIFO relaying into the
  // channel mailbox and a consumer-side RX FIFO the consumer shard's
  // drain phase fills.
  const int sp = shard_of(from);
  const int sc = shard_of(to);
  auto tx = std::make_unique<sim::Fifo<Flit>>(dom_.shard(sp), name + ".tx",
                                              kLinkCapacity);
  auto rx = std::make_unique<sim::Fifo<Flit>>(dom_.shard(sc), name + ".rx",
                                              kLinkCapacity);
  connect(from, dir, to, tx.get(), rx.get());  // sets rx's consumer
  auto ch = std::make_unique<ShardChannel>();
  ch->rx = rx.get();
  tx->set_relay(&ShardChannel::relay, ch.get());
  shard_channels_[static_cast<std::size_t>(sc)].push_back(ch.get());
  channels_.push_back(std::move(ch));
  links_.push_back(std::move(tx));
  links_.push_back(std::move(rx));
}

FlitObserver* Network::node_observer(int node_id) {
  // Sharded: routers record into their shard's buffer; the domain's
  // serial phase replays the buffers into the target in canonical order.
  if (shard_obs_.empty()) return Fabric::node_observer(node_id);
  return shard_obs_[static_cast<std::size_t>(shard_of(node_id))].get();
}

void Network::drain_shard(int s, sim::Cycle now) {
  for (ShardChannel* ch : shard_channels_[static_cast<std::size_t>(s)]) {
    // Consumer side of the mailbox handoff: shard s's drain phase, after
    // the post-dispatch barrier — the producer's relay writes for this
    // cycle all happen-before this point.
    ch->xfer.assert_held();
    if (ch->mail.empty()) continue;
    shard_mail_count_[static_cast<std::size_t>(s)] += ch->mail.size();
    for (Flit& f : ch->mail) ch->rx->push_committed(std::move(f));
    ch->mail.clear();
    // The wake the producer-side relay skipped: new data visible at
    // now+1, issued on the consumer's own scheduler (shard s).
    sim::Component* consumer = ch->rx->consumer();
    assert(consumer != nullptr);
    dom_.shard(s).wake_at(*consumer, now + 1);
  }
}

void Network::flush_observer_events() {
  serial_.assert_shared();  // domain serial phase (cycle-end hook)
  for (auto& buf : shard_obs_) buf->flush_to(obs_target_);
}

std::uint64_t Network::mailbox_flits() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : shard_mail_count_) total += c;
  return total;
}

}  // namespace medea::noc

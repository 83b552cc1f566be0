/// Direct unit tests of the pif2NoC bridge FSM: Fig. 4 protocol order,
/// the 4-entry reorder buffer, transaction queueing, and error paths.
/// The bridge is driven against a scripted "fake MPMMU" on a real NoC.

#include <gtest/gtest.h>

#include <deque>

#include "noc/network.h"
#include "pe/bridge.h"
#include "sim/ring.h"

namespace medea::pe {
namespace {

using noc::Flit;
using noc::FlitSubType;
using noc::FlitType;

/// Drives the bridge clock and a scripted remote endpoint at the MPMMU
/// node that logs requests and plays back canned replies.
class BridgeHarness : public sim::Component {
 public:
  BridgeHarness(sim::Scheduler& s, noc::Network& net, int self, int mpmmu)
      : sim::Component(s, "harness"),
        bridge(net, self, mpmmu, BridgeConfig{}, stats),
        net_(net),
        self_(self),
        mpmmu_(mpmmu) {
    net.eject(self).set_consumer(this);
    net.eject(mpmmu).set_consumer(this);
    s.wake_at(*this, 1);
  }

  /// Script one reply flit, released once `after_seen` flits from the
  /// bridge have reached the remote node (protocol-phase gating).
  void script_reply(FlitType t, FlitSubType s, std::uint8_t seq,
                    std::uint8_t burst, std::uint32_t data,
                    std::size_t after_seen = 1) {
    replies_.push_back({make_remote_flit(t, s, seq, burst, data), after_seen});
  }

  void tick(sim::Cycle now) override {
    (void)now;
    // Remote side: absorb request flits, release scripted replies once
    // their protocol phase has been reached.
    auto& remote_ej = net_.eject(mpmmu_);
    while (!remote_ej.empty()) seen.push_back(remote_ej.pop());
    if (!replies_.empty() && seen.size() >= replies_.front().second &&
        net_.inject(mpmmu_).can_push()) {
      net_.inject(mpmmu_).push(replies_.front().first);
      replies_.pop_front();
    }
    // Local side: feed replies into the bridge.
    auto& ej = net_.eject(self_);
    while (!ej.empty()) bridge.rx(ej.pop());
    if (auto c = bridge.take_completion()) completions.push_back(*c);
    // Bridge TX toward the network.
    bridge.step_tx(out_reg_);
    if (!out_reg_.empty() && net_.inject(self_).can_push()) {
      net_.inject(self_).push(out_reg_.front());
      out_reg_.pop_front();
    }
    if (!done()) wake();
  }

  bool done() const {
    return bridge.drained() && replies_.empty() && out_reg_.empty();
  }

  sim::StatSet stats;
  Pif2NocBridge bridge;
  std::vector<Flit> seen;
  std::vector<Pif2NocBridge::Completion> completions;

 private:
  Flit make_remote_flit(FlitType t, FlitSubType s, std::uint8_t seq,
                        std::uint8_t burst, std::uint32_t data) {
    Flit f;
    f.valid = true;
    f.dst = net_.geometry().coord_of(self_);
    f.type = t;
    f.subtype = s;
    f.seq_num = seq;
    f.burst_size = burst;
    f.src_id = static_cast<std::uint8_t>(mpmmu_);
    f.data = data;
    f.uid = net_.next_flit_uid();
    return f;
  }

  noc::Network& net_;
  int self_;
  int mpmmu_;
  std::deque<std::pair<Flit, std::size_t>> replies_;
  sim::Ring<Flit> out_reg_;
};

struct Fx {
  Fx() : net(dom, noc::TorusGeometry(4, 4)), h(sched, net, 5, 0) {}
  sim::SimDomain dom{sim::SchedulerConfig{}};
  sim::Scheduler& sched = dom.shard(0);
  noc::Network net;
  BridgeHarness h;
};

TEST(Bridge, SingleReadEmitsAddressRequestAndCompletesOnData) {
  Fx fx;
  Pif2NocBridge::Tx tx;
  tx.type = FlitType::kSingleRead;
  tx.addr = 0x1234;
  tx.purpose = TxPurpose::kLoadUncached;
  fx.h.bridge.enqueue(tx);
  fx.h.script_reply(FlitType::kSingleRead, FlitSubType::kData, 0, 0, 0xCAFE);
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(fx.h.seen.size(), 1u);
  EXPECT_EQ(fx.h.seen[0].type, FlitType::kSingleRead);
  EXPECT_EQ(fx.h.seen[0].subtype, FlitSubType::kAddress);
  EXPECT_EQ(fx.h.seen[0].data, 0x1234u);
  ASSERT_EQ(fx.h.completions.size(), 1u);
  EXPECT_EQ(fx.h.completions[0].data[0], 0xCAFEu);
  EXPECT_EQ(fx.h.completions[0].words, 1);
}

TEST(Bridge, BlockReadReordersOutOfOrderFlits) {
  Fx fx;
  Pif2NocBridge::Tx tx;
  tx.type = FlitType::kBlockRead;
  tx.addr = 0x2000;
  tx.purpose = TxPurpose::kFill;
  fx.h.bridge.enqueue(tx);
  // Reply flits scrambled: 2, 0, 3, 1 — the reorder buffer must fix it.
  fx.h.script_reply(FlitType::kBlockRead, FlitSubType::kData, 2, 3, 102);
  fx.h.script_reply(FlitType::kBlockRead, FlitSubType::kData, 0, 3, 100);
  fx.h.script_reply(FlitType::kBlockRead, FlitSubType::kData, 3, 3, 103);
  fx.h.script_reply(FlitType::kBlockRead, FlitSubType::kData, 1, 3, 101);
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(fx.h.completions.size(), 1u);
  const auto& c = fx.h.completions[0];
  EXPECT_EQ(c.words, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.data[static_cast<std::size_t>(i)],
              static_cast<std::uint32_t>(100 + i));
  }
}

TEST(Bridge, WriteFollowsReqGrantDataAck) {
  Fx fx;
  Pif2NocBridge::Tx tx;
  tx.type = FlitType::kSingleWrite;
  tx.addr = 0x3000;
  tx.data[0] = 0xBEEF;
  tx.words = 1;
  tx.purpose = TxPurpose::kWriteThrough;
  fx.h.bridge.enqueue(tx);
  fx.h.script_reply(FlitType::kSingleWrite, FlitSubType::kAck, 0, 0, 0,
                    1);  // grant, after the request
  fx.h.script_reply(FlitType::kSingleWrite, FlitSubType::kAck, 0, 0, 0,
                    2);  // final ack, after the data flit
  ASSERT_TRUE(fx.sched.run(100000));
  // Wire order: Address request, then the data payload.
  ASSERT_EQ(fx.h.seen.size(), 2u);
  EXPECT_EQ(fx.h.seen[0].subtype, FlitSubType::kAddress);
  EXPECT_EQ(fx.h.seen[1].subtype, FlitSubType::kData);
  EXPECT_EQ(fx.h.seen[1].data, 0xBEEFu);
  ASSERT_EQ(fx.h.completions.size(), 1u);
  EXPECT_EQ(fx.h.completions[0].purpose, TxPurpose::kWriteThrough);
}

TEST(Bridge, BlockWriteStreamsFourDataFlits) {
  Fx fx;
  Pif2NocBridge::Tx tx;
  tx.type = FlitType::kBlockWrite;
  tx.addr = 0x4000;
  tx.data = {1, 2, 3, 4};
  tx.words = 4;
  tx.purpose = TxPurpose::kWriteback;
  fx.h.bridge.enqueue(tx);
  fx.h.script_reply(FlitType::kBlockWrite, FlitSubType::kAck, 0, 0, 0, 1);
  fx.h.script_reply(FlitType::kBlockWrite, FlitSubType::kAck, 0, 0, 0, 5);
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(fx.h.seen.size(), 5u);  // 1 request + 4 data
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(fx.h.seen[static_cast<std::size_t>(i)].subtype,
              FlitSubType::kData);
    EXPECT_EQ(fx.h.seen[static_cast<std::size_t>(i)].seq_num, i - 1);
    EXPECT_EQ(fx.h.seen[static_cast<std::size_t>(i)].burst_size, 3);
  }
}

TEST(Bridge, TransactionsRunStrictlyInOrder) {
  Fx fx;
  Pif2NocBridge::Tx a;
  a.type = FlitType::kSingleRead;
  a.addr = 0xA0;
  a.purpose = TxPurpose::kLoadUncached;
  Pif2NocBridge::Tx b;
  b.type = FlitType::kSingleRead;
  b.addr = 0xB0;
  b.purpose = TxPurpose::kLoadUncached;
  const auto id_a = fx.h.bridge.enqueue(a);
  const auto id_b = fx.h.bridge.enqueue(b);
  EXPECT_LT(id_a, id_b);
  fx.h.script_reply(FlitType::kSingleRead, FlitSubType::kData, 0, 0, 1, 1);
  fx.h.script_reply(FlitType::kSingleRead, FlitSubType::kData, 0, 0, 2, 2);
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(fx.h.seen.size(), 2u);
  EXPECT_EQ(fx.h.seen[0].data, 0xA0u);  // A's request left first
  EXPECT_EQ(fx.h.seen[1].data, 0xB0u);
  ASSERT_EQ(fx.h.completions.size(), 2u);
  EXPECT_EQ(fx.h.completions[0].id, id_a);
  EXPECT_EQ(fx.h.completions[1].id, id_b);
}

TEST(Bridge, QueueDepthEnforced) {
  Fx fx;
  Pif2NocBridge::Tx t;
  t.type = FlitType::kSingleRead;
  t.purpose = TxPurpose::kLoadUncached;
  EXPECT_TRUE(fx.h.bridge.can_enqueue());
  fx.h.bridge.enqueue(t);
  fx.h.bridge.enqueue(t);  // default depth 2
  EXPECT_FALSE(fx.h.bridge.can_enqueue());
}

TEST(Bridge, LockRequestWaitsForAck) {
  Fx fx;
  Pif2NocBridge::Tx t;
  t.type = FlitType::kLock;
  t.addr = 0x70;
  t.purpose = TxPurpose::kLock;
  fx.h.bridge.enqueue(t);
  fx.h.script_reply(FlitType::kLock, FlitSubType::kAck, 0, 0, 0x70);
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(fx.h.completions.size(), 1u);
  EXPECT_EQ(fx.h.completions[0].purpose, TxPurpose::kLock);
}

TEST(Bridge, NackThrows) {
  Fx fx;
  Pif2NocBridge::Tx t;
  t.type = FlitType::kUnlock;
  t.addr = 0x70;
  t.purpose = TxPurpose::kUnlock;
  fx.h.bridge.enqueue(t);
  fx.h.script_reply(FlitType::kUnlock, FlitSubType::kNack, 0, 0, 0);
  EXPECT_THROW(fx.sched.run(100000), std::runtime_error);
}

TEST(Bridge, ReplyWithoutTransactionThrows) {
  Fx fx;
  // A stray reply with no transaction in flight is a protocol violation.
  noc::Flit stray;
  stray.type = FlitType::kSingleRead;
  stray.subtype = FlitSubType::kData;
  EXPECT_THROW(fx.h.bridge.rx(stray), std::runtime_error);
}

}  // namespace
}  // namespace medea::pe

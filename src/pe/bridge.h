#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "mem/memory_map.h"
#include "noc/flit.h"
#include "noc/network.h"
#include "sim/ring.h"
#include "sim/stats.h"
#include "sim/types.h"

/// \file bridge.h
/// The pif2NoC bridge: shared-memory interface of a core (paper §II-B).
///
/// The bridge translates PIF bus transactions into sequences of NoC flits
/// and back.  It supports single read/write and block transfers, keeps a
/// configuration map translating memory addresses to NoC destinations (in
/// the single-MPMMU configuration the destination is hardwired), and owns
/// the 4-entry reorder buffer that reassembles out-of-order block-read
/// flits (a 16-byte cache line = four 32-bit words).
///
/// Transactions run strictly in order, one at a time — the PIF bus is a
/// simple in-order protocol.  A small transaction queue (depth
/// `tx_queue_depth`) acts as the core's write buffer: fire-and-forget
/// transactions (write-through stores, cast-out writebacks) retire from
/// the core's point of view once queued.
///
/// Protocol per transaction (Fig. 4):
///   read:   Req(Address)                        -> Data flits
///   write:  Req(Address) -> Grant(Ack) -> Data… -> Ack
///   lock:   Req(Address)                        -> Ack (when granted)
///   unlock: Req(Address)                        -> Ack

namespace medea::pe {

/// Why a transaction was issued; tells the op engine what to do when the
/// transaction completes.
enum class TxPurpose : std::uint8_t {
  kLoadUncached,   // deliver word to the program
  kFill,           // install line into L1, then retry the access
  kWriteback,      // dirty eviction cast-out (no waiter)
  kWriteThrough,   // WT/uncached store (no waiter)
  kFlush,          // explicit DHWB writeback (program waits for Ack)
  kLock,
  kUnlock,
};

struct BridgeConfig {
  int tx_queue_depth = 2;
};

class Pif2NocBridge {
 public:
  struct Tx {
    std::uint64_t id = 0;
    noc::FlitType type = noc::FlitType::kSingleRead;
    mem::Addr addr = 0;
    std::array<std::uint32_t, mem::kWordsPerLine> data{};  // write payload
    int words = 1;
    TxPurpose purpose = TxPurpose::kLoadUncached;
  };

  struct Completion {
    std::uint64_t id = 0;
    TxPurpose purpose = TxPurpose::kLoadUncached;
    std::array<std::uint32_t, mem::kWordsPerLine> data{};  // read payload
    int words = 0;
  };

  Pif2NocBridge(noc::Network& net, int self_id, int mpmmu_id,
                const BridgeConfig& cfg, sim::StatSet& stats);

  bool can_enqueue() const {
    return queue_.size() < static_cast<std::size_t>(cfg_.tx_queue_depth);
  }

  /// Queue a transaction; returns its id.  Caller must check can_enqueue.
  std::uint64_t enqueue(Tx tx);

  /// Feed one reply flit from the NoC (Ack/Nack/Data addressed to us).
  void rx(const noc::Flit& f);

  /// One cycle of the transmit engine: emits at most one flit into `out`
  /// (the bridge-side register in front of the arbiter).
  void step_tx(sim::Ring<noc::Flit>& out);

  /// Completion handoff (at most one per cycle; engine is serial).
  std::optional<Completion> take_completion() {
    auto c = completion_;
    completion_.reset();
    return c;
  }

  /// Nothing queued, in flight, or waiting: memory fence condition.
  bool drained() const { return !cur_.has_value() && queue_.empty(); }
  bool busy_streaming() const;

 private:
  enum class State : std::uint8_t {
    kSendReq,
    kWaitGrant,
    kSendData,
    kWaitData,
    kWaitAck,
  };

  noc::Flit make_flit(noc::FlitSubType sub, std::uint8_t seq,
                      std::uint8_t burst, std::uint32_t data) const;
  void complete_current();

  noc::Network& net_;
  int self_id_;
  int mpmmu_id_;  // the address-map LUT of the paper, hardwired single node
  BridgeConfig cfg_;
  sim::StatSet& stats_;

  sim::Ring<Tx> queue_;
  std::optional<Tx> cur_;
  State state_ = State::kSendReq;
  int data_sent_ = 0;

  // The 4-entry reorder buffer for out-of-order block-read data (Fig. 3).
  std::array<std::uint32_t, mem::kWordsPerLine> reorder_{};
  std::uint32_t rx_mask_ = 0;

  std::optional<Completion> completion_;
  std::uint64_t next_id_ = 1;
};

}  // namespace medea::pe

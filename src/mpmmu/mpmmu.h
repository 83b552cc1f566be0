#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "mem/backing_store.h"
#include "mem/cache.h"
#include "mem/ddr.h"
#include "mem/memory_map.h"
#include "noc/network.h"
#include "sim/fifo.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

/// \file mpmmu.h
/// The Multiprocessor Memory Management Unit (paper §II-C).
///
/// The MPMMU is a special processor that serves all shared-memory
/// transactions of the system.  It is a pure slave: it only ever answers
/// transactions initiated by other processors.  Its NoC interface has
///  * a Pif-Request/Control FIFO (depth = number of processors) receiving
///    "request-for-transaction" tokens — single/block read/write requests
///    plus Lock and Unlock commands,
///  * a Pif-Data FIFO receiving the payload words of granted writes,
///  * one outgoing FIFO toward the NoC.
///
/// Protocols (Fig. 4):
///  * write:  Req -> Grant(Ack) -> Data... -> Ack
///  * read:   Req -> Data...
///
/// The request/data split gives implicit flow control: at most one write's
/// payload is in flight toward the MPMMU at any time, so the Pif-Data
/// queue stays tiny.  The engine serves one transaction at a time, which
/// is exactly the serialization bottleneck the paper's pure-shared-memory
/// results expose.
///
/// The MPMMU has a local (data) cache; read latency depends on whether the
/// word is resident or must come from DDR.  Word-granular lock/unlock with
/// FIFO waiter queueing implements the paper's critical-section support.

namespace medea::mpmmu {

struct MpmmuConfig {
  mem::CacheConfig cache{32 * 1024, mem::kLineBytes, 2,
                         mem::WritePolicy::kWriteBack};
  mem::DdrConfig ddr{};
  bool use_cache = true;
  /// Fixed engine occupancy per request token (decode + dispatch), cycles.
  std::uint32_t engine_overhead = 48;
  /// Latency of an MPMMU-cache hit, cycles.
  std::uint32_t cache_hit_latency = 2;
  /// Paper §IV future work ("MPMMU optimization"): when true, the engine
  /// accepts the next request while reply flits are still streaming out
  /// of the outgoing FIFO, instead of staying busy until the last flit
  /// leaves.  Read-heavy loads gain up to one reply-burst per transaction.
  bool pipelined_replies = false;
};

class Mpmmu : public sim::Component {
 public:
  /// `node_id` is the MPMMU's position in the NoC; `num_cores` sizes the
  /// Pif-Request queue as the paper specifies.
  Mpmmu(sim::Scheduler& sched, noc::Network& net, int node_id, int num_cores,
        const MpmmuConfig& cfg, mem::BackingStore& store);

  int node_id() const { return node_id_; }

  void tick(sim::Cycle now) override;

  sim::StatSet& stats() { return stats_; }
  const sim::StatSet& stats() const { return stats_; }
  const mem::Cache& cache() const { return cache_; }
  /// Mutable cache access for zero-time verification backdoors only.
  mem::Cache& cache_backdoor() { return cache_; }

  /// True when no transaction is in progress and all queues are empty
  /// (used by tests and by MedeaSystem quiescence checks).
  bool idle() const;

 private:
  enum class State : std::uint8_t {
    kIdle,
    kMemAccess,     // waiting for cache/DDR latency
    kSendReply,     // streaming reply flits, one per cycle
    kWriteCollect,  // waiting for the granted write's data flits
  };

  struct Transaction {
    noc::FlitType type = noc::FlitType::kSingleRead;
    std::uint8_t src = 0;
    mem::Addr addr = 0;
    int words_expected = 0;                  // write payload size
    std::uint32_t received_mask = 0;         // per-seq arrival mask
    std::array<std::uint32_t, mem::kWordsPerLine> data{};
  };

  struct LockEntry {
    bool held = false;
    std::uint8_t owner = 0;
    std::deque<std::uint8_t> waiters;
  };

  // NoC-facing helpers.
  void drain_network(sim::Cycle now);
  void push_reply(sim::Cycle now);
  noc::Flit make_reply(std::uint8_t dst_id, noc::FlitType type,
                       noc::FlitSubType sub, std::uint8_t seq,
                       std::uint8_t burst, std::uint32_t data,
                       sim::Cycle now) const;

  // Engine steps.
  void start_transaction(sim::Cycle now);
  void finish_mem_access(sim::Cycle now);
  std::uint32_t memory_read_latency(mem::Addr addr, int words);
  std::uint32_t memory_write_latency(mem::Addr addr, int words);
  std::uint32_t cached_line_touch(mem::Addr line_addr, bool for_write);

  void handle_lock(const Transaction& t, sim::Cycle now);
  void handle_unlock(const Transaction& t, sim::Cycle now);

  noc::Network& net_;
  int node_id_;
  int num_cores_;
  MpmmuConfig cfg_;
  mem::BackingStore& store_;
  mem::Cache cache_;

  sim::Fifo<noc::Flit> req_q_;
  sim::Fifo<noc::Flit> data_q_;
  // The outgoing FIFO of the paper maps onto reply_q_ (engine side) plus
  // the router's inject queue (wire side).
  sim::Ring<noc::Flit> reply_q_;

  State state_ = State::kIdle;
  sim::Cycle busy_until_ = 0;
  Transaction cur_{};
  std::map<mem::Addr, LockEntry> locks_;

  sim::StatSet stats_;
};

}  // namespace medea::mpmmu

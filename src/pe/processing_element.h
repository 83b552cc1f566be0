#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache.h"
#include "mem/memory_map.h"
#include "noc/network.h"
#include "pe/arbiter.h"
#include "pe/bridge.h"
#include "pe/tie_interface.h"
#include "sim/fifo.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/task.h"

/// \file processing_element.h
/// A MEDEA processing element: RISC core + L1 cache + TIE message-passing
/// port + pif2NoC bridge + NoC-access arbiter (paper §II-B, Fig. 3).
///
/// The paper runs real Xtensa-LX binaries inside its SystemC model.  Our
/// substitute keeps the *timing* contract while expressing core software
/// as C++20 coroutines: a program co_awaits typed operations and the PE
/// resumes it at the cycle the modelled hardware would have retired each
/// operation.  Per-operation costs follow the paper:
///
///   FP add/sub            19 cycles   (Tensilica DP emulation, §II-B)
///   FP multiply           26 cycles   ("Multiply High" configuration)
///   L1 hit (32-bit word)   1 cycle
///   L1 miss               block-read transaction over the NoC (Fig. 4)
///   MP send/receive        1 flit per cycle through the TIE port
///
/// Loads/stores address the global memory map: private segments are
/// cacheable with no coherence actions; the shared segment follows the
/// paper's software-managed discipline (flush-before-unlock on the
/// producer, invalidate/uncached reads on the consumer).

namespace medea::pe {

/// Double-precision FP timing (paper §II-B).
struct FpTiming {
  std::uint32_t add_cycles = 19;
  std::uint32_t mul_cycles = 26;  ///< 60 without the MulHigh option
};

struct PeConfig {
  mem::CacheConfig cache{};
  ArbiterConfig arbiter{};
  BridgeConfig bridge{};
  FpTiming fp{};
  /// Treat the shared segment as uncacheable (§II-E suggests this for
  /// large, frequently shared regions); private segments always cache.
  bool shared_uncached = false;
};

class ProcessingElement;

/// Operation descriptor co_awaited by core programs.
struct Op {
  enum class Kind : std::uint8_t {
    kCompute,
    kLoad,          // word load, cache-managed
    kLoadDouble,    // 8-byte aligned double load
    kStore,
    kStoreDouble,
    kLoadUncached,  // bypass L1 entirely (single-read transaction)
    kLoadDoubleUncached,
    kStoreUncached,
    kStoreDoubleUncached,
    kFlushLine,      // DHWB
    kInvalidateLine, // DII
    kLock,
    kUnlock,
    kFence,          // retire all outstanding stores/writebacks
    kMpSend,
    kMpRecv,
    kMpSendBlock,    // stream a memory block through the TIE port
    kMpRecvBlock,    // land packets in memory at 1 flit/cycle (Fig. 2-b)
  };
  Kind kind = Kind::kCompute;
  mem::Addr addr = 0;
  std::uint64_t value = 0;     // store payload
  std::uint32_t cycles = 0;    // compute duration
  int peer = -1;               // MP destination / source node id
  std::vector<std::uint32_t> words;  // MP payload (1..4 words)
};

/// Result of a completed operation.
struct OpResult {
  std::uint64_t value = 0;           // load result (lo word for doubles)
  std::vector<std::uint32_t> words;  // MP receive payload
};

/// Awaitable returned by the PE operation factories.
class OpAwaiter {
 public:
  OpAwaiter(ProcessingElement& pe, Op op) : pe_(&pe), op_(std::move(op)) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  OpResult await_resume();

 private:
  ProcessingElement* pe_;
  Op op_;
};

class ProcessingElement : public sim::Component {
 public:
  ProcessingElement(sim::Scheduler& sched, noc::Network& net, int node_id,
                    int rank, int mpmmu_node_id, const PeConfig& cfg,
                    const mem::MemoryMap& map);

  int node_id() const { return node_id_; }
  int rank() const { return rank_; }
  const mem::MemoryMap& memory_map() const { return map_; }
  const PeConfig& config() const { return cfg_; }

  /// Install and arm the core program; it starts at the next tick.
  void set_program(sim::Task<> program);
  bool program_done() const { return program_finished_; }

  /// Current simulation cycle (programs use this for timing sections).
  sim::Cycle now() const { return scheduler().now(); }

  // ------------------------------------------------------------------
  // Operation factories (the "ISA" visible to core programs)
  // ------------------------------------------------------------------
  [[nodiscard]] OpAwaiter compute(std::uint32_t cycles);
  [[nodiscard]] OpAwaiter fp_add() { return compute(cfg_.fp.add_cycles); }
  [[nodiscard]] OpAwaiter fp_mul() { return compute(cfg_.fp.mul_cycles); }
  /// n adds and m multiplies, batched into one compute delay.
  [[nodiscard]] OpAwaiter fp_block(int adds, int muls);

  [[nodiscard]] OpAwaiter load(mem::Addr a);
  [[nodiscard]] OpAwaiter store(mem::Addr a, std::uint32_t v);
  /// Explicit cache-bypass accesses (§II-E: uncached shared words, used
  /// e.g. for spin flags and lock words).
  [[nodiscard]] OpAwaiter load_uncached(mem::Addr a);
  [[nodiscard]] OpAwaiter store_uncached(mem::Addr a, std::uint32_t v);
  [[nodiscard]] OpAwaiter load_double(mem::Addr a);
  [[nodiscard]] OpAwaiter store_double(mem::Addr a, double v);
  [[nodiscard]] OpAwaiter flush_line(mem::Addr a);
  [[nodiscard]] OpAwaiter invalidate_line(mem::Addr a);
  [[nodiscard]] OpAwaiter lock(mem::Addr a);
  [[nodiscard]] OpAwaiter unlock(mem::Addr a);
  [[nodiscard]] OpAwaiter fence();

  /// One logic packet (1..4 words) to another node's TIE port.
  [[nodiscard]] OpAwaiter mp_send(int dst_node, std::vector<std::uint32_t> w);
  /// The next in-order logic packet from src_node (blocking).
  [[nodiscard]] OpAwaiter mp_recv(int src_node);

  /// Stream n_words of memory (cached private data or local scratchpad)
  /// through the TIE port as a train of logic packets: the paper's
  /// high-throughput path, one flit per cycle when the data is resident.
  [[nodiscard]] OpAwaiter mp_send_block(int dst_node, mem::Addr src,
                                        int n_words);
  /// Receive n_words into memory; incoming flits store directly by
  /// sequence-number offset (Fig. 2-b), one word per cycle.  `dst` is
  /// normally in the local scratchpad (the paper's packet data segment).
  [[nodiscard]] OpAwaiter mp_recv_block(int src_node, mem::Addr dst,
                                        int n_words);

  // ------------------------------------------------------------------
  void tick(sim::Cycle now) override;

  sim::StatSet& stats() { return stats_; }
  const sim::StatSet& stats() const { return stats_; }
  const mem::Cache& cache() const { return cache_; }
  mem::Cache& cache() { return cache_; }
  const TieInterface& tie() const { return tie_; }

  /// True when every queue/engine of this PE is empty (quiescence).
  bool drained() const;

  /// Zero-time access to the core-local scratchpad (workload setup and
  /// result extraction; simulated code uses ordinary load/store ops).
  std::uint32_t scratch_read_word(mem::Addr a) const;
  void scratch_write_word(mem::Addr a, std::uint32_t v);
  double scratch_read_double(mem::Addr a) const;
  void scratch_write_double(mem::Addr a, double v);

  // Internal: awaiter protocol.
  void submit(Op op, std::coroutine_handle<> h);
  OpResult take_result() { return std::move(result_); }

 private:
  enum class Phase : std::uint8_t {
    kNone,
    kTimed,           // completes at done_at_
    kAwaitTx,         // waiting for bridge transaction waiting_tx_
    kAwaitQueueSpace, // waiting for a bridge queue slot to issue
    kAwaitCredit,     // MP send blocked on flow-control credit
    kAwaitSendDrain,  // MP send streaming flits out of the TIE port
    kAwaitPacket,     // MP receive blocked on packet arrival
    kAwaitFence,      // waiting for the bridge to drain
  };

  // Op engine helpers.
  void start_op(sim::Cycle now);
  void progress_op(sim::Cycle now);
  void advance_mp_send_block(sim::Cycle now);
  void advance_mp_recv_block(sim::Cycle now);
  std::optional<std::uint32_t> read_word_any(mem::Addr a);  // cache or scratch
  void write_scratch_or_fail(mem::Addr a, std::uint32_t v);
  bool try_cache_access(sim::Cycle now);  // true when op retired/advanced
  void begin_fill(mem::Addr line_addr);
  void queue_fire_forget(Pif2NocBridge::Tx tx);
  void try_issue_stores(sim::Cycle now);
  void issue_uncached_read(mem::Addr a);
  void on_bridge_completion(const Pif2NocBridge::Completion& c,
                            sim::Cycle now);
  void complete_op(sim::Cycle now);
  void start_timer(sim::Cycle now, std::uint32_t cycles);
  bool is_cacheable(mem::Addr a) const;

  void drain_eject(sim::Cycle now);

  noc::Network& net_;
  int node_id_;
  int rank_;
  int mpmmu_id_;
  PeConfig cfg_;
  const mem::MemoryMap& map_;

  mem::Cache cache_;
  sim::StatSet stats_;
  TieInterface tie_;
  Pif2NocBridge bridge_;
  NocArbiter arbiter_;

  // Interface output registers in front of the arbiter (<=1 flit each).
  sim::Ring<noc::Flit> tie_out_{1};
  sim::Ring<noc::Flit> bridge_out_{1};
  // Victim buffer: cast-outs / write-throughs awaiting a bridge slot.
  sim::Ring<Pif2NocBridge::Tx> fire_forget_;

  sim::Task<> program_;
  bool program_armed_ = false;
  bool program_started_ = false;
  bool program_finished_ = false;

  // Single outstanding operation (simple in-order core).
  Op cur_op_{};
  Phase phase_ = Phase::kNone;
  std::coroutine_handle<> op_waiter_;
  sim::Cycle done_at_ = 0;
  std::uint64_t waiting_tx_ = 0;
  std::uint64_t next_tx_id_ = 1;
  mem::Addr pending_fill_addr_ = 0;
  int op_step_ = 0;  // sub-step for multi-transaction ops
  OpResult result_{};

  // Core-local data RAM (single-cycle, never cached, never on the NoC).
  // Holds the prefix written so far; every word past it reads as zero.
  std::vector<std::uint32_t> scratch_;
};

inline void OpAwaiter::await_suspend(std::coroutine_handle<> h) {
  pe_->submit(std::move(op_), h);
}

inline OpResult OpAwaiter::await_resume() { return pe_->take_result(); }

}  // namespace medea::pe

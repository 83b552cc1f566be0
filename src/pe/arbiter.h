#pragma once

#include <cstdint>

#include "noc/flit.h"
#include "sim/fifo.h"
#include "sim/ring.h"
#include "sim/stats.h"

/// \file arbiter.h
/// The NoC-access arbiter between a core's two network interfaces
/// (paper §II-B, Fig. 3).
///
/// The message-passing TIE port and the shared-memory pif2NoC bridge share
/// one physical injection port into the local switch.  The paper describes
/// three implementations, all reproduced here:
///
///  * kMux        — a bare multiplexer, no buffering: under contention one
///                  interface is granted, the other waits.
///  * kSingleFifo — one shared FIFO: both interfaces can keep queueing
///                  packets even when the switch is congested.
///  * kDualFifo   — two FIFOs, High-Priority and Best-Effort: the arbiter
///                  serves Best-Effort only when the High-Priority queue
///                  is empty.  Message-passing (synchronization) traffic
///                  rides the HP queue by default.
///
/// The arbiter is pure logic stepped by its owning ProcessingElement once
/// per cycle; at most one flit enters the switch per cycle.

namespace medea::pe {

enum class ArbiterKind : std::uint8_t { kMux, kSingleFifo, kDualFifo };

inline const char* to_string(ArbiterKind k) {
  switch (k) {
    case ArbiterKind::kMux: return "mux";
    case ArbiterKind::kSingleFifo: return "single-fifo";
    case ArbiterKind::kDualFifo: return "dual-fifo";
  }
  return "?";
}

struct ArbiterConfig {
  ArbiterKind kind = ArbiterKind::kDualFifo;
  int fifo_depth = 8;        ///< depth of each internal queue
  bool tie_high_priority = true;  ///< TIE rides the HP queue (kDualFifo)
};

class NocArbiter {
 public:
  NocArbiter(const ArbiterConfig& cfg, sim::StatSet& stats)
      : cfg_(cfg),
        stats_(stats),
        hp_(static_cast<std::size_t>(cfg.fifo_depth)),
        be_(static_cast<std::size_t>(cfg.fifo_depth)) {}

  const ArbiterConfig& config() const { return cfg_; }

  /// One cycle: move flits from the interface output registers (tie_q,
  /// bridge_q) toward the switch injection port.
  void step(sim::Fifo<noc::Flit>& inject, sim::Ring<noc::Flit>& tie_q,
            sim::Ring<noc::Flit>& bridge_q);

  /// Flits still parked in internal queues (kMux: always 0).
  std::size_t buffered() const { return hp_.size() + be_.size(); }
  bool busy() const { return buffered() != 0; }

 private:
  void drain_into(sim::Fifo<noc::Flit>& inject);

  ArbiterConfig cfg_;
  sim::StatSet& stats_;
  // Stat handles resolved once; step() runs every active PE cycle and
  // must not pay a string-keyed lookup per event.
  sim::Stat& st_stalls_ = stats_.counter("arb.stall_cycles");
  sim::Stat& st_contention_ = stats_.counter("arb.contention");
  sim::Stat& st_flits_ = stats_.counter("arb.flits");
  sim::Ring<noc::Flit> hp_;  // kSingleFifo uses hp_ as the single queue
  sim::Ring<noc::Flit> be_;
  bool rr_tie_next_ = true;   // round-robin pointer for contention
};

}  // namespace medea::pe
